// Maximality postprocessing (paper §3.1): the set-enumeration tasks cannot
// see results found under other roots, so the union of all emitted
// candidates may contain duplicates and non-maximal sets. This filter
// removes both, leaving exactly the maximal quasi-cliques -- correct
// because the miner is guaranteed to emit every *maximal* one.
//
// The same argument lets the engine run it twice: QCApp filters each
// task's own candidates before they reach the comper's sink (dropping a
// set another candidate strictly contains never drops a maximal one), and
// the one global pass over every task's survivors yields the result set.

#ifndef QCM_QUICK_MAXIMALITY_FILTER_H_
#define QCM_QUICK_MAXIMALITY_FILTER_H_

#include <vector>

#include "graph/id_map.h"
#include "quick/quasi_clique.h"

namespace qcm {

/// Removes duplicates and sets that are strict subsets of another set.
/// Input sets must be sorted ascending (the sink contract). Output is
/// sorted lexicographically for determinism. When `duplicates` is
/// non-null it receives the number of exact-duplicate candidates removed
/// -- after a rank recovery this counts the doubly-mined results whose
/// suppression keeps the final digest identical to a crash-free run.
std::vector<VertexSet> FilterMaximal(std::vector<VertexSet> sets,
                                     size_t* duplicates = nullptr);

/// What CanonicalizeResults actually had to do. Every set reaching it is
/// sorted at emission (ResultSink contract) and FilterMaximal returns a
/// lexicographically sorted vector, so in the steady state canonicalization
/// verifies invariants instead of re-sorting -- these counters prove it.
struct CanonicalizeStats {
  uint64_t sets_already_sorted = 0;  // per-set re-sorts skipped
  uint64_t sets_resorted = 0;        // sink-contract violations (debug: assert)
  uint64_t vector_sort_skipped = 0;  // 1 iff the whole-vector sort was skipped
  uint64_t comparisons_saved = 0;    // ~n*ceil(log2 n) per skipped sort
};

/// Canonical form for comparing result sets across runs and deployments:
/// every set sorted ascending, the sets sorted lexicographically.
/// Sets arrive sorted (emission invariant) and FilterMaximal output is
/// already fully canonical, so this asserts/verifies instead of re-sorting
/// wherever possible; `stats` (optional) reports the comparisons saved.
/// A per-set violation asserts in debug builds and falls back to sorting
/// in release builds.
void CanonicalizeResults(std::vector<VertexSet>* sets,
                         CanonicalizeStats* stats = nullptr);

/// Order-sensitive FNV-1a digest over a canonical result set; two runs
/// mined the same quasi-cliques iff their digests match (both tools print
/// it, and the end-to-end tests compare a multi-process run against
/// qcm_mine by it).
uint64_t ResultSetDigest(const std::vector<VertexSet>& sets);

/// The one implementation of canonical result emission shared by
/// qcm_mine and qcm_cluster: canonicalizes `*sets` in place, prints
/// "result-digest: <16 hex>" on stderr, and -- when `output_path` is
/// non-empty -- writes one space-separated set per line ("-" = stdout),
/// each vertex v as file_ids[v], the id the input file named it by (the
/// identity by default).
/// The order and the digest are those of the dense ids; every map a
/// loader builds is increasing, so the lines are in canonical order of
/// the file's ids too. ClusterParityTest (tests/cluster_e2e_test.cc)
/// compares these exact bytes across the two tools, so the format must
/// never drift between them.
/// Returns the digest, or IOError naming the path when the output cannot
/// be opened or written in full.
/// `canon_stats` (optional) receives the CanonicalizeResults counters.
StatusOr<uint64_t> EmitCanonicalResults(std::vector<VertexSet>* sets,
                                        const std::string& output_path,
                                        const IdMap& file_ids = {},
                                        CanonicalizeStats* canon_stats =
                                            nullptr);

}  // namespace qcm

#endif  // QCM_QUICK_MAXIMALITY_FILTER_H_
