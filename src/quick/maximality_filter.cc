#include "quick/maximality_filter.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <unordered_map>

#include "util/output.h"
#include "util/serde.h"

namespace qcm {

namespace {

// Comparison cost a std::sort of n elements would have paid, ~n*ceil(log2 n)
// -- the bookkeeping currency of the re-sorts the sorted-emission invariant
// makes unnecessary.
uint64_t SortCostEstimate(size_t n) {
  if (n < 2) return 0;
  uint64_t log2 = 0;
  for (size_t m = n - 1; m > 0; m >>= 1) ++log2;
  return static_cast<uint64_t>(n) * log2;
}

}  // namespace

std::vector<VertexSet> FilterMaximal(std::vector<VertexSet> sets,
                                     size_t* duplicates) {
  // The subset probe below (std::includes) requires each set sorted; the
  // sinks emit sorted sets, so this is an invariant check, not a re-sort.
#ifndef NDEBUG
  for (const VertexSet& s : sets) {
    assert(std::is_sorted(s.begin(), s.end()) &&
           "FilterMaximal input set violates the sorted-emission invariant");
  }
#endif
  // Exact dedup first.
  std::sort(sets.begin(), sets.end());
  const size_t before = sets.size();
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  if (duplicates != nullptr) *duplicates = before - sets.size();
  // Process larger sets first: any strict superset of a candidate is
  // already kept by the time the candidate is considered.
  std::stable_sort(sets.begin(), sets.end(),
                   [](const VertexSet& a, const VertexSet& b) {
                     return a.size() > b.size();
                   });

  std::vector<VertexSet> kept;
  // Inverted index: vertex -> indices of kept sets containing it.
  std::unordered_map<VertexId, std::vector<size_t>> index;
  for (VertexSet& s : sets) {
    if (s.empty()) continue;
    // Probe via the member contained in the fewest kept sets.
    VertexId probe = s[0];
    size_t probe_count = SIZE_MAX;
    for (VertexId v : s) {
      auto it = index.find(v);
      const size_t c = it == index.end() ? 0 : it->second.size();
      if (c < probe_count) {
        probe_count = c;
        probe = v;
      }
    }
    bool subsumed = false;
    if (probe_count > 0) {
      for (size_t idx : index[probe]) {
        const VertexSet& t = kept[idx];
        if (t.size() > s.size() &&
            std::includes(t.begin(), t.end(), s.begin(), s.end())) {
          subsumed = true;
          break;
        }
      }
    }
    if (subsumed) continue;
    const size_t idx = kept.size();
    kept.push_back(std::move(s));
    for (VertexId v : kept.back()) index[v].push_back(idx);
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

void CanonicalizeResults(std::vector<VertexSet>* sets,
                         CanonicalizeStats* stats) {
  CanonicalizeStats local;
  for (VertexSet& s : *sets) {
    if (std::is_sorted(s.begin(), s.end())) {
      ++local.sets_already_sorted;
      local.comparisons_saved += SortCostEstimate(s.size());
    } else {
      // Every emission path sorts; an unsorted set here means a sink
      // contract violation upstream.
      assert(false && "result set violates the sorted-emission invariant");
      ++local.sets_resorted;
      std::sort(s.begin(), s.end());
    }
  }
  if (std::is_sorted(sets->begin(), sets->end())) {
    // FilterMaximal already returns lexicographic order; verifying costs
    // n-1 comparisons instead of the n*log2 n a blind sort would.
    local.vector_sort_skipped = 1;
    local.comparisons_saved += SortCostEstimate(sets->size());
  } else {
    std::sort(sets->begin(), sets->end());
  }
  if (stats != nullptr) *stats = local;
}

uint64_t ResultSetDigest(const std::vector<VertexSet>& sets) {
  Encoder enc;
  enc.PutU64(sets.size());
  for (const VertexSet& s : sets) enc.PutU32Vector(s);
  return Fingerprint(enc.buffer());
}

StatusOr<uint64_t> EmitCanonicalResults(std::vector<VertexSet>* sets,
                                        const std::string& output_path,
                                        const IdMap& file_ids,
                                        CanonicalizeStats* canon_stats) {
  CanonicalizeResults(sets, canon_stats);
  const uint64_t digest = ResultSetDigest(*sets);
  std::fprintf(stderr, "result-digest: %016llx\n",
               static_cast<unsigned long long>(digest));
  if (!output_path.empty()) {
    auto f = OpenOutput(output_path);
    QCM_RETURN_IF_ERROR(f.status());
    for (const VertexSet& s : *sets) {
      for (size_t i = 0; i < s.size(); ++i) {
        std::fprintf(*f, "%s%llu", i ? " " : "",
                     static_cast<unsigned long long>(file_ids[s[i]]));
      }
      std::fprintf(*f, "\n");
    }
    QCM_RETURN_IF_ERROR(CloseOutput(*f, output_path));
  }
  return digest;
}

}  // namespace qcm
