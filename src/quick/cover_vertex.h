// Cover-vertex pruning (P7, Eq. 9): finds the vertex u in ext(S) whose
// cover set C_S(u) is largest. Extensions of S confined to C_S(u) cannot be
// maximal (adding u keeps them valid), so the recursive miner moves C_S(u)
// to the tail of ext(S) and never uses its members as the branching vertex.

#ifndef QCM_QUICK_COVER_VERTEX_H_
#define QCM_QUICK_COVER_VERTEX_H_

#include <vector>

#include "quick/mining_context.h"

namespace qcm {

/// Replaces *best with C_S(u*) for the u* in ext maximizing |C_S(u)|, or
/// empties it when no vertex qualifies (or the rule is disabled).
///
/// A vertex u qualifies only if dS(u) >= ceil(gamma |S|) and every
/// v in S \ Gamma(u) has dS(v) >= ceil(gamma |S|) (paper §3.2 P7).
/// Computes its own degree information into the context's pooled kernel
/// buffers; usable outside IterativeBounding. `best` must not alias s or
/// ext. Element order of the set is unspecified (the dense and sparse
/// kernels order it differently); callers use only membership and size.
void FindBestCoverSet(MiningContext& ctx, const std::vector<LocalId>& s,
                      const std::vector<LocalId>& ext,
                      std::vector<LocalId>* best);

}  // namespace qcm

#endif  // QCM_QUICK_COVER_VERTEX_H_
