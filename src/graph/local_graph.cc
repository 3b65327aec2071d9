#include "graph/local_graph.h"

#include <algorithm>
#include <deque>

namespace qcm {

LocalId LocalGraph::FindLocal(VertexId global) const {
  auto it = std::lower_bound(vids_.begin(), vids_.end(), global);
  if (it == vids_.end() || *it != global) return n();
  return static_cast<LocalId>(it - vids_.begin());
}

bool LocalGraph::HasEdge(LocalId u, LocalId v) const {
  if (Degree(u) > Degree(v)) std::swap(u, v);
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

LocalGraph LocalGraph::Induce(const std::vector<LocalId>& keep) const {
  LocalGraph out;
  const uint32_t old_n = n();
  const uint32_t new_n = static_cast<uint32_t>(keep.size());
  // old local id -> new local id (new_n = absent).
  std::vector<LocalId> remap(old_n, new_n);
  out.vids_.reserve(new_n);
  for (uint32_t i = 0; i < new_n; ++i) {
    remap[keep[i]] = i;
    out.vids_.push_back(vids_[keep[i]]);
  }
  out.offsets_.assign(new_n + 1, 0);
  // First pass: count surviving adjacency entries.
  for (uint32_t i = 0; i < new_n; ++i) {
    uint32_t count = 0;
    for (LocalId w : Neighbors(keep[i])) {
      if (remap[w] != new_n) ++count;
    }
    out.offsets_[i + 1] = out.offsets_[i] + count;
  }
  out.adj_.resize(out.offsets_[new_n]);
  for (uint32_t i = 0; i < new_n; ++i) {
    uint32_t pos = out.offsets_[i];
    for (LocalId w : Neighbors(keep[i])) {
      if (remap[w] != new_n) out.adj_[pos++] = remap[w];
    }
    // Source adjacency is sorted ascending and remap is monotone over kept
    // ids, so the output range is already sorted.
  }
  // The induced subgraph is never larger than its source, so a dense source
  // keeps its decomposed tasks (Alg. 8/10) on the dense kernel path too.
  if (has_dense()) out.BuildDenseRows();
  return out;
}

void LocalGraph::BuildDenseRows() {
  const uint32_t nn = n();
  if (nn == 0 || dense_words_ != 0) return;
  dense_words_ = (nn + 63) / 64;
  dense_bits_.assign(static_cast<size_t>(nn) * dense_words_, 0);
  for (LocalId v = 0; v < nn; ++v) {
    uint64_t* row = dense_bits_.data() + static_cast<size_t>(v) * dense_words_;
    for (LocalId w : Neighbors(v)) {
      row[w >> 6] |= uint64_t{1} << (w & 63);
    }
  }
}

LocalGraph LocalGraph::KCore(uint32_t k) const {
  const uint32_t nn = n();
  std::vector<uint32_t> degree(nn);
  std::vector<uint8_t> alive(nn, 1);
  std::deque<LocalId> queue;
  for (LocalId v = 0; v < nn; ++v) {
    degree[v] = Degree(v);
    if (degree[v] < k) {
      alive[v] = 0;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    LocalId v = queue.front();
    queue.pop_front();
    for (LocalId u : Neighbors(v)) {
      if (alive[u] && --degree[u] < k) {
        alive[u] = 0;
        queue.push_back(u);
      }
    }
  }
  std::vector<LocalId> keep;
  keep.reserve(nn);
  for (LocalId v = 0; v < nn; ++v) {
    if (alive[v]) keep.push_back(v);
  }
  if (keep.size() == nn) return *this;
  return Induce(keep);
}

void LocalGraph::Encode(Encoder* enc) const {
  enc->PutU32Vector(vids_);
  enc->PutU32Vector(offsets_);
  enc->PutU32Vector(adj_);
}

StatusOr<LocalGraph> LocalGraph::Decode(Decoder* dec) {
  LocalGraph g;
  QCM_RETURN_IF_ERROR(dec->GetU32Vector(&g.vids_));
  QCM_RETURN_IF_ERROR(dec->GetU32Vector(&g.offsets_));
  QCM_RETURN_IF_ERROR(dec->GetU32Vector(&g.adj_));
  // Structural validation: decoded blobs come from disk spill files.
  // FindLocal binary-searches vids, so they must be strictly increasing.
  for (size_t i = 1; i < g.vids_.size(); ++i) {
    if (g.vids_[i] <= g.vids_[i - 1]) {
      return Status::Corruption("LocalGraph: vids not strictly increasing");
    }
  }
  if (g.offsets_.size() != g.vids_.size() + 1 &&
      !(g.vids_.empty() && g.offsets_.empty())) {
    return Status::Corruption("LocalGraph: offsets/vids size mismatch");
  }
  if (!g.offsets_.empty()) {
    if (g.offsets_.front() != 0 || g.offsets_.back() != g.adj_.size()) {
      return Status::Corruption("LocalGraph: bad offset bounds");
    }
    for (size_t i = 1; i < g.offsets_.size(); ++i) {
      if (g.offsets_[i] < g.offsets_[i - 1]) {
        return Status::Corruption("LocalGraph: offsets not monotone");
      }
    }
    for (LocalId t : g.adj_) {
      if (t >= g.vids_.size()) {
        return Status::Corruption("LocalGraph: adjacency target out of range");
      }
    }
  } else if (!g.adj_.empty()) {
    return Status::Corruption("LocalGraph: adjacency without vertices");
  }
  return g;
}

}  // namespace qcm
