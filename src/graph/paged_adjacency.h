// Buffer-managed paged adjacency storage over a CsrSnapshot mmap -- the
// out-of-core half of the graph store (kuzu-style Lists paging adapted to
// a read-only CSR): a rank can mine a partition whose adjacency bytes
// exceed its --graph-memory-budget, because adjacency pages are faulted
// in on demand and evicted with madvise(MADV_DONTNEED) under a CLOCK
// second-chance policy (the same eviction discipline VertexCache uses for
// remote adjacencies, applied to local pages).
//
// Residency model: the snapshot mapping is read-only and file-backed, so
// "eviction" only drops the physical page -- a later access transparently
// refaults identical bytes. Spans returned by Adjacency() therefore stay
// valid for the store's lifetime (the EgoVertexSource contract only
// requires validity until the next call, so this is strictly stronger),
// and concurrent compers never see a dangling pointer; the budget bounds
// resident set size, not correctness.
//
// Small-list / large-list split: lists of at most `inline_degree` entries
// are copied once into a resident arena at construction (serving a
// 32-byte list should not pin and thrash a whole page under a tight
// budget); longer lists are served from the mapping through the pager. A
// zero budget disables paging entirely: every list is a direct mmap span
// with no locking (the default, full-speed resident mode).

#ifndef QCM_GRAPH_PAGED_ADJACENCY_H_
#define QCM_GRAPH_PAGED_ADJACENCY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/graph.h"

namespace qcm {

struct PagedStoreConfig {
  /// Adjacency residency budget in bytes; 0 = fully resident (no paging).
  uint64_t memory_budget_bytes = 0;
  /// Lists with at most this many entries live in the resident arena.
  uint32_t inline_degree = 8;
  int num_machines = 1;
  /// Rank whose partition this store serves.
  int local_rank = 0;
};

/// Counter snapshot; mirrors into EngineCountersSnapshot for the report.
struct PagedStoreStatsSnapshot {
  uint64_t page_pins = 0;         // page references taken through the pager
  uint64_t page_ins = 0;          // pages faulted into the frame pool
  uint64_t page_evictions = 0;    // pages dropped via MADV_DONTNEED
  uint64_t fault_stall_usec = 0;  // wall time blocked on page-in faults
  uint64_t inline_served = 0;     // reads served by the inline arena
  uint64_t resident_pages = 0;    // frames currently tracked resident
  uint64_t frame_capacity = 0;    // budget in pages
  uint64_t inline_bytes = 0;      // resident arena footprint
};

class PagedAdjacencyStore {
 public:
  PagedAdjacencyStore(std::shared_ptr<CsrSnapshot> snapshot,
                      const PagedStoreConfig& config);

  /// Sorted adjacency of v (which must belong to this store's
  /// partition). Thread-safe; the returned span stays valid
  /// for the store's lifetime regardless of later evictions.
  std::span<const VertexId> Adjacency(VertexId v);

  uint32_t Degree(VertexId v) const { return snapshot_->Degree(v); }

  bool paging_enabled() const { return config_.memory_budget_bytes > 0; }
  uint64_t budget_bytes() const { return config_.memory_budget_bytes; }
  uint64_t inline_arena_bytes() const {
    return arena_.size() * sizeof(VertexId) +
           arena_offsets_.size() * sizeof(uint64_t);
  }

  PagedStoreStatsSnapshot stats() const;

 private:
  struct Frame {
    uint32_t page = 0;  // file page index
    uint8_t ref = 0;    // CLOCK reference bit
    uint32_t pins = 0;  // faulting readers; never evicted while > 0
  };

  bool Owned(VertexId v) const {
    return static_cast<int>(v % static_cast<uint32_t>(
                                    config_.num_machines)) ==
           config_.local_rank;
  }

  /// Ensures file page `page` has a frame; returns whether this call
  /// faulted it in (the caller must touch it and then Unpin). Called and
  /// returns with mu_ held for the bookkeeping, but the actual touch
  /// happens outside the lock under the pin.
  bool PinPage(uint32_t page);
  void UnpinPage(uint32_t page);

  std::shared_ptr<CsrSnapshot> snapshot_;
  PagedStoreConfig config_;
  uint64_t page_size_ = 0;
  uint64_t adj_file_offset_ = 0;  // adjacency section start in the file
  size_t frame_capacity_ = 0;

  // Inline arena: rows only for owned lists with degree <= inline_degree
  // (other rows have zero extent). Built once; immutable afterwards.
  std::vector<VertexId> arena_;
  std::vector<uint64_t> arena_offsets_;  // size NumVertices()+1

  mutable std::mutex mu_;
  std::unordered_map<uint32_t, size_t> slot_of_page_;
  std::vector<Frame> frames_;  // CLOCK ring; may transiently overflow
                               // capacity while every frame is pinned
  size_t clock_hand_ = 0;

  std::atomic<uint64_t> page_pins_{0};
  std::atomic<uint64_t> page_ins_{0};
  std::atomic<uint64_t> page_evictions_{0};
  std::atomic<uint64_t> fault_stall_usec_{0};
  std::atomic<uint64_t> inline_served_{0};
};

}  // namespace qcm

#endif  // QCM_GRAPH_PAGED_ADJACENCY_H_
