// Durable per-rank mining progress for worker fault tolerance.
//
// Each rank keeps ONE append-only log at <checkpoint_dir>/rank<R>/log.
// Records are framed [type u8][len u32][payload][FNV-1a u64 of payload]
// and come in two types: a kResultRecord carries one emitted maximal-
// candidate vertex set, a kRootDoneRecord marks one spawn root as fully
// mined (every task of its subtree reached kDone on this rank, none were
// shipped away). A replacement worker of the same rank replays the log:
// result records become recovered results appended to its final report,
// root-done records become spawn roots it skips entirely.
//
// Durability model: appends are buffered in the process's stdio buffer
// and flushed to the kernel page cache every checkpoint_interval_sec.
// A SIGKILL (the failure this subsystem exists for) does not lose page-
// cache bytes, so no fsync is needed; only whatever sat in the stdio
// buffer since the last flush is lost, and the single in-order stream
// guarantees a root-done record can never become durable before the
// result records of its subtree -- a lost tail therefore only means the
// replacement re-mines those roots, and the exact duplicate-set dedup in
// FilterMaximal makes the doubly-mined results harmless. A torn tail
// (flush cut mid-record) is detected by the length/checksum framing and
// discarded on load.

#ifndef QCM_GTHINKER_CHECKPOINT_H_
#define QCM_GTHINKER_CHECKPOINT_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/graph.h"
#include "quick/quasi_clique.h"
#include "util/status.h"

namespace qcm {

class CheckpointLog {
 public:
  static constexpr uint8_t kResultRecord = 1;
  static constexpr uint8_t kRootDoneRecord = 2;

  /// What a replacement worker recovers from its predecessor's log.
  struct LoadResult {
    std::vector<VertexSet> results;
    std::unordered_set<VertexId> completed_roots;
    uint64_t records = 0;
    /// Bytes discarded at the tail (torn or corrupt final record).
    uint64_t torn_bytes = 0;
  };

  CheckpointLog() = default;
  ~CheckpointLog();
  CheckpointLog(const CheckpointLog&) = delete;
  CheckpointLog& operator=(const CheckpointLog&) = delete;

  /// Opens <dir>/log (creating <dir> if needed). Epoch 0 truncates any
  /// stale log from a previous run; epoch > 0 first replays the previous
  /// incarnation's records into *replay, then appends after the last
  /// intact record.
  Status Open(const std::string& dir, uint32_t epoch,
              double flush_interval_sec, LoadResult* replay);

  bool is_open() const { return file_ != nullptr; }

  /// Thread-safe appends; each may trigger an interval-driven flush.
  void AppendResult(const VertexSet& result);
  void AppendRootDone(VertexId root);

  /// Forces buffered records to the page cache.
  void Flush();

  uint64_t flushes() const;
  uint64_t bytes_appended() const;

  /// Record codec, exposed so tests can byte-pin the on-disk format.
  static std::string EncodeResultRecord(const VertexSet& result);
  static std::string EncodeRootDoneRecord(VertexId root);
  /// Parses records from `bytes` until the end or the first torn/corrupt
  /// record (everything after it is counted into torn_bytes -- a cut can
  /// only be at the tail because appends are a single in-order stream).
  static void ParseRecords(const std::string& bytes, LoadResult* out);

 private:
  void AppendLocked(const std::string& record);

  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  int64_t flush_interval_usec_ = 0;
  int64_t last_flush_usec_ = 0;
  uint64_t flushes_ = 0;
  uint64_t bytes_appended_ = 0;
};

/// Tracks, per locally-spawned root, how many of its subtree's tasks are
/// still outstanding on this rank, and appends a kRootDoneRecord the
/// moment the last one completes -- unless any task of the subtree was
/// shipped to another rank ("tainted"): a shipped task's completion is
/// invisible here, so a tainted root is never declared done and a
/// replacement re-mines it in full (the exact-duplicate dedup downstream
/// absorbs the overlap). Roots stolen IN from other ranks are absent from
/// the map and every call is a no-op for them; owned-root sets are
/// disjoint across ranks, so membership is unambiguous.
class RootProgress {
 public:
  explicit RootProgress(CheckpointLog* log) : log_(log) {}

  /// A root task was spawned locally: subtree outstanding = 1.
  void OnSpawn(VertexId root);
  /// A decomposition added one more task under `root` (no-op if the root
  /// is not locally tracked -- its subtask came from a stolen-in task).
  void OnSubtask(VertexId root);
  /// One task under `root` reached kDone. The final mutex-ordered
  /// decrement happens-after every sibling task's result append, so the
  /// root-done record it writes is always ordered after all of the
  /// subtree's results in the log.
  void OnTaskDone(VertexId root);
  /// A task under `root` was shipped to another rank.
  void Taint(VertexId root);

  size_t tracked() const;

 private:
  struct State {
    uint64_t outstanding = 0;
    bool tainted = false;
  };
  mutable std::mutex mu_;
  std::unordered_map<VertexId, State> roots_;
  CheckpointLog* log_;
};

}  // namespace qcm

#endif  // QCM_GTHINKER_CHECKPOINT_H_
