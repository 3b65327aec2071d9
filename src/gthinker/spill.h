// Disk spilling of task batches (paper §5): when an in-memory task queue
// overflows, a batch of C tasks at its tail (EncodeTaskBatch's bytes,
// gthinker/task_queue.h) is written to a file; when a queue runs low it
// refills from the most recent file first (LIFO keeps the on-disk volume
// small, matching G-thinker's "minimize the task volume on disks"). A file
// holds its batch framed once: magic, length and checksum, then the bytes.
// One SpillManager backs L_small (per machine, fed by the local queues)
// and another backs L_big (fed by the machine's global queue).

#ifndef QCM_GTHINKER_SPILL_H_
#define QCM_GTHINKER_SPILL_H_

#include <mutex>
#include <string>
#include <vector>

#include "gthinker/metrics.h"
#include "util/status.h"

namespace qcm {

class SpillManager {
 public:
  /// Files are created as `dir/tag_<seq>.spill`. `counters` may be null.
  SpillManager(std::string dir, std::string tag, EngineCounters* counters);

  /// Writes one encoded batch of `task_count` tasks as a new spill file.
  /// A batch of no tasks writes nothing.
  Status SpillBatch(const std::string& batch, size_t task_count);

  /// Pops the most recently spilled batch; empty if none is on disk. A
  /// file that cannot be opened is IOError, and one that does not hold
  /// exactly one intact framed batch is Corruption; both name the file.
  StatusOr<std::string> PopBatch();

  /// Number of spill files currently on disk.
  size_t FileCount() const;

  /// Total tasks currently buffered on disk.
  uint64_t PendingTasks() const;

  /// Removes all remaining spill files (end-of-run cleanup).
  void RemoveAll();

 private:
  struct FileEntry {
    std::string path;
    size_t task_count;
  };

  std::string dir_;
  std::string tag_;
  EngineCounters* counters_;

  mutable std::mutex mu_;
  std::vector<FileEntry> files_;
  uint64_t seq_ = 0;
  uint64_t pending_tasks_ = 0;
};

}  // namespace qcm

#endif  // QCM_GTHINKER_SPILL_H_
