#include "gthinker/spill.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/serde.h"

namespace qcm {

SpillManager::SpillManager(std::string dir, std::string tag,
                           EngineCounters* counters)
    : dir_(std::move(dir)), tag_(std::move(tag)), counters_(counters) {}

Status SpillManager::SpillBatch(const std::string& batch,
                                size_t task_count) {
  if (task_count == 0) return Status::OK();
  std::string file;
  AppendFramedBlob(batch, &file);
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    path = dir_ + "/" + tag_ + "_" + std::to_string(seq_++) + ".spill";
  }
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("spill: cannot create " + path + ": " +
                           std::strerror(errno));
  }
  const size_t written = std::fwrite(file.data(), 1, file.size(), f);
  if (std::fclose(f) != 0 || written != file.size()) {
    return Status::IOError("spill: short write to " + path);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    files_.push_back({path, task_count});
    pending_tasks_ += task_count;
  }
  if (counters_ != nullptr) {
    counters_->spill_files.fetch_add(1, std::memory_order_relaxed);
    counters_->spilled_tasks.fetch_add(task_count, std::memory_order_relaxed);
    counters_->spill_bytes_written.fetch_add(file.size(),
                                             std::memory_order_relaxed);
  }
  return Status::OK();
}

StatusOr<std::string> SpillManager::PopBatch() {
  FileEntry entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (files_.empty()) return std::string();
    entry = std::move(files_.back());
    files_.pop_back();
    pending_tasks_ -= entry.task_count;
  }
  FILE* f = std::fopen(entry.path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("spill: cannot open " + entry.path + ": " +
                           std::strerror(errno));
  }
  std::string file;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    file.append(buf, got);
  }
  std::fclose(f);
  std::remove(entry.path.c_str());

  std::string batch;
  size_t pos = 0;
  Status s = ReadFramedBlob(file, &pos, &batch);
  if (s.ok() && pos != file.size()) {
    s = Status::Corruption(std::to_string(file.size() - pos) +
                           " bytes after the framed batch");
  }
  if (!s.ok()) {
    return Status::Corruption("spill file " + entry.path + ": " +
                              s.message());
  }
  if (counters_ != nullptr) {
    counters_->spill_bytes_read.fetch_add(file.size(),
                                          std::memory_order_relaxed);
  }
  return batch;
}

size_t SpillManager::FileCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.size();
}

uint64_t SpillManager::PendingTasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_tasks_;
}

void SpillManager::RemoveAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const FileEntry& e : files_) {
    std::remove(e.path.c_str());
  }
  files_.clear();
  pending_tasks_ = 0;
}

}  // namespace qcm
