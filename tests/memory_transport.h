// An in-memory Transport for unit tests: the ranks of one MemoryNetwork
// live in one process, and SendData hands each frame straight to the
// destination rank's data handler on the sender's thread. There is no
// coordinator and no control plane, except that a world of one can ask
// to be terminated as soon as its rank reports itself idle (which, with
// no peers, is global quiescence).

#ifndef QCM_TESTS_MEMORY_TRANSPORT_H_
#define QCM_TESTS_MEMORY_TRANSPORT_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "net/transport.h"

namespace qcm {

class MemoryNetwork {
 public:
  explicit MemoryNetwork(int world_size) {
    for (int r = 0; r < world_size; ++r) {
      ranks_.push_back(std::make_unique<Rank>(this, r));
    }
  }

  /// Rank `r`'s transport.
  Transport* at(int r) { return ranks_[r].get(); }

  /// World of one only: fire on_terminate once the rank publishes a
  /// status with spawning done and no pending task.
  void TerminateWhenIdle() { terminate_when_idle_ = true; }

 private:
  class Rank : public Transport {
   public:
    Rank(MemoryNetwork* net, int rank) : net_(net), rank_(rank) {}

    int rank() const override { return rank_; }
    int world_size() const override {
      return static_cast<int>(net_->ranks_.size());
    }
    void SetDataHandler(DataHandler handler) override {
      handler_ = std::move(handler);
    }
    void SetControlHooks(ControlHooks hooks) override {
      hooks_ = std::move(hooks);
    }
    Status Start() override { return Status::OK(); }
    Status SendData(int dst, uint8_t type, std::string payload) override {
      frames_sent_.fetch_add(1);
      net_->ranks_[dst]->handler_(rank_, type, std::move(payload), 0);
      return Status::OK();
    }
    uint64_t DataFramesSent() const override { return frames_sent_.load(); }
    void PublishStatus(const RankStatus& s) override {
      if (net_->terminate_when_idle_ && s.spawn_done && s.pending == 0) {
        hooks_.on_terminate();
      }
    }

   private:
    MemoryNetwork* net_;
    int rank_;
    DataHandler handler_;
    ControlHooks hooks_;
    std::atomic<uint64_t> frames_sent_{0};
  };

  std::vector<std::unique_ptr<Rank>> ranks_;
  bool terminate_when_idle_ = false;
};

}  // namespace qcm

#endif  // QCM_TESTS_MEMORY_TRANSPORT_H_
