// A two-task probe app for where vertex pulls are answered (paper §5: a
// communication thread serves vertex requests, never a comper). The
// owner machine's only comper blocks inside Compute until the requester's
// task has had its pull of an owner vertex delivered. If only a comper
// could answer the request, the owner waits out its bound instead and
// records that the pull was not answered while it was busy -- a broken
// build fails rather than hangs.
//
// Shared by the simulated-mode engine test and the 3-rank TCP test; the
// app is stateless apart from the probe, so every rank's engine can run
// its own instance over one probe.

#ifndef QCM_TESTS_BUSY_OWNER_APP_H_
#define QCM_TESTS_BUSY_OWNER_APP_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "gthinker/task.h"
#include "util/serde.h"
#include "util/timer.h"

namespace qcm {

struct BusyOwnerProbe {
  /// The owner's task is inside Compute, holding its machine's comper.
  std::atomic<bool> owner_busy{false};
  /// The requester's task read the pulled adjacency.
  std::atomic<bool> pull_delivered{false};
  /// The owner's verdict: the pull was delivered while it was busy.
  std::atomic<bool> answered_while_busy{false};
};

class BusyOwnerApp : public App {
 public:
  /// `requester_root`'s task pulls `pulled`, a vertex of
  /// `owner_root`'s machine, once `owner_root`'s task is busy; every wait
  /// gives up after `wait_sec`.
  BusyOwnerApp(BusyOwnerProbe* probe, VertexId requester_root,
               VertexId owner_root, VertexId pulled, double wait_sec)
      : probe_(probe),
        requester_root_(requester_root),
        owner_root_(owner_root),
        pulled_(pulled),
        wait_sec_(wait_sec) {}

  TaskPtr Spawn(VertexId v, ComputeContext& ctx) override {
    (void)ctx;
    if (v != requester_root_ && v != owner_root_) return nullptr;
    return std::make_unique<ProbeTask>(v);
  }

  ComputeStatus Compute(Task& task, ComputeContext& ctx) override {
    if (task.root() == owner_root_) {
      probe_->owner_busy.store(true);
      probe_->answered_while_busy.store(Await(probe_->pull_delivered));
      return ComputeStatus::kDone;
    }
    Await(probe_->owner_busy);
    if (!ctx.Request(pulled_)) return ComputeStatus::kSuspended;
    // Emits the pair when the delivered adjacency holds the edge back to
    // the root (the tests' graphs have it).
    AdjRef adj = ctx.Fetch(pulled_);
    for (VertexId u : adj.adj) {
      if (u == task.root()) ctx.sink().Emit({task.root(), pulled_});
    }
    probe_->pull_delivered.store(true);
    return ComputeStatus::kDone;
  }

  StatusOr<TaskPtr> DecodeTask(Decoder* dec) const override {
    VertexId root = 0;
    QCM_RETURN_IF_ERROR(dec->GetU32(&root));
    return TaskPtr(std::make_unique<ProbeTask>(root));
  }

 private:
  class ProbeTask : public Task {
   public:
    explicit ProbeTask(VertexId root) : root_(root) {}
    VertexId root() const override { return root_; }
    uint64_t SizeHint() const override { return 1; }
    void Encode(Encoder* enc) const override { enc->PutU32(root_); }

   private:
    VertexId root_;
  };

  /// Waits until `flag` is set or the bound runs out; returns the flag.
  bool Await(const std::atomic<bool>& flag) const {
    WallTimer waited;
    while (!flag.load() && waited.Seconds() < wait_sec_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return flag.load();
  }

  BusyOwnerProbe* probe_;
  VertexId requester_root_;
  VertexId owner_root_;
  VertexId pulled_;
  double wait_sec_;
};

}  // namespace qcm

#endif  // QCM_TESTS_BUSY_OWNER_APP_H_
