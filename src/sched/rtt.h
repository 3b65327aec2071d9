// Per-link latency estimation for the scheduling layer (paper §5: with
// slow links the steal master should prefer larger, rarer batches). The
// tracker keeps one exponentially-weighted moving average of observed
// one-way delivery latency per (src, dst) machine pair, plus a
// per-destination inbound fallback for observers that only see scalar
// per-rank latencies -- the cluster Coordinator, which learns them from
// RankStatus publications.
//
// Updates are lock-free: each EWMA is an atomic bit-cast double updated
// with a relaxed CAS loop (an occasionally lost update only delays
// convergence of an estimate).

#ifndef QCM_SCHED_RTT_H_
#define QCM_SCHED_RTT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace qcm {

class LinkRttTracker {
 public:
  /// `alpha` in (0, 1] is the EWMA weight of a new sample (1 = keep only
  /// the latest sample).
  LinkRttTracker(int num_machines, double alpha);

  LinkRttTracker(const LinkRttTracker&) = delete;
  LinkRttTracker& operator=(const LinkRttTracker&) = delete;

  /// Folds one observed one-way delivery latency (seconds) of a message
  /// src -> dst into the link's EWMA.
  void RecordOneWay(int src, int dst, double seconds);

  /// Folds a scalar delivery-latency observation for messages INTO `dst`
  /// (any source) -- the coordinator's view, assembled from per-rank
  /// status publications.
  void RecordInbound(int dst, double seconds);

  /// EWMA one-way latency src -> dst; falls back to the inbound estimate
  /// of dst when the link was never observed directly; 0.0 when neither
  /// was.
  double OneWay(int src, int dst) const;

  /// Round-trip estimate of the link between a and b: one request leg
  /// plus one response leg.
  double Rtt(int a, int b) const { return OneWay(a, b) + OneWay(b, a); }

  int num_machines() const { return n_; }
  double alpha() const { return alpha_; }

 private:
  void Ewma(std::atomic<uint64_t>* cell, double seconds);
  static double Load(const std::atomic<uint64_t>& cell);

  int n_;
  double alpha_;
  /// n*n link EWMAs plus n inbound fallbacks, as bit-cast doubles.
  std::vector<std::atomic<uint64_t>> links_;
  std::vector<std::atomic<uint64_t>> inbound_;
};

}  // namespace qcm

#endif  // QCM_SCHED_RTT_H_
