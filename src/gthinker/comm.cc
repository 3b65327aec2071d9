#include "gthinker/comm.h"

#include <algorithm>
#include <chrono>

#include "util/logging.h"
#include "util/trace.h"

namespace qcm {

namespace {

/// Relaxed atomic max (counters are read only after the engine quiesces).
void AtomicMax(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t seen = target->load(std::memory_order_relaxed);
  while (seen < value &&
         !target->compare_exchange_weak(seen, value,
                                        std::memory_order_relaxed)) {
  }
}

/// Moves the messages of `q` that `pick` selects to the end of `out`,
/// keeping the rest in order.
template <typename Pick>
void TakeIf(std::deque<Message>* q, Pick pick, std::vector<Message>* out) {
  std::deque<Message> kept;
  for (Message& m : *q) {
    if (pick(m)) {
      out->push_back(std::move(m));
    } else {
      kept.push_back(std::move(m));
    }
  }
  q->swap(kept);
}

}  // namespace

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kPullRequest:
      return "pull-request";
    case MessageType::kPullResponse:
      return "pull-response";
    case MessageType::kStealBatch:
      return "steal-batch";
  }
  return "?";
}

CommFabric::CommFabric(double latency_sec, EngineCounters* counters,
                       Transport* transport)
    : latency_sec_(latency_sec),
      counters_(counters),
      transport_(transport),
      rank_(transport->rank()) {}

CommFabric::~CommFabric() { StopResponder(); }

void CommFabric::SetBusyProbe(std::function<int()> probe) {
  busy_probe_ = std::move(probe);
}

void CommFabric::Send(MessageType type, int dst, std::string payload) {
  QCM_CHECK(dst != rank_) << MessageTypeName(type) << " sent to itself";
  // The send is counted here; inbox/delivery metrics belong to the
  // destination, which mirrors this accounting in Inject().
  if (counters_ != nullptr) {
    const int t = static_cast<int>(type);
    counters_->msg_sent[t].fetch_add(1, std::memory_order_relaxed);
    counters_->msg_bytes[t].fetch_add(payload.size(),
                                      std::memory_order_relaxed);
  }
  Status s = transport_->SendData(dst, static_cast<uint8_t>(type),
                                  std::move(payload));
  // A failed wire send means a lost message, which the termination
  // protocol can never recover from: fail loudly, never silently.
  QCM_CHECK(s.ok()) << "wire send of " << MessageTypeName(type)
                    << " to rank " << dst << " failed: " << s.ToString();
}

void CommFabric::Inject(MessageType type, int src, std::string payload,
                        uint64_t wire_transit_usec) {
  const double now = clock_.Seconds();
  Message m;
  m.type = type;
  m.src = src;
  m.payload = std::move(payload);
  m.enqueue_sec = now;
  m.due_sec = now + latency_sec_;
  m.wire_transit_usec = wire_transit_usec;

  // The bytes are counted before the message becomes visible: once it is
  // queued, the responder or a comper's Service() may deliver it and
  // subtract them, which must never run ahead of this add.
  if (counters_ != nullptr) {
    const uint64_t bytes = m.payload.size();
    const uint64_t inflight =
        counters_->msg_inflight_bytes.fetch_add(bytes,
                                                std::memory_order_relaxed) +
        bytes;
    AtomicMax(&counters_->msg_inflight_bytes_peak, inflight);
  }
  size_t depth;
  if (type == MessageType::kPullRequest) {
    bool was_empty;
    {
      std::lock_guard<std::mutex> lock(responder_.mu);
      was_empty = responder_.q.empty();
      responder_.q.push_back(std::move(m));
      depth = responder_.q.size();
    }
    // A non-empty queue's head is due no later than this request, so the
    // responder's current wait already covers it.
    if (was_empty) responder_.cv.notify_all();
  } else {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_.push_back(std::move(m));
    depth = inbox_.size();
  }
  if (counters_ != nullptr) {
    AtomicMax(&counters_->msg_queue_depth_peak, depth);
    if (busy_probe_ && busy_probe_() > 0) {
      counters_->msg_overlapped.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void CommFabric::CountDelivery(const Message& m, double now) {
  if (counters_ == nullptr) return;
  // Observed delivery latency: queue time (enqueue to this service) plus
  // the wire transit the transport measured before injection.
  const double latency = std::max(0.0, now - m.enqueue_sec) +
                         static_cast<double>(m.wire_transit_usec) * 1e-6;
  const int t = static_cast<int>(m.type);
  counters_->msg_delivered[t].fetch_add(1, std::memory_order_relaxed);
  counters_->msg_inflight_bytes.fetch_sub(m.payload.size(),
                                          std::memory_order_relaxed);
  counters_->msg_latency_hist[MsgLatencyBucketIndex(latency)].fetch_add(
      1, std::memory_order_relaxed);
  counters_->msg_latency_usec_sum.fetch_add(
      static_cast<uint64_t>(latency * 1e6), std::memory_order_relaxed);
}

std::vector<Message> CommFabric::Service() {
  const double now = clock_.Seconds();
  std::vector<Message> due;
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    while (!inbox_.empty() && inbox_.front().due_sec <= now) {
      due.push_back(std::move(inbox_.front()));
      inbox_.pop_front();
    }
  }
  for (const Message& m : due) CountDelivery(m, now);
  return due;
}

void CommFabric::StartResponder(PullServer serve,
                                std::function<void(int src)> on_served) {
  QCM_CHECK(!responder_.thread.joinable()) << "responder started twice";
  responder_.serve = std::move(serve);
  responder_.on_served = std::move(on_served);
  responder_.thread = std::thread([this] { ResponderLoop(); });
}

void CommFabric::StopResponder() {
  {
    std::lock_guard<std::mutex> lock(responder_.mu);
    responder_.stop = true;
  }
  responder_.cv.notify_all();
  if (responder_.thread.joinable()) responder_.thread.join();
}

void CommFabric::ResponderLoop() {
  trace::SetThreadName("pull_responder");
  std::unique_lock<std::mutex> lock(responder_.mu);
  for (;;) {
    responder_.cv.wait(
        lock, [this] { return responder_.stop || !responder_.q.empty(); });
    if (responder_.stop) return;
    const double wait = responder_.q.front().due_sec - clock_.Seconds();
    if (wait > 0) {
      responder_.cv.wait_for(lock, std::chrono::duration<double>(wait));
      continue;
    }
    Message m = std::move(responder_.q.front());
    responder_.q.pop_front();
    responder_.serving_src = m.src;
    responder_.serving_bytes = m.payload.size();
    lock.unlock();
    CountDelivery(m, clock_.Seconds());
    // The response is counted as sent (onto the wire to the requester)
    // before the request counts as processed.
    Send(MessageType::kPullResponse, m.src, responder_.serve(m.payload));
    if (responder_.on_served) responder_.on_served(m.src);
    lock.lock();
    responder_.serving_src = -1;
    responder_.serving_bytes = 0;
    responder_.cv.notify_all();  // a DropRequestsFrom may wait on this
  }
}

size_t CommFabric::DropRequestsFrom(int src) {
  std::vector<Message> dropped;
  {
    std::unique_lock<std::mutex> lock(responder_.mu);
    TakeIf(&responder_.q, [src](const Message& m) { return m.src == src; },
           &dropped);
    responder_.cv.wait(lock, [&] { return responder_.serving_src != src; });
  }
  if (counters_ != nullptr) {
    for (const Message& m : dropped) {
      counters_->msg_inflight_bytes.fetch_sub(m.payload.size(),
                                              std::memory_order_relaxed);
    }
  }
  return dropped.size();
}

std::vector<Message> CommFabric::Drain() {
  std::vector<Message> out;
  {
    std::lock_guard<std::mutex> lock(responder_.mu);
    TakeIf(&responder_.q, [](const Message&) { return true; }, &out);
  }
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    TakeIf(&inbox_, [](const Message&) { return true; }, &out);
  }
  if (counters_ != nullptr) {
    for (const Message& m : out) {
      counters_->msg_drained.fetch_add(1, std::memory_order_relaxed);
      counters_->msg_inflight_bytes.fetch_sub(m.payload.size(),
                                              std::memory_order_relaxed);
    }
  }
  return out;
}

size_t CommFabric::InFlight() const {
  size_t total;
  {
    std::lock_guard<std::mutex> lock(responder_.mu);
    total = responder_.q.size() + (responder_.serving_src >= 0 ? 1 : 0);
  }
  std::lock_guard<std::mutex> lock(inbox_mu_);
  return total + inbox_.size();
}

uint64_t CommFabric::InFlightBytes() const {
  uint64_t total;
  {
    std::lock_guard<std::mutex> lock(responder_.mu);
    total = responder_.serving_bytes;
    for (const Message& m : responder_.q) total += m.payload.size();
  }
  std::lock_guard<std::mutex> lock(inbox_mu_);
  for (const Message& m : inbox_) total += m.payload.size();
  return total;
}

}  // namespace qcm
