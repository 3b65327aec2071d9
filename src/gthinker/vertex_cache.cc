#include "gthinker/vertex_cache.h"

#include <algorithm>
#include <cstdint>

namespace qcm {

VertexCache::VertexCache(uint64_t capacity, Counters counters,
                         uint64_t max_charge)
    : capacity_(capacity), counters_(counters) {
  const size_t num_shards =
      capacity_ >= kShardThreshold && capacity_ / kMaxShards >= max_charge
          ? kMaxShards
          : 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  capacity_per_shard_ = std::max<uint64_t>(capacity_ / num_shards, 1);
}

VertexCache::AdjPtr VertexCache::Lookup(VertexId v, bool count_stats) {
  if (enabled()) {
    Shard& shard = ShardFor(v);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(v);
    if (it != shard.map.end()) {
      // Refresh: move to the most-recently-used position.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      if (count_stats) Count(counters_.hits);
      return it->second->adj;
    }
  }
  if (count_stats) Count(counters_.misses);
  return nullptr;
}

void VertexCache::Insert(VertexId v, AdjPtr adj, uint64_t charge) {
  if (!enabled() || charge > capacity_per_shard_ || charge > UINT32_MAX) {
    return;
  }
  Shard& shard = ShardFor(v);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(v);
  if (it != shard.map.end()) {
    shard.charge -= it->second->charge;
    it->second->adj = std::move(adj);
    it->second->charge = static_cast<uint32_t>(charge);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.push_front(
        Entry{v, static_cast<uint32_t>(charge), std::move(adj)});
    shard.map.emplace(v, shard.lru.begin());
  }
  shard.charge += charge;
  while (shard.charge > capacity_per_shard_) {
    shard.charge -= shard.lru.back().charge;
    shard.map.erase(shard.lru.back().v);
    shard.lru.pop_back();
    Count(counters_.evictions);
  }
}

uint64_t VertexCache::ApproxCharge() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->charge;
  }
  return total;
}

}  // namespace qcm
