#include "gthinker/engine_config.h"

#include "util/serde.h"

namespace qcm {

const char* DecomposeModeName(DecomposeMode mode) {
  switch (mode) {
    case DecomposeMode::kNone:
      return "none";
    case DecomposeMode::kSizeThreshold:
      return "size";
    case DecomposeMode::kTimeDelayed:
      return "time";
  }
  return "?";
}

// Every config rejection names the exact check that fired: a bad flag
// should cost one glance at engine_config.cc, not a bisection of
// defaults that silently papered over it.
#define QCM_CONFIG_ERROR(msg)                                         \
  Status::InvalidArgument(std::string("engine_config.cc:") +          \
                          std::to_string(__LINE__) + ": " + (msg))

Status EngineConfig::Validate() const {
  if (num_machines < 1) {
    return QCM_CONFIG_ERROR("num_machines must be >= 1");
  }
  if (threads_per_machine < 1) {
    return QCM_CONFIG_ERROR("threads_per_machine must be >= 1");
  }
  if (batch_size < 1) {
    return QCM_CONFIG_ERROR("batch_size must be >= 1");
  }
  if (local_queue_capacity < batch_size) {
    return QCM_CONFIG_ERROR("local_queue_capacity must be >= batch_size");
  }
  if (global_queue_capacity < batch_size) {
    return QCM_CONFIG_ERROR("global_queue_capacity must be >= batch_size");
  }
  if (mode == DecomposeMode::kTimeDelayed && tau_time < 0) {
    return QCM_CONFIG_ERROR("tau_time must be >= 0");
  }
  if (steal_period_sec <= 0) {
    return QCM_CONFIG_ERROR("steal_period_sec must be > 0");
  }
  if (max_pull_batch < 1) {
    return QCM_CONFIG_ERROR("max_pull_batch must be >= 1");
  }
  if (net_latency_sec < 0) {
    return QCM_CONFIG_ERROR("net_latency_sec must be >= 0 (negative "
                            "latency is not a thing)");
  }
  if (!checkpoint_dir.empty() && checkpoint_interval_sec <= 0) {
    return QCM_CONFIG_ERROR(
        "contradictory: checkpoint_dir is set but checkpoint_interval_sec "
        "is not > 0 (a checkpoint that never flushes recovers nothing)");
  }
  if (mining.dense_threshold < 0) {
    return QCM_CONFIG_ERROR(
        "mining.dense_threshold must be >= 0 (0 disables the dense bitset "
        "kernels; a positive value is the max subgraph size that gets "
        "bitmap rows)");
  }
  if (stats_interval_ms < 0) {
    return QCM_CONFIG_ERROR(
        "stats_interval_ms must be >= 0 (0 disables the telemetry "
        "sampler)");
  }
  if (graph_memory_budget < 0) {
    return QCM_CONFIG_ERROR("graph_memory_budget must be >= 0 (0 = "
                            "unbounded resident adjacency)");
  }
  if (graph_memory_budget > 0 && graph_snapshot.empty()) {
    return QCM_CONFIG_ERROR(
        "contradictory: graph_memory_budget is set but graph_snapshot is "
        "empty (a resident-adjacency budget only applies to a mmap'd "
        ".qcsr snapshot; pack one with qcm_pack or drop the budget)");
  }
  return mining.Validate();
}

#undef QCM_CONFIG_ERROR

void EncodeEngineConfig(const EngineConfig& config, Encoder* enc) {
  enc->PutU32(static_cast<uint32_t>(config.num_machines));
  enc->PutU32(static_cast<uint32_t>(config.threads_per_machine));
  enc->PutU32(config.tau_split);
  enc->PutDouble(config.tau_time);
  enc->PutU8(static_cast<uint8_t>(config.mode));
  enc->PutU64(config.local_queue_capacity);
  enc->PutU64(config.global_queue_capacity);
  enc->PutU64(config.batch_size);
  enc->PutString(config.spill_dir);
  enc->PutDouble(config.steal_period_sec);
  enc->PutU64(config.vertex_cache_capacity);
  enc->PutU64(config.max_pull_batch);
  enc->PutDouble(config.net_latency_sec);
  enc->PutU8(config.record_task_log ? 1 : 0);
  enc->PutString(config.checkpoint_dir);
  enc->PutDouble(config.checkpoint_interval_sec);
  enc->PutDouble(config.mining.gamma);
  enc->PutU32(config.mining.min_size);
  enc->PutU8(config.mining.use_cover_vertex ? 1 : 0);
  enc->PutU8(config.mining.use_critical_vertex ? 1 : 0);
  enc->PutU8(config.mining.use_upper_bound ? 1 : 0);
  enc->PutU8(config.mining.use_lower_bound ? 1 : 0);
  enc->PutU8(config.mining.use_degree_pruning ? 1 : 0);
  enc->PutU8(config.mining.use_lookahead ? 1 : 0);
  enc->PutU8(config.mining.quick_compat ? 1 : 0);
  enc->PutI64(config.mining.dense_threshold);
  enc->PutString(config.trace_out);
  enc->PutI64(config.stats_interval_ms);
  enc->PutString(config.graph_snapshot);
  enc->PutI64(config.graph_memory_budget);
}

Status DecodeEngineConfig(Decoder* dec, EngineConfig* config) {
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  uint8_t u8 = 0;
  QCM_RETURN_IF_ERROR(dec->GetU32(&u32));
  config->num_machines = static_cast<int>(u32);
  QCM_RETURN_IF_ERROR(dec->GetU32(&u32));
  config->threads_per_machine = static_cast<int>(u32);
  QCM_RETURN_IF_ERROR(dec->GetU32(&config->tau_split));
  QCM_RETURN_IF_ERROR(dec->GetDouble(&config->tau_time));
  QCM_RETURN_IF_ERROR(dec->GetU8(&u8));
  if (u8 > static_cast<uint8_t>(DecomposeMode::kTimeDelayed)) {
    return Status::Corruption("bad decompose mode tag");
  }
  config->mode = static_cast<DecomposeMode>(u8);
  QCM_RETURN_IF_ERROR(dec->GetU64(&u64));
  config->local_queue_capacity = u64;
  QCM_RETURN_IF_ERROR(dec->GetU64(&u64));
  config->global_queue_capacity = u64;
  QCM_RETURN_IF_ERROR(dec->GetU64(&u64));
  config->batch_size = u64;
  QCM_RETURN_IF_ERROR(dec->GetString(&config->spill_dir));
  QCM_RETURN_IF_ERROR(dec->GetDouble(&config->steal_period_sec));
  QCM_RETURN_IF_ERROR(dec->GetU64(&u64));
  config->vertex_cache_capacity = u64;
  QCM_RETURN_IF_ERROR(dec->GetU64(&u64));
  config->max_pull_batch = u64;
  QCM_RETURN_IF_ERROR(dec->GetDouble(&config->net_latency_sec));
  QCM_RETURN_IF_ERROR(dec->GetU8(&u8));
  config->record_task_log = u8 != 0;
  QCM_RETURN_IF_ERROR(dec->GetString(&config->checkpoint_dir));
  QCM_RETURN_IF_ERROR(dec->GetDouble(&config->checkpoint_interval_sec));
  QCM_RETURN_IF_ERROR(dec->GetDouble(&config->mining.gamma));
  QCM_RETURN_IF_ERROR(dec->GetU32(&config->mining.min_size));
  QCM_RETURN_IF_ERROR(dec->GetU8(&u8));
  config->mining.use_cover_vertex = u8 != 0;
  QCM_RETURN_IF_ERROR(dec->GetU8(&u8));
  config->mining.use_critical_vertex = u8 != 0;
  QCM_RETURN_IF_ERROR(dec->GetU8(&u8));
  config->mining.use_upper_bound = u8 != 0;
  QCM_RETURN_IF_ERROR(dec->GetU8(&u8));
  config->mining.use_lower_bound = u8 != 0;
  QCM_RETURN_IF_ERROR(dec->GetU8(&u8));
  config->mining.use_degree_pruning = u8 != 0;
  QCM_RETURN_IF_ERROR(dec->GetU8(&u8));
  config->mining.use_lookahead = u8 != 0;
  QCM_RETURN_IF_ERROR(dec->GetU8(&u8));
  config->mining.quick_compat = u8 != 0;
  QCM_RETURN_IF_ERROR(dec->GetI64(&config->mining.dense_threshold));
  QCM_RETURN_IF_ERROR(dec->GetString(&config->trace_out));
  QCM_RETURN_IF_ERROR(dec->GetI64(&config->stats_interval_ms));
  QCM_RETURN_IF_ERROR(dec->GetString(&config->graph_snapshot));
  QCM_RETURN_IF_ERROR(dec->GetI64(&config->graph_memory_budget));
  return Status::OK();
}

}  // namespace qcm
