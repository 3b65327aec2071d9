#include "net/job_spec.h"

#include "util/serde.h"

namespace qcm {

std::string EncodeJobSpec(const EngineConfig& config) {
  Encoder enc;
  EncodeEngineConfig(config, &enc);
  return enc.Release();
}

Status DecodeJobSpec(const std::string& blob, EngineConfig* config) {
  Decoder dec(blob);
  QCM_RETURN_IF_ERROR(DecodeEngineConfig(&dec, config));
  if (!dec.Done()) return Status::Corruption("trailing bytes in job spec");
  if (config->graph_snapshot.empty()) {
    return Status::InvalidArgument(
        "job spec names no graph_snapshot (workers only load the "
        "launcher's packed .qcsr)");
  }
  return Status::OK();
}

}  // namespace qcm
