// The cluster job blob: everything a worker process needs to run its share
// of a distributed mining job, shipped as the opaque config blob of the
// rank-assignment handshake (wire.h kAssign). It is the full EngineConfig.
// The graph itself is NOT shipped: config.graph_snapshot names the .qcsr
// snapshot the launcher packed once, which every worker mmaps and serves
// its own partition from, so a blob without a snapshot path is rejected.

#ifndef QCM_NET_JOB_SPEC_H_
#define QCM_NET_JOB_SPEC_H_

#include <string>

#include "gthinker/engine_config.h"
#include "util/status.h"

namespace qcm {

/// `config.num_machines` must equal the cluster's world size.
std::string EncodeJobSpec(const EngineConfig& config);
Status DecodeJobSpec(const std::string& blob, EngineConfig* config);

}  // namespace qcm

#endif  // QCM_NET_JOB_SPEC_H_
