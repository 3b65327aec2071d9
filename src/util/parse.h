// Strict text-to-number parsing for command-line values and spec strings.
//
// The whole text must be one base-10 number that fits the target type: no
// leading whitespace or '+', no trailing characters, no overflow, no
// negative value for an unsigned type, and a floating-point value must be
// finite. "abc", "1e4" for an integer, "0.9x" and "-5" for an unsigned
// field are all InvalidArgument, never a silent 0 or a wrapped value.
//
// Only the representation is checked here. Domain checks (is a latency
// >= 0, is gamma in [0.5, 1]) belong to the consumer of the value, e.g.
// EngineConfig::Validate() and MiningOptions::Validate().

#ifndef QCM_UTIL_PARSE_H_
#define QCM_UTIL_PARSE_H_

#include <string_view>

#include "util/status.h"

namespace qcm {

/// Parses `text` into `*out`; leaves `*out` untouched on error. The error
/// message quotes `text`. Defined for int, long, unsigned, unsigned long
/// and double (which covers int32_t, int64_t, uint32_t, uint64_t and
/// size_t on every supported platform).
template <typename T>
Status ParseNumber(std::string_view text, T* out);

}  // namespace qcm

#endif  // QCM_UTIL_PARSE_H_
