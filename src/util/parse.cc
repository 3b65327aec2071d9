#include "util/parse.h"

#include <charconv>
#include <cmath>
#include <string>
#include <system_error>
#include <type_traits>

namespace qcm {

template <typename T>
Status ParseNumber(std::string_view text, T* out) {
  const char* kind = std::is_floating_point_v<T> ? "a number"
                     : std::is_unsigned_v<T>     ? "a non-negative integer"
                                                 : "an integer";
  auto error = [&](const char* what) {
    return Status::InvalidArgument("expected " + std::string(kind) +
                                   ", got '" + std::string(text) + "'" +
                                   what);
  };
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) return error(" (out of range)");
  if (ec != std::errc() || ptr != end) return error("");
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return error(" (not finite)");
  }
  *out = value;
  return Status::OK();
}

template Status ParseNumber<int>(std::string_view, int*);
template Status ParseNumber<long>(std::string_view, long*);
template Status ParseNumber<unsigned>(std::string_view, unsigned*);
template Status ParseNumber<unsigned long>(std::string_view,
                                           unsigned long*);
template Status ParseNumber<double>(std::string_view, double*);

}  // namespace qcm
