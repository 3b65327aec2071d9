// Shared benchmark-harness utilities: fixed-width table printing with
// paper-reference annotations, engine-config presets, and timing helpers.

#ifndef QCM_BENCH_BENCH_COMMON_H_
#define QCM_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gthinker/engine_config.h"

namespace qcm::bench {

/// Simple fixed-width text table: add header + rows as strings, then Print.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);
  void Print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats seconds with adaptive precision ("11226.48 s", "0.012 s").
std::string FmtSeconds(double seconds);
/// Formats a double with the given precision.
std::string FmtDouble(double v, int precision = 2);
/// Formats an integer with thousands separators ("1,049,866").
std::string FmtCount(uint64_t v);
/// Formats bytes as a short human string ("0.3 gb" to match the paper).
std::string FmtGb(uint64_t bytes);

/// Prints a section banner.
void Banner(const std::string& title);
/// Prints a wrapped note paragraph.
void Note(const std::string& text);

/// The default simulated-cluster preset used by the table benches:
/// 2 machines x 2 threads, scaled down from the paper's 16 machines x 32
/// threads so one few-core host can run every table.
EngineConfig ClusterPreset();

/// True if the QCM_BENCH_QUICK environment variable asks for reduced grids.
bool QuickMode();

}  // namespace qcm::bench

#endif  // QCM_BENCH_BENCH_COMMON_H_
