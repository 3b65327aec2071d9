#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace qcm::bench {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::AddRow(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

void Table::Print() const {
  std::vector<size_t> width(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("|");
    for (size_t c = 0; c < header_.size(); ++c) {
      std::printf(" %-*s |", static_cast<int>(width[c]),
                  c < row.size() ? row[c].c_str() : "");
    }
    std::printf("\n");
  };
  auto print_sep = [&] {
    std::printf("+");
    for (size_t c = 0; c < header_.size(); ++c) {
      for (size_t i = 0; i < width[c] + 2; ++i) std::printf("-");
      std::printf("+");
    }
    std::printf("\n");
  };
  print_sep();
  print_row(header_);
  print_sep();
  for (const auto& row : rows_) print_row(row);
  print_sep();
}

std::string FmtSeconds(double seconds) {
  char buf[64];
  if (seconds >= 100) {
    std::snprintf(buf, sizeof(buf), "%.1f s", seconds);
  } else if (seconds >= 1) {
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4f s", seconds);
  }
  return buf;
}

std::string FmtDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FmtCount(uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::string FmtGb(uint64_t bytes) {
  const double gb = static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0);
  char buf[64];
  if (gb >= 0.095) {
    std::snprintf(buf, sizeof(buf), "%.1f gb", gb);
  } else if (bytes == 0) {
    std::snprintf(buf, sizeof(buf), "0 gb");
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f gb", gb);
  }
  return buf;
}

void Banner(const std::string& title) {
  std::printf("\n================================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================================\n");
}

void Note(const std::string& text) { std::printf("%s\n", text.c_str()); }

EngineConfig ClusterPreset() {
  EngineConfig config;
  config.num_machines = 2;
  config.threads_per_machine = 2;
  config.batch_size = 8;
  config.local_queue_capacity = 128;
  config.global_queue_capacity = 512;
  config.steal_period_sec = 0.01;
  return config;
}

bool QuickMode() { return std::getenv("QCM_BENCH_QUICK") != nullptr; }

}  // namespace qcm::bench
