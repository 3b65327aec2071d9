// Dataset registry: synthetic stand-ins for the paper's eight inputs
// (Table 1), each with the mining parameters the paper used (Table 2) and
// the paper-reported reference numbers printed next to our measurements.
//
// The real inputs (SNAP / KONECT / NCBI GEO) are not redistributable in an
// offline image and the largest need CPU-days at paper scale, so every
// dataset is a planted-community recipe matched in topology class and
// scaled in size.

#ifndef QCM_BENCH_DATASETS_H_
#define QCM_BENCH_DATASETS_H_

#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "quick/quasi_clique.h"
#include "util/status.h"

namespace qcm::bench {

/// Paper-reported reference values (Tables 1 and 2).
struct PaperRef {
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  double time_seconds = 0.0;
  const char* ram = "";
  const char* disk = "";
  uint64_t results = 0;
};

/// One dataset: recipe + mining parameters + paper reference.
struct DatasetSpec {
  std::string name;        // e.g. "CX_GSE1730-like"
  std::string paper_name;  // e.g. "CX_GSE1730"
  PlantedConfig recipe;

  // Table 2 parameters.
  double gamma = 0.9;
  uint32_t tau_size = 10;
  uint32_t tau_split = 100;
  double tau_time = 0.01;

  PaperRef paper;

  /// Mining options preloaded with gamma / tau_size.
  MiningOptions Mining() const {
    MiningOptions opts;
    opts.gamma = gamma;
    opts.min_size = tau_size;
    return opts;
  }
};

/// The full registry in the paper's Table 1/2 order.
const std::vector<DatasetSpec>& AllDatasets();

/// Lookup by our name ("Hyves-like") or the paper's ("Hyves").
const DatasetSpec* FindDataset(const std::string& name);

/// Generates the dataset's graph (deterministic per recipe seed).
StatusOr<Graph> BuildDataset(const DatasetSpec& spec);

}  // namespace qcm::bench

#endif  // QCM_BENCH_DATASETS_H_
