// Reproduces Table 1 (graph datasets): prints |V| and |E| of every
// synthetic stand-in next to the paper's reported sizes, plus the degree
// statistics and the k-core population that drives the size-threshold
// pruning (T1).

#include <cstdio>

#include "bench/bench_common.h"
#include "bench/datasets.h"
#include "graph/kcore.h"
#include "graph/stats.h"
#include "util/timer.h"

int main() {
  using namespace qcm;
  using namespace qcm::bench;

  Banner("Table 1: Graph Datasets (synthetic stand-ins vs. paper)");
  Note("Paper inputs are SNAP/KONECT/GEO downloads; each is replaced by a "
       "planted-community recipe of the same topology class, scaled to "
       "single-host benchmarking (the real inputs are not redistributable "
       "offline, and the largest need CPU-days at paper scale).");

  Table table({"Data", "|V|", "|E|", "paper |V|", "paper |E|", "max deg",
               "avg deg", "k", "|k-core|", "gen time"});
  for (const DatasetSpec& spec : AllDatasets()) {
    WallTimer timer;
    auto graph = BuildDataset(spec);
    if (!graph.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                   graph.status().ToString().c_str());
      return 1;
    }
    const double gen_seconds = timer.Seconds();
    GraphStats stats = ComputeGraphStats(*graph);
    const uint32_t k = spec.Mining().MinDegreeK();
    const uint64_t core = KCoreSize(*graph, k);
    table.AddRow({spec.name, FmtCount(stats.num_vertices),
                  FmtCount(stats.num_edges), FmtCount(spec.paper.num_vertices),
                  FmtCount(spec.paper.num_edges), FmtCount(stats.max_degree),
                  FmtDouble(stats.avg_degree), FmtCount(k), FmtCount(core),
                  FmtSeconds(gen_seconds)});
  }
  table.Print();
  Note("\n|k-core| is the vertex count surviving Theorem 2 pruning with "
       "k = ceil(gamma*(tau_size-1)) at the dataset's Table 2 parameters -- "
       "the search space the miner actually touches.");
  return 0;
}
