// qcm_layer_driver: the benchmark's per-layer probe.
//
// Calls each layer's public functions directly and times every call, so
// the traced benchmark run can split a CLI run's wall time into layers
// without instrumenting the program itself.
//
//   qcm_layer_driver gen --spec SPEC --seed N --out FILE
//       GenPlantedCommunities + SaveEdgeList. The CLIs only ever see FILE.
//
//   qcm_layer_driver layers --input FILE --gamma G --min-size T
//                           --filter-passes P --output FILE [--pack FILE]
//       Times, in order: LoadEdgeList, KCoreMask, WriteCsrSnapshot and
//       CsrSnapshot::Open (only with --pack), EgoBuilder::BuildEgo over
//       every k-core root, SerialMiner::Run, P FilterMaximal passes over
//       the serial raw candidates, and EmitCanonicalResults. Prints one
//       JSON object on stdout; its "digest" is the reference result digest
//       every timed CLI run is checked against.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/edge_io.h"
#include "graph/ego_builder.h"
#include "graph/generators.h"
#include "graph/kcore.h"
#include "quick/maximality_filter.h"
#include "quick/serial_miner.h"
#include "util/timer.h"

namespace {

using namespace qcm;

int Fail(const std::string& what, const Status& s) {
  std::fprintf(stderr, "qcm_layer_driver: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  return 1;
}

// "--key value" pairs after the subcommand.
bool ParseFlags(int argc, char** argv, std::map<std::string, std::string>* f) {
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "qcm_layer_driver: bad flag %s\n", key.c_str());
      return false;
    }
    (*f)[key.substr(2)] = argv[i + 1];
  }
  return true;
}

int Gen(std::map<std::string, std::string>& f) {
  auto spec = ParsePlantedSpec(f["spec"], std::strtoull(f["seed"].c_str(),
                                                        nullptr, 10));
  if (!spec.ok()) return Fail("spec", spec.status());
  auto graph = GenPlantedCommunities(spec.value());
  if (!graph.ok()) return Fail("generate", graph.status());
  Status saved = SaveEdgeList(graph.value(), f["out"]);
  if (!saved.ok()) return Fail("save", saved);
  return 0;
}

int Layers(std::map<std::string, std::string>& f) {
  MiningOptions options;
  options.gamma = std::atof(f["gamma"].c_str());
  options.min_size = static_cast<uint32_t>(std::atoi(f["min-size"].c_str()));
  const int passes = std::atoi(f["filter-passes"].c_str());
  if (passes < 1) {
    std::fprintf(stderr, "qcm_layer_driver: --filter-passes must be >= 1\n");
    return 2;
  }
  const uint32_t k = options.MinDegreeK();

  WallTimer timer;
  auto loaded = LoadEdgeList(f["input"]);
  if (!loaded.ok()) return Fail("load", loaded.status());
  const double load_s = timer.Seconds();
  const Graph& g = loaded->graph;

  timer.Reset();
  const std::vector<uint8_t> alive = KCoreMask(g, k);
  const double kcore_s = timer.Seconds();
  uint64_t kcore_vertices = 0;
  for (uint8_t a : alive) kcore_vertices += a;

  double pack_s = 0.0;
  double open_s = 0.0;
  if (!f["pack"].empty()) {
    timer.Reset();
    Status packed = WriteCsrSnapshot(g, loaded->original_ids, f["pack"]);
    if (!packed.ok()) return Fail("pack", packed);
    pack_s = timer.Seconds();
    timer.Reset();
    auto snap = CsrSnapshot::Open(f["pack"]);
    if (!snap.ok()) return Fail("open", snap.status());
    open_s = timer.Seconds();
  }

  EgoScratch scratch;
  scratch.Reset(g.NumVertices());
  GraphVertexSource source(&g, &alive);
  EgoBuilder builder(&scratch);
  builder.set_dense_threshold(options.dense_threshold);
  uint64_t egos = 0;
  timer.Reset();
  for (VertexId root = 0; root < g.NumVertices(); ++root) {
    if (!alive[root]) continue;
    if (builder.BuildEgo(source, root, k, options.min_size).n() > 0) ++egos;
  }
  const double ego_build_s = timer.Seconds();

  VectorSink sink;
  timer.Reset();
  auto serial = SerialMiner(options).Run(g, &sink);
  if (!serial.ok()) return Fail("serial", serial.status());
  const double serial_s = timer.Seconds();
  const uint64_t raw = sink.results().size();

  // One pass per FilterMaximal call the measured CLI makes on its raw
  // candidates; the copy each pass consumes is made outside the timer.
  std::vector<VertexSet> maximal;
  double filter_s = 0.0;
  for (int p = 0; p < passes; ++p) {
    std::vector<VertexSet> candidates = sink.results();
    timer.Reset();
    maximal = FilterMaximal(std::move(candidates));
    filter_s += timer.Seconds();
  }

  timer.Reset();
  auto digest = EmitCanonicalResults(&maximal, f["output"]);
  if (!digest.ok()) return Fail("emit", digest.status());
  const double emit_s = timer.Seconds();

  std::printf(
      "{\"vertices\": %u, \"edges\": %" PRIu64 ", \"kcore_vertices\": %" PRIu64
      ", \"load_s\": %.6f, \"kcore_s\": %.6f, \"pack_s\": %.6f, "
      "\"open_s\": %.6f, \"ego_build_s\": %.6f, \"egos\": %" PRIu64
      ", \"serial_s\": %.6f, \"raw_candidates\": %" PRIu64
      ", \"filter_s\": %.6f, \"maximal\": %zu, \"emit_s\": %.6f, "
      "\"digest\": \"%016" PRIx64 "\"}\n",
      g.NumVertices(), g.NumEdges(), kcore_vertices, load_s, kcore_s, pack_s,
      open_s, ego_build_s, egos, serial_s, raw, filter_s, maximal.size(),
      emit_s, digest.value());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  if (argc < 2 || !ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: qcm_layer_driver gen|layers --flag value ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "gen") return Gen(flags);
  if (cmd == "layers") return Layers(flags);
  std::fprintf(stderr, "qcm_layer_driver: unknown subcommand %s\n",
               cmd.c_str());
  return 2;
}
