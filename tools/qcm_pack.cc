// qcm_pack: converts a SNAP-format edge list or a planted-community spec
// into a page-aligned, checksummed .qcsr snapshot (graph/csr_snapshot.h)
// that qcm_mine / qcm_worker mmap instead of text-parsing. Pack once,
// mine many times: qcm_cluster runs this conversion in-process and ships
// only the snapshot path to its workers. The original-ids section holds
// the edge list's own ids (graph/edge_io.h), which qcm_mine
// --input-snapshot and qcm_cluster --snapshot print their results in.
//
//   qcm_pack --input graph.txt --output graph.qcsr
//   qcm_pack --gen-planted n=5000,communities=10,size=16..20,density=0.95
//            --seed 7 --output planted.qcsr --verify
//
// `qcm_pack --help` lists every flag; --input, --gen-planted and --seed
// mean what they mean for qcm_mine (tools/cli.h).

#include <cstdio>
#include <string>
#include <vector>

#include "graph/csr_snapshot.h"
#include "tools/cli.h"
#include "util/mem.h"
#include "util/timer.h"

using namespace qcm;

int main(int argc, char** argv) {
  cli::GraphSource source;
  std::string output;
  bool verify = false;
  bool quiet = false;
  std::vector<cli::Flag> flags = cli::GraphSourceFlags(&source);
  flags.insert(flags.end(),
               {cli::OutputFlag(&output, "snapshot file to write"),
                cli::Switch("--verify", &verify,
                            "re-open the written file and verify every "
                            "section checksum (including adjacency)"),
                cli::Switch("--quiet", &quiet,
                            "suppress the layout report")});
  cli::CommandLine cmd(
      "Packs one graph (exactly one of --input or --gen-planted) into a "
      "page-aligned, checksummed .qcsr snapshot; --output is required.",
      std::move(flags));
  cmd.ParseOrExit(argc, argv);
  if (Status s = cli::CheckGraphSource(source); !s.ok()) {
    cmd.Fail(s.message());
  }
  if (output.empty()) cmd.Fail("--output is required");

  WallTimer load_timer;
  auto loaded = cli::LoadGraphSource(source);
  if (!loaded.ok()) {
    std::fprintf(stderr, "graph load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const double load_seconds = load_timer.Seconds();

  WallTimer pack_timer;
  if (Status s =
          WriteCsrSnapshot(loaded->graph, loaded->original_ids, output);
      !s.ok()) {
    std::fprintf(stderr, "pack failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const double pack_seconds = pack_timer.Seconds();

  CsrSnapshot::OpenOptions open_opts;
  open_opts.verify_sections = verify;
  open_opts.verify_adjacency = verify;
  WallTimer verify_timer;
  auto snap = CsrSnapshot::Open(output, open_opts);
  if (!snap.ok()) {
    std::fprintf(stderr, "re-open of packed snapshot failed: %s\n",
                 snap.status().ToString().c_str());
    return 1;
  }
  const double verify_seconds = verify_timer.Seconds();

  if (!quiet) {
    const CsrHeader& h = (*snap)->header();
    std::fprintf(stderr,
                 "packed %s: %u vertices, %llu edges, %s (page size %s)\n",
                 output.c_str(), h.num_vertices,
                 static_cast<unsigned long long>(h.num_edges),
                 HumanBytes(h.file_bytes).c_str(),
                 HumanBytes(h.page_size).c_str());
    for (int i = 0; i < kCsrNumSections; ++i) {
      const CsrSectionDesc& s = h.sections[i];
      std::fprintf(stderr,
                   "  section %-12s offset %-10llu %-12s checksum "
                   "%016llx\n",
                   CsrSectionName(i),
                   static_cast<unsigned long long>(s.file_offset),
                   HumanBytes(s.bytes).c_str(),
                   static_cast<unsigned long long>(s.checksum));
    }
    std::fprintf(stderr,
                 "pack: load %.3f s, pack %.3f s, %s %.3f s\n",
                 load_seconds, pack_seconds,
                 verify ? "verify" : "re-open", verify_seconds);
  }
  return 0;
}
