// Seeded mutation fuzzing of LoadEdgeList over the seed files in
// tests/corpus/edge_list/. Each mutant is a seed with a few bit flips,
// inserted bytes the parser treats specially (digits, blanks, '#', '-',
// '\r', NUL, newlines), ids at the edges of 32 and 64 bits, or a cut tail.
// Every load must succeed or fail cleanly (Corruption or OutOfRange,
// naming the file), and every graph it returns must be well formed and
// survive a SaveEdgeList -> LoadEdgeList round trip. Loaded through the
// k-core prefilter at k = 2 and 3 as well, each mutant must fail with the
// same status or keep the same vertices, ids and k-core.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "graph/edge_io.h"
#include "reference_graph.h"

#ifndef QCM_CORPUS_DIR
#define QCM_CORPUS_DIR "tests/corpus"
#endif

namespace qcm {
namespace {

/// Mutants per seed file.
constexpr int kMutantsPerSeed = 1500;

std::vector<std::string> ReadSeeds() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(QCM_CORPUS_DIR) + "/edge_list")) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());  // a fixed order for the seed
  std::vector<std::string> seeds;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    seeds.push_back(text.str());
  }
  return seeds;
}

std::string Mutate(std::string text, std::mt19937_64& rng) {
  static const std::string kBytes("0123456789 #-\r\n\t\0", 18);
  static const char* const kIds[] = {
      "4294967294",           "4294967295",           "4294967296",
      "18446744073709551614", "18446744073709551615", "18446744073709551616",
      "99999999999999999999"};
  const auto at = [&](size_t extra) { return rng() % (text.size() + extra); };
  const int steps = 1 + static_cast<int>(rng() % 4);
  for (int s = 0; s < steps; ++s) {
    switch (rng() % 4) {
      case 0:
        if (!text.empty()) text[at(0)] ^= static_cast<char>(1 << (rng() % 8));
        break;
      case 1:
        text.insert(at(1), 1, kBytes[rng() % kBytes.size()]);
        break;
      case 2:
        text.insert(at(1), kIds[rng() % std::size(kIds)]);
        break;
      default:
        text.resize(at(1));
        break;
    }
  }
  return text;
}

struct FileCloser {
  void operator()(FILE* f) const { std::fclose(f); }
};

/// Replaces the contents of `file` with `text` in place: a write over the
/// old bytes, then a cut to the new length. Not a truncation to zero and
/// a refill (fopen "wb"): ext4 writes such a file out when it is closed,
/// which cost most of the loop's time.
void RewriteFile(FILE* file, const std::string& text) {
  const int fd = ::fileno(file);
  ASSERT_EQ(::pwrite(fd, text.data(), text.size(), 0),
            static_cast<ssize_t>(text.size()));
  ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(text.size())), 0);
}

/// Sorted, self-loop-free, symmetric rows, strictly ascending ids, and a
/// table in the id map only for ids with gaps.
void ExpectWellFormed(const LoadedGraph& loaded) {
  const Graph& g = loaded.graph;
  const std::vector<uint64_t>& table = loaded.original_ids.ids;
  ASSERT_TRUE(table.empty() || table.size() == g.NumVertices());
  const std::vector<uint64_t> ids = FileIds(loaded.original_ids,
                                            g.NumVertices());
  ASSERT_TRUE(std::adjacent_find(ids.begin(), ids.end(),
                                 std::greater_equal<uint64_t>()) ==
              ids.end());
  if (!table.empty()) {
    ASSERT_NE(ids.back() - ids.front(), ids.size() - 1);
  }
  uint64_t entries = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto row = g.Neighbors(v);
    entries += row.size();
    ASSERT_TRUE(std::adjacent_find(row.begin(), row.end(),
                                   std::greater_equal<VertexId>()) ==
                row.end())
        << "row " << v << " is not strictly ascending";
    for (VertexId u : row) {
      ASSERT_NE(u, v) << "self-loop";
      const auto back = g.Neighbors(u);
      ASSERT_TRUE(std::binary_search(back.begin(), back.end(), v))
          << v << "-" << u << " is one-way";
    }
  }
  ASSERT_EQ(entries, 2 * g.NumEdges());
}

/// Saving and reloading gives the same graph, less the isolated vertices
/// (a self-loop's only trace), which an edge list cannot name: the
/// reloaded ids are the dense ids of the vertices that have an edge.
void ExpectRoundTrip(const LoadedGraph& loaded, const std::string& path) {
  const Graph& g = loaded.graph;
  std::remove(path.c_str());  // a new file costs less than a truncated one
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto again = LoadEdgeList(path);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  std::vector<uint64_t> connected;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.Degree(v) > 0) connected.push_back(v);
  }
  ASSERT_EQ(FileIds(again->original_ids, again->graph.NumVertices()),
            connected);
  ASSERT_EQ(again->graph.NumEdges(), g.NumEdges());
  for (VertexId c = 0; c < again->graph.NumVertices(); ++c) {
    const auto want = g.Neighbors(static_cast<VertexId>(connected[c]));
    const auto got = again->graph.Neighbors(c);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(connected[got[i]], want[i]) << "vertex " << connected[c];
    }
  }
}

/// LoadEdgeList(path, k) for k = 2 and 3 ends as `full` did: with the
/// same status, or with the same vertices, ids and k-core.
void ExpectPrefilterMatches(const std::string& path,
                            const StatusOr<LoadedGraph>& full) {
  for (const uint32_t k : {2u, 3u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    auto pre = LoadEdgeList(path, k);
    ASSERT_EQ(pre.ok(), full.ok()) << pre.status().ToString();
    if (!full.ok()) {
      ASSERT_EQ(pre.status().code(), full.status().code());
      ASSERT_EQ(pre.status().message(), full.status().message());
      continue;
    }
    ASSERT_EQ(pre->graph.NumVertices(), full->graph.NumVertices());
    ASSERT_EQ(pre->original_ids, full->original_ids);
    ASSERT_TRUE(SameKCore(full->graph, pre->graph, k));
  }
}

TEST(EdgeListFuzzTest, MutantsLoadCleanlyOrFailCleanly) {
  const std::vector<std::string> seeds = ReadSeeds();
  ASSERT_GE(seeds.size(), 5u) << "corpus missing under " << QCM_CORPUS_DIR;
  const std::string input = testing::TempDir() + "/edge_list_fuzz.txt";
  const std::string saved = testing::TempDir() + "/edge_list_fuzz_saved.txt";
  const std::unique_ptr<FILE, FileCloser> file(
      std::fopen(input.c_str(), "w+b"));
  ASSERT_NE(file, nullptr) << input;
  std::mt19937_64 rng(20261018);
  int loaded_ok = 0, corrupt = 0, out_of_range = 0;
  for (size_t s = 0; s < seeds.size(); ++s) {
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string text = Mutate(seeds[s], rng);
      SCOPED_TRACE("seed file " + std::to_string(s) + ", mutant " +
                   std::to_string(i));
      ASSERT_NO_FATAL_FAILURE(RewriteFile(file.get(), text));
      auto loaded = LoadEdgeList(input);
      ASSERT_NO_FATAL_FAILURE(ExpectPrefilterMatches(input, loaded));
      if (!loaded.ok()) {
        const Status& st = loaded.status();
        ASSERT_TRUE(st.code() == StatusCode::kCorruption ||
                    st.code() == StatusCode::kOutOfRange)
            << st.ToString();
        ASSERT_EQ(st.message().rfind(input + ":", 0), 0u) << st.ToString();
        (st.code() == StatusCode::kCorruption ? corrupt : out_of_range)++;
        continue;
      }
      ++loaded_ok;
      ASSERT_NO_FATAL_FAILURE(ExpectWellFormed(*loaded));
      ASSERT_NO_FATAL_FAILURE(ExpectRoundTrip(*loaded, saved));
    }
  }
  // Both outcomes must be common, or the loop tests little.
  EXPECT_GT(loaded_ok, kMutantsPerSeed / 4) << corrupt << " corrupt";
  EXPECT_GT(corrupt, kMutantsPerSeed / 4) << loaded_ok << " loaded";
  std::printf("%d mutants loaded, %d corrupt, %d out of range\n", loaded_ok,
              corrupt, out_of_range);
  std::remove(input.c_str());
  std::remove(saved.c_str());
}

}  // namespace
}  // namespace qcm
