// Regression tests for SNAP edge-list I/O: round-trip fidelity, comment
// and blank-line tolerance, and -- the hardening contract -- a descriptive
// file:line Corruption status for every malformed-input shape instead of
// silently skipping or misreading lines.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <tuple>

#include "graph/edge_io.h"

namespace qcm {
namespace {

std::string WriteTempFile(const std::string& name,
                          const std::string& content) {
  const std::string path = testing::TempDir() + "/" + name;
  FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return path;
}

TEST(EdgeIoTest, LoadsEdgesWithCommentsAndBlankLines) {
  const std::string path = WriteTempFile("edges_ok.txt",
                                         "# a SNAP-style comment\n"
                                         "% a matrix-market comment\n"
                                         "\n"
                                         "10 20\n"
                                         "  20\t30\n"
                                         "10 30   \n");
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph.NumVertices(), 3u);
  EXPECT_EQ(loaded->graph.NumEdges(), 3u);
  // External ids compacted by sorted rank.
  EXPECT_EQ(loaded->original_ids,
            (std::vector<uint64_t>{10, 20, 30}));
}

TEST(EdgeIoTest, SaveLoadRoundTrip) {
  const std::string in = WriteTempFile("edges_rt.txt", "0 1\n1 2\n0 2\n");
  auto loaded = LoadEdgeList(in);
  ASSERT_TRUE(loaded.ok());
  const std::string out = testing::TempDir() + "/edges_rt_out.txt";
  ASSERT_TRUE(SaveEdgeList(loaded->graph, out).ok());
  auto reloaded = LoadEdgeList(out);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(reloaded->graph.NumVertices(), loaded->graph.NumVertices());
  EXPECT_EQ(reloaded->graph.NumEdges(), loaded->graph.NumEdges());
  for (VertexId v = 0; v < loaded->graph.NumVertices(); ++v) {
    auto a = loaded->graph.Neighbors(v);
    auto b = reloaded->graph.Neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "v=" << v;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "v=" << v;
  }
}

TEST(EdgeIoTest, MissingFileIsIOError) {
  auto loaded = LoadEdgeList(testing::TempDir() + "/no_such_edges.txt");
  EXPECT_FALSE(loaded.ok());
}

TEST(EdgeIoTest, EmptyFileIsAnEmptyGraph) {
  const std::string path = WriteTempFile("edges_empty.txt", "# nothing\n");
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph.NumVertices(), 0u);
  EXPECT_EQ(loaded->graph.NumEdges(), 0u);
}

struct CorruptCase {
  const char* name;
  const char* content;
  const char* expected_location;  // "file:line" suffix the status must name
};

class EdgeIoCorruptInput : public testing::TestWithParam<CorruptCase> {};

TEST_P(EdgeIoCorruptInput, FailsWithFileAndLine) {
  const CorruptCase& c = GetParam();
  const std::string path =
      WriteTempFile(std::string("edges_") + c.name + ".txt", c.content);
  auto loaded = LoadEdgeList(path);
  ASSERT_FALSE(loaded.ok()) << c.name << ": corrupt input was accepted";
  const std::string message = loaded.status().ToString();
  EXPECT_NE(message.find(path + ":" + c.expected_location),
            std::string::npos)
      << c.name << ": status lacks file:line -- " << message;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EdgeIoCorruptInput,
    testing::Values(
        CorruptCase{"letters", "1 2\nfoo bar\n", "2"},
        CorruptCase{"single_field", "1 2\n3\n1 4\n", "2"},
        CorruptCase{"negative_id", "1 2\n-3 4\n", "2"},
        CorruptCase{"trailing_garbage", "1 2\n3 4 extra\n", "2"},
        CorruptCase{"float_id", "1 2\n3.5 4\n", "2"},
        CorruptCase{"overflow", "1 2\n99999999999999999999 4\n", "2"},
        CorruptCase{"first_line", "oops\n1 2\n", "1"}),
    [](const testing::TestParamInfo<CorruptCase>& info) {
      return info.param.name;
    });

TEST(EdgeIoTest, OverlongLineIsRejected) {
  std::string long_line(2000, '1');  // one huge digit run, no newline room
  long_line += " 2\n";
  const std::string path =
      WriteTempFile("edges_long.txt", "1 2\n" + long_line);
  auto loaded = LoadEdgeList(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find(":2:"), std::string::npos)
      << loaded.status().ToString();
}

/// Loading `content` must fail with "file:`line`: `why`".
void ExpectCorrupt(const std::string& name, const std::string& content,
                   size_t line, const std::string& why) {
  const std::string path = WriteTempFile(name, content);
  auto loaded = LoadEdgeList(path);
  ASSERT_FALSE(loaded.ok()) << name << ": corrupt input was accepted";
  const std::string message = loaded.status().ToString();
  EXPECT_NE(message.find(path + ":" + std::to_string(line) + ": " + why),
            std::string::npos)
      << name << ": " << message;
}

TEST(EdgeIoTest, ErrorOnLastLineWithoutNewline) {
  ExpectCorrupt("edges_last_bad.txt", "1 2\n3 4\n5 x", 3,
                "malformed edge line (expected target id): '5 x'");
  ExpectCorrupt("edges_last_bad_crlf.txt", "1 2\r\n3 4\r\n-5 6", 3,
                "malformed edge line (expected source id): '-5 6'");
}

TEST(EdgeIoTest, EmbeddedNulByteIsRejected) {
  ExpectCorrupt("edges_nul.txt", std::string("1 2\n3 4\0 junk\n5 6\n", 18),
                2, "edge line too long: '3 4'");
  ExpectCorrupt("edges_nul_comment.txt",
                std::string("# ok\n# a\0b\n1 2\n", 15), 2,
                "edge line too long: '# a'");
}

TEST(EdgeIoTest, LineLengthLimitIs510Characters) {
  // "1", a run of spaces, "2": a valid edge of exactly `len` characters.
  const auto edge_line = [](size_t len) {
    return "1" + std::string(len - 2, ' ') + "2";
  };
  ASSERT_EQ(kEdgeListMaxLine, 510u);
  for (const char* ending : {"\n", "\r\n", ""}) {
    const std::string tail = ending;
    // CRLF: the '\r' counts toward the limit, like any other character.
    const size_t limit = kEdgeListMaxLine - (tail == "\r\n" ? 1 : 0);
    auto ok = LoadEdgeList(
        WriteTempFile("edges_510.txt", "0 1\n" + edge_line(limit) + tail));
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(ok->graph.NumEdges(), 2u);
    ExpectCorrupt("edges_511.txt", "0 1\n" + edge_line(limit + 1) + tail, 2,
                  "edge line too long: '1" + std::string(59, ' ') + "...'");
  }
  // Longer than the read buffer itself.
  ExpectCorrupt("edges_huge_line.txt",
                "0 1\n" + std::string(kEdgeListReadBuffer + 100, '7') + "\n",
                2, "edge line too long: '" + std::string(60, '7') + "...'");
}

/// Comment lines of `bytes` bytes in total (at least 2).
std::string CommentLines(size_t bytes) {
  std::string text;
  while (bytes - text.size() > 200) text += "#" + std::string(98, 'c') + "\n";
  return text + "#" + std::string(bytes - text.size() - 2, 'c') + "\n";
}

TEST(EdgeIoTest, LinesStraddlingTheReadBuffer) {
  // Comments fill the buffer up to `k` bytes before its end, so the next
  // lines straddle the boundary at every offset in turn.
  for (size_t k = 0; k <= 16; ++k) {
    const std::string filler = CommentLines(kEdgeListReadBuffer - k);
    const size_t filler_lines = std::count(filler.begin(), filler.end(), '\n');
    const std::string body = "123 456\r\n7\t\t8\n \n456 7";
    auto loaded =
        LoadEdgeList(WriteTempFile("edges_straddle.txt", filler + body));
    ASSERT_TRUE(loaded.ok()) << "k=" << k << ": "
                             << loaded.status().ToString();
    EXPECT_EQ(loaded->original_ids,
              (std::vector<uint64_t>{7, 8, 123, 456}))
        << "k=" << k;
    EXPECT_EQ(loaded->graph.NumEdges(), 3u) << "k=" << k;
    // Errors keep their line number across the boundary.
    ExpectCorrupt("edges_straddle_bad.txt", filler + "1 2\n3 4x\n",
                  filler_lines + 2,
                  "malformed edge line (trailing characters after edge): "
                  "'3 4x'");
  }
  // A 510-character line across the boundary is fine; 511 is not.
  const std::string filler = CommentLines(kEdgeListReadBuffer - 200);
  const std::string line510 = "9" + std::string(507, ' ') + "10";
  auto loaded = LoadEdgeList(
      WriteTempFile("edges_straddle_510.txt", filler + line510 + "\n"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->original_ids, (std::vector<uint64_t>{9, 10}));
  ExpectCorrupt("edges_straddle_511.txt", filler + line510 + " \n",
                std::count(filler.begin(), filler.end(), '\n') + 1,
                "edge line too long");
}

using RawEdgeList = std::vector<std::pair<uint64_t, uint64_t>>;

/// The id compaction LoadEdgeList had before its rank table, kept as the
/// oracle: sorted rank of every endpoint id, then Graph::FromEdges.
LoadedGraph OracleGraph(const RawEdgeList& raw) {
  std::vector<uint64_t> ids;
  for (const auto& [u, v] : raw) {
    ids.push_back(u);
    ids.push_back(v);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const auto rank = [&ids](uint64_t x) {
    return static_cast<VertexId>(
        std::lower_bound(ids.begin(), ids.end(), x) - ids.begin());
  };
  std::vector<Edge> edges;
  for (const auto& [u, v] : raw) edges.emplace_back(rank(u), rank(v));
  auto graph = Graph::FromEdges(static_cast<uint32_t>(ids.size()), edges);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  return LoadedGraph{std::move(graph).value(), std::move(ids)};
}

/// Every edge written, in file order, with the file's text.
struct GeneratedEdgeList {
  std::string text;
  RawEdgeList edges;
};

/// How many leading edges of a GenerateEdgeList kind 4 or 5 file keep
/// every id within 32 bits; later edges may exceed them.
constexpr size_t kNarrowEdges = 10000;

/// A valid edge list mixing every shape the format allows. `kind` picks
/// the ids: 0 dense from 0, 1 dense up to UINT64_MAX, 2 sparse 32-bit, 3
/// sparse 64-bit; 4 dense around 2^32 and 5 sparse, both 32-bit for the
/// first kNarrowEdges edges and free to exceed 32 bits after them.
GeneratedEdgeList GenerateEdgeList(uint64_t seed, int kind) {
  std::mt19937_64 rng(seed);
  const auto below = [&rng](uint64_t n) { return rng() % n; };
  const auto chance = [&rng](double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng) < p;
  };
  const size_t lines =
      kind >= 4 ? 2 * kNarrowEdges + below(4000) : 8000 + below(8000);
  const uint64_t span = lines / 2;  // below the endpoint count: dense
  constexpr uint64_t k2To32 = uint64_t{1} << 32;
  GeneratedEdgeList out;
  const auto id = [&]() -> uint64_t {
    const bool narrow = out.edges.size() < kNarrowEdges;
    switch (kind) {
      case 0: return below(span);
      case 1: return UINT64_MAX - below(span);
      case 2: return below(k2To32);
      case 3: return chance(0.02) ? (chance(0.5) ? 0 : UINT64_MAX) : rng();
      case 4: return k2To32 - 1 - below(span / 2) + (narrow ? 0 : below(span));
      default: return narrow ? below(k2To32) : rng();
    }
  };
  const auto blanks = [&](size_t max) {
    std::string s(below(max + 1), ' ');
    for (char& c : s) c = chance(0.3) ? '\t' : ' ';
    return s;
  };
  for (size_t i = 0; i < lines; ++i) {
    if (chance(0.06)) {
      out.text += blanks(2) + (chance(0.5) ? "#" : "%") +
                  std::string(below(chance(0.2) ? 500 : 40), 'x');
    } else if (chance(0.04)) {
      out.text += blanks(3);
    } else {
      uint64_t u = id(), v = id();
      if (!out.edges.empty() && chance(0.1)) {  // duplicate, either way
        std::tie(u, v) = out.edges[below(out.edges.size())];
        if (chance(0.5)) std::swap(u, v);
      } else if (chance(0.03)) {
        v = u;  // self-loop
      }
      out.edges.emplace_back(u, v);
      // An occasional near-limit run of spaces between the ids.
      const std::string sep =
          chance(0.01) ? std::string(400, ' ') : " " + blanks(3);
      out.text += blanks(2) + std::to_string(u) + sep + std::to_string(v) +
                  blanks(2);
    }
    out.text += chance(0.3) ? "\r\n" : "\n";
  }
  if (chance(0.5)) out.text.pop_back();  // no final newline
  return out;
}

/// Loads `file` and checks it against OracleGraph.
void ExpectMatchesOracle(const GeneratedEdgeList& file) {
  ASSERT_GT(file.text.size(), 2 * kEdgeListReadBuffer);
  auto loaded = LoadEdgeList(WriteTempFile("edges_gen.txt", file.text));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const LoadedGraph want = OracleGraph(file.edges);
  ASSERT_EQ(loaded->original_ids, want.original_ids);
  ASSERT_EQ(loaded->graph.NumVertices(), want.graph.NumVertices());
  ASSERT_EQ(loaded->graph.NumEdges(), want.graph.NumEdges());
  for (VertexId v = 0; v < want.graph.NumVertices(); ++v) {
    const auto got = loaded->graph.Neighbors(v);
    const auto row = want.graph.Neighbors(v);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), row.begin(), row.end()))
        << "v=" << v;
  }
}

TEST(EdgeIoTest, MatchesSortedRankOracleOnGeneratedFiles) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExpectMatchesOracle(GenerateEdgeList(seed, static_cast<int>(seed % 4)));
  }
}

// The loader holds endpoints as 32-bit pairs until an id needs 64 bits.
// These files cross that switch after their first kNarrowEdges edges, on
// the rank-table path (kind 4) and the sorted path (kind 5).
TEST(EdgeIoTest, WidensOnceWhenAnIdOutgrows32Bits) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const int kind = 4 + static_cast<int>(seed % 2);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " kind=" + std::to_string(kind));
    const GeneratedEdgeList file = GenerateEdgeList(seed, kind);
    const auto wide = [](const std::pair<uint64_t, uint64_t>& e) {
      return std::max(e.first, e.second) > UINT32_MAX;
    };
    ASSERT_GE(file.edges.size(), kNarrowEdges);
    ASSERT_TRUE(std::none_of(file.edges.begin(),
                             file.edges.begin() + kNarrowEdges, wide));
    ASSERT_TRUE(std::any_of(file.edges.begin() + kNarrowEdges,
                            file.edges.end(), wide));
    ExpectMatchesOracle(file);
  }
}

}  // namespace
}  // namespace qcm
