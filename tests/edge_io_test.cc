// Regression tests for SNAP edge-list I/O: round-trip fidelity, comment
// and blank-line tolerance, the k-core prefilter against the full load,
// and -- the hardening contract -- a descriptive file:line Corruption
// status for every malformed-input shape instead of silently skipping or
// misreading lines.

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <random>
#include <span>
#include <string>
#include <tuple>

#include "graph/edge_io.h"
#include "reference_graph.h"

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
  // External ids compacted by sorted rank; with gaps, through a table.
  EXPECT_EQ(loaded->original_ids.ids,
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

// A count is never below a vertex's true degree: duplicates and a
// reversed copy count again. Vertex 9 has two neighbours but is counted
// four times, so the k = 3 prefilter keeps both its edges (its self-loop
// is dropped, and the 7-8 edge, counted once at each end); the exact peel
// still drops it, and the 3-core is the K4.
TEST(EdgeIoTest, PrefilterKeepsLiftedCountsAndThePeelDecides) {
  const std::string path = WriteTempFile("edges_lifted.txt",
                                         "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
                                         "9 0\n0 9\n9 1\n9 1\n9 9\n"
                                         "7 8\n");
  auto full = LoadEdgeList(path);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto pre = LoadEdgeList(path, 3);
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  EXPECT_EQ(pre->edge_lines, 12u);
  EXPECT_EQ(pre->original_ids.ids,
            (std::vector<uint64_t>{0, 1, 2, 3, 7, 8, 9}));
  ASSERT_EQ(pre->graph.NumVertices(), 7u);
  // Dense ids 4, 5, 6 are file ids 7, 8, 9.
  EXPECT_EQ(pre->graph.NumEdges(), 8u);
  EXPECT_EQ(pre->graph.Degree(6), 2u);
  EXPECT_EQ(pre->graph.Degree(4), 0u);
  EXPECT_EQ(pre->graph.Degree(5), 0u);
  EXPECT_EQ(full->graph.NumEdges(), 9u);
  const KCore core = CompactKCore(pre->graph, 3);
  EXPECT_EQ(core.ids, (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_TRUE(SameKCore(full->graph, pre->graph, 3));
}

// Counts are bytes, capped at 255 when k is larger: a vertex counted 255
// times may still be below k, so the prefilter keeps it for the exact
// peel, while one counted fewer is dropped. A 300-clique is the 290-core;
// vertex 1000 (260 clique neighbours) is kept and peeled, vertex 2000
// (100) dropped.
TEST(EdgeIoTest, PrefilterCapsCountsAtOneByte) {
  std::string text;
  for (int a = 0; a < 300; ++a) {
    for (int b = a + 1; b < 300; ++b) {
      text += std::to_string(a) + " " + std::to_string(b) + "\n";
    }
  }
  for (int a = 0; a < 260; ++a) text += "1000 " + std::to_string(a) + "\n";
  for (int a = 0; a < 100; ++a) text += "2000 " + std::to_string(a) + "\n";
  const std::string path = WriteTempFile("edges_capped.txt", text);
  auto full = LoadEdgeList(path);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto pre = LoadEdgeList(path, 290);
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  ASSERT_EQ(pre->graph.NumVertices(), 302u);  // 1000 and 2000 are 300, 301
  EXPECT_EQ(pre->graph.Degree(300), 260u);
  EXPECT_EQ(pre->graph.Degree(301), 0u);
  EXPECT_EQ(CompactKCore(pre->graph, 290).ids.size(), 300u);
  EXPECT_TRUE(SameKCore(full->graph, pre->graph, 290));
}

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
    EXPECT_EQ(loaded->original_ids.ids,
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
  EXPECT_EQ(loaded->original_ids, (IdMap{9, {}}));  // a run: 9, 10
  ExpectCorrupt("edges_straddle_511.txt", filler + line510 + " \n",
                std::count(filler.begin(), filler.end(), '\n') + 1,
                "edge line too long");
}

using RawEdgeList = std::vector<std::pair<uint64_t, uint64_t>>;

/// What a load must produce: the dense id -> original id map and the rows.
struct OracleLoad {
  std::vector<uint64_t> ids;
  /// Row v is rows[v], a run of `neighbors`.
  std::vector<VertexId> neighbors;
  std::vector<std::span<const VertexId>> rows;
};

/// The id compaction LoadEdgeList had before its rank table, kept as the
/// oracle: sorted rank of every endpoint id, then both arcs of every edge
/// but a self-loop as ranked (from, to) pairs, sorted and deduplicated
/// into rows, so no graph-building code is shared with the loader.
OracleLoad OracleGraph(const RawEdgeList& raw) {
  OracleLoad want;
  std::vector<uint64_t>& ids = want.ids;
  ids.reserve(2 * raw.size());
  for (const auto& [u, v] : raw) {
    ids.push_back(u);
    ids.push_back(v);
  }
  // Raw pointers throughout: the Debug lane runs this at -O0, where
  // iterator and std::lower_bound calls dominate.
  std::sort(ids.data(), ids.data() + ids.size());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const uint64_t* const sorted = ids.data();
  const uint64_t n = ids.size();
  const auto rank = [sorted, n](uint64_t x) {
    uint64_t lo = 0, hi = n;
    while (lo < hi) {
      const uint64_t mid = (lo + hi) / 2;
      if (sorted[mid] < x) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  // A ranked (from, to) pair as one key, from in the high half.
  std::vector<uint64_t> arcs;
  arcs.reserve(2 * raw.size());
  for (const auto& [u, v] : raw) {
    if (u == v) continue;
    const uint64_t ru = rank(u), rv = rank(v);
    arcs.push_back(ru << 32 | rv);
    arcs.push_back(rv << 32 | ru);
  }
  std::sort(arcs.data(), arcs.data() + arcs.size());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  want.neighbors.resize(arcs.size());
  want.rows.resize(n);
  const uint64_t* arc = arcs.data();
  const uint64_t* const arcs_end = arc + arcs.size();
  VertexId* to = want.neighbors.data();
  for (uint64_t v = 0; v < n; ++v) {
    VertexId* const first = to;
    for (; arc != arcs_end && *arc >> 32 == v; ++arc) {
      *to++ = static_cast<VertexId>(*arc);
    }
    want.rows[v] = {first, to};
  }
  return want;
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
  // The draw of uniform_real_distribution<double>(0, 1) from a 64-bit
  // engine, rng() / 2^64, computed here: std::generate_canonical takes
  // two long-double logarithms per call at -O0 (the Debug lane).
  const auto chance = [&rng](double p) {
    return static_cast<double>(rng()) * 0x1p-64 < p;
  };
  const size_t lines =
      kind >= 4 ? 2 * kNarrowEdges + below(4000) : 8000 + below(8000);
  const uint64_t span = lines / 2;  // below the endpoint count: dense
  constexpr uint64_t k2To32 = uint64_t{1} << 32;
  GeneratedEdgeList out;
  out.text.reserve(64 * lines);
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
  // Writes up to `max` spaces and tabs at `p`; returns their end.
  const auto blanks = [&](size_t max, char* p) {
    for (uint64_t n = below(max + 1); n > 0; --n) {
      *p++ = chance(0.3) ? '\t' : ' ';
    }
    return p;
  };
  // Each line is written into `line` and appended at once. Its parts are
  // drawn right to left, so every seed keeps the file it has always made.
  char line[1024];
  char sep[400];
  char tail[2];
  for (size_t i = 0; i < lines; ++i) {
    char* p = line;
    if (chance(0.06)) {
      const uint64_t xs = below(chance(0.2) ? 500 : 40);
      const char mark = chance(0.5) ? '#' : '%';
      p = blanks(2, p);
      *p++ = mark;
      p = std::fill_n(p, xs, 'x');
    } else if (chance(0.04)) {
      p = blanks(3, p);
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
      char* sep_end = sep;
      if (chance(0.01)) {
        sep_end = std::fill_n(sep, 400, ' ');
      } else {
        *sep_end++ = ' ';
        sep_end = blanks(3, sep_end);
      }
      char* const tail_end = blanks(2, tail);
      p = blanks(2, p);
      p = std::to_chars(p, p + 20, u).ptr;
      p = std::copy(sep, sep_end, p);
      p = std::to_chars(p, p + 20, v).ptr;
      p = std::copy(tail, tail_end, p);
    }
    if (chance(0.3)) *p++ = '\r';
    *p++ = '\n';
    out.text.append(line, p);
  }
  if (chance(0.5)) out.text.pop_back();  // no final newline
  return out;
}

/// The k-core prefilter of LoadEdgeList(path, k) keeps the full load's
/// vertices, ids and edge line count, and the k-core of the full load,
/// for each k of kPrefilterKs. On GenerateEdgeList's dense files the
/// 2-core holds most vertices and the 3-core none, yet the prefilter
/// keeps thousands of edges for it that the exact peel must drop. (Each
/// k is one more load of every file: under ASan at -O0 a k costs ~3 s.)
constexpr uint32_t kPrefilterKs[] = {2, 3};

void ExpectPrefilterKeepsTheCore(const std::string& path,
                                 const LoadedGraph& full) {
  for (const uint32_t k : kPrefilterKs) {
    SCOPED_TRACE("k=" + std::to_string(k));
    auto pre = LoadEdgeList(path, k);
    ASSERT_TRUE(pre.ok()) << pre.status().ToString();
    EXPECT_EQ(pre->prefilter_k, k);
    EXPECT_EQ(pre->edge_lines, full.edge_lines);
    EXPECT_EQ(pre->graph.NumVertices(), full.graph.NumVertices());
    EXPECT_EQ(pre->original_ids, full.original_ids);
    EXPECT_LE(pre->graph.NumEdges(), full.graph.NumEdges());
    EXPECT_TRUE(SameKCore(full.graph, pre->graph, k));
  }
}

/// Loads `file` and checks it against OracleGraph: the rows, the file id
/// of every vertex, and that the map holds a table iff the ids have gaps;
/// then loads it through the k-core prefilter.
void ExpectMatchesOracle(const GeneratedEdgeList& file) {
  ASSERT_GT(file.text.size(), 2 * kEdgeListReadBuffer);
  const std::string path = WriteTempFile("edges_gen.txt", file.text);
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const OracleLoad want = OracleGraph(file.edges);
  const uint32_t n = loaded->graph.NumVertices();
  ASSERT_EQ(FileIds(loaded->original_ids, n), want.ids);
  const bool run = want.ids.empty() ||
                   want.ids.back() - want.ids.front() == want.ids.size() - 1;
  EXPECT_EQ(loaded->original_ids.ids.empty(), run);
  EXPECT_TRUE(SameAdjacency(loaded->graph, want.rows));
  EXPECT_EQ(loaded->edge_lines, file.edges.size());
  EXPECT_EQ(loaded->prefilter_k, 0u);
  ExpectPrefilterKeepsTheCore(path, *loaded);
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

// Files whose ids are one gap-free run: the SNAP shape (from 1), one
// that crosses 32 bits and so is read wide, and a 64-bit run from 2^40.
// Each maps by offset, with no table, and every vertex maps back to
// exactly its file id.
TEST(EdgeIoTest, GapFreeRunsMapByOffset) {
  constexpr uint64_t n = 8000;
  for (const uint64_t first :
       {uint64_t{1}, (uint64_t{1} << 32) - 100, uint64_t{1} << 40}) {
    SCOPED_TRACE("first=" + std::to_string(first));
    // A path through every id, then random chords, duplicates and loops.
    std::mt19937_64 rng(first);
    GeneratedEdgeList file;
    for (uint64_t i = 0; i < 2 * n; ++i) {
      const bool path = i + 1 < n;
      const uint64_t u = first + (path ? i : rng() % n);
      const uint64_t v = first + (path ? i + 1 : rng() % n);
      file.edges.emplace_back(u, v);
      file.text += std::to_string(u) + " " + std::to_string(v) + "\n";
    }
    ExpectMatchesOracle(file);
    auto loaded = LoadEdgeList(WriteTempFile("edges_run.txt", file.text));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->graph.NumVertices(), n);
    EXPECT_EQ(loaded->original_ids, (IdMap{first, {}}));
    EXPECT_EQ(loaded->original_ids[n - 1], first + n - 1);
  }
}

}  // namespace
}  // namespace qcm
