// Unit tests for LocalGraph: induction, local k-core, id mapping, and
// serialization. (Staged construction lives in ego_builder_test.cc.)

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/ego_builder.h"
#include "graph/generators.h"
#include "graph/local_graph.h"

namespace qcm {
namespace {

/// Builds a LocalGraph over all vertices of a Graph (identity mapping).
LocalGraph FromGraph(const Graph& g) {
  EgoBuilder builder;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    builder.Stage(v, g.Neighbors(v));
  }
  return builder.Build();
}

TEST(LocalGraphTest, EmptyGraph) {
  LocalGraph g;
  EXPECT_EQ(g.n(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(LocalGraphTest, BuilderMirrorsGraph) {
  auto src = std::move(GenErdosRenyi(40, 80, 3)).value();
  LocalGraph g = FromGraph(src);
  ASSERT_EQ(g.n(), 40u);
  EXPECT_EQ(g.NumEdges(), src.NumEdges());
  for (LocalId v = 0; v < g.n(); ++v) {
    EXPECT_EQ(g.GlobalId(v), v);  // identity mapping, sorted
    EXPECT_EQ(g.Degree(v), src.Degree(v));
    auto nbrs = g.Neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
}

TEST(LocalGraphTest, FindLocalBinarySearch) {
  EgoBuilder builder;
  builder.Stage(10, {20});
  builder.Stage(20, {10, 30});
  builder.Stage(30, {20});
  LocalGraph g = builder.Build();
  ASSERT_EQ(g.n(), 3u);
  EXPECT_EQ(g.GlobalId(0), 10u);
  EXPECT_EQ(g.GlobalId(2), 30u);
  EXPECT_EQ(g.FindLocal(10), 0u);
  EXPECT_EQ(g.FindLocal(30), 2u);
  EXPECT_EQ(g.FindLocal(25), g.n());  // absent
}

TEST(LocalGraphTest, KCoreOnLocalGraphMatchesMask) {
  auto src = std::move(GenBarabasiAlbert(120, 3, 9)).value();
  LocalGraph g = FromGraph(src);
  LocalGraph core = g.KCore(4);
  // Every surviving vertex has degree >= 4 inside the core.
  for (LocalId v = 0; v < core.n(); ++v) {
    EXPECT_GE(core.Degree(v), 4u);
  }
  // Maximality: no peeled vertex could have survived -- verified by
  // checking the core against naive peeling on the source.
  std::vector<uint8_t> alive(src.NumVertices(), 1);
  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId v = 0; v < src.NumVertices(); ++v) {
      if (!alive[v]) continue;
      uint32_t d = 0;
      for (VertexId u : src.Neighbors(v)) d += alive[u];
      if (d < 4) {
        alive[v] = 0;
        changed = true;
      }
    }
  }
  uint32_t expected = 0;
  for (uint8_t a : alive) expected += a;
  EXPECT_EQ(core.n(), expected);
  for (LocalId v = 0; v < core.n(); ++v) {
    EXPECT_TRUE(alive[core.GlobalId(v)]);
  }
}

TEST(LocalGraphTest, InducePreservesGlobalIdsAndEdges) {
  auto src = std::move(GenErdosRenyi(30, 90, 17)).value();
  LocalGraph g = FromGraph(src);
  std::vector<LocalId> keep = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29};
  LocalGraph sub = g.Induce(keep);
  ASSERT_EQ(sub.n(), keep.size());
  for (size_t i = 0; i < keep.size(); ++i) {
    EXPECT_EQ(sub.GlobalId(static_cast<LocalId>(i)), g.GlobalId(keep[i]));
  }
  for (LocalId u = 0; u < sub.n(); ++u) {
    for (LocalId v = u + 1; v < sub.n(); ++v) {
      EXPECT_EQ(sub.HasEdge(u, v), src.HasEdge(sub.GlobalId(u), sub.GlobalId(v)));
    }
  }
}

TEST(LocalGraphTest, InduceEmpty) {
  auto src = std::move(GenErdosRenyi(10, 20, 1)).value();
  LocalGraph g = FromGraph(src);
  LocalGraph sub = g.Induce({});
  EXPECT_EQ(sub.n(), 0u);
  EXPECT_EQ(sub.NumEdges(), 0u);
}

TEST(LocalGraphTest, SerializationRoundTrip) {
  auto src = std::move(GenBarabasiAlbert(60, 2, 4)).value();
  LocalGraph g = FromGraph(src);
  Encoder enc;
  g.Encode(&enc);
  Decoder dec(enc.buffer());
  auto decoded = LocalGraph::Decode(&dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, g);
}

TEST(LocalGraphTest, DecodeRejectsCorruptOffsets) {
  EgoBuilder builder;
  builder.Stage(1, {2});
  builder.Stage(2, {1});
  LocalGraph g = builder.Build();
  Encoder enc;
  g.Encode(&enc);
  std::string bytes = enc.Release();
  // vids vector has length prefix 8 bytes then 2*4 bytes; clobber the
  // offsets region beyond it.
  bytes[8 + 8 + 3 * 8] = 77;
  Decoder dec(bytes);
  auto decoded = LocalGraph::Decode(&dec);
  EXPECT_FALSE(decoded.ok());
}

// FindLocal binary-searches vids, so a decoded graph whose vids are not
// strictly increasing would miss vertices it holds.
TEST(LocalGraphTest, DecodeRejectsVidsNotStrictlyIncreasing) {
  for (const std::vector<VertexId>& vids :
       {std::vector<VertexId>{12, 10, 11}, std::vector<VertexId>{10, 10}}) {
    Encoder enc;
    enc.PutU32Vector(vids);
    enc.PutU32Vector(std::vector<uint32_t>(vids.size() + 1, 0));
    enc.PutU32Vector({});
    Decoder dec(enc.buffer());
    auto decoded = LocalGraph::Decode(&dec);
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << "vids[0]=" << vids[0];
  }
}

}  // namespace
}  // namespace qcm
