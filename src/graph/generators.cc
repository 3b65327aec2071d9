#include "graph/generators.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_set>

#include "util/parse.h"
#include "util/rng.h"

namespace qcm {

namespace {

/// Packs an undirected edge into a 64-bit key for dedup sets.
uint64_t EdgeKey(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

}  // namespace

StatusOr<Graph> GenErdosRenyi(uint32_t n, uint64_t m, uint64_t seed) {
  if (n < 2) return Status::InvalidArgument("GenErdosRenyi: need n >= 2");
  const uint64_t max_edges = static_cast<uint64_t>(n) * (n - 1) / 2;
  if (m > max_edges) {
    return Status::InvalidArgument("GenErdosRenyi: m exceeds n*(n-1)/2");
  }
  Rng rng(seed);
  std::unordered_set<uint64_t> seen;
  seen.reserve(m * 2);
  std::vector<Edge> edges;
  edges.reserve(m);
  while (edges.size() < m) {
    VertexId u = static_cast<VertexId>(rng.Uniform(n));
    VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v) continue;
    if (seen.insert(EdgeKey(u, v)).second) {
      edges.emplace_back(u, v);
    }
  }
  return Graph::FromEdges(n, std::move(edges));
}

StatusOr<Graph> GenBarabasiAlbert(uint32_t n, uint32_t attach,
                                  uint64_t seed) {
  if (attach == 0) return Status::InvalidArgument("GenBarabasiAlbert: attach=0");
  if (n <= attach) {
    return Status::InvalidArgument("GenBarabasiAlbert: need n > attach");
  }
  Rng rng(seed);
  std::vector<Edge> edges;
  // Endpoint multiset: sampling a uniform element is sampling proportional
  // to degree.
  std::vector<VertexId> endpoints;
  // Seed with a clique on attach+1 vertices.
  const uint32_t seed_n = attach + 1;
  for (VertexId u = 0; u < seed_n; ++u) {
    for (VertexId v = u + 1; v < seed_n; ++v) {
      edges.emplace_back(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  std::unordered_set<uint64_t> picked;
  for (VertexId v = seed_n; v < n; ++v) {
    picked.clear();
    uint32_t added = 0;
    // Rejection-sample distinct targets; cap attempts to stay O(1) expected.
    uint32_t attempts = 0;
    while (added < attach && attempts < 32 * attach) {
      ++attempts;
      VertexId target = endpoints[rng.Uniform(endpoints.size())];
      if (target == v) continue;
      if (!picked.insert(EdgeKey(v, target)).second) continue;
      edges.emplace_back(v, target);
      ++added;
    }
    // Fallback: connect to arbitrary distinct earlier vertices.
    for (VertexId t = 0; added < attach && t < v; ++t) {
      if (picked.insert(EdgeKey(v, t)).second) {
        edges.emplace_back(v, t);
        ++added;
      }
    }
    for (uint32_t i = 0; i < added; ++i) {
      endpoints.push_back(v);
    }
    for (auto it = edges.end() - added; it != edges.end(); ++it) {
      endpoints.push_back(it->second == v ? it->first : it->second);
    }
  }
  return Graph::FromEdges(n, std::move(edges));
}

StatusOr<Graph> GenPlantedCommunities(
    const PlantedConfig& config,
    std::vector<std::vector<VertexId>>* communities) {
  const uint32_t n = config.num_vertices;
  if (n < 4) return Status::InvalidArgument("GenPlantedCommunities: n < 4");
  if (config.community_min < 3 ||
      config.community_max < config.community_min ||
      config.community_max > n) {
    return Status::InvalidArgument(
        "GenPlantedCommunities: bad community size range");
  }
  if (config.intra_density <= 0.0 || config.intra_density > 1.0) {
    return Status::InvalidArgument(
        "GenPlantedCommunities: intra_density must be in (0, 1]");
  }

  // Background topology.
  std::vector<Edge> edges;
  {
    StatusOr<Graph> bg =
        config.background == BackgroundModel::kErdosRenyi
            ? GenErdosRenyi(n, config.background_edges, config.seed)
            : GenBarabasiAlbert(n, config.ba_attach, config.seed);
    QCM_RETURN_IF_ERROR(bg.status());
    const Graph& b = bg.value();
    for (VertexId u = 0; u < b.NumVertices(); ++u) {
      for (VertexId v : b.Neighbors(u)) {
        if (u < v) edges.emplace_back(u, v);
      }
    }
  }

  Rng rng(config.seed ^ 0xC0FFEEULL);
  std::vector<VertexId> prev_members;
  if (communities != nullptr) communities->clear();
  for (uint32_t ci = 0; ci < config.num_communities; ++ci) {
    const uint32_t size =
        config.community_min +
        static_cast<uint32_t>(rng.Uniform(
            config.community_max - config.community_min + 1));
    std::vector<VertexId> members;
    std::unordered_set<VertexId> member_set;
    // Share a prefix with the previous community (overlapping modules).
    uint32_t shared = static_cast<uint32_t>(config.overlap_fraction * size);
    shared = std::min<uint32_t>(shared, static_cast<uint32_t>(prev_members.size()));
    for (uint32_t i = 0; i < shared; ++i) {
      members.push_back(prev_members[i]);
      member_set.insert(prev_members[i]);
    }
    while (members.size() < size) {
      VertexId v = static_cast<VertexId>(rng.Uniform(n));
      if (member_set.insert(v).second) members.push_back(v);
    }
    for (uint32_t i = 0; i < members.size(); ++i) {
      for (uint32_t j = i + 1; j < members.size(); ++j) {
        if (rng.Bernoulli(config.intra_density)) {
          edges.emplace_back(members[i], members[j]);
        }
      }
    }
    std::sort(members.begin(), members.end());
    if (communities != nullptr) communities->push_back(members);
    prev_members = std::move(members);
  }
  return Graph::FromEdges(n, std::move(edges));
}

StatusOr<PlantedConfig> ParsePlantedSpec(const std::string& spec,
                                         uint64_t seed) {
  PlantedConfig config;
  config.seed = seed;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string kv = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("bad planted-spec entry: " + kv);
    }
    const std::string key = kv.substr(0, eq);
    const std::string value = kv.substr(eq + 1);
    Status parsed;
    if (key == "n") {
      parsed = ParseNumber(value, &config.num_vertices);
    } else if (key == "communities") {
      parsed = ParseNumber(value, &config.num_communities);
    } else if (key == "size") {
      const size_t dots = value.find("..");
      if (dots == std::string::npos) {
        parsed = ParseNumber(value, &config.community_min);
        config.community_max = config.community_min;
      } else {
        parsed = ParseNumber(std::string_view(value).substr(0, dots),
                             &config.community_min);
        if (parsed.ok()) {
          parsed = ParseNumber(std::string_view(value).substr(dots + 2),
                               &config.community_max);
        }
      }
    } else if (key == "density") {
      parsed = ParseNumber(value, &config.intra_density);
    } else if (key == "overlap") {
      parsed = ParseNumber(value, &config.overlap_fraction);
    } else if (key == "edges") {
      config.background = BackgroundModel::kErdosRenyi;
      parsed = ParseNumber(value, &config.background_edges);
    } else {
      return Status::InvalidArgument("unknown planted-spec key: " + key);
    }
    if (!parsed.ok()) {
      return Status::InvalidArgument("planted-spec " + key + ": " +
                                     parsed.message());
    }
  }
  return config;
}

Graph PaperFigure4Graph() {
  // Vertices a..i -> 0..8. Satisfies the facts stated in §3.1:
  // Gamma(d) = {a, c, e, h, i}, Gamma(e) = {a, b, c, d}, B(e) = {f, g, h, i},
  // and {a,b,c,d} / {a,b,c,d,e} are 0.6-quasi-cliques.
  constexpr VertexId a = 0, b = 1, c = 2, d = 3, e = 4, f = 5, g = 6, h = 7,
                     i = 8;
  std::vector<Edge> edges = {
      {a, b}, {a, c}, {a, d}, {a, e}, {b, c}, {b, e}, {c, d}, {c, e},
      {d, e}, {d, h}, {d, i}, {b, f}, {c, g}, {f, g}, {g, h}, {h, i},
  };
  auto result = Graph::FromEdges(9, std::move(edges));
  return std::move(result).value();
}

}  // namespace qcm
