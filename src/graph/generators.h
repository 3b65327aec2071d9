// Synthetic graph generators. These stand in for the paper's SNAP / KONECT /
// NCBI-GEO datasets, which are not redistributable offline and the largest
// of which need CPU-days at paper scale: gene-coexpression inputs are
// modeled as overlapping planted dense
// modules, social/collaboration networks as power-law backgrounds with
// planted near-gamma-dense communities. All generators are deterministic
// for a given seed.

#ifndef QCM_GRAPH_GENERATORS_H_
#define QCM_GRAPH_GENERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace qcm {

/// G(n, m) Erdos-Renyi: m distinct uniform random edges.
StatusOr<Graph> GenErdosRenyi(uint32_t n, uint64_t m, uint64_t seed);

/// Barabasi-Albert preferential attachment: starts from a small clique and
/// attaches each new vertex to `attach` existing vertices chosen
/// proportionally to degree. Produces a power-law degree distribution.
StatusOr<Graph> GenBarabasiAlbert(uint32_t n, uint32_t attach, uint64_t seed);

/// Background topology for planted-community graphs.
enum class BackgroundModel {
  kErdosRenyi,
  kPowerLaw,  // Barabasi-Albert
};

/// Configuration for GenPlantedCommunities.
struct PlantedConfig {
  uint32_t num_vertices = 1000;
  /// Background edges (ER) or attachment count (power-law).
  uint64_t background_edges = 3000;
  BackgroundModel background = BackgroundModel::kPowerLaw;
  uint32_t ba_attach = 2;

  /// Number of dense communities to plant.
  uint32_t num_communities = 10;
  /// Community size range (inclusive).
  uint32_t community_min = 10;
  uint32_t community_max = 20;
  /// Probability of each intra-community edge. Setting this above the
  /// mining gamma plants whp-valid gamma-quasi-cliques.
  double intra_density = 0.95;
  /// Fraction of each community's members shared with the previous one
  /// (models the overlapping gene modules / social circles the paper
  /// motivates).
  double overlap_fraction = 0.0;

  uint64_t seed = 1;
};

/// Power-law (or ER) background with planted near-clique communities.
/// Returns the graph and, via out-param if non-null, the planted membership
/// lists (for test oracles).
StatusOr<Graph> GenPlantedCommunities(
    const PlantedConfig& config,
    std::vector<std::vector<VertexId>>* communities = nullptr);

/// Parses the tools' --gen-planted spec ("n=5000,communities=10,
/// size=16..20,density=0.95,overlap=0.3,edges=12000") into a
/// PlantedConfig with the given seed. Every value must parse strictly
/// (util/parse.h): "n=-5", "n=1e4" or "density=0.9x" is InvalidArgument.
/// Shared by every tool's --gen-planted and perfbench's per-layer probe,
/// so a cluster job and its single-process reference build the exact same
/// graph from the same spec string.
StatusOr<PlantedConfig> ParsePlantedSpec(const std::string& spec,
                                         uint64_t seed);

/// The 9-vertex illustrative graph of the paper's Figure 4
/// (vertices a..i -> ids 0..8). {a,b,c,d} and {a,b,c,d,e} are
/// 0.6-quasi-cliques; B(e) = {f,g,h,i}.
Graph PaperFigure4Graph();

}  // namespace qcm

#endif  // QCM_GRAPH_GENERATORS_H_
