#include "chameleon/graph/generators.h"

#include <cstdint>
#include <unordered_set>
#include <utility>

namespace chameleon::graph {
namespace {

/// The one draw loop behind both generators: calls `emit(u, v, p)` per
/// new edge and stops early when it returns a non-OK status.
template <typename Emit>
Status DrawRandomEdges(NodeId nodes, double avg_degree, double p_min,
                       double p_max, Rng& rng, Emit&& emit) {
  const auto target =
      static_cast<std::size_t>(avg_degree * static_cast<double>(nodes) / 2.0);
  const std::size_t max_attempts = target * 20 + 100;
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(target * 2);
  std::size_t added = 0;
  for (std::size_t attempts = 0; added < target && attempts < max_attempts;
       ++attempts) {
    auto u = static_cast<NodeId>(rng.UniformInt(nodes));
    auto v = static_cast<NodeId>(rng.UniformInt(nodes));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!seen.insert((static_cast<std::uint64_t>(u) << 32) | v).second) {
      continue;
    }
    CHAMELEON_RETURN_IF_ERROR(emit(u, v, rng.Uniform(p_min, p_max)));
    ++added;
  }
  return Status::OK();
}

}  // namespace

std::vector<UncertainEdge> RandomUncertainEdges(NodeId nodes,
                                                double avg_degree,
                                                double p_min, double p_max,
                                                Rng& rng) {
  std::vector<UncertainEdge> edges;
  if (nodes < 2) return edges;
  (void)DrawRandomEdges(nodes, avg_degree, p_min, p_max, rng,
                        [&](NodeId u, NodeId v, double p) {
                          edges.push_back({u, v, p});
                          return Status::OK();
                        });
  return edges;
}

Result<UncertainGraph> RandomUncertainGraph(NodeId nodes, double avg_degree,
                                            double p_min, double p_max,
                                            Rng& rng) {
  if (nodes < 2) return Status::InvalidArgument("need at least 2 nodes");
  UncertainGraphBuilder builder(nodes);
  CHAMELEON_RETURN_IF_ERROR(DrawRandomEdges(
      nodes, avg_degree, p_min, p_max, rng,
      [&](NodeId u, NodeId v, double p) { return builder.AddEdge(u, v, p); }));
  return std::move(builder).Build();
}

}  // namespace chameleon::graph
