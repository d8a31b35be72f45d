#include "chameleon/graph/generators.h"

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/util/rng.h"

namespace chameleon::graph {
namespace {

TEST(RandomUncertainGraphTest, SameSeedSameEdgeList) {
  Rng a(2018);
  Rng b(2018);
  const Result<UncertainGraph> first =
      RandomUncertainGraph(500, 6.0, 0.1, 0.9, a);
  const Result<UncertainGraph> second =
      RandomUncertainGraph(500, 6.0, 0.1, 0.9, b);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->edges(), second->edges());
  // The generator leaves both streams at the same state, so a caller
  // that keeps drawing (the MC estimators after the graph) stays
  // reproducible too.
  EXPECT_EQ(a(), b());

  Rng other(2019);
  const Result<UncertainGraph> third =
      RandomUncertainGraph(500, 6.0, 0.1, 0.9, other);
  ASSERT_TRUE(third.ok());
  EXPECT_NE(first->edges(), third->edges());
}

TEST(RandomUncertainGraphTest, ExactDistinctEdgeCountWithinProbabilityRange) {
  constexpr NodeId kNodes = 1001;
  constexpr double kAvgDegree = 7.0;
  constexpr double kPMin = 0.25;
  constexpr double kPMax = 0.5;
  Rng rng(7);
  const Result<UncertainGraph> graph =
      RandomUncertainGraph(kNodes, kAvgDegree, kPMin, kPMax, rng);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), kNodes);
  // floor(7 * 1001 / 2) = floor(3503.5).
  EXPECT_EQ(graph->num_edges(), 3503u);
  std::set<std::pair<NodeId, NodeId>> pairs;
  for (const UncertainEdge& e : graph->edges()) {
    EXPECT_NE(e.u, e.v);
    EXPECT_GE(e.p, kPMin);
    EXPECT_LE(e.p, kPMax);
    pairs.emplace(e.u, e.v);
  }
  EXPECT_EQ(pairs.size(), graph->num_edges());
}

TEST(RandomUncertainGraphTest, DrawsUThenVThenP) {
  // Reference draw loop: u, v, and p only for a new pair. Every graph the
  // tools and bench suites generate from a seed depends on this order.
  Rng reference_rng(2018);
  std::vector<UncertainEdge> reference;
  std::set<std::pair<NodeId, NodeId>> seen;
  while (reference.size() < 800) {
    auto u = static_cast<NodeId>(reference_rng.UniformInt(200));
    auto v = static_cast<NodeId>(reference_rng.UniformInt(200));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!seen.emplace(u, v).second) continue;
    reference.push_back({u, v, reference_rng.Uniform(0.1, 0.9)});
  }

  Rng rng(2018);
  const std::vector<UncertainEdge> drawn =
      RandomUncertainEdges(200, 8.0, 0.1, 0.9, rng);
  EXPECT_EQ(drawn, reference);

  // The graph holds the same edges, canonicalized.
  Rng graph_rng(2018);
  const Result<UncertainGraph> graph =
      RandomUncertainGraph(200, 8.0, 0.1, 0.9, graph_rng);
  ASSERT_TRUE(graph.ok());
  std::set<std::pair<NodeId, NodeId>> from_graph;
  for (const UncertainEdge& e : graph->edges()) from_graph.emplace(e.u, e.v);
  EXPECT_EQ(from_graph, seen);
}

TEST(RandomUncertainGraphTest, FewerThanTwoNodesIsInvalid) {
  for (const NodeId nodes : {NodeId{0}, NodeId{1}}) {
    Rng rng(1);
    const Result<UncertainGraph> graph =
        RandomUncertainGraph(nodes, 4.0, 0.1, 0.9, rng);
    ASSERT_FALSE(graph.ok());
    EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(RandomUncertainGraphTest, ImpossibleDensityStopsAtAttemptCap) {
  // Three nodes hold at most three distinct edges, far short of the
  // floor(10 * 3 / 2) = 15 asked for: the attempt cap ends the draw.
  Rng rng(3);
  const Result<UncertainGraph> graph =
      RandomUncertainGraph(3, 10.0, 0.1, 0.9, rng);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_edges(), 3u);
}

}  // namespace
}  // namespace chameleon::graph
