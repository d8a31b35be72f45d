#include "chameleon/graph/uncertain_graph.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/graph/union_find.h"
#include "chameleon/util/bitvector.h"

namespace chameleon::graph {
namespace {

Result<UncertainGraph> MakeTriangle() {
  UncertainGraphBuilder builder(3);
  EXPECT_TRUE(builder.AddEdge(0, 1, 0.5).ok());
  EXPECT_TRUE(builder.AddEdge(1, 2, 0.25).ok());
  EXPECT_TRUE(builder.AddEdge(2, 0, 1.0).ok());
  return std::move(builder).Build();
}

TEST(UncertainGraphTest, BuildAndAccessors) {
  const Result<UncertainGraph> g = MakeTriangle();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 3u);
  EXPECT_EQ(g->num_edges(), 3u);
  EXPECT_NEAR(g->mean_probability(), (0.5 + 0.25 + 1.0) / 3.0, 1e-12);
  EXPECT_NEAR(g->expected_num_edges(), 1.75, 1e-12);
  EXPECT_NEAR(g->expected_degree(0), 1.5, 1e-12);
  EXPECT_NEAR(g->expected_degree(1), 0.75, 1e-12);
  EXPECT_NEAR(g->expected_degree(2), 1.25, 1e-12);
}

TEST(UncertainGraphTest, EdgesAreCanonicalized) {
  const Result<UncertainGraph> g = MakeTriangle();
  ASSERT_TRUE(g.ok());
  for (const UncertainEdge& e : g->edges()) EXPECT_LT(e.u, e.v);
  // Sorted by (u, v).
  EXPECT_EQ(g->edge(0).u, 0u);
  EXPECT_EQ(g->edge(0).v, 1u);
  EXPECT_EQ(g->edge(1).u, 0u);
  EXPECT_EQ(g->edge(1).v, 2u);
  EXPECT_EQ(g->edge(2).u, 1u);
  EXPECT_EQ(g->edge(2).v, 2u);
}

TEST(UncertainGraphTest, AdjacencySeesBothDirections) {
  const Result<UncertainGraph> g = MakeTriangle();
  ASSERT_TRUE(g.ok());
  const auto neighbors = g->Neighbors(1);
  ASSERT_EQ(neighbors.size(), 2u);
  double p_total = 0.0;
  for (const AdjEntry& entry : neighbors) {
    p_total += g->edge(entry.edge).p;
    EXPECT_TRUE(entry.neighbor == 0u || entry.neighbor == 2u);
  }
  EXPECT_NEAR(p_total, 0.75, 1e-12);
}

TEST(UncertainGraphBuilderTest, RejectsBadInput) {
  UncertainGraphBuilder builder(3);
  EXPECT_EQ(builder.AddEdge(0, 0, 0.5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.AddEdge(0, 3, 0.5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.AddEdge(0, 1, 1.5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.AddEdge(0, 1, -0.1).code(), StatusCode::kInvalidArgument);
}

TEST(UncertainGraphBuilderTest, RejectsMultiEdge) {
  UncertainGraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(builder.AddEdge(1, 0, 0.7).ok());  // same undirected edge
  const Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(UncertainGraphTest, EmptyGraph) {
  UncertainGraphBuilder builder(0);
  const Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 0u);
  EXPECT_EQ(g->num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g->mean_probability(), 0.0);
}

/// Edge list with isolated vertices (0, 5, 9) and unsorted, mixed-order
/// insertion, so the builder's canonicalization does real work.
Result<UncertainGraph> MakeSparseWithIsolated() {
  UncertainGraphBuilder builder(10);
  EXPECT_TRUE(builder.AddEdge(7, 1, 0.3).ok());
  EXPECT_TRUE(builder.AddEdge(2, 3, 0.9).ok());
  EXPECT_TRUE(builder.AddEdge(8, 2, 0.125).ok());
  EXPECT_TRUE(builder.AddEdge(1, 2, 1.0).ok());
  EXPECT_TRUE(builder.AddEdge(6, 4, 0.0).ok());
  EXPECT_TRUE(builder.AddEdge(3, 7, 0.7).ok());
  return std::move(builder).Build();
}

TEST(UncertainGraphTest, WithProbabilitiesEqualsBuilderRebuild) {
  const Result<UncertainGraph> g = MakeSparseWithIsolated();
  ASSERT_TRUE(g.ok());
  // Probabilities whose sums round differently in different orders.
  const std::vector<double> probabilities = {0.1, 0.2, 0.3, 1.0 / 3.0,
                                             0.0, 0.7};
  ASSERT_EQ(probabilities.size(), g->num_edges());
  const Result<UncertainGraph> fast = g->WithProbabilities(probabilities);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();

  UncertainGraphBuilder builder(g->num_nodes());
  for (std::size_t i = 0; i < g->num_edges(); ++i) {
    const UncertainEdge& e = g->edges()[i];
    ASSERT_TRUE(builder.AddEdge(e.u, e.v, probabilities[i]).ok());
  }
  const Result<UncertainGraph> rebuilt = std::move(builder).Build();
  ASSERT_TRUE(rebuilt.ok());

  ASSERT_EQ(fast->num_nodes(), rebuilt->num_nodes());
  EXPECT_EQ(fast->edges(), rebuilt->edges());
  for (NodeId v = 0; v < fast->num_nodes(); ++v) {
    const auto a = fast->Neighbors(v);
    const auto b = rebuilt->Neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "vertex " << v;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].neighbor, b[i].neighbor);
      EXPECT_EQ(a[i].edge, b[i].edge);
    }
  }
  // Bitwise: both accumulate in edge-id order.
  EXPECT_EQ(fast->expected_degrees(), rebuilt->expected_degrees());
  for (const NodeId isolated : {0u, 5u, 9u}) {
    EXPECT_TRUE(fast->Neighbors(isolated).empty());
    EXPECT_EQ(fast->expected_degree(isolated), 0.0);
  }
  // The source graph is untouched.
  EXPECT_EQ(g->edge(0).p, 1.0);
}

TEST(UncertainGraphTest, WithProbabilitiesOnEdgelessGraph) {
  const Result<UncertainGraph> g = UncertainGraphBuilder(4).Build();
  ASSERT_TRUE(g.ok());
  const Result<UncertainGraph> same = g->WithProbabilities({});
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->num_nodes(), 4u);
  EXPECT_EQ(same->num_edges(), 0u);
  EXPECT_EQ(same->expected_degrees(), std::vector<double>(4, 0.0));
}

TEST(UncertainGraphTest, WithProbabilitiesRejectsHostileInput) {
  const Result<UncertainGraph> g = MakeTriangle();
  ASSERT_TRUE(g.ok());
  const double bad_values[] = {std::nan(""), -0.1, 1.5};
  for (const double bad : bad_values) {
    for (std::size_t e = 0; e < g->num_edges(); ++e) {
      std::vector<double> probabilities(g->num_edges(), 0.5);
      probabilities[e] = bad;
      const Result<UncertainGraph> r = g->WithProbabilities(probabilities);
      ASSERT_FALSE(r.ok()) << "p=" << bad << " at edge " << e;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  }
  for (const std::size_t size : {std::size_t{0}, std::size_t{2},
                                 std::size_t{4}}) {
    const Result<UncertainGraph> r =
        g->WithProbabilities(std::vector<double>(size, 0.5));
    ASSERT_FALSE(r.ok()) << size << " probabilities";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(UnionFindTest, UnionAndComponents) {
  UnionFind dsu(6);
  EXPECT_EQ(dsu.num_components(), 6u);
  EXPECT_TRUE(dsu.Union(0, 1));
  EXPECT_TRUE(dsu.Union(1, 2));
  EXPECT_FALSE(dsu.Union(0, 2));  // already merged
  EXPECT_TRUE(dsu.Union(3, 4));
  EXPECT_EQ(dsu.num_components(), 3u);
  EXPECT_TRUE(dsu.Connected(0, 2));
  EXPECT_FALSE(dsu.Connected(0, 3));
  EXPECT_EQ(dsu.ComponentSize(1), 3u);
  // C(3,2) + C(2,2) + C(1,2) = 3 + 1 + 0.
  EXPECT_EQ(dsu.ConnectedPairs(), 4u);
}

TEST(UnionFindTest, ResetReusesStorage) {
  UnionFind dsu(4);
  dsu.Union(0, 1);
  dsu.Union(2, 3);
  dsu.Reset();
  EXPECT_EQ(dsu.num_components(), 4u);
  EXPECT_FALSE(dsu.Connected(0, 1));
  EXPECT_EQ(dsu.ConnectedPairs(), 0u);
}

TEST(BitVectorTest, SetGetCount) {
  BitVector bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_EQ(bits.CountOnes(), 0u);
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Get(0));
  EXPECT_TRUE(bits.Get(64));
  EXPECT_TRUE(bits.Get(129));
  EXPECT_FALSE(bits.Get(1));
  EXPECT_EQ(bits.CountOnes(), 3u);
  bits.Clear(64);
  EXPECT_FALSE(bits.Get(64));
  bits.ClearAll();
  EXPECT_EQ(bits.CountOnes(), 0u);
  EXPECT_EQ(bits.words().size(), 3u);
}

}  // namespace
}  // namespace chameleon::graph
