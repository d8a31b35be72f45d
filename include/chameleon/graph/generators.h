#ifndef CHAMELEON_GRAPH_GENERATORS_H_
#define CHAMELEON_GRAPH_GENERATORS_H_

#include <vector>

#include "chameleon/graph/edge.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/util/common.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/status.h"

/// \file generators.h
/// Seeded synthetic uncertain graphs for the tools, the bench suites and
/// the tests. A seed fixes the graph: the same `Rng` state always yields
/// the same edge list.

namespace chameleon::graph {

/// Erdos-Renyi-style edge list: floor(avg_degree * nodes / 2) distinct
/// edges {u < v} without self-loops, each with p uniform in
/// [p_min, p_max], in draw order. Every attempt draws u, then v, and —
/// only for a new pair — p. Drawing stops after 20 * target + 100
/// attempts, so a density the node count cannot hold returns every edge
/// found by then instead of looping forever. Empty when nodes < 2.
std::vector<UncertainEdge> RandomUncertainEdges(NodeId nodes,
                                                double avg_degree,
                                                double p_min, double p_max,
                                                Rng& rng);

/// RandomUncertainEdges built into a graph. InvalidArgument when
/// nodes < 2 or when [p_min, p_max] leaves [0, 1].
Result<UncertainGraph> RandomUncertainGraph(NodeId nodes, double avg_degree,
                                            double p_min, double p_max,
                                            Rng& rng);

}  // namespace chameleon::graph

#endif  // CHAMELEON_GRAPH_GENERATORS_H_
