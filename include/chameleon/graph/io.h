#ifndef CHAMELEON_GRAPH_IO_H_
#define CHAMELEON_GRAPH_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/util/status.h"

/// \file io.h
/// Edge-list I/O. The format is whitespace-separated `u v p` lines, `#`
/// comments, with an optional `# nodes <n>` header that fixes the node
/// count (isolated trailing vertices would otherwise be dropped, since
/// the node count is inferred as max id + 1).

namespace chameleon::graph {

/// Parses an edge list from `in`. `origin` names the source in errors.
Result<UncertainGraph> ParseEdgeList(std::istream& in,
                                     std::string_view origin);

Result<UncertainGraph> ReadEdgeList(const std::string& path);

/// Writes a "graph_summary" JSONL record (n, m, mean/max structural
/// degree, sum/mean edge probability, log2 degree histogram — the
/// degree-distribution telemetry the uniqueness score and
/// Poisson-binomial machinery consume) to the global obs sink. Called on
/// every successful edge-list load; also usable for generated graphs.
/// No-op when observability is disabled or has no sink.
void EmitGraphSummary(const UncertainGraph& graph, std::string_view origin);

/// Writes the `# nodes` header plus one `u v p` line per edge.
Status WriteEdgeList(const UncertainGraph& graph, const std::string& path);

}  // namespace chameleon::graph

#endif  // CHAMELEON_GRAPH_IO_H_
