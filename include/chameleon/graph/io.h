#ifndef CHAMELEON_GRAPH_IO_H_
#define CHAMELEON_GRAPH_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/util/status.h"

/// \file io.h
/// Edge-list I/O. The accepted grammar, one line at a time ('\n'-ended;
/// a final line without one still counts):
///
///   - ASCII whitespace at both ends of a line is ignored, so CRLF files
///     read like LF files. A line that is then empty is skipped.
///   - A line starting with '#' is a comment. Split at '#', space and
///     tab, a comment of exactly the two tokens `nodes <n>` is a header
///     that fixes the node count (the last one wins); otherwise the node
///     count is the largest id + 1, and isolated trailing vertices drop.
///   - Any other line is exactly three tokens `u v p` split at spaces
///     and tabs. u and v are non-negative decimal integers (strtoll
///     syntax, so '+7' reads as 7); p is a strtod number (decimal, hex,
///     'inf', 'nan'), subnormals included.
///
/// Errors are InvalidArgument naming `origin:line`: a wrong token count,
/// a token that does not parse, an id or `nodes` value above 4294967294
/// (kInvalidNode is no node, and the largest id + 1 must fit NodeId),
/// then duplicates (in either endpoint order), all in line order; after
/// those the builder's rejects (id out of range, self-loop, p outside
/// [0, 1]) in edge order.
///
/// WriteEdgeList prints every p in its shortest round-trip form, so
/// ParseEdgeList(WriteEdgeList(g)) is g bit for bit: the same node
/// count, edge order and probability bits (−0.0 and subnormals too).

namespace chameleon::graph {

/// Parses an edge list from `in` in one pass over fixed-size chunks.
/// `origin` names the source in errors.
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

/// Writes the `# nodes` header plus one `u v p` line per edge, p in the
/// shortest form that reads back to the same double.
Status WriteEdgeList(const UncertainGraph& graph, std::ostream& out);

/// WriteEdgeList into the file at `path`, replacing it.
Status WriteEdgeList(const UncertainGraph& graph, const std::string& path);

}  // namespace chameleon::graph

#endif  // CHAMELEON_GRAPH_IO_H_
