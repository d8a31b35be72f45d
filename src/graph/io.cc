#include "chameleon/graph/io.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "chameleon/obs/flight_recorder.h"
#include "chameleon/obs/obs.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/timer.h"

namespace chameleon::graph {
namespace {

/// Bytes per istream::read. A line longer than this grows the buffer.
constexpr std::size_t kChunkBytes = std::size_t{1} << 16;

/// The largest id or `# nodes` value a file may name. kInvalidNode is
/// the no-node sentinel, and the largest id + 1 must still fit NodeId as
/// the node count.
constexpr NodeId kMaxNodeId = kInvalidNode - 1;

bool IsBlank(char c) { return c == ' ' || c == '\t'; }
bool IsHeaderDelim(char c) { return c == '#' || IsBlank(c); }

/// Splits `text` at delimiter runs into `fields`, dropping empty tokens.
/// Returns the token count, or fields.size() + 1 when there are more.
template <typename IsDelim>
std::size_t SplitFields(std::string_view text, IsDelim is_delim,
                        std::span<std::string_view> fields) {
  std::size_t count = 0;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_delim(text[i])) ++i;
    if (i == text.size()) break;
    const std::size_t start = i;
    while (i < text.size() && !is_delim(text[i])) ++i;
    if (count == fields.size()) return count + 1;
    fields[count++] = text.substr(start, i - start);
  }
  return count;
}

enum class IdToken { kOk, kMalformed, kTooLarge };

/// True for an optional '+' followed by decimal digits only.
bool IsUnsignedDecimal(std::string_view token) {
  if (!token.empty() && token.front() == '+') token.remove_prefix(1);
  return !token.empty() &&
         std::all_of(token.begin(), token.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

/// A non-negative integer in ParseInt's strtoll syntax, at most
/// kMaxNodeId. A digit string strtoll rejects can only have overflowed;
/// strtoll reports ERANGE before it looks at trailing bytes, so a token
/// such as '99999999999999999999x' is malformed, not too large.
IdToken ParseNodeId(std::string_view token, NodeId* out) {
  const Result<std::int64_t> parsed = ParseInt(token);
  if (!parsed.ok()) {
    return IsUnsignedDecimal(StripWhitespace(token)) ? IdToken::kTooLarge
                                                     : IdToken::kMalformed;
  }
  if (*parsed < 0) return IdToken::kMalformed;
  if (*parsed > kMaxNodeId) return IdToken::kTooLarge;
  *out = static_cast<NodeId>(*parsed);
  return IdToken::kOk;
}

/// from_chars is exact, reads subnormals, and leaves '+0.5', hex floats
/// and whitespace-padded tokens to ParseDouble's strtod reading.
bool ParseProbability(std::string_view token, double* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  if (ptr == end && ec == std::errc{}) return true;
  const Result<double> parsed = ParseDouble(token);
  if (!parsed.ok()) return false;
  *out = *parsed;
  return true;
}

/// The spelling writers emit, read in place without splitting the line:
/// digits, blanks, digits, blanks, a number from_chars reads whole, and
/// ids that fit NodeId. False leaves the line to the general reader.
bool ReadPlainEdge(std::string_view text, NodeId* u, NodeId* v, double* p) {
  const char* c = text.data();
  const char* const end = c + text.size();
  for (NodeId* id : {u, v}) {
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(c, end, value);
    if (ec != std::errc{} || ptr == end || !IsBlank(*ptr) ||
        value > kMaxNodeId) {
      return false;
    }
    *id = static_cast<NodeId>(value);
    c = ptr;
    while (c != end && IsBlank(*c)) ++c;
  }
  const auto [ptr, ec] = std::from_chars(c, end, *p);
  return ec == std::errc{} && ptr == end;
}

/// One pass over the lines of an edge list. Keeps the edges as written
/// and only what the error path needs to name a line: the edge count at
/// each comment or blank line (a handful per file), not a line number
/// per edge.
class EdgeListParser {
 public:
  explicit EdgeListParser(std::string_view origin) : origin_(origin) {}

  /// Syntax errors, and duplicates before them (line order).
  Status ParseLine(std::string_view raw) {
    ++line_number_;
    const std::string_view text = StripWhitespace(raw);
    if (text.empty() || text.front() == '#') {
      skipped_.push_back(edges_.size());
      return text.empty() ? Status::OK() : ParseHeader(text);
    }
    NodeId u = 0;
    NodeId v = 0;
    double p = 0.0;
    if (!ReadPlainEdge(text, &u, &v, &p)) {
      CHAMELEON_RETURN_IF_ERROR(ReadEdge(text, &u, &v, &p));
    }
    const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
    // A strictly increasing run of (u < v) keys has no self-loop and no
    // duplicate, and is already in the order Build() sorts into.
    canonical_ = canonical_ && u < v && key > last_key_;
    last_key_ = key;
    max_node_ = std::max({max_node_, u, v});
    edges_.push_back(UncertainEdge{u, v, p});
    return Status::OK();
  }

  /// Builder errors (range, self-loop, p) in edge order, after any
  /// duplicate anywhere in the file.
  Result<UncertainGraph> Build() {
    const NodeId num_nodes =
        has_declared_nodes_ ? declared_nodes_
                            : (edges_.empty() ? 0 : max_node_ + 1);
    UncertainGraphBuilder builder(num_nodes);
    builder.Reserve(edges_.size());
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      const UncertainEdge& e = edges_[i];
      if (Status s = builder.AddEdge(e.u, e.v, e.p); !s.ok()) {
        if (std::optional<Status> dup = FirstDuplicate()) return *dup;
        return Status(s.code(), AtLine(EdgeLine(i), s.message()));
      }
    }
    // Build() can only fail on a multi-edge, which a canonical run rules
    // out; otherwise the edges stay to name the duplicate's line.
    if (canonical_) edges_ = {};
    Result<UncertainGraph> graph = std::move(builder).Build();
    if (!graph.ok()) {
      if (std::optional<Status> dup = FirstDuplicate()) return *dup;
    }
    return graph;
  }

  std::size_t lines() const { return line_number_; }

 private:
  /// The first duplicate edge in line order, as a located error.
  std::optional<Status> FirstDuplicate() const {
    if (canonical_) return std::nullopt;
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(edges_.size());
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      const UncertainEdge& e = edges_[i];
      if (e.u == e.v) continue;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(std::min(e.u, e.v)) << 32) |
          std::max(e.u, e.v);
      if (!seen.insert(key).second) {
        return Status::InvalidArgument(AtLine(
            EdgeLine(i), StrFormat("duplicate edge (%u, %u)", e.u, e.v)));
      }
    }
    return std::nullopt;
  }

  /// Any spelling of an edge line, with the error a bad one gets.
  Status ReadEdge(std::string_view text, NodeId* u, NodeId* v,
                  double* p) const {
    std::string_view fields[3];
    if (SplitFields(text, IsBlank, fields) != 3) {
      return SyntaxError(
          StrFormat("expected 'u v p', got '%s'", std::string(text).c_str()));
    }
    const IdToken tu = ParseNodeId(fields[0], u);
    const IdToken tv = ParseNodeId(fields[1], v);
    if (tu == IdToken::kMalformed || tv == IdToken::kMalformed ||
        !ParseProbability(fields[2], p)) {
      return SyntaxError(
          StrFormat("malformed edge line '%s'", std::string(text).c_str()));
    }
    if (tu == IdToken::kTooLarge || tv == IdToken::kTooLarge) {
      const std::string_view id = tu == IdToken::kTooLarge ? fields[0]
                                                          : fields[1];
      return SyntaxError(StrFormat("node id %s exceeds %u",
                                   std::string(id).c_str(), kMaxNodeId));
    }
    return Status::OK();
  }

  /// "# nodes <n>" fixes the node count; any other comment is ignored.
  Status ParseHeader(std::string_view text) {
    std::string_view tokens[2];
    if (SplitFields(text, IsHeaderDelim, tokens) != 2 ||
        tokens[0] != "nodes") {
      return Status::OK();
    }
    NodeId n = 0;
    switch (ParseNodeId(tokens[1], &n)) {
      case IdToken::kOk:
        declared_nodes_ = n;
        has_declared_nodes_ = true;
        return Status::OK();
      case IdToken::kTooLarge:
        return SyntaxError(StrFormat("node count %s exceeds %u",
                                     std::string(tokens[1]).c_str(),
                                     kMaxNodeId));
      case IdToken::kMalformed:
        break;
    }
    return Status::OK();
  }

  Status SyntaxError(const std::string& message) const {
    if (std::optional<Status> dup = FirstDuplicate()) return *dup;
    return Status::InvalidArgument(AtLine(line_number_, message));
  }

  std::string AtLine(std::size_t line, const std::string& message) const {
    return StrFormat("%.*s:%zu: %s", static_cast<int>(origin_.size()),
                     origin_.data(), line, message.c_str());
  }

  /// 1-based source line of edge i: i + 1 plus the non-edge lines that
  /// came before it.
  std::size_t EdgeLine(std::size_t i) const {
    return i + 1 + static_cast<std::size_t>(
                       std::upper_bound(skipped_.begin(), skipped_.end(), i) -
                       skipped_.begin());
  }

  std::string_view origin_;
  std::vector<UncertainEdge> edges_;  // as written, in line order
  std::vector<std::size_t> skipped_;  // edges_.size() at each non-edge line
  std::size_t line_number_ = 0;
  NodeId declared_nodes_ = 0;
  bool has_declared_nodes_ = false;
  NodeId max_node_ = 0;
  bool canonical_ = true;
  std::uint64_t last_key_ = 0;
};

}  // namespace

void EmitGraphSummary(const UncertainGraph& graph, std::string_view origin) {
  if (!obs::Enabled()) return;
  obs::RecordSink* sink = obs::GlobalSink();
  if (sink == nullptr) return;

  std::size_t max_degree = 0;
  // Bucket 0: degree-0 nodes; bucket k>=1: degree in [2^(k-1), 2^k).
  std::vector<std::uint64_t> hist;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const std::size_t degree = graph.Neighbors(v).size();
    max_degree = std::max(max_degree, degree);
    std::size_t bucket = 0;
    for (std::size_t d = degree; d > 0; d >>= 1) ++bucket;
    if (bucket >= hist.size()) hist.resize(bucket + 1, 0);
    ++hist[bucket];
  }

  const auto n = static_cast<double>(graph.num_nodes());
  const auto m = static_cast<double>(graph.num_edges());
  std::string line = StrFormat(
      "{\"type\":\"graph_summary\",\"t_ms\":%llu,\"origin\":\"%s\","
      "\"nodes\":%llu,\"edges\":%llu,\"mean_degree\":%.6g,"
      "\"max_degree\":%llu,\"sum_p\":%.10g,\"mean_p\":%.6g,"
      "\"deg_hist_log2\":[",
      static_cast<unsigned long long>(WallUnixMillis()),
      JsonEscape(origin).c_str(),
      static_cast<unsigned long long>(graph.num_nodes()),
      static_cast<unsigned long long>(graph.num_edges()),
      n > 0 ? 2.0 * m / n : 0.0,
      static_cast<unsigned long long>(max_degree),
      graph.expected_num_edges(), graph.mean_probability());
  for (std::size_t b = 0; b < hist.size(); ++b) {
    if (b != 0) line += ',';
    line += StrFormat("%llu", static_cast<unsigned long long>(hist[b]));
  }
  line += "]}";
  sink->Write(line);
}

Result<UncertainGraph> ParseEdgeList(std::istream& in,
                                     std::string_view origin) {
  CHOBS_SPAN(span, "graph/io/parse_edge_list");
  EdgeListParser parser(origin);
  std::vector<char> buffer(kChunkBytes);
  std::size_t carry = 0;  // an unfinished line at the front of buffer
  while (true) {
    if (carry == buffer.size()) buffer.resize(2 * buffer.size());
    in.read(buffer.data() + carry,
            static_cast<std::streamsize>(buffer.size() - carry));
    const std::size_t filled = carry + static_cast<std::size_t>(in.gcount());
    const char* start = buffer.data();
    const char* const stop = buffer.data() + filled;
    while (const void* newline = std::memchr(
               start, '\n', static_cast<std::size_t>(stop - start))) {
      const auto* nl = static_cast<const char*>(newline);
      CHAMELEON_RETURN_IF_ERROR(parser.ParseLine({start, nl}));
      start = nl + 1;
    }
    carry = static_cast<std::size_t>(stop - start);
    if (!in) {
      // A final line without a newline still counts, as with getline.
      if (carry > 0) {
        CHAMELEON_RETURN_IF_ERROR(parser.ParseLine({start, stop}));
      }
      break;
    }
    std::memmove(buffer.data(), start, carry);
  }
  buffer = {};

  Result<UncertainGraph> graph = parser.Build();
  if (graph.ok()) {
    span.AddCount("lines", parser.lines());
    span.AddCount("edges", graph->num_edges());
    CHOBS_COUNT("graph/io/edges_read", graph->num_edges());
    CHOBS_FLIGHT_EVENT(kGraphOp, origin, graph->num_nodes(),
                       graph->num_edges());
    EmitGraphSummary(*graph, origin);
  }
  return graph;
}

Result<UncertainGraph> ReadEdgeList(const std::string& path) {
  CHOBS_SPAN(span, "graph/io/read_edge_list");
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  CHOBS_COUNT("graph/io/files_read", 1);
  return ParseEdgeList(in, path);
}

Status WriteEdgeList(const UncertainGraph& graph, std::ostream& out) {
  out << "# chameleon uncertain graph\n";
  out << "# nodes " << graph.num_nodes() << "\n";
  // Shortest round-trip digits: ParseEdgeList reads back the same bits.
  std::string text;
  text.reserve(kChunkBytes + 64);
  char line[64];  // two 10-digit ids, a 24-char double, 3 separators
  for (const UncertainEdge& e : graph.edges()) {
    char* end = std::to_chars(line, line + 10, e.u).ptr;
    *end++ = ' ';
    end = std::to_chars(end, end + 10, e.v).ptr;
    *end++ = ' ';
    end = std::to_chars(end, line + sizeof(line) - 1, e.p).ptr;
    *end++ = '\n';
    text.append(line, end);
    if (text.size() >= kChunkBytes) {
      out.write(text.data(), static_cast<std::streamsize>(text.size()));
      text.clear();
    }
  }
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return Status::IoError("edge-list write failed");
  CHOBS_COUNT("graph/io/edges_written", graph.num_edges());
  return Status::OK();
}

Status WriteEdgeList(const UncertainGraph& graph, const std::string& path) {
  CHOBS_SPAN(span, "graph/io/write_edge_list");
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  if (!WriteEdgeList(graph, out).ok() || !out.flush()) {
    return Status::IoError("write failed: " + path);
  }
  span.AddCount("edges", graph.num_edges());
  CHOBS_FLIGHT_EVENT(kGraphOp, path, graph.num_nodes(), graph.num_edges());
  return Status::OK();
}

}  // namespace chameleon::graph
