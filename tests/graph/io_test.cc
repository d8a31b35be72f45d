#include "chameleon/graph/io.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/anonymize/gen_obf.h"
#include "chameleon/anonymize/perturbation.h"
#include "chameleon/graph/generators.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/sink.h"
#include "chameleon/privacy/obfuscation.h"
#include "chameleon/privacy/uniqueness.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/string_util.h"

namespace chameleon::graph {
namespace {

// A line-at-a-time reference reader (getline, token strings,
// strtoll/strtod, a hash set of every edge, a line number per edge): the
// differential oracle for ParseEdgeList. The two differ on purpose in
// two places only: ids and `# nodes` values above 4294967294 (truncated
// or wrapped here, InvalidArgument there) and subnormal p (rejected here
// because strtod sets ERANGE, accepted there).
Result<UncertainGraph> OracleParseEdgeList(std::istream& in,
                                           std::string_view origin) {
  std::vector<UncertainEdge> edges;
  std::vector<std::size_t> edge_lines;  // 1-based source line per edge
  std::unordered_set<std::uint64_t> seen_edges;
  NodeId declared_nodes = 0;
  bool has_declared_nodes = false;
  NodeId max_node = 0;
  std::string line;
  std::size_t line_number = 0;

  while (std::getline(in, line)) {
    ++line_number;
    std::string_view text = StripWhitespace(line);
    if (text.empty()) continue;
    if (text.front() == '#') {
      // Optional "# nodes <n>" header.
      const std::vector<std::string> tokens = SplitTokens(text, "# \t");
      if (tokens.size() == 2 && tokens[0] == "nodes") {
        const Result<std::int64_t> n = ParseInt(tokens[1]);
        if (n.ok() && *n >= 0) {
          declared_nodes = static_cast<NodeId>(*n);
          has_declared_nodes = true;
        }
      }
      continue;
    }
    const std::vector<std::string> fields = SplitTokens(text, " \t");
    if (fields.size() != 3) {
      return Status::InvalidArgument(
          StrFormat("%.*s:%zu: expected 'u v p', got '%s'",
                    static_cast<int>(origin.size()), origin.data(),
                    line_number, std::string(text).c_str()));
    }
    const Result<std::int64_t> u = ParseInt(fields[0]);
    const Result<std::int64_t> v = ParseInt(fields[1]);
    const Result<double> p = ParseDouble(fields[2]);
    if (!u.ok() || !v.ok() || !p.ok() || *u < 0 || *v < 0) {
      return Status::InvalidArgument(
          StrFormat("%.*s:%zu: malformed edge line '%s'",
                    static_cast<int>(origin.size()), origin.data(),
                    line_number, std::string(text).c_str()));
    }
    const auto nu = static_cast<NodeId>(*u);
    const auto nv = static_cast<NodeId>(*v);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(std::min(nu, nv)) << 32) |
        std::max(nu, nv);
    if (nu != nv && !seen_edges.insert(key).second) {
      return Status::InvalidArgument(
          StrFormat("%.*s:%zu: duplicate edge (%u, %u)",
                    static_cast<int>(origin.size()), origin.data(),
                    line_number, nu, nv));
    }
    max_node = std::max({max_node, nu, nv});
    edges.push_back(UncertainEdge{nu, nv, *p});
    edge_lines.push_back(line_number);
  }

  const NodeId num_nodes =
      has_declared_nodes ? declared_nodes
                         : (edges.empty() ? 0 : max_node + 1);
  UncertainGraphBuilder builder(num_nodes);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const UncertainEdge& e = edges[i];
    if (Status s = builder.AddEdge(e.u, e.v, e.p); !s.ok()) {
      return Status(s.code(),
                    StrFormat("%.*s:%zu: %s",
                              static_cast<int>(origin.size()), origin.data(),
                              edge_lines[i], s.message().c_str()));
    }
  }
  return std::move(builder).Build();
}

Result<UncertainGraph> Parse(const std::string& text) {
  std::istringstream in(text);
  return ParseEdgeList(in, "t.edges");
}

Result<UncertainGraph> OracleParse(const std::string& text) {
  std::istringstream in(text);
  return OracleParseEdgeList(in, "t.edges");
}

/// Same node count, edge order, endpoints and probability bits.
::testing::AssertionResult SameGraph(const UncertainGraph& a,
                                     const UncertainGraph& b) {
  if (a.num_nodes() != b.num_nodes()) {
    return ::testing::AssertionFailure()
           << "nodes " << a.num_nodes() << " vs " << b.num_nodes();
  }
  if (a.num_edges() != b.num_edges()) {
    return ::testing::AssertionFailure()
           << "edges " << a.num_edges() << " vs " << b.num_edges();
  }
  for (std::size_t i = 0; i < a.num_edges(); ++i) {
    const UncertainEdge& x = a.edges()[i];
    const UncertainEdge& y = b.edges()[i];
    if (x.u != y.u || x.v != y.v ||
        std::bit_cast<std::uint64_t>(x.p) !=
            std::bit_cast<std::uint64_t>(y.p)) {
      return ::testing::AssertionFailure()
             << "edge " << i << ": (" << x.u << ", " << x.v << ", " << x.p
             << ") vs (" << y.u << ", " << y.v << ", " << y.p << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// ParseEdgeList returns the oracle's graph bit for bit, or its Status.
void ExpectMatchesOracle(const std::string& text) {
  const Result<UncertainGraph> want = OracleParse(text);
  const Result<UncertainGraph> got = Parse(text);
  ASSERT_EQ(got.ok(), want.ok())
      << (got.ok() ? want.status() : got.status()).ToString() << "\n"
      << text.substr(0, 2000);
  if (want.ok()) {
    EXPECT_TRUE(SameGraph(*got, *want)) << text.substr(0, 2000);
  } else {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message())
        << text.substr(0, 2000);
  }
}

std::string Shortest(double p) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), p).ptr);
}

/// p in one of the spellings writers and people produce.
std::string SpellProbability(double p, Rng& rng) {
  switch (rng.UniformInt(9)) {
    case 0:
      return StrFormat("%.17g", p);
    case 1:
      return StrFormat("%.10g", p);
    case 2:
      return StrFormat("%g", p);
    case 3:
      return StrFormat("%.4f", p);
    case 4:
      return "+" + Shortest(p);  // strtod-only
    case 5:
      return StrFormat("%a", p);  // hex float, strtod-only
    case 6:
      return StrFormat("%.3E", p);
    case 7:
      return p == 0.0 ? "-0" : Shortest(p);
    default:
      return Shortest(p);
  }
}

std::string SpellId(NodeId id, Rng& rng) {
  switch (rng.UniformInt(12)) {
    case 0:
      return "+" + std::to_string(id);
    case 1:
      return "00" + std::to_string(id);
    case 2:
      return id == 0 ? "-0" : std::to_string(id);
    default:
      return std::to_string(id);
  }
}

const char* Separator(Rng& rng) {
  static const char* const kSeparators[] = {" ", " ", " ", "\t", "  ",
                                            " \t "};
  return kSeparators[rng.UniformInt(std::size(kSeparators))];
}

/// A valid random edge list as lines (no line terminators yet).
std::vector<std::string> ValidLines(Rng& rng, NodeId* nodes_out) {
  const auto nodes = static_cast<NodeId>(1 + rng.UniformInt(40));
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < nodes; ++u) {
    for (NodeId v = u + 1; v < nodes; ++v) {
      if (rng.Bernoulli(0.15)) pairs.emplace_back(u, v);
    }
  }
  if (rng.Bernoulli(0.3)) {
    std::shuffle(pairs.begin(), pairs.end(), rng);
  }
  const bool reversed = rng.Bernoulli(0.2);
  std::vector<std::string> lines;
  const bool header = rng.Bernoulli(0.6);
  const NodeId declared = nodes + static_cast<NodeId>(rng.UniformInt(3));
  if (header) lines.push_back("# nodes " + std::to_string(declared));
  if (rng.Bernoulli(0.3)) lines.push_back("# a comment");
  for (auto [u, v] : pairs) {
    if (reversed && rng.Bernoulli(0.5)) std::swap(u, v);
    double p = rng.UniformDouble();
    if (rng.Bernoulli(0.05)) p = 0.0;
    if (rng.Bernoulli(0.05)) p = 1.0;
    std::string line = SpellId(u, rng) + Separator(rng) + SpellId(v, rng) +
                       Separator(rng) + SpellProbability(p, rng);
    if (rng.Bernoulli(0.05)) line = " " + line + " \t";
    lines.push_back(std::move(line));
    if (rng.Bernoulli(0.03)) lines.emplace_back("");
    if (rng.Bernoulli(0.02)) lines.emplace_back("   # aside");
  }
  *nodes_out = header ? declared : nodes;
  return lines;
}

/// Injects one error of a random class into `lines`. None of them
/// produces an id above 4294967294 or a subnormal p, where the two
/// parsers differ by design.
void Mutate(std::vector<std::string>& lines, NodeId nodes, Rng& rng) {
  const std::size_t at = rng.UniformInt(lines.size() + 1);
  const auto insert = [&](std::string line) {
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                 std::move(line));
  };
  const std::string u = std::to_string(rng.UniformInt(nodes));
  const std::string v = std::to_string(rng.UniformInt(nodes));
  static const char* const kBadP[] = {"1.5",   "-0.25", "nan",   "-nan",
                                      "inf",   "-inf",  "1e400", "1e-400",
                                      "1.0001", "2"};
  static const char* const kBadToken[] = {
      "x", "1.2.3", "0x", "1e", "--1", "1-", "abc", ".",
      "-99999999999999999999", "99999999999999999999x"};
  switch (rng.UniformInt(12)) {
    case 0: {  // too few tokens, some of them ending like a number
      static const char* const kTails[] = {"", ".5", "e-1", "-1"};
      insert(u + " " + v + kTails[rng.UniformInt(std::size(kTails))]);
      break;
    }
    case 1:  // too many tokens
      insert(u + " " + v + " 0.5 7");
      break;
    case 2:  // a token that is not a number
      insert(u + " " + kBadToken[rng.UniformInt(std::size(kBadToken))] +
             " 0.5");
      break;
    case 3:
      insert(u + " " + v + " " +
             kBadToken[rng.UniformInt(std::size(kBadToken))]);
      break;
    case 4:  // negative id
      insert("-3 " + v + " 0.5");
      break;
    case 5:  // p outside [0, 1], NaN, inf, overflow, underflow to 0
      insert(u + " " + v + " " + kBadP[rng.UniformInt(std::size(kBadP))]);
      break;
    case 6:  // self-loop
      insert(u + " " + u + " 0.5");
      break;
    case 7: {  // duplicate of an existing edge line, maybe reversed
      std::vector<std::string> edge_lines;
      for (const std::string& line : lines) {
        const std::string_view text = StripWhitespace(line);
        if (!text.empty() && text.front() != '#') {
          edge_lines.push_back(line);
        }
      }
      if (edge_lines.empty()) {
        insert("0 1 0.5");
        insert("1\t0 0.25");
      } else {
        std::string copy = edge_lines[rng.UniformInt(edge_lines.size())];
        const std::vector<std::string> f = SplitTokens(copy, " \t");
        if (f.size() == 3 && rng.Bernoulli(0.5)) {
          copy = f[1] + " " + f[0] + " " + f[2];
        }
        insert(copy);
      }
      break;
    }
    case 8:  // id beyond the declared node count
      insert("# nodes " + std::to_string(nodes));
      lines.push_back(u + " " + std::to_string(nodes + 3) + " 0.5");
      break;
    case 9: {  // headers that are only comments
      static const char* const kHeaders[] = {"# nodes -1", "# nodes abc",
                                             "# nodes 5 6", "#nodes 2",
                                             "## nodes 3", "# nodes"};
      insert(kHeaders[rng.UniformInt(std::size(kHeaders))]);
      break;
    }
    case 10:  // stray bytes inside a token
      insert(u + " " + v + "\v 0.5");
      insert(u + " " + v + std::string(1, '\0') + "9 0.5");
      break;
    default:  // a lone \r between tokens
      insert(u + "\r" + v + " 0.5");
      break;
  }
}

std::string Join(const std::vector<std::string>& lines, Rng& rng) {
  const char* eol = rng.Bernoulli(0.2) ? "\r\n" : "\n";
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += eol;
  }
  if (!text.empty() && rng.Bernoulli(0.25)) text.pop_back();  // no final \n
  return text;
}

TEST(IoTest, ParseBasicEdgeList) {
  std::istringstream in(
      "# a comment\n"
      "0 1 0.5\n"
      "\n"
      "1 2 0.25\n");
  const Result<UncertainGraph> g = ParseEdgeList(in, "test");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 3u);
  EXPECT_EQ(g->num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g->edge(0).p, 0.5);
}

TEST(IoTest, NodesHeaderFixesIsolatedVertices) {
  std::istringstream in(
      "# nodes 10\n"
      "0 1 0.5\n");
  const Result<UncertainGraph> g = ParseEdgeList(in, "test");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 10u);
  EXPECT_EQ(g->num_edges(), 1u);
}

TEST(IoTest, MalformedLineFails) {
  std::istringstream in("0 1\n");
  const Result<UncertainGraph> g = ParseEdgeList(in, "bad.edges");
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("bad.edges:1"), std::string::npos);
}

TEST(IoTest, BadProbabilityFails) {
  std::istringstream in("0 1 1.5\n");
  EXPECT_FALSE(ParseEdgeList(in, "test").ok());
}

TEST(IoTest, BadProbabilityNamesFileAndLine) {
  // Comments and blank lines still advance the reported line number.
  std::istringstream in(
      "# header\n"
      "0 1 0.5\n"
      "\n"
      "1 2 1.5\n");
  const Result<UncertainGraph> g = ParseEdgeList(in, "probs.edges");
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("probs.edges:4"), std::string::npos)
      << g.status().message();
}

TEST(IoTest, DuplicateEdgeNamesFileAndLine) {
  std::istringstream in(
      "0 1 0.5\n"
      "1 2 0.25\n"
      "1 0 0.75\n");  // duplicate of line 1, reversed endpoints
  const Result<UncertainGraph> g = ParseEdgeList(in, "dup.edges");
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("dup.edges:3"), std::string::npos)
      << g.status().message();
  EXPECT_NE(g.status().message().find("duplicate"), std::string::npos);
}

TEST(IoTest, SelfLoopNamesFileAndLine) {
  std::istringstream in(
      "0 1 0.5\n"
      "2 2 0.25\n");
  const Result<UncertainGraph> g = ParseEdgeList(in, "loop.edges");
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("loop.edges:2"), std::string::npos)
      << g.status().message();
  EXPECT_NE(g.status().message().find("self-loop"), std::string::npos);
}

TEST(IoTest, ErrorPrecedenceFollowsTheLineThenTheEdgeOrder) {
  // A duplicate on an earlier line beats a later syntax error.
  const Result<UncertainGraph> dup = Parse("0 1 0.5\n1 0 0.5\n0 1\n");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().message(), "t.edges:2: duplicate edge (1, 0)");
  // A syntax error beats an earlier self-loop: builder rejects come last.
  const Result<UncertainGraph> syntax = Parse("2 2 0.5\n0 1 x\n");
  ASSERT_FALSE(syntax.ok());
  EXPECT_EQ(syntax.status().message(),
            "t.edges:2: malformed edge line '0 1 x'");
  // A duplicate anywhere beats an earlier bad probability.
  const Result<UncertainGraph> late_dup =
      Parse("0 1 1.5\n# nodes 3\n1 2 0.5\n2 1 0.5\n");
  ASSERT_FALSE(late_dup.ok());
  EXPECT_EQ(late_dup.status().message(), "t.edges:4: duplicate edge (2, 1)");
  // Among builder rejects, the first edge wins, wherever the header is.
  const Result<UncertainGraph> range =
      Parse("0 5 0.5\n1 1 0.5\n# nodes 3\n");
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.status().message(),
            "t.edges:1: edge (0, 5) out of range for 3 nodes");
}

TEST(IoTest, IdBeyondNodeIdIsAnErrorNotATruncation) {
  // 4294967297 = 2^32 + 1 used to wrap to node 1 and certify edge (0, 1).
  const std::string text = "0 4294967297 0.5\n";
  const Result<UncertainGraph> wrapped = OracleParse(text);
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped->edge(0).v, 1u);

  const Result<UncertainGraph> g = Parse("# nodes 3\n" + text);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.status().message(),
            "t.edges:2: node id 4294967297 exceeds 4294967294");

  for (const char* line :
       {"4294967296 0 0.5", "0 99999999999999999999 0.5",
        "+99999999999999999999 1 0.5", "0 18446744073709551616 0.5"}) {
    const Result<UncertainGraph> big = Parse(std::string("0 1 0.5\n") + line);
    ASSERT_FALSE(big.ok()) << line;
    EXPECT_EQ(big.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(big.status().message().find("t.edges:2: node id"),
              std::string::npos)
        << big.status().message();
  }
  // 4294967295 is kInvalidNode, and as the largest id it wrapped the
  // node count max id + 1 to 0.
  const Result<UncertainGraph> invalid = Parse("0 4294967295 0.5\n");
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().message(),
            "t.edges:1: node id 4294967295 exceeds 4294967294");
  // The largest id the reader takes is still checked against the count.
  ExpectMatchesOracle("# nodes 3\n0 4294967294 0.5\n");
  // Overflow followed by other bytes is a malformed token, as before.
  ExpectMatchesOracle("0 99999999999999999999x 0.5\n");
}

TEST(IoTest, NodesHeaderBeyondNodeIdIsAnError) {
  // 4294967299 used to truncate silently to 3 nodes.
  const std::string text = "# nodes 4294967299\n0 1 0.5\n";
  const Result<UncertainGraph> truncated = OracleParse(text);
  ASSERT_TRUE(truncated.ok());
  EXPECT_EQ(truncated->num_nodes(), 3u);

  const Result<UncertainGraph> g = Parse(text);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.status().message(),
            "t.edges:1: node count 4294967299 exceeds 4294967294");
  // 4294967295 nodes used to wrap Build's n + 1 offsets to 0 and write
  // past them. (The oracle is not run on it: it would build the graph.)
  const Result<UncertainGraph> invalid = Parse("# nodes 4294967295\n");
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(invalid.status().message(),
            "t.edges:1: node count 4294967295 exceeds 4294967294");
  // Headers that are not non-negative integers stay plain comments.
  ExpectMatchesOracle("# nodes -4294967299\n0 1 0.5\n");
  ExpectMatchesOracle("# nodes 4294967295x\n0 1 0.5\n");
  ExpectMatchesOracle("# nodes 99999999999999999999x\n0 1 0.5\n");
}

TEST(IoTest, SubnormalProbabilityIsAccepted) {
  // strtod flags a subnormal with ERANGE; it is still a valid p.
  const std::string text = "0 1 4e-320\n1 2 4.9406564584124654e-324\n";
  EXPECT_FALSE(OracleParse(text).ok());
  const Result<UncertainGraph> g = Parse(text);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->edge(0).p, 4e-320);
  EXPECT_EQ(g->edge(1).p, std::numeric_limits<double>::denorm_min());
  // Underflow to zero and overflow stay malformed, as before.
  ExpectMatchesOracle("0 1 1e-400\n");
  ExpectMatchesOracle("0 1 1e400\n");
}

TEST(IoTest, CrlfTabsAndMissingFinalNewline) {
  const std::string text =
      "# nodes 4\r\n0\t1\t0.5\r\n\r\n  1 2 0.25 \r\n2 \t3 1";
  const Result<UncertainGraph> g = Parse(text);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_nodes(), 4u);
  ASSERT_EQ(g->num_edges(), 3u);
  EXPECT_EQ(g->edge(2).p, 1.0);
  ExpectMatchesOracle(text);
  // An error on the unterminated last line names it.
  const Result<UncertainGraph> bad = Parse("0 1 0.5\r\n1 2");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(), "t.edges:2: expected 'u v p', got '1 2'");
}

TEST(IoTest, LinesStraddleChunkBoundaries) {
  // ~0.8 MB of varying-length lines, many read chunks, so line breaks
  // land all over a chunk; a 200 KB comment line is longer than a chunk.
  Rng rng(41);
  std::string text = "# nodes 40000\n";
  for (NodeId u = 0; u + 1 < 40000; ++u) {
    text += std::to_string(u) + " " + std::to_string(u + 1) + " " +
            Shortest(rng.UniformDouble()) + "\n";
    if (u == 20000) text += "#" + std::string(200000, 'x') + "\n";
  }
  ASSERT_GT(text.size(), 800000u);
  const Result<UncertainGraph> g = Parse(text);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_edges(), 39999u);
  ExpectMatchesOracle(text);
  // Errors far into the file keep their line numbers.
  ExpectMatchesOracle(text + "5 6 0.5\n");
  ExpectMatchesOracle(text + "5 5 0.5\n");
  ExpectMatchesOracle(text + "0 1\n");
  std::string no_newline = text;
  no_newline.pop_back();
  ExpectMatchesOracle(no_newline);
}

TEST(IoTest, DifferentialAgainstLineReader) {
  // Seeded corpus: valid edge lists in every spelling the grammar takes,
  // and the same lists with one to three injected errors. The new
  // parser must give the oracle's graph bit for bit, or its Status.
  Rng rng(2018);
  std::size_t valid = 0;
  for (int round = 0; round < 1500; ++round) {
    NodeId nodes = 0;
    std::vector<std::string> lines = ValidLines(rng, &nodes);
    const std::uint64_t mutations =
        round % 3 == 0 ? 0 : 1 + rng.UniformInt(3);
    for (std::uint64_t m = 0; m < mutations; ++m) Mutate(lines, nodes, rng);
    const std::string text = Join(lines, rng);
    SCOPED_TRACE(testing::Message() << "round " << round);
    ExpectMatchesOracle(text);
    if (HasFailure()) return;
    valid += OracleParse(text).ok();
  }
  // Both halves of the corpus are exercised.
  EXPECT_GT(valid, 300u);
  EXPECT_LT(valid, 1200u);
}

TEST(IoTest, RoundTripThroughFile) {
  UncertainGraphBuilder builder(4);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.125).ok());
  ASSERT_TRUE(builder.AddEdge(2, 3, 0.875).ok());
  const Result<UncertainGraph> original = std::move(builder).Build();
  ASSERT_TRUE(original.ok());

  const std::string path =
      testing::TempDir() + "/chameleon_io_roundtrip.edges";
  ASSERT_TRUE(WriteEdgeList(*original, path).ok());

  const Result<UncertainGraph> loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes(), original->num_nodes());
  ASSERT_EQ(loaded->num_edges(), original->num_edges());
  for (std::size_t e = 0; e < loaded->num_edges(); ++e) {
    EXPECT_EQ(loaded->edge(static_cast<EdgeId>(e)),
              original->edge(static_cast<EdgeId>(e)));
  }
  // The stream overload writes the file's bytes.
  std::ostringstream text;
  ASSERT_TRUE(WriteEdgeList(*original, text).ok());
  std::ifstream file(path);
  std::ostringstream file_text;
  file_text << file.rdbuf();
  EXPECT_EQ(text.str(), file_text.str());
  EXPECT_EQ(text.str(),
            "# chameleon uncertain graph\n# nodes 4\n0 1 0.125\n"
            "2 3 0.875\n");
  std::remove(path.c_str());
}

Result<UncertainGraph> WriteAndRead(const UncertainGraph& graph,
                                    const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  if (Status s = WriteEdgeList(graph, path); !s.ok()) return s;
  Result<UncertainGraph> loaded = ReadEdgeList(path);
  std::remove(path.c_str());
  return loaded;
}

TEST(IoTest, WriterRoundTripIsExactForAnyProbability) {
  // Random doubles in [0, 1] at every magnitude, plus the edge cases:
  // 0, 1, -0.0, the smallest normal, subnormals, and neighbours of 1/2.
  Rng rng(7);
  std::vector<double> probs = {0.0,
                               1.0,
                               -0.0,
                               std::numeric_limits<double>::min(),
                               std::numeric_limits<double>::denorm_min(),
                               4e-320,
                               std::nextafter(0.5, 0.0),
                               std::nextafter(0.5, 1.0),
                               std::nextafter(1.0, 0.0),
                               0.1,
                               1.0 / 3.0};
  while (probs.size() < 3000) {
    double p = rng.UniformDouble();
    if (rng.Bernoulli(0.3)) {
      p = std::ldexp(p, -static_cast<int>(rng.UniformInt(1070)));
    }
    probs.push_back(p);
  }
  const auto nodes = static_cast<NodeId>(probs.size() + 7);  // isolated tail
  UncertainGraphBuilder builder(nodes);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    ASSERT_TRUE(builder.AddEdge(static_cast<NodeId>(i),
                                static_cast<NodeId>(i + 1), probs[i])
                    .ok());
  }
  const Result<UncertainGraph> original = std::move(builder).Build();
  ASSERT_TRUE(original.ok());
  const Result<UncertainGraph> loaded =
      WriteAndRead(*original, "chameleon_io_exact.edges");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(SameGraph(*loaded, *original));
  EXPECT_TRUE(std::signbit(loaded->edge(2).p));
}

TEST(IoTest, PublishedGraphRoundTripsWithItsCertificate) {
  // The recipient must certify the bits the publisher certified.
  Rng graph_rng(2018);
  const Result<UncertainGraph> g =
      RandomUncertainGraph(600, 6.0, 0.1, 0.9, graph_rng);
  ASSERT_TRUE(g.ok());
  const Result<privacy::UniquenessScores> uniqueness =
      privacy::ComputeUniqueness(*g, privacy::UniquenessOptions{});
  ASSERT_TRUE(uniqueness.ok());
  const Result<std::vector<double>> priorities =
      anonymize::ComputeEdgePriorities(*g, uniqueness->scores, {});
  ASSERT_TRUE(priorities.ok());
  anonymize::GenObfOptions options;
  options.k = 20.0;
  options.epsilon = 0.05;
  options.threads = 1;
  Rng rng(5);
  const Result<anonymize::GenObfAttempt> attempt = anonymize::GenObf(
      *g, uniqueness->scores, *priorities, 0.05, options, rng);
  ASSERT_TRUE(attempt.ok());

  const Result<UncertainGraph> loaded =
      WriteAndRead(attempt->published, "chameleon_io_published.edges");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(SameGraph(*loaded, attempt->published));

  privacy::ObfuscationOptions verify;
  verify.k = options.k;
  verify.epsilon = options.epsilon;
  verify.threads = 1;
  verify.keep_per_vertex = false;
  const Result<privacy::ObfuscationCertificate> certificate =
      privacy::VerifyObfuscation(*loaded, verify);
  ASSERT_TRUE(certificate.ok());
  EXPECT_EQ(certificate->not_obfuscated,
            attempt->certificate.not_obfuscated);
  EXPECT_EQ(certificate->epsilon_hat, attempt->certificate.epsilon_hat);
}

#if CHAMELEON_OBS_ENABLED
TEST(IoTest, ParseEmitsGraphSummaryRecord) {
  const std::string jsonl = testing::TempDir() + "/io_graph_summary.jsonl";
  std::remove(jsonl.c_str());
  obs::ObsOptions options;
  options.metrics_out = jsonl;
  options.read_env = false;
  ASSERT_TRUE(obs::InitObservability(options).ok());

  // Path graph 0-1-2-3: degrees [1, 2, 2, 1].
  std::istringstream in("0 1 0.5\n1 2 0.25\n2 3 0.5\n");
  ASSERT_TRUE(ParseEdgeList(in, "summary.edges").ok());
  obs::ShutdownObservability();

  std::ifstream stream(jsonl);
  std::string line;
  std::string summary;
  while (std::getline(stream, line)) {
    if (obs::JsonlStringField(line, "type") == "graph_summary") {
      summary = line;
    }
  }
  ASSERT_FALSE(summary.empty()) << "no graph_summary record in " << jsonl;
  EXPECT_EQ(obs::JsonlStringField(summary, "origin"), "summary.edges");
  EXPECT_EQ(obs::JsonlNumberField(summary, "nodes"), 4.0);
  EXPECT_EQ(obs::JsonlNumberField(summary, "edges"), 3.0);
  EXPECT_EQ(obs::JsonlNumberField(summary, "mean_degree"), 1.5);
  EXPECT_EQ(obs::JsonlNumberField(summary, "max_degree"), 2.0);
  EXPECT_EQ(obs::JsonlNumberField(summary, "sum_p"), 1.25);
  // Bucket 0 = isolated, bucket 1 = degree 1, bucket 2 = degrees 2..3.
  EXPECT_NE(summary.find("\"deg_hist_log2\":[0,2,2]"), std::string::npos)
      << summary;
}
#endif  // CHAMELEON_OBS_ENABLED

TEST(IoTest, MissingFileIsIoError) {
  const Result<UncertainGraph> g =
      ReadEdgeList("/nonexistent/chameleon.edges");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace chameleon::graph
