#include "generators.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <unordered_set>

#include "chameleon/util/rng.h"

namespace perfbench {
namespace {

std::uint64_t EdgeKey(std::uint32_t u, std::uint32_t v) {
  return (static_cast<std::uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
}

/// Probability in 1e-4 steps, so the value survives the text round trip
/// bit for bit (k / 10000 is the double nearest the printed decimal).
std::uint32_t DrawProbTenThousandths(chameleon::Rng& rng) {
  const double p = rng.Uniform(kProbLow, kProbHigh);
  return static_cast<std::uint32_t>(std::lround(p * 1e4));
}

GeneratedGraph Finish(std::uint32_t nodes,
                      std::vector<std::pair<std::uint32_t, std::uint32_t>>
                          pairs,
                      chameleon::Rng& rng) {
  std::sort(pairs.begin(), pairs.end());
  GeneratedGraph graph;
  graph.nodes = nodes;
  graph.edges.reserve(pairs.size());
  for (const auto& [u, v] : pairs) {
    const std::uint32_t p4 = DrawProbTenThousandths(rng);
    graph.edges.push_back({u, v, static_cast<double>(p4) / 1e4});
  }
  return graph;
}

std::size_t TargetEdges(std::uint32_t nodes, double avg_degree) {
  const double max_edges =
      0.5 * static_cast<double>(nodes) * static_cast<double>(nodes - 1);
  const double want = static_cast<double>(nodes) * avg_degree / 2.0;
  return static_cast<std::size_t>(std::min(want, 0.5 * max_edges));
}

}  // namespace

GeneratedGraph GenerateErdosRenyi(std::uint32_t nodes, double avg_degree,
                                  std::uint64_t seed) {
  chameleon::Rng rng(seed);
  const std::size_t target = TargetEdges(nodes, avg_degree);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(2 * target);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(target);
  while (pairs.size() < target) {
    const auto u = static_cast<std::uint32_t>(rng.UniformInt(nodes));
    const auto v = static_cast<std::uint32_t>(rng.UniformInt(nodes));
    if (u == v || !seen.insert(EdgeKey(u, v)).second) continue;
    pairs.emplace_back(std::min(u, v), std::max(u, v));
  }
  return Finish(nodes, std::move(pairs), rng);
}

GeneratedGraph GenerateChungLu(std::uint32_t nodes, double avg_degree,
                               double gamma, std::uint64_t seed,
                               std::uint64_t id_seed) {
  chameleon::Rng rng(seed);
  // Cumulative weights; the scale to mean avg_degree cancels in the
  // endpoint draw, so only the shape matters here.
  const double exponent = -1.0 / (gamma - 1.0);
  std::vector<double> cumulative(nodes);
  double total = 0.0;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    total += std::pow(static_cast<double>(i) + 1.0, exponent);
    cumulative[i] = total;
  }
  const auto draw = [&] {
    const double x = rng.UniformDouble() * total;
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), x);
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - cumulative.begin(), nodes - 1));
  };
  // Shuffled ids, so the hubs are not the lowest vertex numbers.
  chameleon::Rng id_rng(id_seed);
  std::vector<std::uint32_t> id(nodes);
  std::iota(id.begin(), id.end(), 0u);
  for (std::uint32_t i = nodes; i > 1; --i) {
    std::swap(id[i - 1], id[id_rng.UniformInt(i)]);
  }
  const std::size_t target = TargetEdges(nodes, avg_degree);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(2 * target);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(target);
  while (pairs.size() < target) {
    const std::uint32_t u = id[draw()];
    const std::uint32_t v = id[draw()];
    if (u == v || !seen.insert(EdgeKey(u, v)).second) continue;
    pairs.emplace_back(std::min(u, v), std::max(u, v));
  }
  return Finish(nodes, std::move(pairs), rng);
}

std::uint64_t WriteGraph(const GeneratedGraph& graph,
                         const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) return 0;
  std::string text = "# nodes " + std::to_string(graph.nodes) + "\n";
  text.reserve(text.size() + graph.edges.size() * 22);
  char buf[64];
  for (const GenEdge& e : graph.edges) {
    char* end = std::to_chars(buf, buf + 20, e.u).ptr;
    *end++ = ' ';
    end = std::to_chars(end, end + 20, e.v).ptr;
    // p is k/10000 with k in [2000, 9000]: print it as 0.kkkk.
    const auto p4 = static_cast<unsigned>(std::lround(e.p * 1e4));
    end += std::snprintf(end, 16, " 0.%04u\n", p4);
    text.append(buf, end);
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), out) == text.size();
  const bool closed = std::fclose(out) == 0;
  return ok && closed ? text.size() : 0;
}

}  // namespace perfbench
