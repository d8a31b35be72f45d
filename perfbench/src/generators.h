#ifndef PERFBENCH_GENERATORS_H_
#define PERFBENCH_GENERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file generators.h
/// Seeded uncertain-graph generators for the benchmark's workloads. Both
/// return canonical (u < v), sorted, duplicate-free edge lists whose
/// probabilities are quantized to four decimals, exactly as they are
/// written to the edge-list file, so the parsed graph equals the
/// generated one.

namespace perfbench {

struct GenEdge {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  double p = 0.0;
};

struct GeneratedGraph {
  std::uint32_t nodes = 0;
  std::vector<GenEdge> edges;
};

/// Probability range of every generated edge (the range scripts/gen_er.py
/// uses by default).
inline constexpr double kProbLow = 0.2;
inline constexpr double kProbHigh = 0.9;

/// Erdős–Rényi G(n, m): m = n·avg_degree/2 distinct non-loop edges drawn
/// uniformly, p ~ U[kProbLow, kProbHigh].
GeneratedGraph GenerateErdosRenyi(std::uint32_t nodes, double avg_degree,
                                  std::uint64_t seed);

/// Chung–Lu power law: vertex weight w_i ∝ (i+1)^(−1/(γ−1)) scaled to
/// mean avg_degree, m = n·avg_degree/2 distinct edges whose endpoints are
/// drawn independently by weight (loops and repeats are redrawn), p ~
/// U[kProbLow, kProbHigh]. Vertex ids are shuffled by a permutation drawn
/// from `id_seed` alone: the hubs' ids decide when the parallel PMF build
/// reaches them, which sets its critical path, so a workload keeps them
/// fixed while `seed` varies the edges and probabilities.
GeneratedGraph GenerateChungLu(std::uint32_t nodes, double avg_degree,
                               double gamma, std::uint64_t seed,
                               std::uint64_t id_seed);

/// Writes the `# nodes` header plus one `u v p` line per edge. Returns
/// the bytes written, or 0 on an I/O error.
std::uint64_t WriteGraph(const GeneratedGraph& graph,
                         const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATORS_H_
