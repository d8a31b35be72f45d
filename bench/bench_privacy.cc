// The privacy-core benchmark suite behind the perf-regression gate:
//
//   chameleon_bench_privacy --out=BENCH_privacy.json
//   chameleon_bench_diff BENCH_privacy.json <new BENCH_privacy.json>
//
// Covers the three layers of the privacy subsystem on fixed-seed graphs:
// the O(d²) Poisson-binomial PMF build, the binned uniqueness KDE,
// and the full (k,ε)-obfuscation verifier serial vs 8 workers (the
// parallel twin measures the sharded posterior sweep; on a single-core
// runner it degenerates gracefully to contention-free oversubscription).

#include <cstdint>
#include <vector>

#include "chameleon/graph/generators.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/privacy/degree_distribution.h"
#include "chameleon/privacy/obfuscation.h"
#include "chameleon/privacy/uniqueness.h"
#include "chameleon/util/rng.h"
#include "harness.h"

namespace chameleon {
namespace {

constexpr std::uint64_t kSeed = 2018;

/// The seeded ER graph every suite benchmarks on (p uniform in
/// [0.1, 0.9]).
graph::UncertainGraph BuildGraph(NodeId nodes, double avg_degree) {
  Rng rng(kSeed);
  return graph::RandomUncertainGraph(nodes, avg_degree, 0.1, 0.9, rng)
      .value();
}

// --------------------------------------------------------------------------
// pb_build_er_2k: all-vertex Poisson-binomial PMF build (serial) on a
// 2k-node / ~8k-edge graph — the O(Σ deg²) base cost of every verify.
// --------------------------------------------------------------------------
void BM_PoissonBinomialBuildEr2k(bench::BenchContext& context) {
  const graph::UncertainGraph graph = BuildGraph(2000, 8.0);
  context.SetItemsPerIteration(graph.num_nodes());
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    const auto dists = privacy::BuildDegreeDistributions(graph, 1);
    bench::DoNotOptimize(dists.back().Mean());
  }
}
CHAMELEON_BENCHMARK(BM_PoissonBinomialBuildEr2k);

// --------------------------------------------------------------------------
// uniqueness_er_2k: the linear-binned Gaussian-kernel commonness with the
// Silverman bandwidth over 2k expected degrees.
// --------------------------------------------------------------------------
void BM_UniquenessEr2k(bench::BenchContext& context) {
  const graph::UncertainGraph graph = BuildGraph(2000, 8.0);
  privacy::UniquenessOptions options;
  options.threads = 1;
  context.SetItemsPerIteration(graph.num_nodes());
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    const auto scores = privacy::ComputeUniqueness(graph, options);
    bench::DoNotOptimize(scores.value().scores.back());
  }
}
CHAMELEON_BENCHMARK(BM_UniquenessEr2k);

// --------------------------------------------------------------------------
// obf_verify_er_2k_serial / _8t: the full (k,ε)-obfuscation verifier —
// PMF build + posterior sweep + per-vertex classification — with one
// worker and with eight. The pair is the parallel-speedup probe: diff
// their medians on a multi-core runner.
// --------------------------------------------------------------------------
void RunVerifier(bench::BenchContext& context, int threads) {
  const graph::UncertainGraph graph = BuildGraph(2000, 8.0);
  privacy::ObfuscationOptions options;
  options.k = 64.0;
  options.epsilon = 0.01;
  options.threads = threads;
  options.keep_per_vertex = false;
  context.SetItemsPerIteration(graph.num_nodes());
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    const auto cert = privacy::VerifyObfuscation(graph, options);
    bench::DoNotOptimize(cert.value().epsilon_hat);
  }
}

void BM_ObfVerifyEr2kSerial(bench::BenchContext& context) {
  RunVerifier(context, 1);
}
CHAMELEON_BENCHMARK(BM_ObfVerifyEr2kSerial);

void BM_ObfVerifyEr2k8t(bench::BenchContext& context) {
  RunVerifier(context, 8);
}
CHAMELEON_BENCHMARK(BM_ObfVerifyEr2k8t);

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) {
  return chameleon::bench::RunSuiteMain(
      argc, argv, "chameleon_bench_privacy", "privacy",
      "chameleon_bench_privacy: run the privacy-core benchmark suite and "
      "write a canonical BENCH_<suite>.json for chameleon_bench_diff");
}
