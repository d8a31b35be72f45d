// The anonymization benchmark suite behind the perf-regression gate:
//
//   chameleon_bench_anonymize --out=BENCH_anonymize.json
//   chameleon_bench_diff BENCH_anonymize.json <new BENCH_anonymize.json>
//
// Covers the hot paths of the Chameleon core on fixed-seed graphs: the
// reused-sampling reliability-relevance sweep (the O(N·α·|E|) inner loop
// of RSME/RS) serial vs 8 workers, one full GenObf attempt (candidate
// selection + perturbation + verification — the unit of the σ search),
// and the truncated-normal sampler the perturbation leans on.

#include <cstdint>
#include <optional>
#include <vector>

#include "chameleon/anonymize/gen_obf.h"
#include "chameleon/anonymize/perturbation.h"
#include "chameleon/anonymize/relevance.h"
#include "chameleon/graph/generators.h"
#include "chameleon/graph/uncertain_graph.h"
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
// relevance_er_2k_serial / _8t: the reused-sampling ERR^e estimator over
// 200 worlds on a 2k-node / ~8k-edge graph — one union-find pass plus a
// full edge sweep per world. The pair probes the fixed-block parallel
// reduction (bit-identical results are asserted in tests, speed here).
// --------------------------------------------------------------------------
void RunRelevance(bench::BenchContext& context, int threads) {
  // Built once per process: the fixture is immutable and rebuilding it
  // every repetition would skew quick mode, where calibration settles on
  // a single iteration and setup cost cannot amortize.
  static const graph::UncertainGraph& graph =
      *new graph::UncertainGraph(BuildGraph(2000, 8.0));
  anonymize::RelevanceOptions options;
  options.worlds = 200;
  options.threads = threads;
  options.heartbeat = false;
  context.SetItemsPerIteration(options.worlds * graph.num_edges());
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    const auto rel = anonymize::EstimateRelevance(graph, options);
    bench::DoNotOptimize(rel.value().mean_err);
  }
}

void BM_RelevanceEr2kSerial(bench::BenchContext& context) {
  RunRelevance(context, 1);
}
CHAMELEON_BENCHMARK(BM_RelevanceEr2kSerial);

void BM_RelevanceEr2k8t(bench::BenchContext& context) {
  RunRelevance(context, 8);
}
CHAMELEON_BENCHMARK(BM_RelevanceEr2k8t);

// --------------------------------------------------------------------------
// gen_obf_attempt_er_2k: one full GenObf attempt at a fixed σ —
// Q-weighted candidate sampling, perturbation, the PMF rebuild of the
// live vertices and the (k,ε) verification — the repeated unit of the σ
// search. Uniqueness, priorities and the GenObfPlan (exclusion set,
// eligible edges, frozen PMFs) are built once, as the driver does.
// --------------------------------------------------------------------------
void BM_GenObfAttemptEr2k(bench::BenchContext& context) {
  // Graph, uniqueness scores, priorities and the plan are computed once
  // per process, exactly as the sigma-search driver amortizes them
  // across attempts. The uniqueness sweep alone costs several attempts'
  // worth of time, so folding it into the timed region would dominate
  // quick mode's single-iteration repetitions.
  struct Fixture {
    graph::UncertainGraph graph = BuildGraph(2000, 8.0);
    std::vector<double> scores;
    std::vector<double> priorities;
    anonymize::GenObfOptions options;
    std::optional<anonymize::GenObfPlan> plan;
    Fixture() {
      privacy::UniquenessOptions uniq_options;
      uniq_options.threads = 1;
      scores = privacy::ComputeUniqueness(graph, uniq_options).value().scores;
      priorities =
          anonymize::ComputeEdgePriorities(graph, scores, {}).value();
      options.k = 64.0;
      options.epsilon = 0.01;
      options.threads = 1;
      plan.emplace(
          anonymize::GenObfPlan::Make(graph, scores, priorities, options)
              .value());
    }
  };
  static const Fixture& fixture = *new Fixture();
  context.SetItemsPerIteration(fixture.graph.num_edges());
  std::uint64_t attempt = 0;
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    Rng rng(kSeed + attempt++);
    const auto result = fixture.plan->Attempt(0.05, rng);
    bench::DoNotOptimize(result.value().certificate.epsilon_hat);
  }
}
CHAMELEON_BENCHMARK(BM_GenObfAttemptEr2k);

// --------------------------------------------------------------------------
// trunc_normal_draws: the truncated-normal sampler across the three
// acceptance regimes the perturbation exercises (half-line σ ≪ 1,
// mode-covered window, narrow slab), 4096 draws per iteration.
// --------------------------------------------------------------------------
void BM_TruncatedNormalDraws(bench::BenchContext& context) {
  constexpr std::uint64_t kDraws = 4096;
  Rng rng(kSeed);
  context.SetItemsPerIteration(kDraws);
  double sink = 0.0;
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    for (std::uint64_t d = 0; d < kDraws; d += 3) {
      sink += rng.TruncatedGaussian(0.0, 0.05, 0.0, 1.0);
      sink += rng.TruncatedGaussian(0.0, 1.0, -1.0, 1.0);
      sink += rng.TruncatedGaussian(0.0, 1.0, 0.2, 0.3);
    }
    bench::DoNotOptimize(sink);
  }
}
CHAMELEON_BENCHMARK(BM_TruncatedNormalDraws);

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) {
  return chameleon::bench::RunSuiteMain(
      argc, argv, "chameleon_bench_anonymize", "anonymize",
      "chameleon_bench_anonymize: run the anonymization benchmark suite "
      "and write a canonical BENCH_<suite>.json for chameleon_bench_diff");
}
