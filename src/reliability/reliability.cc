#include "chameleon/reliability/reliability.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "chameleon/graph/union_find.h"
#include "chameleon/obs/convergence.h"
#include "chameleon/obs/obs.h"
#include "chameleon/reliability/world_sampler.h"
#include "chameleon/util/stats.h"
#include "chameleon/util/string_util.h"

namespace chameleon::rel {
namespace {

using obs::kConfidenceZ;

Status ValidateTerminals(const graph::UncertainGraph& graph, NodeId source,
                         NodeId target) {
  if (source >= graph.num_nodes() || target >= graph.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("terminal pair (%u, %u) out of range for %u nodes", source,
                  target, graph.num_nodes()));
  }
  return Status::OK();
}

Status ValidateOptions(const MonteCarloOptions& options) {
  if (options.worlds == 0) {
    return Status::InvalidArgument("worlds must be positive");
  }
  CHAMELEON_RETURN_IF_ERROR(obs::ValidateStoppingTarget(
      "target_ci_halfwidth", options.target_ci_halfwidth));
  return obs::ValidateStoppingTarget("max_rel_err", options.max_rel_err);
}

struct WorldLoopResult {
  std::size_t worlds = 0;
  bool stopped_early = false;
};

/// The world loop every estimator shares, inside the caller's span:
/// sample a world, unite its edges, let `statistic(dsu)` read it and
/// return the tracker's sample (nullopt: none; 0/1 when `bernoulli`), and
/// stop once `stop(sampled, tracker)` says so — asked only while a
/// stopping rule is set and worlds remain. The tracker `label` reports
/// the loop's progress; it exists only when a stopping rule or live
/// observability needs it, so a dormant fixed-count run skips its work.
template <typename Statistic, typename StopTest>
WorldLoopResult RunWorldLoop(const graph::UncertainGraph& graph,
                             const MonteCarloOptions& options,
                             const char* label, bool bernoulli, Rng& rng,
                             Statistic statistic, StopTest stop) {
  const WorldSampler sampler(graph);
  graph::UnionFind dsu(graph.num_nodes());
  BitVector mask(graph.num_edges());
  const bool adaptive =
      options.target_ci_halfwidth > 0.0 || options.max_rel_err > 0.0;
  std::optional<obs::ConvergenceTracker> tracker;
  if (adaptive || obs::Enabled()) {
    tracker.emplace(label,
                    obs::ConvergenceOptions{
                        .target_ci_halfwidth = options.target_ci_halfwidth,
                        .max_rel_err = options.max_rel_err,
                        .min_samples = options.min_samples,
                        .bernoulli = bernoulli,
                        .total = options.worlds,
                        .log = options.heartbeat});
  }

  WorldLoopResult result;
  {
    CHOBS_SPAN(loop_span, "sample_worlds");
    const auto& edges = graph.edges();
    for (std::size_t w = 0; w < options.worlds; ++w) {
      sampler.SampleMask(rng, mask);
      dsu.Reset();
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if (mask.Get(e)) dsu.Union(edges[e].u, edges[e].v);
      }
      const std::optional<double> x = statistic(dsu);
      result.worlds = w + 1;
      if (!tracker.has_value()) continue;
      if (x.has_value()) tracker->Add(*x);
      if (adaptive && result.worlds < options.worlds &&
          stop(result.worlds, *tracker)) {
        result.stopped_early = true;
        break;
      }
    }
    loop_span.AddCount("worlds", result.worlds);
  }
  if (tracker.has_value()) tracker->Finish(result.stopped_early);
  return result;
}

/// The stop test of estimators whose tracker sample is the estimate's.
bool TrackerConverged(std::size_t /*sampled*/,
                      const obs::ConvergenceTracker& tracker) {
  return tracker.ShouldStop();
}

}  // namespace

Result<ReliabilityEstimate> EstimateTwoTerminalReliability(
    const graph::UncertainGraph& graph, NodeId source, NodeId target,
    const MonteCarloOptions& options, Rng& rng) {
  CHAMELEON_RETURN_IF_ERROR(ValidateTerminals(graph, source, target));
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));

  CHOBS_SPAN(span, "reliability/two_terminal");
  std::size_t hits = 0;
  const WorldLoopResult loop = RunWorldLoop(
      graph, options, "reliability/two_terminal", /*bernoulli=*/true, rng,
      [&](graph::UnionFind& dsu) -> std::optional<double> {
        const bool connected = dsu.Connected(source, target);
        hits += connected;
        return connected ? 1.0 : 0.0;
      },
      TrackerConverged);

  ReliabilityEstimate estimate;
  estimate.reliability =
      static_cast<double>(hits) / static_cast<double>(loop.worlds);
  estimate.worlds = loop.worlds;
  estimate.ci_halfwidth = obs::WilsonCiHalfwidth(hits, loop.worlds,
                                                 kConfidenceZ);
  estimate.stopped_early = loop.stopped_early;
  span.AddCount("worlds", loop.worlds);
  span.AddCount("hits", hits);
  CHOBS_COUNT("reliability/two_terminal/estimates", 1);
  return estimate;
}

Result<double> TwoTerminalReliability(const graph::UncertainGraph& graph,
                                      NodeId source, NodeId target,
                                      const MonteCarloOptions& options,
                                      Rng& rng) {
  Result<ReliabilityEstimate> estimate =
      EstimateTwoTerminalReliability(graph, source, target, options, rng);
  if (!estimate.ok()) return estimate.status();
  return estimate->reliability;
}

Result<PairSetEstimate> EstimatePairSetReliability(
    const graph::UncertainGraph& graph,
    const std::vector<std::pair<NodeId, NodeId>>& pairs,
    const MonteCarloOptions& options, Rng& rng) {
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));
  for (const auto& [s, t] : pairs) {
    CHAMELEON_RETURN_IF_ERROR(ValidateTerminals(graph, s, t));
  }

  CHOBS_SPAN(span, "reliability/pair_set");
  span.AddCount("pairs", pairs.size());
  std::vector<std::size_t> hits(pairs.size(), 0);
  // Per-pair Wilson widths cost O(pairs) to evaluate; amortize the check.
  constexpr std::size_t kStopCheckStride = 16;

  const auto all_pairs_converged = [&](std::size_t n) {
    return std::all_of(hits.begin(), hits.end(), [&](std::size_t pair_hits) {
      return obs::MeetsStoppingRule(
          obs::WilsonCiHalfwidth(pair_hits, n, kConfidenceZ),
          static_cast<double>(pair_hits) / static_cast<double>(n),
          options.target_ci_halfwidth, options.max_rel_err);
    });
  };

  // Reused sampling: one world serves every pair (Lemma 3's cost
  // argument) — the loop is worlds-major, pairs-minor. The tracker
  // follows the per-world fraction of connected pairs (telemetry);
  // stopping is decided against the *widest* per-pair Wilson interval so
  // the precision guarantee holds for every pair.
  const WorldLoopResult loop = RunWorldLoop(
      graph, options, "reliability/pair_set", /*bernoulli=*/false, rng,
      [&](graph::UnionFind& dsu) -> std::optional<double> {
        std::size_t connected = 0;
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          if (dsu.Connected(pairs[i].first, pairs[i].second)) {
            ++hits[i];
            ++connected;
          }
        }
        if (pairs.empty()) return std::nullopt;
        return static_cast<double>(connected) /
               static_cast<double>(pairs.size());
      },
      [&](std::size_t sampled, const obs::ConvergenceTracker& /*tracker*/) {
        return !pairs.empty() && sampled >= options.min_samples &&
               sampled % kStopCheckStride == 0 &&
               all_pairs_converged(sampled);
      });

  PairSetEstimate estimate;
  estimate.reliability.assign(pairs.size(), 0.0);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    estimate.reliability[i] =
        static_cast<double>(hits[i]) / static_cast<double>(loop.worlds);
    estimate.max_ci_halfwidth =
        std::max(estimate.max_ci_halfwidth,
                 obs::WilsonCiHalfwidth(hits[i], loop.worlds, kConfidenceZ));
  }
  estimate.worlds = loop.worlds;
  estimate.stopped_early = loop.stopped_early;
  CHOBS_COUNT("reliability/pair_set/estimates", 1);
  return estimate;
}

Result<std::vector<double>> PairSetReliability(
    const graph::UncertainGraph& graph,
    const std::vector<std::pair<NodeId, NodeId>>& pairs,
    const MonteCarloOptions& options, Rng& rng) {
  Result<PairSetEstimate> estimate =
      EstimatePairSetReliability(graph, pairs, options, rng);
  if (!estimate.ok()) return estimate.status();
  return std::move(estimate->reliability);
}

Result<ConnectedPairsEstimate> ExpectedConnectedPairs(
    const graph::UncertainGraph& graph, const MonteCarloOptions& options,
    Rng& rng) {
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));

  CHOBS_SPAN(span, "reliability/connected_pairs");
  RunningStats stats;
  const WorldLoopResult loop = RunWorldLoop(
      graph, options, "reliability/connected_pairs", /*bernoulli=*/false,
      rng,
      [&](graph::UnionFind& dsu) -> std::optional<double> {
        const double connected = static_cast<double>(dsu.ConnectedPairs());
        stats.Add(connected);
        return connected;
      },
      TrackerConverged);

  ConnectedPairsEstimate estimate;
  estimate.expected_pairs = stats.mean();
  estimate.stddev = stats.stddev();
  estimate.worlds = loop.worlds;
  estimate.ci_halfwidth =
      obs::NormalCiHalfwidth(stats.variance(), loop.worlds, kConfidenceZ);
  estimate.stopped_early = loop.stopped_early;
  span.AddCount("worlds", loop.worlds);
  CHOBS_COUNT("reliability/connected_pairs/estimates", 1);
  return estimate;
}

}  // namespace chameleon::rel
