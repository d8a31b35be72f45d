#include "chameleon/anonymize/gen_obf.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <utility>

#include "chameleon/obs/obs.h"
#include "chameleon/util/parallel.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/timer.h"

namespace chameleon::anonymize {
namespace {

/// Vertices per scheduling block of an attempt's PMF rebuild, as in
/// privacy::BuildDegreeDistributions.
constexpr std::size_t kPmfBlock = 64;

Status ValidateOptions(const graph::UncertainGraph& graph,
                       const std::vector<double>& uniqueness,
                       const std::vector<double>& priorities,
                       const GenObfOptions& options) {
  if (uniqueness.size() != graph.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("uniqueness has %zu scores for %u nodes", uniqueness.size(),
                  graph.num_nodes()));
  }
  if (priorities.size() != graph.num_edges()) {
    return Status::InvalidArgument(
        StrFormat("priorities has %zu entries for %zu edges",
                  priorities.size(), graph.num_edges()));
  }
  if (options.candidate_fraction <= 0.0 || options.candidate_fraction > 1.0) {
    return Status::InvalidArgument("candidate_fraction must be in (0, 1]");
  }
  if (options.white_noise < 0.0 || options.white_noise > 1.0) {
    return Status::InvalidArgument("white_noise must be in [0, 1]");
  }
  return Status::OK();
}

/// Indices of the h highest-uniqueness vertices; ties broken toward the
/// lower id so the exclusion set is a pure function of the scores.
std::vector<bool> ExcludeHardest(const std::vector<double>& uniqueness,
                                 std::size_t h) {
  std::vector<NodeId> order(uniqueness.size());
  std::iota(order.begin(), order.end(), NodeId{0});
  const auto top =
      order.begin() + static_cast<std::ptrdiff_t>(std::min(h, order.size()));
  std::partial_sort(order.begin(), top, order.end(), [&](NodeId a, NodeId b) {
    if (uniqueness[a] != uniqueness[b]) return uniqueness[a] > uniqueness[b];
    return a < b;
  });
  std::vector<bool> excluded(uniqueness.size(), false);
  for (auto it = order.begin(); it != top; ++it) excluded[*it] = true;
  return excluded;
}

}  // namespace

Result<GenObfPlan> GenObfPlan::Make(const graph::UncertainGraph& graph,
                                    const std::vector<double>& uniqueness,
                                    const std::vector<double>& priorities,
                                    const GenObfOptions& options) {
  CHAMELEON_RETURN_IF_ERROR(
      ValidateOptions(graph, uniqueness, priorities, options));
  CHOBS_SPAN(span, "anonymize/genobf_plan");
  const auto& edges = graph.edges();
  GenObfPlan plan;
  plan.graph_ = &graph;
  plan.priorities_ = &priorities;
  plan.options_ = options;

  // Hardest-vertex exclusion: ⌈ε/2·|V|⌉ vertices, half the ε budget.
  plan.excluded_ = static_cast<std::size_t>(
      std::ceil(0.5 * options.epsilon * graph.num_nodes()));
  const std::vector<bool> excluded = ExcludeHardest(uniqueness, plan.excluded_);

  std::vector<bool> live(graph.num_nodes(), false);
  plan.eligible_.reserve(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (!excluded[edges[e].u] && !excluded[edges[e].v]) {
      plan.eligible_.push_back(static_cast<EdgeId>(e));
      live[edges[e].u] = true;
      live[edges[e].v] = true;
    }
  }
  plan.want_ = std::min(
      static_cast<std::size_t>(std::ceil(options.candidate_fraction *
                                         static_cast<double>(edges.size()))),
      plan.eligible_.size());

  // No attempt perturbs an edge of a frozen vertex, so its PMF is the
  // same in every attempt: build it once. The frozen set is mostly the
  // excluded hubs, so the region is hinted with its mean O(d²) cost.
  std::size_t frozen_work = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (live[v]) continue;
    plan.frozen_.push_back(v);
    const std::size_t d = graph.Neighbors(v).size();
    frozen_work += d * d;
  }
  plan.frozen_dists_.resize(plan.frozen_.size());
  ParallelForBlocks(
      plan.frozen_.size(), 1, options.threads,
      [&](std::size_t /*block*/, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          plan.frozen_dists_[i] =
              privacy::DegreeDistribution::ForVertex(graph, plan.frozen_[i]);
        }
      },
      frozen_work / std::max<std::size_t>(1, plan.frozen_.size()));
  span.AddCount("eligible", plan.eligible_.size());
  span.AddCount("frozen", plan.frozen_.size());
  return plan;
}

Result<GenObfAttempt> GenObfPlan::Attempt(double sigma, Rng& rng) const {
  if (!(sigma > 0.0)) {
    return Status::InvalidArgument("sigma must be positive");
  }
  CHOBS_SPAN(span, "anonymize/genobf");
  WallTimer timer;
  const graph::UncertainGraph& graph = *graph_;
  const std::vector<double>& priorities = *priorities_;
  const auto& edges = graph.edges();

  // Q-weighted candidate selection without replacement: keep the want_
  // smallest exponential keys −log(u)/Q^e. Zero-priority edges get an
  // infinite key and are chosen only when everything else ran out. Keys
  // are drawn in edge order, so the draw sequence — and the candidate
  // set — is a pure function of the rng stream. (key, edge) pairs are
  // distinct, so nth_element picks exactly the set a full sort would.
  std::vector<bool> chosen(edges.size(), false);
  {
    std::vector<std::pair<double, EdgeId>> keyed;
    keyed.reserve(eligible_.size());
    for (const EdgeId e : eligible_) {
      const double u = 1.0 - rng.UniformDouble();  // (0, 1]
      const double w = priorities[e];
      const double key = w > 0.0 ? -std::log(u) / w
                                 : std::numeric_limits<double>::infinity();
      keyed.emplace_back(key, e);
    }
    std::nth_element(keyed.begin(),
                     keyed.begin() + static_cast<std::ptrdiff_t>(want_),
                     keyed.end());
    for (std::size_t i = 0; i < want_; ++i) chosen[keyed[i].second] = true;
  }

  // Perturb candidates in edge order (stable rng consumption). The
  // per-edge scale is σ·Q^e normalized by the candidate-mean priority.
  double q_sum = 0.0;
  for (const EdgeId e : eligible_) {
    if (chosen[e]) q_sum += priorities[e];
  }
  const double q_mean = want_ > 0 ? q_sum / static_cast<double>(want_) : 0.0;
  std::vector<double> perturbed(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) perturbed[e] = edges[e].p;
  for (const EdgeId e : eligible_) {
    if (!chosen[e]) continue;
    const double scale =
        q_mean > 0.0 ? sigma * priorities[e] / q_mean : sigma;
    perturbed[e] = PerturbProbability(perturbed[e], scale, options_.noise,
                                      options_.white_noise, rng);
  }
  Result<graph::UncertainGraph> published = graph.WithProbabilities(perturbed);
  if (!published.ok()) return published.status();

  const std::vector<privacy::DegreeDistribution> dists =
      DegreeDistributions(*published);

  // Anonymity check via the existing (k,ε) verifier.
  privacy::ObfuscationOptions verify;
  verify.k = options_.k;
  verify.epsilon = options_.epsilon;
  verify.adversary = options_.adversary;
  verify.threads = options_.threads;
  verify.keep_per_vertex = false;
  Result<privacy::ObfuscationCertificate> certificate =
      privacy::VerifyObfuscation(*published, dists, verify);
  if (!certificate.ok()) return certificate.status();

  GenObfAttempt attempt;
  attempt.published = std::move(*published);
  attempt.certificate = std::move(*certificate);
  attempt.sigma = sigma;
  attempt.perturbed_edges = want_;
  attempt.excluded_vertices = excluded_;
  attempt.wall_ms = timer.ElapsedMillis();
  span.AddCount("candidates", want_);
  span.AddCount("excluded", excluded_);
  return attempt;
}

std::vector<privacy::DegreeDistribution> GenObfPlan::DegreeDistributions(
    const graph::UncertainGraph& published) const {
  CHOBS_SPAN(span, "privacy/degree_distributions");
  const std::size_t n = published.num_nodes();
  std::vector<privacy::DegreeDistribution> dists(n);
  ParallelForBlocks(
      n, kPmfBlock, options_.threads,
      [&](std::size_t /*block*/, std::size_t begin, std::size_t end) {
        std::size_t f = static_cast<std::size_t>(
            std::lower_bound(frozen_.begin(), frozen_.end(), begin) -
            frozen_.begin());
        for (std::size_t v = begin; v < end; ++v) {
          if (f < frozen_.size() && frozen_[f] == v) {
            dists[v] = frozen_dists_[f++];
          } else {
            dists[v] = privacy::DegreeDistribution::ForVertex(
                published, static_cast<NodeId>(v));
          }
        }
      });
  span.AddCount("vertices", n);
  span.AddCount("rebuilt", n - frozen_.size());
  CHOBS_COUNT("privacy/degree_distributions/built", n - frozen_.size());
  return dists;
}

Result<GenObfAttempt> GenObf(const graph::UncertainGraph& graph,
                             const std::vector<double>& uniqueness,
                             const std::vector<double>& priorities,
                             double sigma, const GenObfOptions& options,
                             Rng& rng) {
  Result<GenObfPlan> plan =
      GenObfPlan::Make(graph, uniqueness, priorities, options);
  if (!plan.ok()) return plan.status();
  return plan->Attempt(sigma, rng);
}

}  // namespace chameleon::anonymize
