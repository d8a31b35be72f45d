#ifndef CHAMELEON_ANONYMIZE_GEN_OBF_H_
#define CHAMELEON_ANONYMIZE_GEN_OBF_H_

#include <cstddef>
#include <vector>

#include "chameleon/anonymize/perturbation.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/privacy/degree_distribution.h"
#include "chameleon/privacy/obfuscation.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/status.h"

/// \file gen_obf.h
/// One randomized obfuscation attempt at a fixed global noise level σ
/// (paper Algorithm 3, GenObf):
///
///   1. Exclude the ⌈ε/2·|V|⌉ highest-uniqueness vertices H — outliers
///      so re-identifiable that obfuscating them would demand graph-wide
///      noise. Half the ε budget is spent on them up front; their
///      incident edges are never perturbed.
///   2. Draw a candidate set EC of ⌈c·|E|⌉ eligible edges, weighted by
///      the priorities Q^e (Efraimidis–Spirakis exponential-key sampling
///      without replacement, deterministic given the attempt's rng).
///   3. Perturb each candidate with the variant's noise model at scale
///      σ(e) = σ·Q^e / mean(Q over EC) — budget proportional to Q^e,
///      normalized so the mean candidate scale is σ.
///   4. Verify the perturbed graph with the (k,ε)-obfuscation verifier
///      (privacy/obfuscation.h); the attempt succeeds iff ε̂ ≤ ε.
///
/// Edges with p = 1 whose relevance the reused-sampling estimator cannot
/// observe are still eligible: perturbing certain edges is exactly how
/// uncertainty is injected (and the Rep-An p ∈ {0,1} special case relies
/// on it).
///
/// The σ search runs many attempts on one graph, so the work that does
/// not depend on σ or the attempt's rng is done once, in a GenObfPlan:
/// the exclusion set, the eligible edges, and the degree PMFs of the
/// *frozen* vertices — those with no eligible incident edge, whose PMF
/// no attempt can change (the excluded hubs hold most of Σdeg² on
/// heavy-tailed graphs). An attempt then draws keys over the eligible
/// edges only, selects the candidates with a linear-time nth_element,
/// re-probabilizes the input CSR (UncertainGraph::WithProbabilities)
/// instead of rebuilding it, and rebuilds only the live vertices' PMFs.
/// Every choice is the one a from-scratch attempt makes, so the
/// published graph and certificate are bit-identical to it.

namespace chameleon::anonymize {

struct GenObfOptions {
  /// Privacy parameters forwarded to the verifier.
  double k = 100.0;
  double epsilon = 1e-4;
  /// Candidate-set size as a fraction c of |E|.
  double candidate_fraction = 0.3;
  /// Probability q of the uniform escape draw per candidate.
  double white_noise = 0.01;
  NoiseModel noise = NoiseModel::kMaxEntropy;
  privacy::AdversaryModel adversary =
      privacy::AdversaryModel::kRoundedExpectedDegree;
  int threads = 0;
};

/// Outcome of one GenObf attempt.
struct GenObfAttempt {
  graph::UncertainGraph published;
  privacy::ObfuscationCertificate certificate;
  double sigma = 0.0;
  std::size_t perturbed_edges = 0;
  std::size_t excluded_vertices = 0;
  double wall_ms = 0.0;
};

/// The per-publication half of GenObf: everything an attempt needs that
/// depends only on (graph, uniqueness, priorities, options). The plan
/// refers to `graph` and `priorities` without copying them; both must
/// outlive it and stay unchanged.
class GenObfPlan {
 public:
  /// Validates the inputs and plans. `uniqueness` holds U^v per vertex;
  /// `priorities` holds Q^e per edge (perturbation.h).
  static Result<GenObfPlan> Make(const graph::UncertainGraph& graph,
                                 const std::vector<double>& uniqueness,
                                 const std::vector<double>& priorities,
                                 const GenObfOptions& options);

  /// One attempt at noise level σ. Consumes draws from `rng` — pass a
  /// per-attempt stream for reproducible multi-attempt search.
  Result<GenObfAttempt> Attempt(double sigma, Rng& rng) const;

  /// Degree PMFs of `published`, the plan's graph with probabilities
  /// changed on eligible edges only: the frozen vertices' PMFs are
  /// copied from the plan and the rest rebuilt, in a fixed-block
  /// parallel region. Equal bit for bit to
  /// privacy::BuildDegreeDistributions(published).
  std::vector<privacy::DegreeDistribution> DegreeDistributions(
      const graph::UncertainGraph& published) const;

  std::size_t excluded_vertices() const { return excluded_; }
  std::size_t eligible_edges() const { return eligible_.size(); }
  /// Vertices with no eligible incident edge (excluded or isolated ones
  /// included), ascending.
  const std::vector<NodeId>& frozen_vertices() const { return frozen_; }

 private:
  GenObfPlan() = default;

  const graph::UncertainGraph* graph_ = nullptr;
  const std::vector<double>* priorities_ = nullptr;
  GenObfOptions options_;
  std::size_t excluded_ = 0;
  /// Candidate-set size ⌈c·|E|⌉, capped at the eligible count.
  std::size_t want_ = 0;
  /// Edges with neither endpoint excluded, ascending.
  std::vector<EdgeId> eligible_;
  std::vector<NodeId> frozen_;
  /// frozen_dists_[i] is the degree PMF of frozen_[i].
  std::vector<privacy::DegreeDistribution> frozen_dists_;
};

/// One attempt from scratch: GenObfPlan::Make, then Attempt. Arguments
/// as there.
Result<GenObfAttempt> GenObf(const graph::UncertainGraph& graph,
                             const std::vector<double>& uniqueness,
                             const std::vector<double>& priorities,
                             double sigma, const GenObfOptions& options,
                             Rng& rng);

}  // namespace chameleon::anonymize

#endif  // CHAMELEON_ANONYMIZE_GEN_OBF_H_
