// GenObf, the repeated unit of the σ search (paper Algorithm 3).
//
// The differential tests hold a planned attempt to its from-scratch
// parts: the PMFs it reuses and rebuilds against
// privacy::BuildDegreeDistributions of the published graph, and its
// certificate against privacy::VerifyObfuscation of that graph.
// GoldenPublications holds the fixed-seed publications of a hub-heavy
// graph bit for bit: ME and RSME at 1 and 3 workers, hashed over σ, the
// certificate's ε̂, the attempt count, every attempt's ε̂ and every
// published probability.

#include "chameleon/anonymize/gen_obf.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/anonymize/chameleon.h"
#include "chameleon/anonymize/perturbation.h"
#include "chameleon/graph/generators.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/privacy/degree_distribution.h"
#include "chameleon/privacy/obfuscation.h"
#include "chameleon/privacy/uniqueness.h"
#include "chameleon/util/rng.h"

namespace chameleon::anonymize {
namespace {

using graph::UncertainGraph;
using graph::UncertainGraphBuilder;

/// ER(3300, 6) plus four planted hubs of degree ≥ 320 and five isolated
/// vertices (ids 3300..3304). The hubs are the highest-uniqueness
/// vertices, so the exclusion set freezes their PMFs.
UncertainGraph HubHeavyGraph() {
  constexpr NodeId kEr = 3300;
  constexpr NodeId kIsolated = 5;
  Rng rng(2018);
  std::vector<graph::UncertainEdge> edges =
      graph::RandomUncertainEdges(kEr, 6.0, 0.1, 0.9, rng);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const auto& e : edges) seen.emplace(e.u, e.v);
  for (NodeId hub = 0; hub < 4; ++hub) {
    std::size_t added = 0;
    while (added < 320) {
      NodeId v = static_cast<NodeId>(rng.UniformInt(kEr));
      if (v == hub) continue;
      const auto key = std::minmax(hub, v);
      if (!seen.insert(key).second) continue;
      edges.push_back({key.first, key.second, rng.Uniform(0.2, 1.0)});
      ++added;
    }
  }
  UncertainGraphBuilder builder(kEr + kIsolated);
  for (const auto& e : edges) EXPECT_TRUE(builder.AddEdge(e.u, e.v, e.p).ok());
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

/// FNV-1a over 64-bit words.
class Hasher {
 public:
  void Add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(double x) { Add(std::bit_cast<std::uint64_t>(x)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t PublicationHash(const AnonymizeResult& r) {
  Hasher h;
  h.Add(static_cast<std::uint64_t>(r.feasible));
  h.Add(r.sigma);
  h.Add(r.certificate.epsilon_hat);
  h.Add(static_cast<std::uint64_t>(r.attempts));
  for (const SigmaTraceEntry& entry : r.trace) h.Add(entry.epsilon_hat);
  for (const auto& e : r.published.edges()) h.Add(e.p);
  return h.value();
}

ChameleonOptions GoldenOptions(double k, int threads) {
  ChameleonOptions options;
  options.k = k;
  options.epsilon = 0.016;
  options.trials = 2;
  options.relevance_worlds = 100;
  options.refine_iters = 3;
  options.heartbeat = false;
  options.threads = threads;
  return options;
}

struct Inputs {
  std::vector<double> uniqueness;
  std::vector<double> priorities;
};

/// The ME inputs of GenObf: uniqueness scores and relevance-free Q^e.
Inputs MeInputs(const UncertainGraph& g) {
  Inputs in;
  Result<privacy::UniquenessScores> uniqueness =
      privacy::ComputeUniqueness(g, privacy::UniquenessOptions{});
  EXPECT_TRUE(uniqueness.ok());
  in.uniqueness = std::move(uniqueness->scores);
  Result<std::vector<double>> priorities =
      ComputeEdgePriorities(g, in.uniqueness, {});
  EXPECT_TRUE(priorities.ok());
  in.priorities = std::move(*priorities);
  return in;
}

GenObfOptions AttemptOptions(double epsilon, int threads) {
  GenObfOptions options;
  options.k = 800.0;
  options.epsilon = epsilon;
  options.threads = threads;
  return options;
}

void ExpectSameCertificate(const privacy::ObfuscationCertificate& a,
                           const privacy::ObfuscationCertificate& b) {
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(a.not_obfuscated, b.not_obfuscated);
  EXPECT_EQ(a.epsilon_hat, b.epsilon_hat);
  EXPECT_EQ(a.obfuscated, b.obfuscated);
  EXPECT_EQ(a.min_entropy_bits, b.min_entropy_bits);
  EXPECT_EQ(a.mean_entropy_bits, b.mean_entropy_bits);
  EXPECT_EQ(a.distinct_omegas, b.distinct_omegas);
}

/// Runs attempts at several σ and holds each to the from-scratch parts.
void CheckAttemptsAgainstRebuild(const UncertainGraph& g, const Inputs& in,
                                 const GenObfOptions& options) {
  const Result<GenObfPlan> plan =
      GenObfPlan::Make(g, in.uniqueness, in.priorities, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::uint64_t seed = 1;
  for (const double sigma : {0.01, 0.1, 0.5, 1.0}) {
    SCOPED_TRACE(testing::Message() << "sigma=" << sigma);
    Rng rng(seed++);
    const Result<GenObfAttempt> attempt = plan->Attempt(sigma, rng);
    ASSERT_TRUE(attempt.ok()) << attempt.status().ToString();
    const UncertainGraph& published = attempt->published;

    const std::vector<privacy::DegreeDistribution> reused =
        plan->DegreeDistributions(published);
    const std::vector<privacy::DegreeDistribution> rebuilt =
        privacy::BuildDegreeDistributions(published, options.threads);
    ASSERT_EQ(reused.size(), rebuilt.size());
    for (std::size_t v = 0; v < reused.size(); ++v) {
      ASSERT_EQ(reused[v].pmf(), rebuilt[v].pmf()) << "vertex " << v;
    }

    privacy::ObfuscationOptions verify;
    verify.k = options.k;
    verify.epsilon = options.epsilon;
    verify.threads = options.threads;
    verify.keep_per_vertex = false;
    const Result<privacy::ObfuscationCertificate> full =
        privacy::VerifyObfuscation(published, verify);
    ASSERT_TRUE(full.ok());
    ExpectSameCertificate(attempt->certificate, *full);

    // The one-shot entry point takes the same path.
    Rng again(seed - 1);
    const Result<GenObfAttempt> once = GenObf(
        g, in.uniqueness, in.priorities, sigma, options, again);
    ASSERT_TRUE(once.ok());
    EXPECT_EQ(once->published.edges(), published.edges());
    ExpectSameCertificate(once->certificate, attempt->certificate);
  }
}

TEST(GenObfPlanTest, AttemptMatchesRebuildOnHubHeavyGraph) {
  const UncertainGraph g = HubHeavyGraph();
  const Inputs in = MeInputs(g);
  for (const int threads : {1, 3}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const GenObfOptions options = AttemptOptions(0.016, threads);
    const Result<GenObfPlan> plan =
        GenObfPlan::Make(g, in.uniqueness, in.priorities, options);
    ASSERT_TRUE(plan.ok());
    // ⌈0.008·3305⌉ excluded; the four hubs are among them and frozen.
    EXPECT_EQ(plan->excluded_vertices(), 27u);
    const std::vector<NodeId>& frozen = plan->frozen_vertices();
    for (NodeId v : {0u, 1u, 2u, 3u, 3300u, 3301u, 3302u, 3303u, 3304u}) {
      EXPECT_TRUE(std::binary_search(frozen.begin(), frozen.end(), v))
          << "vertex " << v;
    }
    CheckAttemptsAgainstRebuild(g, in, options);
  }
}

TEST(GenObfPlanTest, EpsilonZeroFreezesOnlyIsolatedVertices) {
  const UncertainGraph g = HubHeavyGraph();
  const Inputs in = MeInputs(g);
  const GenObfOptions options = AttemptOptions(0.0, 3);
  const Result<GenObfPlan> plan =
      GenObfPlan::Make(g, in.uniqueness, in.priorities, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->excluded_vertices(), 0u);
  EXPECT_EQ(plan->eligible_edges(), g.num_edges());
  std::vector<NodeId> isolated;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.Neighbors(v).empty()) isolated.push_back(v);
  }
  EXPECT_GE(isolated.size(), 5u);  // the planted ones and ER's own
  EXPECT_EQ(plan->frozen_vertices(), isolated);
  CheckAttemptsAgainstRebuild(g, in, options);
}

TEST(GenObfPlanTest, NoEligibleEdgePublishesTheInput) {
  // A star whose center is the one excluded vertex: every edge touches
  // it, so nothing is eligible and every vertex is frozen.
  UncertainGraphBuilder builder(10);
  for (NodeId leaf = 1; leaf < 10; ++leaf) {
    ASSERT_TRUE(builder.AddEdge(0, leaf, 0.1 * leaf).ok());
  }
  const Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  Inputs in;
  in.uniqueness.assign(10, 0.1);
  in.uniqueness[0] = 1.0;
  in.priorities.assign(g->num_edges(), 1.0);
  GenObfOptions options = AttemptOptions(0.2, 1);  // ⌈0.1·10⌉ = 1
  options.k = 2.0;
  const Result<GenObfPlan> plan =
      GenObfPlan::Make(*g, in.uniqueness, in.priorities, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->excluded_vertices(), 1u);
  EXPECT_EQ(plan->eligible_edges(), 0u);
  EXPECT_EQ(plan->frozen_vertices().size(), 10u);

  Rng rng(3);
  const Result<GenObfAttempt> attempt = plan->Attempt(0.5, rng);
  ASSERT_TRUE(attempt.ok());
  EXPECT_EQ(attempt->perturbed_edges, 0u);
  EXPECT_EQ(attempt->published.edges(), g->edges());
  EXPECT_EQ(attempt->published.expected_degrees(), g->expected_degrees());
  CheckAttemptsAgainstRebuild(*g, in, options);
}

TEST(GenObfPlanTest, InvalidInputsAreRejected) {
  const UncertainGraph g = HubHeavyGraph();
  const Inputs in = MeInputs(g);
  const GenObfOptions options = AttemptOptions(0.016, 1);
  std::vector<double> short_scores(in.uniqueness.begin() + 1,
                                   in.uniqueness.end());
  EXPECT_FALSE(
      GenObfPlan::Make(g, short_scores, in.priorities, options).ok());
  EXPECT_FALSE(GenObfPlan::Make(g, in.uniqueness, {}, options).ok());
  GenObfOptions bad = options;
  bad.candidate_fraction = 0.0;
  EXPECT_FALSE(GenObfPlan::Make(g, in.uniqueness, in.priorities, bad).ok());
  const Result<GenObfPlan> plan =
      GenObfPlan::Make(g, in.uniqueness, in.priorities, options);
  ASSERT_TRUE(plan.ok());
  Rng rng(1);
  EXPECT_FALSE(plan->Attempt(0.0, rng).ok());
}

TEST(GenObfGoldenTest, GoldenPublications) {
  // k = 800 fails at the first σ levels and succeeds after refinement;
  // k = 1000 fails every level and publishes the input.
  struct Golden {
    Variant variant;
    double k;
    bool feasible;
    std::size_t attempts;
    std::uint64_t hash;
  };
  const Golden goldens[] = {
      {Variant::kME, 800.0, true, 7, 0xe05dab1a6fbc60d2ull},
      {Variant::kRSME, 800.0, true, 7, 0xf42385f3cf7f8e16ull},
      {Variant::kME, 1000.0, false, 12, 0xb04483afca4123bcull},
      {Variant::kRSME, 1000.0, false, 12, 0x7286ecfcaad1cad4ull},
  };
  const UncertainGraph g = HubHeavyGraph();
  for (const Golden& golden : goldens) {
    for (const int threads : {1, 3}) {
      SCOPED_TRACE(testing::Message()
                   << VariantName(golden.variant) << " k=" << golden.k
                   << " threads=" << threads);
      const Result<AnonymizeResult> r =
          Anonymize(g, golden.variant, GoldenOptions(golden.k, threads));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->feasible, golden.feasible);
      EXPECT_EQ(r->attempts, golden.attempts);
      EXPECT_EQ(PublicationHash(*r), golden.hash);
    }
  }
}

}  // namespace
}  // namespace chameleon::anonymize
