#include "chameleon/privacy/obfuscation.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/graph/io.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/sink.h"
#include "chameleon/privacy/degree_distribution.h"

namespace chameleon::privacy {
namespace {

using graph::UncertainGraph;
using graph::UncertainGraphBuilder;

/// 12-cycle, every edge p = 0.5 — the committed obfuscated fixture,
/// rebuilt in code so the unit tests do not depend on example files.
UncertainGraph MakeCycle12() {
  UncertainGraphBuilder builder(12);
  for (NodeId u = 0; u < 12; ++u) {
    EXPECT_TRUE(builder.AddEdge(u, (u + 1) % 12, 0.5).ok());
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

/// Center 0 plus 8 leaves, every edge p = 0.9 — the committed
/// non-obfuscated fixture.
UncertainGraph MakeStar9() {
  UncertainGraphBuilder builder(9);
  for (NodeId leaf = 1; leaf < 9; ++leaf) {
    EXPECT_TRUE(builder.AddEdge(0, leaf, 0.9).ok());
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

TEST(VerifyObfuscationTest, UniformCycleIsFullyObfuscated) {
  // Every vertex shares omega = 1 and the posterior is uniform over all
  // 12 vertices: H = log2(12) for everyone.
  const UncertainGraph g = MakeCycle12();
  ObfuscationOptions options;
  options.k = 8.0;
  options.epsilon = 0.01;
  const Result<ObfuscationCertificate> cert = VerifyObfuscation(g, options);
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(cert->obfuscated);
  EXPECT_EQ(cert->not_obfuscated, 0u);
  EXPECT_DOUBLE_EQ(cert->epsilon_hat, 0.0);
  EXPECT_EQ(cert->vertices, 12u);
  EXPECT_EQ(cert->distinct_omegas, 1u);
  EXPECT_NEAR(cert->min_entropy_bits, std::log2(12.0), 1e-12);
  EXPECT_NEAR(cert->mean_entropy_bits, std::log2(12.0), 1e-12);
  ASSERT_EQ(cert->per_vertex.size(), 12u);
  for (const VertexObfuscation& row : cert->per_vertex) {
    EXPECT_EQ(row.omega, 1u);
    EXPECT_TRUE(row.obfuscated);
    EXPECT_NEAR(row.k_anonymity, 12.0, 1e-9);
  }
}

TEST(VerifyObfuscationTest, StarCenterIsExposed) {
  // The center's omega = round(7.2) = 7 is realizable only by the
  // center itself, so its posterior entropy collapses to ~0; the eight
  // leaves share omega = 1. eps_hat = 1/9 fails eps = 0.05 but passes
  // eps = 0.2.
  const UncertainGraph g = MakeStar9();
  ObfuscationOptions options;
  options.k = 8.0;
  options.epsilon = 0.05;
  const Result<ObfuscationCertificate> cert = VerifyObfuscation(g, options);
  ASSERT_TRUE(cert.ok());
  EXPECT_FALSE(cert->obfuscated);
  EXPECT_EQ(cert->not_obfuscated, 1u);
  EXPECT_NEAR(cert->epsilon_hat, 1.0 / 9.0, 1e-12);
  EXPECT_EQ(cert->distinct_omegas, 2u);
  EXPECT_LT(cert->min_entropy_bits, 0.1);
  ASSERT_EQ(cert->per_vertex.size(), 9u);
  EXPECT_EQ(cert->per_vertex[0].omega, 7u);
  EXPECT_FALSE(cert->per_vertex[0].obfuscated);
  for (NodeId leaf = 1; leaf < 9; ++leaf) {
    EXPECT_TRUE(cert->per_vertex[leaf].obfuscated) << "leaf " << leaf;
  }

  options.epsilon = 0.2;
  const Result<ObfuscationCertificate> tolerant = VerifyObfuscation(g, options);
  ASSERT_TRUE(tolerant.ok());
  EXPECT_TRUE(tolerant->obfuscated);
  EXPECT_EQ(tolerant->not_obfuscated, 1u);
}

TEST(VerifyObfuscationTest, StructuralAdversaryOnDeterministicGraph) {
  // With p = 1 everywhere the PMF is a point mass at the structural
  // degree, and both adversary models coincide. A 4-cycle is perfectly
  // 4-anonymous by degree.
  UncertainGraphBuilder builder(4);
  for (NodeId u = 0; u < 4; ++u) {
    ASSERT_TRUE(builder.AddEdge(u, (u + 1) % 4, 1.0).ok());
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  ObfuscationOptions options;
  options.k = 4.0;
  options.epsilon = 0.0;
  options.adversary = AdversaryModel::kStructuralDegree;
  const Result<ObfuscationCertificate> cert = VerifyObfuscation(*g, options);
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(cert->obfuscated);
  EXPECT_NEAR(cert->min_entropy_bits, 2.0, 1e-12);
  EXPECT_EQ(AdversaryModelName(cert->adversary), "structural_degree");
}

TEST(VerifyObfuscationTest, ReusedDistributionsMatchInternalBuild) {
  const UncertainGraph g = MakeStar9();
  ObfuscationOptions options;
  options.k = 8.0;
  options.epsilon = 0.05;
  const std::vector<DegreeDistribution> dists = BuildDegreeDistributions(g);
  const Result<ObfuscationCertificate> reused =
      VerifyObfuscation(g, dists, options);
  const Result<ObfuscationCertificate> internal = VerifyObfuscation(g, options);
  ASSERT_TRUE(reused.ok());
  ASSERT_TRUE(internal.ok());
  EXPECT_EQ(reused->not_obfuscated, internal->not_obfuscated);
  EXPECT_EQ(reused->epsilon_hat, internal->epsilon_hat);
  EXPECT_EQ(reused->min_entropy_bits, internal->min_entropy_bits);
  EXPECT_EQ(reused->mean_entropy_bits, internal->mean_entropy_bits);
}

TEST(VerifyObfuscationTest, KeepPerVertexOffOmitsRows) {
  const UncertainGraph g = MakeCycle12();
  ObfuscationOptions options;
  options.k = 8.0;
  options.keep_per_vertex = false;
  const Result<ObfuscationCertificate> cert = VerifyObfuscation(g, options);
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(cert->per_vertex.empty());
  EXPECT_EQ(cert->vertices, 12u);
}

TEST(VerifyObfuscationTest, DeterministicAcrossWorkerCounts) {
  const UncertainGraph g = MakeStar9();
  ObfuscationOptions serial;
  serial.k = 8.0;
  serial.threads = 1;
  ObfuscationOptions parallel = serial;
  parallel.threads = 8;
  const Result<ObfuscationCertificate> a = VerifyObfuscation(g, serial);
  const Result<ObfuscationCertificate> b = VerifyObfuscation(g, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Bit-identical entropies: the per-block partial sums are reduced in
  // fixed block order no matter which worker produced them.
  EXPECT_EQ(a->min_entropy_bits, b->min_entropy_bits);
  EXPECT_EQ(a->mean_entropy_bits, b->mean_entropy_bits);
  EXPECT_EQ(a->epsilon_hat, b->epsilon_hat);
  ASSERT_EQ(a->per_vertex.size(), b->per_vertex.size());
  for (std::size_t v = 0; v < a->per_vertex.size(); ++v) {
    EXPECT_EQ(a->per_vertex[v].entropy_bits, b->per_vertex[v].entropy_bits);
  }
}

TEST(VerifyObfuscationTest, EntropiesMatchMaterializedPosteriorsAcrossBlocks) {
  // A 700-vertex path spans three posterior blocks; a hub of degree 302
  // in the last one makes the blocks' PMF widths differ by 100x. Every
  // H(Y_ω) must be the entropy of the posterior built from Boldi et al.'s
  // definition, Y_ω(u) = X_u(ω) / Σ_w X_w(ω).
  constexpr NodeId kNodes = 700;
  constexpr NodeId kHub = 650;
  const auto p = [](NodeId u, NodeId v) {
    return 0.05 + 0.9 * static_cast<double>((u * 37 + v * 11) % 101) / 100.0;
  };
  UncertainGraphBuilder builder(kNodes);
  for (NodeId u = 0; u + 1 < kNodes; ++u) {
    ASSERT_TRUE(builder.AddEdge(u, u + 1, p(u, u + 1)).ok());
  }
  for (NodeId leaf = 0; leaf < 600; leaf += 2) {
    ASSERT_TRUE(builder.AddEdge(leaf, kHub, p(leaf, kHub)).ok());
  }
  const Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());

  ObfuscationOptions options;
  options.k = 5.0;
  options.threads = 3;
  const Result<ObfuscationCertificate> cert = VerifyObfuscation(*g, options);
  ASSERT_TRUE(cert.ok());
  const std::vector<DegreeDistribution> dists =
      BuildDegreeDistributions(*g, 1);
  ASSERT_EQ(cert->per_vertex.size(), kNodes);
  for (const VertexObfuscation& row : cert->per_vertex) {
    double total = 0.0;
    for (const DegreeDistribution& x : dists) total += x.Pmf(row.omega);
    double entropy = 0.0;
    for (const DegreeDistribution& x : dists) {
      const double y = x.Pmf(row.omega) / total;
      if (y > 0.0) entropy -= y * std::log2(y);
    }
    EXPECT_NEAR(row.entropy_bits, entropy, 1e-9)
        << "vertex " << row.vertex << ", omega " << row.omega;
  }
}

TEST(VerifyObfuscationTest, RejectsBadArguments) {
  const UncertainGraph g = MakeCycle12();
  ObfuscationOptions options;
  options.k = 1.0;  // must be > 1
  EXPECT_FALSE(VerifyObfuscation(g, options).ok());
  options.k = 8.0;
  options.epsilon = 1.5;  // outside [0, 1]
  EXPECT_FALSE(VerifyObfuscation(g, options).ok());
  options.epsilon = 0.1;
  // Mismatched distribution count.
  const std::vector<DegreeDistribution> wrong(3);
  EXPECT_FALSE(VerifyObfuscation(g, wrong, options).ok());
  // Empty graph.
  Result<UncertainGraph> empty = UncertainGraphBuilder(0).Build();
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(VerifyObfuscation(*empty, options).ok());
}

TEST(ParseAdversaryModelTest, AcceptsTheTwoFlagSpellingsOnly) {
  const Result<AdversaryModel> expected = ParseAdversaryModel("expected");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*expected, AdversaryModel::kRoundedExpectedDegree);
  const Result<AdversaryModel> structural = ParseAdversaryModel("structural");
  ASSERT_TRUE(structural.ok());
  EXPECT_EQ(*structural, AdversaryModel::kStructuralDegree);
  for (const char* bad : {"", "Expected", "expected_degree", "structurals"}) {
    const Result<AdversaryModel> parsed = ParseAdversaryModel(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(VerifyObfuscationTest, EmitsPrivacyCheckRecord) {
  const std::string path = testing::TempDir() + "/chameleon_privacy.jsonl";
  std::remove(path.c_str());
  obs::ObsOptions obs_options;
  obs_options.metrics_out = path;
  obs_options.read_env = false;
  ASSERT_TRUE(obs::InitObservability(obs_options).ok());

  const UncertainGraph g = MakeStar9();
  ObfuscationOptions options;
  options.k = 8.0;
  options.epsilon = 0.05;
  ASSERT_TRUE(VerifyObfuscation(g, options).ok());
  obs::ShutdownObservability();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string record;
  for (std::string line; std::getline(in, line);) {
    if (obs::JsonlStringField(line, "type") == "privacy_check") {
      record = line;
    }
  }
  ASSERT_FALSE(record.empty()) << "no privacy_check record in " << path;
  EXPECT_EQ(obs::JsonlNumberField(record, "k"), 8.0);
  EXPECT_EQ(obs::JsonlNumberField(record, "vertices"), 9.0);
  EXPECT_EQ(obs::JsonlNumberField(record, "not_obfuscated"), 1.0);
  EXPECT_NE(record.find("\"obfuscated\":false"), std::string::npos);
  EXPECT_EQ(obs::JsonlStringField(record, "adversary"), "expected_degree");
  std::remove(path.c_str());
}

TEST(VerifyObfuscationTest, CommittedFixturesClassifyCorrectly) {
  // The committed example graphs are the CI smoke inputs; assert here
  // that the library agrees with the verdicts scripts/check_obf.py
  // expects, so a fixture edit cannot silently invalidate the smoke.
  const std::string dir = CHAMELEON_EXAMPLES_DIR;
  const Result<UncertainGraph> cycle =
      graph::ReadEdgeList(dir + "/graphs/cycle_obfuscated.edges");
  ASSERT_TRUE(cycle.ok());
  const Result<UncertainGraph> star =
      graph::ReadEdgeList(dir + "/graphs/star_not_obfuscated.edges");
  ASSERT_TRUE(star.ok());

  ObfuscationOptions options;
  options.k = 8.0;
  options.epsilon = 0.05;
  const Result<ObfuscationCertificate> good =
      VerifyObfuscation(*cycle, options);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->obfuscated);
  const Result<ObfuscationCertificate> bad = VerifyObfuscation(*star, options);
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->obfuscated);
}

}  // namespace
}  // namespace chameleon::privacy
