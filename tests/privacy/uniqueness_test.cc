#include "chameleon/privacy/uniqueness.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/parallel_stats.h"
#include "chameleon/util/rng.h"

namespace chameleon::privacy {
namespace {

using graph::UncertainGraph;
using graph::UncertainGraphBuilder;

/// The all-pairs kernel sum of Definition 4: the oracle the binned
/// estimate is held to. Scores the vertices in `queries`.
std::vector<double> ExactUniqueness(const std::vector<double>& values,
                                    Kernel kernel, double bandwidth,
                                    const std::vector<std::size_t>& queries) {
  std::vector<double> scores;
  for (const std::size_t v : queries) {
    double commonness = 0.0;
    for (const double u : values) {
      const double z = (values[v] - u) / bandwidth;
      commonness += kernel == Kernel::kGaussian ? std::exp(-0.5 * z * z)
                                                : std::max(0.0, 1.0 - z * z);
    }
    scores.push_back(1.0 / commonness);
  }
  return scores;
}

std::vector<std::size_t> AllVertices(std::size_t n) {
  std::vector<std::size_t> all(n);
  for (std::size_t v = 0; v < n; ++v) all[v] = v;
  return all;
}

/// Largest |U − U_exact| / U_exact over `queries`.
double MaxRelativeError(const std::vector<double>& values,
                        const UniquenessScores& binned, Kernel kernel,
                        const std::vector<std::size_t>& queries) {
  const std::vector<double> exact =
      ExactUniqueness(values, kernel, binned.bandwidth, queries);
  double worst = 0.0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const double u = binned.scores[queries[q]];
    worst = std::max(worst, std::abs(u - exact[q]) / exact[q]);
  }
  return worst;
}

TEST(SilvermanBandwidthTest, MatchesRuleOfThumb) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 5.0};
  // Sample stddev of 1..5 is sqrt(2.5).
  const double expected = 1.06 * std::sqrt(2.5) * std::pow(5.0, -0.2);
  EXPECT_NEAR(SilvermanBandwidth(values), expected, 1e-12);
}

TEST(SilvermanBandwidthTest, DegenerateInputsFallBackToOne) {
  EXPECT_DOUBLE_EQ(SilvermanBandwidth({}), 1.0);
  EXPECT_DOUBLE_EQ(SilvermanBandwidth({3.0}), 1.0);
  EXPECT_DOUBLE_EQ(SilvermanBandwidth({2.0, 2.0, 2.0}), 1.0);
}

TEST(SpreadBandwidthTest, IsTheSampleStddev) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_NEAR(SpreadBandwidth(values), std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(SpreadBandwidth({7.0, 7.0}), 1.0);
}

TEST(ComputeUniquenessTest, IdenticalPopulationSharesOneScore) {
  // Every vertex contributes K(0) = 1 to every other: C = n, U = 1/n.
  const std::vector<double> values(10, 4.0);
  UniquenessOptions options;
  const Result<UniquenessScores> scores = ComputeUniqueness(values, options);
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores->scores.size(), 10u);
  for (const double u : scores->scores) EXPECT_NEAR(u, 0.1, 1e-12);
}

TEST(ComputeUniquenessTest, OutlierIsMoreUnique) {
  // Nine clustered values and one far outlier: the outlier's commonness
  // is ~1 (just itself), so its uniqueness approaches the upper bound.
  std::vector<double> values(9, 2.0);
  values.push_back(100.0);
  UniquenessOptions options;
  const Result<UniquenessScores> scores = ComputeUniqueness(values, options);
  ASSERT_TRUE(scores.ok());
  const double clustered = scores->scores[0];
  const double outlier = scores->scores[9];
  EXPECT_GT(outlier, clustered);
  // The cluster sits ~4.7 bandwidths away, contributing ~1e-4 total.
  EXPECT_NEAR(outlier, 1.0, 1e-3);
  EXPECT_LE(outlier, 1.0);
  for (const double u : scores->scores) {
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(ComputeUniquenessTest, MatchesDirectKernelSum) {
  // Held to the stated a-priori bound, not to 1e-12: the binned estimate
  // is exact only for values that sit on grid points.
  const std::vector<double> values = {0.0, 1.0, 1.5, 4.0, 4.2};
  UniquenessOptions options;
  options.bandwidth = 0.8;
  const Result<UniquenessScores> scores = ComputeUniqueness(values, options);
  ASSERT_TRUE(scores.ok());
  EXPECT_DOUBLE_EQ(scores->bandwidth, 0.8);
  EXPECT_GT(scores->rel_err_bound, 0.0);
  EXPECT_LT(scores->rel_err_bound, 1e-3);
  for (std::size_t v = 0; v < values.size(); ++v) {
    double commonness = 0.0;
    for (const double u : values) {
      const double z = (values[v] - u) / 0.8;
      commonness += std::exp(-0.5 * z * z);
    }
    const double exact = 1.0 / commonness;
    EXPECT_LE(std::abs(scores->scores[v] - exact) / exact,
              scores->rel_err_bound)
        << "vertex " << v;
  }
}

TEST(ComputeUniquenessTest, EpanechnikovHasCompactSupport) {
  const std::vector<double> values = {0.0, 10.0};
  UniquenessOptions options;
  options.kernel = Kernel::kEpanechnikov;
  options.bandwidth = 1.0;
  const Result<UniquenessScores> scores = ComputeUniqueness(values, options);
  ASSERT_TRUE(scores.ok());
  // The other vertex is outside the kernel support: C = 1, U = 1.
  EXPECT_DOUBLE_EQ(scores->scores[0], 1.0);
  EXPECT_DOUBLE_EQ(scores->scores[1], 1.0);
}

TEST(ComputeUniquenessTest, RejectsBadInputs) {
  UniquenessOptions options;
  EXPECT_FALSE(ComputeUniqueness(std::vector<double>{}, options).ok());
  options.bandwidth = -1.0;
  EXPECT_FALSE(ComputeUniqueness(std::vector<double>{1.0}, options).ok());
  options.bandwidth = std::nan("");
  EXPECT_FALSE(ComputeUniqueness(std::vector<double>{1.0}, options).ok());
}

TEST(ComputeUniquenessTest, RejectsNonFiniteValues) {
  // A NaN used to yield NaN scores silently; binned, it would also hit an
  // undefined float-to-int64 cast.
  const UniquenessOptions options;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const Result<UniquenessScores> scores =
        ComputeUniqueness(std::vector<double>{1.0, bad, 3.0}, options);
    ASSERT_FALSE(scores.ok()) << bad;
    EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(ComputeUniquenessTest, RejectsRangeBeyondTheGrid) {
  // A range of 1 at θ = 1e-20 needs 2.56e22 grid steps, past 2^62.
  UniquenessOptions options;
  options.bandwidth = 1e-20;
  const Result<UniquenessScores> scores =
      ComputeUniqueness(std::vector<double>{0.0, 1.0}, options);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument);
  // Identical values span no steps, so any positive bandwidth works.
  EXPECT_TRUE(ComputeUniqueness(std::vector<double>{1.0, 1.0}, options).ok());
}

TEST(ComputeUniquenessTest, HubFarFromThePopulationIsMaximallyUnique) {
  // One hub at 1e5 among degree-8 vertices: ~10^5 bandwidths from
  // anyone, it keeps U ≤ 1 and gets U ≈ 1; the grid between holds no
  // occupied bins, so the gap costs nothing.
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 999; ++i) values.push_back(8.0 + rng.Uniform(-2.0, 2.0));
  values.push_back(1e5);
  for (const double bandwidth : {0.0, 1.0}) {
    UniquenessOptions options;
    options.bandwidth = bandwidth;
    const Result<UniquenessScores> scores =
        ComputeUniqueness(values, options);
    ASSERT_TRUE(scores.ok());
    EXPECT_LE(scores->scores.back(), 1.0);
    EXPECT_NEAR(scores->scores.back(), 1.0, 1e-12);
    for (const double u : scores->scores) {
      EXPECT_GT(u, 0.0);
      EXPECT_LE(u, 1.0);
    }
  }
}

/// One oracle case: the binned scores against the exact sweep.
struct OracleCase {
  std::string name;
  std::vector<double> values;
};

std::vector<OracleCase> OracleCases() {
  std::vector<OracleCase> cases;
  // Random off-grid values at every size, n = 1 and 2 included.
  for (const std::size_t n : std::vector<std::size_t>{1, 2, 1000, 20000}) {
    Rng rng(17 + n);
    OracleCase c{"uniform n=" + std::to_string(n), {}};
    for (std::size_t i = 0; i < n; ++i) c.values.push_back(rng.Uniform(0, 40));
    cases.push_back(std::move(c));
  }
  // Chung–Lu-like expected degrees: weight (i+1)^(-1/(γ-1)), γ = 2.3,
  // scaled to mean degree 8, so a few hubs sit far out in the tail.
  {
    OracleCase c{"heavy tail", {}};
    const std::size_t n = 1000;
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      c.values.push_back(std::pow(static_cast<double>(i + 1), -1.0 / 1.3));
      total += c.values.back();
    }
    Rng rng(5);
    for (double& x : c.values) {
      x = x * 8.0 * static_cast<double>(n) / total + rng.Uniform(0.0, 0.1);
    }
    cases.push_back(std::move(c));
  }
  // Many duplicates: expected degrees rounded to 1/8, as in sparse graphs
  // whose edges share a few probabilities.
  {
    OracleCase c{"duplicates", {}};
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
      c.values.push_back(std::round(rng.Uniform(0.0, 12.0) * 8.0) / 8.0);
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(ComputeUniquenessTest, BinnedWithinStatedBoundOfExactSweep) {
  for (const Kernel kernel : {Kernel::kGaussian, Kernel::kEpanechnikov}) {
    for (const OracleCase& c : OracleCases()) {
      SCOPED_TRACE(c.name + (kernel == Kernel::kGaussian ? " gaussian"
                                                         : " epanechnikov"));
      UniquenessOptions options;
      options.kernel = kernel;
      const Result<UniquenessScores> scores =
          ComputeUniqueness(c.values, options);
      ASSERT_TRUE(scores.ok());
      const std::size_t n = c.values.size();
      // The all-pairs oracle scores every vertex up to n = 1000 and every
      // 16th beyond, which keeps the n = 20000 case to 2.5e7 kernel calls.
      std::vector<std::size_t> queries;
      for (std::size_t v = 0; v < n; v += n > 1000 ? 16 : 1) {
        queries.push_back(v);
      }
      const double err = MaxRelativeError(c.values, *scores, kernel, queries);
      EXPECT_LE(err, scores->rel_err_bound);
      if (kernel == Kernel::kGaussian) {
        EXPECT_LT(scores->rel_err_bound, 1e-3);
      }
      // Identical values get identical scores.
      std::vector<std::size_t> order = AllVertices(n);
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return c.values[a] < c.values[b];
      });
      for (std::size_t i = 1; i < n; ++i) {
        if (c.values[order[i]] == c.values[order[i - 1]]) {
          EXPECT_EQ(scores->scores[order[i]], scores->scores[order[i - 1]]);
        }
      }
      for (const double u : scores->scores) {
        EXPECT_GT(u, 0.0);
        EXPECT_LE(u, 1.0);
      }
    }
  }
}

TEST(ComputeUniquenessTest, DeterministicAcrossWorkerCounts) {
  // 20000 values span ~5000 occupied bins, each summing a ~4400-bin
  // window: far past the grain, so the convolution fans out.
  std::vector<double> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(std::sin(static_cast<double>(i)) * 10.0);
  }
  UniquenessOptions serial;
  serial.threads = 1;
  const Result<UniquenessScores> a = ComputeUniqueness(values, serial);
  ASSERT_TRUE(a.ok());
  for (const int threads : {2, 7, 8}) {
    UniquenessOptions parallel;
    parallel.threads = threads;
#if CHAMELEON_OBS_ENABLED
    obs::SetEnabledForTesting(true);
    obs::ResetParallelRegionAggregates();
#endif
    const Result<UniquenessScores> b = ComputeUniqueness(values, parallel);
#if CHAMELEON_OBS_ENABLED
    const std::vector<obs::ParallelRegionAggregate> regions =
        obs::ParallelRegionAggregates();
    obs::SetEnabledForTesting(false);
    ASSERT_EQ(regions.size(), 1u);
    const std::size_t hw =
        std::max(1u, std::thread::hardware_concurrency());
    EXPECT_EQ(regions[0].last_workers,
              std::min<std::size_t>(static_cast<std::size_t>(threads), hw))
        << threads << " threads";
#endif
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->scores, b->scores) << threads << " threads";
    EXPECT_EQ(a->rel_err_bound, b->rel_err_bound);
  }
}

TEST(ComputeUniquenessTest, GraphOverloadUsesExpectedDegrees) {
  // Star: the center's expected degree (2.7) is far from the leaves'
  // (0.9), so the center is the most unique vertex.
  UncertainGraphBuilder builder(4);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2, 0.9).ok());
  ASSERT_TRUE(builder.AddEdge(0, 3, 0.9).ok());
  Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  UniquenessOptions options;
  const Result<UniquenessScores> from_graph = ComputeUniqueness(*g, options);
  const Result<UniquenessScores> from_values =
      ComputeUniqueness(g->expected_degrees(), options);
  ASSERT_TRUE(from_graph.ok());
  ASSERT_TRUE(from_values.ok());
  EXPECT_EQ(from_graph->scores, from_values->scores);
  EXPECT_GT(from_graph->scores[0], from_graph->scores[1]);
}

}  // namespace
}  // namespace chameleon::privacy
