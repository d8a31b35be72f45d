#ifndef CHAMELEON_PRIVACY_UNIQUENESS_H_
#define CHAMELEON_PRIVACY_UNIQUENESS_H_

#include <cstddef>
#include <vector>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/util/status.h"

/// \file uniqueness.h
/// Uniqueness scores U^v (paper Definition 4): the inverse kernel-density
/// commonness of a vertex's degree property among the population. A
/// vertex whose expected degree sits in a dense part of the degree
/// spectrum is common (hard to re-identify, low U); an outlier hub is
/// unique (easy to re-identify, high U) and needs more obfuscation
/// noise. Chameleon's GenObf excludes the ⌈ε/2·|V|⌉ highest-uniqueness
/// vertices and budgets per-edge noise by these scores.
///
/// Commonness of property value ω:
///   C(ω) = Σ_{u∈V} K_θ(ω − P(u)),   U(ω) = 1 / C(ω)
/// with P(u) = E[deg u] (the uncertain-graph degree property, per
/// DESIGN.md §4) and kernel K_θ unnormalized so K_θ(0) = 1 — every
/// vertex contributes its own full unit of commonness, giving
/// U^v ∈ (0, 1].
///
/// Computation: a linear-binned kernel density, O(n log n + B·w) for B
/// occupied grid bins and a kernel window of w bins, instead of the
/// all-pairs O(n²) sum.
///  1. Grid spacing g = θ/256 (h = g/θ = 1/256), origin at the smallest
///     value. Each value's unit mass is split linearly between its two
///     neighbouring grid points; only occupied bins are kept, sorted.
///  2. Each occupied bin's density is the sum of the bins within the
///     kernel window times a precomputed table K(d·h), d = 0..W: W = 2202
///     (±8.6θ) for the Gaussian, W = 256 (±θ) for the Epanechnikov. A
///     two-pointer window visits only occupied bins, so a heavy-tailed
///     value range costs no more than the bins near each point.
///  3. The density is interpolated linearly back to each vertex's value,
///     and the vertex's own binned self-contribution is replaced by the
///     exact K(0) = 1 (C ≥ 1, so U ∈ (0, 1] still holds).
///
/// For a pair (v, u) steps 1–3 evaluate the bilinear interpolant of
/// F(s, t) = K(s − t) on the grid cell holding (P(v), P(u)), so the
/// per-pair error is at most (h²/4)·max|K''| over the cell, where the
/// cell spans z = (s − t)/θ to within 2h. A-priori bound on the
/// relative error |C̃ − C|/C, with n values, T = (max − min)/g grid
/// steps, u = 2⁻⁵³ and δ = 5·u·T·h (the worst offset error, in θ units,
/// that rounding the grid positions can cause):
///  - Gaussian (Z = W·h = 8.6016): per-pair relative interpolation error
///    ρ = (h²/4)·(Z² − 1)·e^{2hZ} ≈ 2.98e-4, since |K''(ξ)|/K(z) =
///    |ξ² − 1|·e^{(z² − ξ²)/2} for |ξ − z| ≤ 2h, |z| ≤ Z; rounded
///    positions scale a kernel value by at most e^{δ(Z + δ)}; a pair the
///    window truncates is off by at most K((W − 1)h) ≈ 9.0e-17, which is
///    relative to C ≥ 1. So r = (1 + ρ)·e^{δ(Z + δ)} − 1 +
///    (n − 1)·K((W − 1)h) + 4(n + 2W + 8)·u, the last term for
///    floating-point summation.
///  - Epanechnikov: inside the support the binned pair is exact up to
///    h²/2, but a cell straddling the kink at |z| = 1 is off by up to
///    h/2 in absolute terms while the true kernel value there is ~0, so
///    nothing ties the error to C: r = (n − 1)·(h/2 + 2δ) +
///    4(n + 2W + 8)·u, which is vacuous beyond n ≈ 500.
/// The bound reported for U = 1/C is r/(1 − r), capped at max(1, n − 1)
/// (U lies in [1/n, 1] and its estimate in (0, 1]). The O(n²) kernel sum
/// survives only as the test oracle.

namespace chameleon::privacy {

/// Kernel shapes for the commonness density. Both evaluate to 1 at 0.
enum class Kernel {
  /// exp(−x² / 2θ²) — the paper's choice; infinite support.
  kGaussian,
  /// max(0, 1 − (x/θ)²) — compact support, cheaper tails.
  kEpanechnikov,
};

struct UniquenessOptions {
  Kernel kernel = Kernel::kGaussian;
  /// Kernel bandwidth θ. 0 selects Silverman's rule-of-thumb
  /// 1.06·σ̂·n^(−1/5) over the property values (θ = 1 when the spread
  /// is zero); the paper's §V-C "θ = σ_G" choice is bandwidth = σ̂,
  /// which callers opt into via SpreadBandwidth().
  double bandwidth = 0.0;
  /// Worker count for the binned convolution (< 1 = hardware).
  int threads = 0;
};

/// Silverman's rule-of-thumb bandwidth for `values` (1.06·σ̂·n^(−1/5));
/// 1 when fewer than two values or zero spread.
double SilvermanBandwidth(const std::vector<double>& values);

/// The paper's θ = σ_G: sample standard deviation of `values` (1 when
/// degenerate), for callers that want §V-C's bandwidth instead of
/// Silverman.
double SpreadBandwidth(const std::vector<double>& values);

/// Result of a uniqueness computation.
struct UniquenessScores {
  /// U^v per vertex, aligned with node ids.
  std::vector<double> scores;
  /// The bandwidth actually used (resolved from the options).
  double bandwidth = 0.0;
  /// A-priori bound on max_v |U^v − U_exact^v| / U_exact^v, where
  /// U_exact is the all-pairs kernel sum (see the file comment).
  double rel_err_bound = 0.0;
};

/// U^v over arbitrary property values (one per vertex). InvalidArgument
/// when `values` is empty or holds a NaN or infinity, when the bandwidth
/// is negative or NaN, or when the value range spans more than 2⁶² grid
/// steps of θ/256. Deterministic across worker counts: every bin's
/// density is a sum in a fixed order, whichever worker computes it, and
/// identical values get identical scores.
Result<UniquenessScores> ComputeUniqueness(const std::vector<double>& values,
                                           const UniquenessOptions& options);

/// U^v over the expected-degree property of `graph`. Emits a
/// `privacy/uniqueness` trace span.
Result<UniquenessScores> ComputeUniqueness(const graph::UncertainGraph& graph,
                                           const UniquenessOptions& options);

}  // namespace chameleon::privacy

#endif  // CHAMELEON_PRIVACY_UNIQUENESS_H_
