#include "chameleon/privacy/uniqueness.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "chameleon/obs/obs.h"
#include "chameleon/util/parallel.h"
#include "chameleon/util/stats.h"
#include "chameleon/util/string_util.h"

namespace chameleon::privacy {
namespace {

/// Grid steps per bandwidth: g = θ/kStepsPerBandwidth.
constexpr double kStepsPerBandwidth = 256.0;
/// Gaussian window half-width in bandwidths; K(8.6) ≈ 8.7e-17.
constexpr double kGaussianReach = 8.6;
/// Largest value range, in grid steps, that bins into int64 indices
/// with room for the ±W window arithmetic.
constexpr double kMaxGridSteps = 4611686018427387904.0;  // 2^62
/// Occupied bins per scheduling block of the convolution.
constexpr std::size_t kBinBlock = 256;
/// Unit roundoff of double.
constexpr double kRoundoff = 0x1p-53;

double SampleStddev(const std::vector<double>& values) {
  RunningStats stats;
  for (const double x : values) stats.Add(x);
  return stats.stddev();
}

/// K(d·h) for d = 0..W, the kernel sampled at whole grid offsets.
std::vector<double> KernelTable(Kernel kernel) {
  const double reach = kernel == Kernel::kGaussian ? kGaussianReach : 1.0;
  const auto width =
      static_cast<std::size_t>(std::ceil(reach * kStepsPerBandwidth));
  std::vector<double> table(width + 1);
  for (std::size_t d = 0; d <= width; ++d) {
    const double z = static_cast<double>(d) / kStepsPerBandwidth;
    table[d] = kernel == Kernel::kGaussian ? std::exp(-0.5 * z * z)
                                           : std::max(0.0, 1.0 - z * z);
  }
  return table;
}

/// The a-priori bound of uniqueness.h for n values spanning `steps`
/// grid steps with a window of `width` steps.
double RelErrBound(Kernel kernel, std::size_t n, double steps,
                   std::size_t width) {
  const double h = 1.0 / kStepsPerBandwidth;
  const double others = static_cast<double>(n - 1);
  const double delta = 5.0 * kRoundoff * steps * h;
  const double rounding =
      4.0 * (static_cast<double>(n + 2 * width) + 8.0) * kRoundoff;
  double r = 0.0;
  if (kernel == Kernel::kGaussian) {
    const double z = static_cast<double>(width) * h;
    const double interp = h * h / 4.0 * (z * z - 1.0) * std::exp(2.0 * h * z);
    const double tail_z = static_cast<double>(width - 1) * h;
    r = (1.0 + interp) * std::exp(delta * (z + delta)) - 1.0 +
        others * std::exp(-0.5 * tail_z * tail_z) + rounding;
  } else {
    r = others * (h / 2.0 + 2.0 * delta) + rounding;
  }
  const double trivial = std::max(1.0, others);
  return r < 1.0 ? std::min(r / (1.0 - r), trivial) : trivial;
}

}  // namespace

double SilvermanBandwidth(const std::vector<double>& values) {
  if (values.size() < 2) return 1.0;
  const double sigma = SampleStddev(values);
  if (sigma <= 0.0) return 1.0;
  return 1.06 * sigma *
         std::pow(static_cast<double>(values.size()), -0.2);
}

double SpreadBandwidth(const std::vector<double>& values) {
  if (values.size() < 2) return 1.0;
  const double sigma = SampleStddev(values);
  return sigma > 0.0 ? sigma : 1.0;
}

Result<UniquenessScores> ComputeUniqueness(const std::vector<double>& values,
                                           const UniquenessOptions& options) {
  if (values.empty()) {
    return Status::InvalidArgument("uniqueness needs at least one vertex");
  }
  if (options.bandwidth < 0.0 || std::isnan(options.bandwidth)) {
    return Status::InvalidArgument(
        StrFormat("bandwidth %g must be non-negative", options.bandwidth));
  }
  for (std::size_t v = 0; v < values.size(); ++v) {
    if (!std::isfinite(values[v])) {
      return Status::InvalidArgument(
          StrFormat("uniqueness value %g of vertex %zu is not finite",
                    values[v], v));
    }
  }
  const double bandwidth = options.bandwidth > 0.0
                               ? options.bandwidth
                               : SilvermanBandwidth(values);
  const auto [min_it, max_it] =
      std::minmax_element(values.begin(), values.end());
  const double origin = *min_it;
  const double range = *max_it - *min_it;
  const double step = bandwidth / kStepsPerBandwidth;
  const double steps = range > 0.0 ? range / step : 0.0;
  if (!(steps <= kMaxGridSteps)) {
    return Status::InvalidArgument(StrFormat(
        "value range %g needs %g grid steps of bandwidth %g / 256, more "
        "than 2^62",
        range, steps, bandwidth));
  }
  CHOBS_SPAN(span, "privacy/uniqueness");
  const std::size_t n = values.size();
  const std::vector<double> table = KernelTable(options.kernel);
  const auto width = static_cast<std::int64_t>(table.size() - 1);

  // Grid position of a value: bin index and the fraction of its mass that
  // goes to the next bin up. Monotone in the value, so sorted values give
  // non-decreasing bins.
  const auto locate = [&](double x) {
    const double t = range > 0.0 ? (x - origin) / step : 0.0;
    const double floor_t = std::floor(t);
    return std::pair<std::int64_t, double>(static_cast<std::int64_t>(floor_t),
                                           t - floor_t);
  };

  // 1. Linear binning into the occupied bins, in increasing bin order.
  // Every value occupies both of its bins (the upper one possibly with
  // zero mass), so a vertex's upper bin sits right after its lower one.
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::int64_t> bins;
  std::vector<double> mass;
  for (const double x : sorted) {
    const auto [bin, frac] = locate(x);
    if (bins.empty() || bins.back() < bin) {
      bins.push_back(bin);
      mass.push_back(0.0);
    } else if (bins.back() > bin) {  // bin == back - 1: reuse both slots
      mass[mass.size() - 2] += 1.0 - frac;
      mass.back() += frac;
      continue;
    }
    mass.back() += 1.0 - frac;
    bins.push_back(bin + 1);
    mass.push_back(frac);
  }
  const std::size_t num_bins = bins.size();

  // 2. Convolution. Each bin's window of occupied bins is found by a
  // two-pointer sweep; its size is also the bin's cost, which tells the
  // scheduler how much work the region holds.
  std::vector<std::size_t> window_begin(num_bins);
  std::vector<std::size_t> window_end(num_bins);
  std::size_t pair_ops = 0;
  for (std::size_t i = 0, lo = 0, hi = 0; i < num_bins; ++i) {
    while (bins[lo] < bins[i] - width) ++lo;
    while (hi < num_bins && bins[hi] <= bins[i] + width) ++hi;
    window_begin[i] = lo;
    window_end[i] = hi;
    pair_ops += hi - lo;
  }
  std::vector<double> density(num_bins);
  ParallelForBlocks(
      num_bins, kBinBlock, options.threads,
      [&](std::size_t /*block*/, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          double sum = 0.0;
          for (std::size_t j = window_begin[i]; j < window_end[i]; ++j) {
            const std::int64_t offset = bins[j] - bins[i];
            sum += mass[j] *
                   table[static_cast<std::size_t>(offset < 0 ? -offset
                                                             : offset)];
          }
          density[i] = sum;
        }
      },
      pair_ops / num_bins);

  // 3. Linear interpolation back to each value, with the vertex's own
  // binned contribution swapped for the exact K(0) = 1. Clamping the
  // rest at 0 keeps C ≥ 1 under rounding.
  UniquenessScores result;
  result.bandwidth = bandwidth;
  result.rel_err_bound = RelErrBound(options.kernel, n, steps,
                                     static_cast<std::size_t>(width));
  result.scores.resize(n);
  const double k0 = table[0];
  const double k1 = table[1];
  for (std::size_t v = 0; v < n; ++v) {
    const auto [bin, frac] = locate(values[v]);
    const auto lower = static_cast<std::size_t>(
        std::lower_bound(bins.begin(), bins.end(), bin) - bins.begin());
    const double interpolated =
        (1.0 - frac) * density[lower] + frac * density[lower + 1];
    const double self = (1.0 - frac) * ((1.0 - frac) * k0 + frac * k1) +
                        frac * ((1.0 - frac) * k1 + frac * k0);
    result.scores[v] = 1.0 / (1.0 + std::max(0.0, interpolated - self));
  }
  span.AddCount("vertices", n);
  span.AddCount("bins", num_bins);
  CHOBS_COUNT("privacy/uniqueness/scored", n);
  return result;
}

Result<UniquenessScores> ComputeUniqueness(const graph::UncertainGraph& graph,
                                           const UniquenessOptions& options) {
  return ComputeUniqueness(graph.expected_degrees(), options);
}

}  // namespace chameleon::privacy
