#include "chameleon/anonymize/relevance.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>

#include "chameleon/graph/union_find.h"
#include "chameleon/obs/convergence.h"
#include "chameleon/obs/flight_recorder.h"
#include "chameleon/obs/obs.h"
#include "chameleon/reliability/world_sampler.h"
#include "chameleon/util/parallel.h"
#include "chameleon/util/stats.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/timer.h"

namespace chameleon::anonymize {
namespace {

/// Independent per-world stream: hashing (seed, world) through splitmix
/// keeps the estimate a pure function of the seed and world index, so
/// blocking / threading / round boundaries cannot change any draw.
std::uint64_t PerWorldSeed(std::uint64_t seed, std::uint64_t world) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ull * (world + 1));
  return SplitMix64(state);
}

/// Exact integer tallies over a set of worlds: per-edge delta sums,
/// delta-squared sums (for variance) and absent counts. Integer addition
/// is associative, so tallies merge in any order with the same result.
struct EdgeTally {
  explicit EdgeTally(std::size_t num_edges)
      : delta_sum(num_edges, 0), delta_sq_sum(num_edges, 0),
        absent(num_edges, 0) {}

  void MergeFrom(const EdgeTally& other) {
    for (std::size_t e = 0; e < delta_sum.size(); ++e) {
      delta_sum[e] += other.delta_sum[e];
      delta_sq_sum[e] += other.delta_sq_sum[e];
      absent[e] += other.absent[e];
    }
  }

  void Clear() {
    std::fill(delta_sum.begin(), delta_sum.end(), 0);
    std::fill(delta_sq_sum.begin(), delta_sq_sum.end(), 0);
    std::fill(absent.begin(), absent.end(), 0);
  }

  std::vector<std::uint64_t> delta_sum;
  /// A delta is below |V|²/4; up to |V| = 2^24 its square is below
  /// 2^92, so 2^32 worlds (the absent counter's range) sum exactly.
  std::vector<unsigned __int128> delta_sq_sum;
  std::vector<std::uint32_t> absent;
};

/// Samples worlds [begin, end), adding all-edge contributions to `tally`
/// and each world's total mass to `world_mass`.
void TallyWorlds(const graph::UncertainGraph& graph,
                 const rel::WorldSampler& sampler, std::uint64_t seed,
                 std::size_t begin, std::size_t end, EdgeTally& tally,
                 RunningStats& world_mass) {
  const std::size_t num_edges = graph.num_edges();
  graph::UnionFind dsu(graph.num_nodes());
  BitVector mask(num_edges);
  const auto& edges = graph.edges();
  for (std::size_t w = begin; w < end; ++w) {
    Rng rng(PerWorldSeed(seed, w));
    sampler.SampleMask(rng, mask);
    dsu.Reset();
    for (std::size_t e = 0; e < num_edges; ++e) {
      if (mask.Get(e)) dsu.Union(edges[e].u, edges[e].v);
    }
    std::uint64_t mass = 0;
    for (std::size_t e = 0; e < num_edges; ++e) {
      if (mask.Get(e)) continue;
      ++tally.absent[e];
      const NodeId ru = dsu.Find(edges[e].u);
      const NodeId rv = dsu.Find(edges[e].v);
      if (ru == rv) continue;
      const std::uint64_t delta =
          std::uint64_t{dsu.ComponentSize(edges[e].u)} *
          dsu.ComponentSize(edges[e].v);
      tally.delta_sum[e] += delta;
      tally.delta_sq_sum[e] += static_cast<unsigned __int128>(delta) * delta;
      mass += delta;
    }
    world_mass.Add(static_cast<double>(mass));
  }
}

void EmitRelevanceProgress(std::size_t worlds, std::size_t total_worlds,
                           double mean_err, double max_err,
                           double mean_world_mass, double ci_halfwidth,
                           double rel_err, bool final, bool stopped_early) {
  if (!obs::Enabled()) return;
  obs::RecordSink* sink = obs::GlobalSink();
  if (sink == nullptr) return;
  std::string line = StrFormat(
      "{\"type\":\"relevance_progress\",\"t_ms\":%llu,"
      "\"label\":\"anonymize/relevance\",\"worlds\":%zu,"
      "\"total_worlds\":%zu,\"mean_err\":%.6g,\"max_err\":%.6g,"
      "\"mean_world_mass\":%.6g,\"ci_halfwidth\":%.6g,\"rel_err\":%.6g",
      static_cast<unsigned long long>(WallUnixMillis()), worlds, total_worlds,
      mean_err, max_err, mean_world_mass, ci_halfwidth, rel_err);
  if (final) {
    line += StrFormat(",\"final\":true,\"stopped_early\":%s",
                      stopped_early ? "true" : "false");
  }
  line += "}";
  sink->Write(line);
}

/// Finalizes the float view of the accumulated integer tallies.
void FinalizeEstimates(const EdgeTally& total, const RunningStats& world_mass,
                       EdgeRelevance& out) {
  const std::size_t num_edges = total.delta_sum.size();
  double err_sum = 0.0;
  out.max_err = 0.0;
  for (std::size_t e = 0; e < num_edges; ++e) {
    const std::uint32_t n = total.absent[e];
    if (n == 0) {
      out.err[e] = 0.0;
      out.err_variance[e] = 0.0;
      continue;
    }
    const double mean = static_cast<double>(total.delta_sum[e]) / n;
    out.err[e] = mean;
    if (n >= 2) {
      const double sq_sum = static_cast<double>(total.delta_sq_sum[e]);
      const double var = std::max(0.0, (sq_sum - n * mean * mean) / (n - 1));
      out.err_variance[e] = var / n;
    } else {
      out.err_variance[e] = 0.0;
    }
    err_sum += mean;
    out.max_err = std::max(out.max_err, mean);
  }
  out.mean_err =
      num_edges == 0 ? 0.0 : err_sum / static_cast<double>(num_edges);
  out.mean_world_mass = world_mass.mean();
}

Status ValidateOptions(const RelevanceOptions& options) {
  if (options.worlds == 0) {
    return Status::InvalidArgument("relevance worlds must be positive");
  }
  return obs::ValidateStoppingTarget("relevance max_rel_err",
                                     options.max_rel_err);
}

void FillVertexErr(const graph::UncertainGraph& graph, EdgeRelevance& out) {
  out.vertex_err.assign(graph.num_nodes(), 0.0);
  const auto& edges = graph.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    out.vertex_err[edges[e].u] += out.err[e];
    out.vertex_err[edges[e].v] += out.err[e];
  }
}

}  // namespace

Result<EdgeRelevance> EstimateRelevance(const graph::UncertainGraph& graph,
                                        const RelevanceOptions& options) {
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));
  CHOBS_SPAN(span, "anonymize/relevance");
  WallTimer timer;
  const std::size_t num_edges = graph.num_edges();
  const rel::WorldSampler sampler(graph);

  EdgeRelevance out;
  out.err.assign(num_edges, 0.0);
  out.err_variance.assign(num_edges, 0.0);
  out.absent_worlds.assign(num_edges, 0);

  EdgeTally total(num_edges);
  RunningStats world_mass;

  // Worlds are processed in rounds whose boundaries are the geometric
  // convergence checkpoints (min_worlds, then doubling). Each round runs
  // a fixed-block parallel sweep. A finished block's integer tallies
  // merge into the total at once, in any order, and its tally goes back
  // to a spare list, so at most one |E|-sized tally per worker is live.
  // The per-block world-mass stats are floating point, so they merge in
  // block order after the round; the accumulated totals — and hence the
  // early-stop decision — do not depend on the worker count.
  const std::size_t min_worlds =
      std::max<std::size_t>(1, std::min(options.min_worlds, options.worlds));
  constexpr std::size_t kWorldsPerBlock = 8;
  // The spare tallies are allocated here, on the calling thread, one per
  // worker the largest round can use: tallies first allocated on worker
  // threads would stay cached in those threads' malloc arenas after the
  // estimate returns, raising the resident set of everything after it.
  std::mutex mu;
  std::vector<std::unique_ptr<EdgeTally>> spare;  // guarded by mu
  const std::size_t max_workers =
      PlanWorkers(options.worlds, kWorldsPerBlock, options.threads, num_edges)
          .workers;
  for (std::size_t w = 0; w < max_workers; ++w) {
    spare.push_back(std::make_unique<EdgeTally>(num_edges));
  }
  std::size_t done = 0;
  std::size_t next_checkpoint = min_worlds;
  bool stopped_early = false;
  while (done < options.worlds) {
    const std::size_t round_end = std::min(options.worlds, next_checkpoint);
    const std::size_t round = round_end - done;
    std::vector<RunningStats> block_mass(NumBlocks(round, kWorldsPerBlock));
    const std::size_t round_begin = done;
    ParallelForBlocks(
        round, kWorldsPerBlock, options.threads,
        [&](std::size_t block, std::size_t begin, std::size_t end) {
          std::unique_ptr<EdgeTally> tally;
          {
            const std::lock_guard<std::mutex> lock(mu);
            if (!spare.empty()) {
              tally = std::move(spare.back());
              spare.pop_back();
            }
          }
          if (tally == nullptr) tally = std::make_unique<EdgeTally>(num_edges);
          TallyWorlds(graph, sampler, options.seed, round_begin + begin,
                      round_begin + end, *tally, block_mass[block]);
          const std::lock_guard<std::mutex> lock(mu);
          total.MergeFrom(*tally);
          tally->Clear();
          spare.push_back(std::move(tally));
        },
        /*work_per_item=*/num_edges);
    for (const RunningStats& stats : block_mass) world_mass.Merge(stats);
    done = round_end;
    next_checkpoint = round_end * 2;
    CHOBS_FLIGHT_EVENT(kCheckpoint, "anonymize/relevance", done,
                       options.worlds);

    FinalizeEstimates(total, world_mass, out);
    const double hw = obs::NormalCiHalfwidth(
        world_mass.variance(), world_mass.count(), obs::kConfidenceZ);
    const double mean_mass = world_mass.mean();
    const double rel_err = mean_mass == 0.0 ? 0.0 : hw / std::abs(mean_mass);
    const bool converged = options.max_rel_err > 0.0 && done >= min_worlds &&
                           mean_mass != 0.0 &&
                           rel_err <= options.max_rel_err;
    const bool final = converged || done >= options.worlds;
    stopped_early = converged && done < options.worlds;
    EmitRelevanceProgress(done, options.worlds, out.mean_err, out.max_err,
                          mean_mass, hw, rel_err, final, stopped_early);
    // One progress line per (geometric) round, as a tracker would log.
    if (options.heartbeat && obs::Enabled()) {
      obs::LogProgress("anonymize/relevance", done, options.worlds,
                       timer.ElapsedSeconds(), final);
    }
    if (converged) break;
  }

  out.absent_worlds = total.absent;
  out.worlds = done;
  out.stopped_early = stopped_early;
  FillVertexErr(graph, out);
  out.wall_ms = timer.ElapsedMillis();
  span.AddCount("worlds", done);
  span.AddCount("edges", num_edges);
  return out;
}

Result<EdgeRelevance> EstimateRelevanceNaive(
    const graph::UncertainGraph& graph, const RelevanceOptions& options) {
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));
  CHOBS_SPAN(span, "anonymize/relevance_naive");
  WallTimer timer;
  const std::size_t num_edges = graph.num_edges();
  const auto& edges = graph.edges();

  EdgeRelevance out;
  out.err.assign(num_edges, 0.0);
  out.err_variance.assign(num_edges, 0.0);
  out.absent_worlds.assign(num_edges, 0);

  graph::UnionFind dsu(graph.num_nodes());
  BitVector mask(num_edges);
  const rel::WorldSampler sampler(graph);
  RunningStats world_mass;
  for (std::size_t target = 0; target < num_edges; ++target) {
    RunningStats deltas;
    for (std::size_t w = 0; w < options.worlds; ++w) {
      // A distinct stream per (edge, world): the naive oracle must be
      // independent of the reused pool for the cross-validation bound to
      // treat the two estimates as uncorrelated.
      std::uint64_t state =
          options.seed ^ (0xbf58476d1ce4e5b9ull * (target + 1));
      Rng rng(PerWorldSeed(SplitMix64(state), w));
      sampler.SampleMask(rng, mask);
      mask.Clear(target);  // condition on e absent: worlds of W' only
      dsu.Reset();
      for (std::size_t e = 0; e < num_edges; ++e) {
        if (mask.Get(e)) dsu.Union(edges[e].u, edges[e].v);
      }
      std::uint64_t delta = 0;
      if (!dsu.Connected(edges[target].u, edges[target].v)) {
        delta = std::uint64_t{dsu.ComponentSize(edges[target].u)} *
                dsu.ComponentSize(edges[target].v);
      }
      deltas.Add(static_cast<double>(delta));
    }
    out.err[target] = deltas.mean();
    out.err_variance[target] =
        deltas.count() >= 2
            ? deltas.variance() / static_cast<double>(deltas.count())
            : 0.0;
    out.absent_worlds[target] =
        static_cast<std::uint32_t>(options.worlds);
    world_mass.Add(out.err[target]);
  }
  out.worlds = options.worlds;
  double err_sum = 0.0;
  for (const double v : out.err) {
    err_sum += v;
    out.max_err = std::max(out.max_err, v);
  }
  out.mean_err =
      num_edges == 0 ? 0.0 : err_sum / static_cast<double>(num_edges);
  out.mean_world_mass = err_sum;
  FillVertexErr(graph, out);
  out.wall_ms = timer.ElapsedMillis();
  span.AddCount("edges", num_edges);
  return out;
}

}  // namespace chameleon::anonymize
