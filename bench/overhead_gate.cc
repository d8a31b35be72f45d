// Observability overhead gates: each row of kGates times an instrumented
// arm against a bare arm on the same loop and fails when the overhead
// exceeds its budget AND the delta clears 3x the repetition MAD (the
// dual rule in harness.h; jitter inside the noise floor is not
// overhead).
//
//   chameleon_overhead_gate --list
//   chameleon_overhead_gate --gate=NAME [--reps=9] [--out=BENCH_...json]
//   chameleon_overhead_gate --help | --version
//
// One gate per process: the profiler and heap rows start global obs
// state that would leak into the next row's dormant arm. Exit 0 inside
// the budget (or when the host cannot run the instrumentation at all),
// 1 on a violation or a broken dormancy guard, 2 on usage errors.
// scripts/check_overhead.py runs every row from --list.
//
// The loops are far denser than any real call site (spans and flight
// events wrap phases, not worlds; the er-2k MC run allocates once per
// ~80 us), so passing here bounds every realistic placement. Each loop
// still does enough work per instrumented point (a burst of RNG draws)
// that a few-ns hook reads as a percentage the budget can gate rather
// than as ratio noise.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chameleon/graph/generators.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/flight_recorder.h"
#include "chameleon/obs/heap_profiler.h"
#include "chameleon/obs/hw_counters.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/parallel_stats.h"
#include "chameleon/obs/profiler.h"
#include "chameleon/reliability/reliability.h"
#include "chameleon/reliability/world_sampler.h"
#include "chameleon/util/bitvector.h"
#include "chameleon/util/flags.h"
#include "chameleon/util/logging.h"
#include "chameleon/util/parallel.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/timer.h"
#include "cli.h"
#include "harness.h"

namespace chameleon {
namespace {

constexpr std::uint64_t kSeed = 2018;

/// Budgets. Dormant instrumentation is a tax every build pays; the
/// profiler and the running heap sampler are paid only by runs that ask
/// for them.
constexpr double kDormantBudget = 0.02;
constexpr double kProfilerBudget = 0.03;
constexpr double kHeapActiveBudget = 0.05;

/// What one gate measures, and the check that the state under test held
/// for the whole run (empty when it did).
struct Plan {
  std::vector<bench::OverheadCheck> checks;
  std::function<std::string()> guard = [] { return std::string(); };
};

/// Times `iterations` calls of `body(i)`.
template <typename Body>
double TimeLoop(std::uint64_t iterations, Body&& body) {
  const std::uint64_t start = MonotonicNanos();
  for (std::uint64_t i = 0; i < iterations; ++i) body(i);
  return static_cast<double>(MonotonicNanos() - start);
}

/// `draws` RNG draws folded into `acc`: the stand-in for the real work
/// between two instrumented points.
inline void Draws(Rng& rng, int draws, std::uint64_t& acc) {
  for (int draw = 0; draw < draws; ++draw) acc += rng.UniformInt(1u << 20);
}

// --------------------------------------------------------------------------
// obs_dormant: WorldSampler::SampleMask with obs dormant vs the raw
// Bernoulli loop it wraps, on a 65,536-edge ring.
// --------------------------------------------------------------------------

constexpr NodeId kRingNodes = 65536;

Result<Plan> ObsDormantPlan() {
  if (obs::Enabled()) {
    return Status::FailedPrecondition("observability is already enabled");
  }
  graph::UncertainGraphBuilder builder(kRingNodes);
  Rng rng(7);
  for (NodeId u = 0; u < kRingNodes; ++u) {
    if (Status s = builder.AddEdge(u, (u + 1) % kRingNodes,
                                   rng.UniformDouble());
        !s.ok()) {
      return s;
    }
  }
  Result<graph::UncertainGraph> built = std::move(builder).Build();
  if (!built.ok()) return built.status();
  const auto graph =
      std::make_shared<const graph::UncertainGraph>(*std::move(built));
  const auto sampler = std::make_shared<const rel::WorldSampler>(*graph);
  auto probabilities = std::make_shared<std::vector<double>>();
  for (const auto& e : graph->edges()) probabilities->push_back(e.p);

  Plan plan;
  plan.checks.push_back(
      {"BM_RawBernoulliLoop", "BM_SamplerObsDormant",
       [probabilities](std::uint64_t iterations) {
         Rng local(11);
         const double* const p = probabilities->data();
         const std::size_t num = probabilities->size();
         BitVector mask(num);
         std::size_t present = 0;
         const double ns = TimeLoop(iterations, [&](std::uint64_t) {
           mask.ClearAll();
           for (std::size_t e = 0; e < num; ++e) {
             if (local.UniformDouble() < p[e]) {
               mask.Set(e);
               ++present;
             }
           }
         });
         bench::DoNotOptimize(present);
         return ns;
       },
       [graph, sampler](std::uint64_t iterations) {
         Rng local(11);
         BitVector mask(graph->num_edges());
         std::size_t present = 0;
         const double ns = TimeLoop(iterations, [&](std::uint64_t) {
           present += sampler->SampleMask(local, mask);
         });
         bench::DoNotOptimize(present);
         return ns;
       },
       kDormantBudget});
  plan.guard = [] {
    return obs::Enabled() ? std::string("observability became enabled")
                          : std::string();
  };
  return plan;
}

// --------------------------------------------------------------------------
// profiler: a two-terminal MC estimate with the sampling profiler on
// (99 Hz) vs off. One iteration is one world.
// --------------------------------------------------------------------------

constexpr NodeId kProfilerNodes = 1000;
constexpr int kProfilerHz = 99;

Status StartProfiler() {
  obs::ProfilerOptions options;
  options.hz = kProfilerHz;
  options.emit_record = false;
  return obs::StartGlobalProfiler(options);
}

Result<Plan> ProfilerPlan() {
  // The profiler samples only threads that open spans, and spans only
  // run with a live sink; a discarded stream keeps the measurement
  // realistic without leaving files around.
  obs::ObsOptions obs_options;
  obs_options.metrics_out = "/dev/null";
  obs_options.read_env = false;
  if (Status s = obs::InitObservability(obs_options); !s.ok()) return s;
  Plan plan;
  if (Status s = StartProfiler(); !s.ok()) {
    // OBS=OFF build or non-Linux host: the profiler costs nothing here.
    std::fprintf(stdout, "skipped: %s\n", s.ToString().c_str());
    return plan;
  }
  (void)obs::StopGlobalProfiler();

  Rng graph_rng(kSeed);
  Result<graph::UncertainGraph> random =
      graph::RandomUncertainGraph(kProfilerNodes, 8.0, 0.1, 0.9, graph_rng);
  if (!random.ok()) return random.status();
  const auto graph =
      std::make_shared<const graph::UncertainGraph>(*std::move(random));
  const auto estimate = [graph](std::uint64_t worlds) {
    Rng rng(kSeed);
    rel::MonteCarloOptions mc;
    mc.worlds = static_cast<std::size_t>(worlds);
    const std::uint64_t start = MonotonicNanos();
    const auto result =
        rel::EstimateTwoTerminalReliability(*graph, 0, 1, mc, rng);
    const std::uint64_t stop = MonotonicNanos();
    bench::DoNotOptimize(result.ok() ? result->reliability : 0.0);
    return static_cast<double>(stop - start);
  };
  plan.checks.push_back(
      {"BM_McReliability_ProfilerOff", "BM_McReliability_ProfilerOn",
       estimate,
       [estimate](std::uint64_t worlds) {
         CH_CHECK(StartProfiler().ok());  // probed above
         const double ns = estimate(worlds);
         (void)obs::StopGlobalProfiler();
         return ns;
       },
       kProfilerBudget});
  return plan;
}

// --------------------------------------------------------------------------
// flight: one dormant CHOBS_FLIGHT_EVENT per 16 RNG draws.
// --------------------------------------------------------------------------

template <bool instrumented>
double FlightLoop(std::uint64_t iterations) {
  Rng rng(kSeed);
  std::uint64_t acc = 0;
  // `i` is unused when CHAMELEON_OBS=OFF compiles the macro out.
  const auto body = [&]([[maybe_unused]] std::uint64_t i) {
    Draws(rng, 16, acc);
    if constexpr (instrumented) {
      CHOBS_FLIGHT_EVENT(kCheckpoint, "bench_tick", i, iterations);
    }
  };
  const double ns = TimeLoop(iterations, body);
  bench::DoNotOptimize(acc);
  return ns;
}

Result<Plan> FlightPlan() {
  Plan plan;
  plan.checks.push_back({"BM_SampleLoop_Bare",
                         "BM_SampleLoop_DormantFlightEvent",
                         FlightLoop<false>, FlightLoop<true>,
                         kDormantBudget});
  const std::uint64_t before = obs::FlightEventsRecorded();
  plan.guard = [before] {
    return obs::FlightEventsRecorded() != before
               ? std::string("dormant macro recorded flight events")
               : std::string();
  };
  return plan;
}

// --------------------------------------------------------------------------
// parallel: back-to-back ParallelForBlocks regions with obs dormant vs a
// local replica of the fork-join path without the telemetry hook.
// --------------------------------------------------------------------------

/// Small enough that the grain clamp keeps each region inline on the
/// caller (the gate times the dispatch tax, not thread spawns), large
/// enough that fn() does real work per block.
constexpr std::size_t kRegionItems = 2048;
constexpr std::size_t kRegionBlock = 256;

using BlockFn =
    std::function<void(std::size_t block, std::size_t begin, std::size_t end)>;

/// Same worker clamps (PlanWorkers, with the default work hint), atomic
/// cursor, std::function indirection and block boundaries as
/// ParallelForBlocks; what it lacks is exactly the telemetry hook.
void BareParallelForBlocks(std::size_t n, std::size_t block_size,
                           int threads, const BlockFn& fn) {
  if (n == 0 || block_size == 0) return;
  const std::size_t blocks = NumBlocks(n, block_size);
  const std::size_t workers = PlanWorkers(n, block_size, threads).workers;
  std::atomic<std::size_t> cursor{0};
  const auto drain = [&] {
    for (std::size_t block = cursor.fetch_add(1, std::memory_order_relaxed);
         block < blocks;
         block = cursor.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t begin = block * block_size;
      fn(block, begin, std::min(n, begin + block_size));
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(drain);
  drain();
  for (std::thread& t : pool) t.join();
}

template <bool real>
double RegionLoop(std::uint64_t iterations) {
  std::uint64_t acc = 0;
  const BlockFn fn = [&acc](std::size_t block, std::size_t begin,
                            std::size_t end) {
    std::uint64_t sum = block;
    for (std::size_t i = begin; i < end; ++i) sum += i * 2654435761u;
    acc += sum;
  };
  const double ns = TimeLoop(iterations, [&](std::uint64_t) {
    if constexpr (real) {
      ParallelForBlocks(kRegionItems, kRegionBlock, 1, fn);
    } else {
      BareParallelForBlocks(kRegionItems, kRegionBlock, 1, fn);
    }
  });
  bench::DoNotOptimize(acc);
  return ns;
}

Result<Plan> ParallelPlan() {
  Plan plan;
  plan.checks.push_back({"BM_RegionLoop_Bare",
                         "BM_RegionLoop_DormantParallelForBlocks",
                         RegionLoop<false>, RegionLoop<true>,
                         kDormantBudget});
  const std::uint64_t before = obs::ParallelRegionsRecorded();
  plan.guard = [before] {
    return obs::ParallelRegionsRecorded() != before
               ? std::string("dormant regions recorded telemetry")
               : std::string();
  };
  return plan;
}

// --------------------------------------------------------------------------
// hw: one dormant CHOBS_SPAN around 512 RNG draws (~2 us). The hw engine
// adds one relaxed load per live span open/close and nothing dormant.
// --------------------------------------------------------------------------

template <bool instrumented>
double SpanLoop(std::uint64_t iterations) {
  Rng rng(kSeed);
  std::uint64_t acc = 0;
  const double ns = TimeLoop(iterations, [&](std::uint64_t) {
    if constexpr (instrumented) {
      CHOBS_SPAN(span, "bench/hw_tick");
      Draws(rng, 512, acc);
    } else {
      Draws(rng, 512, acc);
    }
  });
  bench::DoNotOptimize(acc);
  return ns;
}

Result<Plan> HwPlan() {
  Plan plan;
  plan.checks.push_back({"BM_SpanLoop_Bare", "BM_SpanLoop_DormantHwSpan",
                         SpanLoop<false>, SpanLoop<true>, kDormantBudget});
  const std::uint64_t before = obs::HwSpansAttributed();
  plan.guard = [before] {
    return obs::HwSpansAttributed() != before || obs::HwCountersActive()
               ? std::string("dormant spans attributed hw counters")
               : std::string();
  };
  return plan;
}

// --------------------------------------------------------------------------
// heap: one allocate-touch-free of a 16..512 B block per 128 RNG draws
// (~500 ns), through the replaced operator new/delete vs raw
// malloc/free. Dormant: the counters plus the sampler's relaxed load and
// countdown. Active: the sampler running at its default 1/512 KiB rate.
// --------------------------------------------------------------------------

constexpr std::size_t kAllocSizes[] = {16, 48, 128, 512};

template <bool instrumented>
double AllocLoop(std::uint64_t iterations) {
  Rng rng(kSeed);
  std::uint64_t acc = 0;
  const double ns = TimeLoop(iterations, [&](std::uint64_t i) {
    Draws(rng, 128, acc);
    const std::size_t size = kAllocSizes[i % std::size(kAllocSizes)];
    void* ptr = instrumented ? ::operator new(size) : std::malloc(size);
    // Touch the block so the allocation cannot be elided or deferred.
    *static_cast<volatile char*>(ptr) = static_cast<char>(i);
    bench::DoNotOptimize(ptr);
    if (instrumented) {
      ::operator delete(ptr);
    } else {
      std::free(ptr);
    }
  });
  bench::DoNotOptimize(acc);
  return ns;
}

Result<Plan> HeapPlan() {
  if (obs::HeapProfilerActive()) {
    return Status::FailedPrecondition("heap profiler already running");
  }
  Plan plan;
  plan.checks.push_back({"BM_AllocLoop_Bare", "BM_AllocLoop_DormantHook",
                         AllocLoop<false>, AllocLoop<true>, kDormantBudget});
  if (Status s = obs::StartHeapProfiler({}); !s.ok()) {
    // Sanitizer or OBS=OFF build: the dormant arm is all there is.
    std::fprintf(stdout, "note: active arm skipped (%s)\n",
                 s.ToString().c_str());
    return plan;
  }
  (void)obs::StopHeapProfiler();

  // Samples drawn across every active repetition; zero would make the
  // active measurement vacuous.
  auto samples = std::make_shared<std::uint64_t>(0);
  plan.checks.push_back(
      {"BM_AllocLoop_ActiveBare", "BM_AllocLoop_ActiveSampler",
       AllocLoop<false>,
       [samples](std::uint64_t iterations) {
         CH_CHECK(obs::StartHeapProfiler({}).ok());  // probed above
         const double ns = AllocLoop<true>(iterations);
         *samples += obs::HeapSamplesRecorded();
         (void)obs::StopHeapProfiler();
         return ns;
       },
       kHeapActiveBudget});
  plan.guard = [samples] {
    if (obs::HeapProfilerActive()) {
      return std::string("heap profiler left running");
    }
    return *samples == 0 ? std::string("active arm drew no heap samples")
                         : std::string();
  };
  return plan;
}

struct Gate {
  const char* name;     ///< --gate=NAME
  const char* suite;    ///< BENCH suite name of the --out file
  const char* summary;  ///< --list description
  Result<Plan> (*setup)();
};

constexpr Gate kGates[] = {
    {"obs_dormant", "obs_overhead",
     "WorldSampler::SampleMask with obs dormant vs the raw Bernoulli loop",
     ObsDormantPlan},
    {"profiler", "profiler_overhead",
     "MC reliability with the 99 Hz sampling profiler on vs off",
     ProfilerPlan},
    {"flight", "flight_overhead",
     "dormant CHOBS_FLIGHT_EVENT per loop iteration vs a bare loop",
     FlightPlan},
    {"parallel", "parallel_overhead",
     "dormant ParallelForBlocks telemetry vs a bare fork-join replica",
     ParallelPlan},
    {"hw", "hw_overhead",
     "dormant CHOBS_SPAN (hw-counter hook) per loop iteration vs a bare loop",
     HwPlan},
    {"heap", "heap_overhead",
     "operator new/delete hook vs malloc/free, sampler dormant and active",
     HeapPlan},
};

int Run(int argc, char** argv) {
  FlagSet flags(
      "chameleon_overhead_gate: instrumented vs bare wall-clock budget "
      "gates, one per process");
  flags.AddString("gate", "", "gate to run (see --list)");
  flags.AddBool("list", false, "print the gate table and exit");
  flags.AddInt64("reps", 9, "timed repetitions per arm");
  flags.AddString("out", "", "also write the arms as a BENCH_*.json suite");
  if (auto code = cli::ParseCommandLine(flags, "chameleon_overhead_gate",
                                        argc, argv, {"reps"})) {
    return *code;
  }
  if (flags.GetBool("list")) {
    for (const Gate& gate : kGates) {
      std::fprintf(stdout, "%-12s %s\n", gate.name, gate.summary);
    }
    return 0;
  }
  const std::string name = flags.GetString("gate");
  const Gate* gate = nullptr;
  for (const Gate& candidate : kGates) {
    if (name == candidate.name) gate = &candidate;
  }
  if (gate == nullptr) {
    std::fprintf(stderr, "error: unknown gate \"%s\" (see --list)\n%s",
                 name.c_str(), flags.Usage().c_str());
    return 2;
  }

  Result<Plan> plan = gate->setup();
  if (!plan.ok()) {
    std::fprintf(stderr, "error: %s\n", plan.status().ToString().c_str());
    return 2;
  }
  const int reps = static_cast<int>(flags.GetInt64("reps"));
  bool pass = true;
  std::vector<bench::BenchResult> rows;
  for (const bench::OverheadCheck& check : plan->checks) {
    const bench::OverheadVerdict v = bench::MeasureOverhead(check, reps);
    std::fprintf(stdout,
                 "%s: %.2f ns/iter vs %s %.2f ns/iter (%llu iters x %d "
                 "reps), overhead %+.2f%% (budget %.2f%%, noise floor "
                 "%.2f ns/iter)\n",
                 check.instrumented_name.c_str(), v.instrumented.median_ns,
                 check.bare_name.c_str(), v.bare.median_ns,
                 static_cast<unsigned long long>(v.bare.iterations), reps,
                 v.overhead * 100.0, check.budget * 100.0, v.noise_ns);
    if (!v.pass) {
      std::fprintf(stderr, "FAIL: %s overhead %.2f%% exceeds the %.2f%% "
                   "budget\n",
                   check.instrumented_name.c_str(), v.overhead * 100.0,
                   check.budget * 100.0);
      pass = false;
    }
    rows.push_back(v.bare);
    rows.push_back(v.instrumented);
  }
  if (const std::string broken = plan->guard(); !broken.empty()) {
    std::fprintf(stderr, "FAIL: %s\n", broken.c_str());
    return 1;
  }

  if (!flags.GetString("out").empty() && !rows.empty()) {
    bench::BenchOptions options;
    options.reps = reps;
    if (Status s = bench::WriteBenchFile(flags.GetString("out"), gate->suite,
                                         rows, options);
        !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 2;
    }
  }
  if (!pass) return 1;
  std::fprintf(stdout, plan->checks.empty() ? "SKIPPED\n" : "PASS\n");
  return 0;
}

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) { return chameleon::Run(argc, argv); }
