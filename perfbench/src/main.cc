// perfbench_driver: the end-to-end publish/audit benchmark.
//
//   perfbench_driver gen --workload W --seed N --dir DIR
//   perfbench_driver run --workload W --seed N --seconds S --trace 0|1
//                        --dir DIR [--spans FILE]
//   perfbench_driver selftest [--dir DIR]
//
// `gen` writes the workload's seeded input graphs into DIR. `run` loads
// them with graph::ReadEdgeList (the set-up), then publishes them with
// anonymize::Anonymize (or, on the audit workload, certifies it with
// privacy::VerifyObfuscation) over and over for S seconds, gating every
// result, and prints a report plus one JSON result line. With --trace 1
// each operation is followed by a replay of the driver's layer calls,
// timed from the outside into an in-memory span log written at exit.
//
// The library's own instrumentation stays dormant: nothing here calls
// obs::InitObservability.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chameleon/anonymize/chameleon.h"
#include "chameleon/anonymize/gen_obf.h"
#include "chameleon/anonymize/perturbation.h"
#include "chameleon/anonymize/relevance.h"
#include "chameleon/graph/io.h"
#include "chameleon/obs/run_context.h"
#include "chameleon/privacy/degree_distribution.h"
#include "chameleon/privacy/obfuscation.h"
#include "chameleon/privacy/uniqueness.h"
#include "chameleon/util/parallel.h"
#include "chameleon/util/rng.h"
#include "generators.h"
#include "measure.h"

namespace perfbench {

int RunSelfTest(const std::string& dir);  // selftest.cc

/// The driver's per-attempt stream (anonymize/chameleon.cc), needed to
/// replay its GenObf attempts one by one.
std::uint64_t AttemptSeed(std::uint64_t seed, std::size_t level,
                          std::size_t attempt) {
  std::uint64_t state = seed ^ (0x94d049bb133111ebull * (level + 1)) ^
                        (0xd6e8feb86659fd93ull * (attempt + 1));
  return chameleon::SplitMix64(state);
}

namespace {

namespace anon = chameleon::anonymize;
namespace graph = chameleon::graph;
namespace privacy = chameleon::privacy;

/// One process, three workers: nproc − 1 on a 4-core host leaves a core
/// for the rest of the machine, which keeps run-to-run spread down.
constexpr int kWorkers = 3;
/// ReadEdgeList repetitions in set-up; setup_s is their median.
constexpr int kSetupReps = 5;

struct Workload {
  const char* name;
  bool audit;      // certify the input instead of publishing it
  bool power_law;  // Chung–Lu instead of Erdős–Rényi
  /// Input graphs per run, from consecutive generator seeds. A batch
  /// averages out how hard single graphs are to obfuscate.
  std::size_t graphs;
  /// Repeat the first publication on one worker and compare bit for bit.
  bool serial_repeat;
  /// Timed repeats of each independent verification (all gated): enough
  /// samples per run for a steady median of a millisecond-scale call.
  int verify_reps;
  std::uint32_t nodes;
  double avg_degree;
  double gamma;
  anon::Variant variant;
  double k;
  double epsilon;
};

constexpr Workload kWorkloads[] = {
    {"er-rsme", false, false, 1, false, 10, 50000, 8.0, 0.0,
     anon::Variant::kRSME, 100.0, 0.01},
    {"powerlaw-me", false, true, 32, true, 3, 5000, 8.0, 2.3,
     anon::Variant::kME, 40.0, 0.01},
    {"audit-powerlaw", true, true, 1, false, 1, 200000, 8.0, 2.3,
     anon::Variant::kRSME /* unused: nothing is published */, 100.0, 0.01},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Graph j of a run is generated from seed·graphs + j.
std::uint64_t GeneratorSeed(const Workload& w, std::uint64_t seed,
                            std::size_t j) {
  std::uint64_t state = (seed * w.graphs + j) ^
                        (0x5851f42d4c957f2dull *
                         static_cast<std::uint64_t>(w.nodes));
  return chameleon::SplitMix64(state);
}

std::string GraphPath(const std::string& dir, std::size_t j) {
  return dir + "/g" + std::to_string(j) + ".edges";
}

/// Publication i of a run uses driver seed base+i: consecutive seeds,
/// disjoint between workload seeds.
std::uint64_t PublicationSeed(std::uint64_t seed, std::size_t i) {
  return seed * 1000003ull + i;
}

anon::ChameleonOptions PublishOptions(const Workload& w, std::uint64_t seed,
                                      int threads) {
  anon::ChameleonOptions options;
  options.k = w.k;
  options.epsilon = w.epsilon;
  options.threads = threads;
  options.seed = seed;
  options.heartbeat = false;
  return options;
}

privacy::ObfuscationOptions VerifyOptions(const Workload& w,
                                          bool keep_per_vertex) {
  privacy::ObfuscationOptions options;
  options.k = w.k;
  options.epsilon = w.epsilon;
  options.threads = kWorkers;
  options.keep_per_vertex = keep_per_vertex;
  return options;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Counts operations and their failures; keeps the first few reasons.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> reasons;

  void Record(const std::string& error, const std::string& what) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
                 error.c_str());
    if (reasons.size() < 8) reasons.push_back(what + ": " + error);
  }
};

/// Internal consistency of a full certificate: the per-vertex rows must
/// add up to its counts and its verdict must follow from ε̂ ≤ ε.
std::string CheckCertificate(const privacy::ObfuscationCertificate& cert,
                             std::size_t nodes, double epsilon) {
  if (cert.per_vertex.size() != nodes) return "per-vertex rows missing";
  std::size_t not_obfuscated = 0;
  for (const auto& row : cert.per_vertex) not_obfuscated += !row.obfuscated;
  if (not_obfuscated != cert.not_obfuscated) {
    return "per-vertex rows disagree with not_obfuscated";
  }
  const double eps_hat = static_cast<double>(not_obfuscated) /
                         static_cast<double>(nodes);
  if (Bits(eps_hat) != Bits(cert.epsilon_hat)) return "eps_hat miscounted";
  if (cert.obfuscated != (cert.epsilon_hat <= epsilon)) {
    return "verdict does not follow from eps_hat";
  }
  return "";
}

/// The publication gate. An infeasible result must return the input
/// unchanged. A feasible one must keep the input's edge set, and an
/// independent full verification must reproduce the driver's ε̂ and
/// satisfy ε̂ ≤ ε. Whatever was returned is verified (as its recipient
/// would), w.verify_reps times; `verify` receives their timings.
std::string CheckPublication(const graph::UncertainGraph& input,
                             const anon::AnonymizeResult& result,
                             const Workload& w, std::vector<Sample>* verify) {
  const graph::UncertainGraph& pub = result.published;
  if (!result.feasible &&
      (pub.num_nodes() != input.num_nodes() || pub.edges() != input.edges())) {
    return "infeasible result does not return the input unchanged";
  }
  if (pub.num_nodes() != input.num_nodes() ||
      pub.num_edges() != input.num_edges()) {
    return "published graph changed shape";
  }
  for (std::size_t e = 0; e < pub.num_edges(); ++e) {
    const auto& a = pub.edge(static_cast<chameleon::EdgeId>(e));
    const auto& b = input.edge(static_cast<chameleon::EdgeId>(e));
    if (a.u != b.u || a.v != b.v || !(a.p >= 0.0 && a.p <= 1.0)) {
      return "published graph changed the edge set";
    }
  }
  std::optional<chameleon::Result<privacy::ObfuscationCertificate>> cert;
  for (int rep = 0; rep < w.verify_reps; ++rep) {
    verify->push_back(Measure([&] {
      cert.emplace(privacy::VerifyObfuscation(pub, VerifyOptions(w, true)));
    }));
    if (!cert->ok()) return "verify: " + cert->status().ToString();
    const std::string error =
        CheckCertificate(**cert, pub.num_nodes(), w.epsilon);
    if (!error.empty()) return error;
  }
  if (!result.feasible) return "";
  const auto& c = **cert;
  if (Bits(c.epsilon_hat) != Bits(result.certificate.epsilon_hat) ||
      c.not_obfuscated != result.certificate.not_obfuscated) {
    return "independent verify does not reproduce the driver's eps_hat";
  }
  if (!(c.epsilon_hat <= w.epsilon)) return "published graph has eps_hat > eps";
  return "";
}

/// Bit-for-bit equality of two publications (edge probabilities, σ, ε̂).
std::string CompareBitwise(const anon::AnonymizeResult& a,
                           const anon::AnonymizeResult& b) {
  if (a.feasible != b.feasible) return "feasibility differs";
  if (Bits(a.sigma) != Bits(b.sigma)) return "sigma differs";
  if (Bits(a.certificate.epsilon_hat) != Bits(b.certificate.epsilon_hat)) {
    return "eps_hat differs";
  }
  const auto& ea = a.published.edges();
  const auto& eb = b.published.edges();
  if (ea.size() != eb.size()) return "edge count differs";
  for (std::size_t e = 0; e < ea.size(); ++e) {
    if (ea[e].u != eb[e].u || ea[e].v != eb[e].v ||
        Bits(ea[e].p) != Bits(eb[e].p)) {
      return "edge probabilities differ";
    }
  }
  return "";
}

/// CSR rebuild of `g`'s edge list — the step GenObf repeats per attempt
/// and ReadEdgeList ends with.
bool RebuildCsr(const graph::UncertainGraph& g) {
  graph::UncertainGraphBuilder builder(g.num_nodes());
  for (const auto& e : g.edges()) {
    if (!builder.AddEdge(e.u, e.v, e.p).ok()) return false;
  }
  return std::move(builder).Build().ok();
}

std::uint64_t SumDegreeSquared(const graph::UncertainGraph& g) {
  std::uint64_t sum = 0;
  for (chameleon::NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::uint64_t d = g.Neighbors(v).size();
    sum += d * d;
  }
  return sum;
}

std::uint64_t MaxDegree(const graph::UncertainGraph& g) {
  std::uint64_t best = 0;
  for (chameleon::NodeId v = 0; v < g.num_nodes(); ++v) {
    best = std::max<std::uint64_t>(best, g.Neighbors(v).size());
  }
  return best;
}

std::uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                      : 0;
}

/// The highest of p99/p95/p90/p75 with at least ten samples above it
/// (nearest rank), as {percent, value}; {0, 0} below 40 samples.
std::pair<int, double> TailPercentile(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (const int q : {99, 95, 90, 75}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(q) / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= 10) return {q, values[rank - 1]};
  }
  return {0, 0.0};
}

/// Samples of one named quantity across the operations of a run.
using Series = std::map<std::string, std::vector<double>>;

struct Args {
  std::string mode;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) return false;
    args->flags[argv[i] + 2] = argv[i + 1];
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver gen --workload W --seed N --dir DIR\n"
               "       perfbench_driver run --workload W --seed N --seconds S "
               "--trace 0|1 --dir DIR [--spans FILE]\n"
               "       perfbench_driver selftest [--dir DIR]\n"
               "workloads: er-rsme powerlaw-me audit-powerlaw\n");
  return 2;
}

int Generate(const Workload& w, std::uint64_t seed, const std::string& dir) {
  for (std::size_t j = 0; j < w.graphs; ++j) {
    const std::uint64_t gen_seed = GeneratorSeed(w, seed, j);
    const GeneratedGraph g =
        w.power_law
            ? GenerateChungLu(w.nodes, w.avg_degree, w.gamma, gen_seed,
                              /*id_seed=*/j)
            : GenerateErdosRenyi(w.nodes, w.avg_degree, gen_seed);
    const std::string path = GraphPath(dir, j);
    if (WriteGraph(g, path) == 0) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  return 0;
}

/// Everything one `run` invocation measures.
class Runner {
 public:
  Runner(const Workload& w, std::uint64_t seed, double seconds, bool trace,
         std::string dir)
      : w_(w), seed_(seed), seconds_(seconds), trace_(trace),
        dir_(std::move(dir)) {}

  int Run(const std::string& spans_path);

 private:
  bool SetUp();
  void PublishLoop();
  void Publish(std::size_t i, const graph::UncertainGraph& g);
  void AuditLoop();
  /// Wall seconds of the replayed layer calls, and of the probes run
  /// between them (which the replayed publication does not contain).
  struct Replay {
    double children_s = 0.0;
    double probe_s = 0.0;
  };
  void ReplayPublish(std::size_t request, const graph::UncertainGraph& g,
                     const anon::ChameleonOptions& opts,
                     const anon::AnonymizeResult& result, double publish_s);
  std::string ReplayLayers(int root, std::size_t request,
                           const graph::UncertainGraph& g,
                           const anon::ChameleonOptions& opts,
                           const anon::AnonymizeResult& result,
                           Replay* replay);
  void ReplayAudit(std::size_t request,
                   const privacy::ObfuscationCertificate& cert, double op_s);
  void PrintReport() const;
  void PrintResult() const;

  double Sigma() const {
    return feasible_ > 0 ? sigma_sum_ / static_cast<double>(feasible_) : 0.0;
  }
  double FeasibleFrac() const {
    return publications_ > 0 ? static_cast<double>(feasible_) /
                                   static_cast<double>(publications_)
                             : 0.0;
  }
  double M(const std::string& key) const {
    const auto it = series_.find(key);
    return it == series_.end() ? 0.0 : Median(it->second);
  }
  std::size_t N(const std::string& key) const {
    const auto it = series_.find(key);
    return it == series_.end() ? 0 : it->second.size();
  }
  void Add(const std::string& key, double value) {
    series_[key].push_back(value);
  }

  const Workload& w_;
  std::uint64_t seed_;
  double seconds_;
  bool trace_;
  std::string dir_;

  std::vector<graph::UncertainGraph> graphs_;
  std::uint64_t file_bytes_ = 0;
  Series series_;
  Tally tally_;
  SpanLog spans_;
  double load_at_start_ = 0.0;  // 1-minute load average
  std::size_t publications_ = 0;
  std::size_t feasible_ = 0;
  double sigma_sum_ = 0.0;
  std::size_t replay_mismatches_ = 0;
  std::size_t genobf_attempts_ = 0;
  std::size_t genobf_successes_ = 0;
};

bool Runner::SetUp() {
  for (int r = 0; r < kSetupReps; ++r) {
    std::vector<graph::UncertainGraph> loaded;
    std::string error;
    const Sample s = Measure([&] {
      for (std::size_t j = 0; j < w_.graphs && error.empty(); ++j) {
        auto g = graph::ReadEdgeList(GraphPath(dir_, j));
        if (g.ok()) {
          loaded.push_back(std::move(*g));
        } else {
          error = g.status().ToString();
        }
      }
    });
    if (!error.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return false;
    }
    Add("setup_s", s.wall_s);
    graphs_ = std::move(loaded);
  }
  for (std::size_t j = 0; j < w_.graphs; ++j) {
    file_bytes_ += FileBytes(GraphPath(dir_, j));
  }
  if (trace_) {
    // The cold first PMF build, before anything has warmed the heap.
    Add("privacy.first_pmf_s", Measure([&] {
                                 privacy::BuildDegreeDistributions(graphs_[0],
                                                                   kWorkers);
                               }).wall_s);
    for (int r = 0; r < kSetupReps; ++r) {
      bool ok = true;
      const Sample s = Measure([&] {
        for (const auto& g : graphs_) ok = RebuildCsr(g) && ok;
      });
      if (!ok) return false;
      Add("graph.build_s", s.wall_s / static_cast<double>(w_.graphs));
    }
  }
  return true;
}

void Runner::PublishLoop() {
  // Whole passes over the batch, so every run sees the same mix.
  const double deadline = NowSeconds() + seconds_;
  std::size_t i = 0;
  do {
    for (const graph::UncertainGraph& g : graphs_) Publish(i++, g);
  } while (NowSeconds() < deadline);
}

void Runner::Publish(std::size_t i, const graph::UncertainGraph& g) {
  const anon::ChameleonOptions opts =
      PublishOptions(w_, PublicationSeed(seed_, i), kWorkers);
  std::optional<chameleon::Result<anon::AnonymizeResult>> result;
  const Sample op =
      Measure([&] { result.emplace(anon::Anonymize(g, w_.variant, opts)); });
  const std::string what = "publication " + std::to_string(i);
  if (!result->ok()) {
    tally_.Record(result->status().ToString(), what);
    return;
  }
  const anon::AnonymizeResult& r = **result;
  std::vector<Sample> verify;
  tally_.Record(CheckPublication(g, r, w_, &verify), what);
  Add("op_s", op.wall_s);
  Add("cpu_s", op.cpu_s);
  for (const Sample& v : verify) Add("verify_s", v.wall_s);
  ++publications_;
  if (r.feasible) {
    ++feasible_;
    sigma_sum_ += r.sigma;
  }
  if (i == 0 && w_.serial_repeat) {
    // Determinism: the same publication on one worker, bit for bit.
    auto serial =
        anon::Anonymize(g, w_.variant, PublishOptions(w_, opts.seed, 1));
    tally_.Record(serial.ok() ? CompareBitwise(r, *serial)
                              : serial.status().ToString(),
                  "1-worker repeat of " + what);
  }
  if (trace_) ReplayPublish(i, g, opts, r, op.wall_s);
}

void Runner::ReplayPublish(std::size_t request, const graph::UncertainGraph& g,
                           const anon::ChameleonOptions& opts,
                           const anon::AnonymizeResult& result,
                           double publish_s) {
  const int root = spans_.Open("anonymize.publish", -1, request);
  const double t0 = NowSeconds();
  const double cpu0 = ProcessCpuSeconds();
  Replay replay;
  const std::string error =
      ReplayLayers(root, request, g, opts, result, &replay);
  const double wall = NowSeconds() - t0;
  spans_.Close(root, {wall, ProcessCpuSeconds() - cpu0});
  tally_.Record(error, "traced replay " + std::to_string(request));
  if (!error.empty()) return;

  const double traced_s = wall - replay.probe_s;
  for (const anon::SigmaTraceEntry& entry : result.trace) {
    ++genobf_attempts_;
    genobf_successes_ += entry.success;
  }
  Add("anonymize.driver_self_s", publish_s - replay.children_s);
  Add("anonymize.genobf_attempts", static_cast<double>(result.trace.size()));
  Add("graph.builds", 1.0 + static_cast<double>(result.trace.size()));
  Add("privacy.uniqueness_kernel_evals",
      static_cast<double>(g.num_nodes()) * static_cast<double>(g.num_nodes()));
  Add("bench.trace_overhead_frac", (traced_s - publish_s) / publish_s);
}

std::string Runner::ReplayLayers(int root, std::size_t request,
                                 const graph::UncertainGraph& g,
                                 const anon::ChameleonOptions& opts,
                                 const anon::AnonymizeResult& result,
                                 Replay* replay) {
  privacy::UniquenessOptions uopts;
  uopts.bandwidth = opts.uniqueness_bandwidth;
  uopts.threads = opts.threads;
  std::optional<chameleon::Result<privacy::UniquenessScores>> uniq;
  const Sample su = spans_.Run("privacy.uniqueness", root, request, [&] {
    uniq.emplace(privacy::ComputeUniqueness(g, uopts));
  });
  if (!uniq->ok()) return uniq->status().ToString();
  Add("privacy.uniqueness_s", su.wall_s);
  Add("privacy.uniqueness_util", su.util());

  std::vector<double> err;
  Sample sr;
  if (w_.variant != anon::Variant::kME) {
    anon::RelevanceOptions ropts;
    ropts.worlds = opts.relevance_worlds;
    ropts.seed = opts.seed;
    ropts.threads = opts.threads;
    ropts.max_rel_err = opts.relevance_max_rel_err;
    ropts.heartbeat = opts.heartbeat;
    std::optional<chameleon::Result<anon::EdgeRelevance>> rel;
    sr = spans_.Run("anonymize.relevance", root, request, [&] {
      rel.emplace(anon::EstimateRelevance(g, ropts));
    });
    if (!rel->ok()) return rel->status().ToString();
    err = std::move((*rel)->err);
    const double edge_worlds = static_cast<double>((*rel)->worlds) *
                               static_cast<double>(g.num_edges());
    Add("anonymize.relevance_edge_worlds", edge_worlds);
    Add("anonymize.relevance_ns_per_edge_world", sr.wall_s * 1e9 / edge_worlds);
    Add("anonymize.relevance_util", sr.util());
  }
  Add("anonymize.relevance_s", sr.wall_s);

  std::optional<chameleon::Result<std::vector<double>>> priorities;
  const Sample sp = spans_.Run("anonymize.priorities", root, request, [&] {
    priorities.emplace(
        anon::ComputeEdgePriorities(g, (*uniq)->scores, err));
  });
  if (!priorities->ok()) return priorities->status().ToString();
  Add("anonymize.priorities_s", sp.wall_s);

  anon::GenObfOptions gopts;
  gopts.k = opts.k;
  gopts.epsilon = opts.epsilon;
  gopts.candidate_fraction = opts.candidate_fraction;
  gopts.white_noise = opts.white_noise;
  gopts.noise = w_.variant == anon::Variant::kRS ? anon::NoiseModel::kAdditive
                                                 : anon::NoiseModel::kMaxEntropy;
  gopts.adversary = opts.adversary;
  gopts.threads = opts.threads;
  double genobf_s = 0.0;
  std::size_t levels = 0;
  for (const anon::SigmaTraceEntry& entry : result.trace) {
    levels = std::max(levels, entry.level + 1);
    chameleon::Rng rng(AttemptSeed(opts.seed, entry.level, entry.attempt));
    std::optional<chameleon::Result<anon::GenObfAttempt>> attempt;
    genobf_s += spans_.Run("anonymize.genobf", root, request, [&] {
                        attempt.emplace(anon::GenObf(g, (*uniq)->scores,
                                                     **priorities, entry.sigma,
                                                     gopts, rng));
                      }).wall_s;
    if (!attempt->ok()) return attempt->status().ToString();
    const anon::GenObfAttempt& a = **attempt;
    if (Bits(a.certificate.epsilon_hat) != Bits(entry.epsilon_hat) ||
        a.certificate.obfuscated != entry.success) {
      ++replay_mismatches_;
    }
    // Probes of the attempt's privacy layer, outside the replayed
    // publication's time: the PMF build and the posterior sweep apart.
    std::vector<privacy::DegreeDistribution> dists;
    const Sample pmf = spans_.Run("probe.privacy.pmf", root, request, [&] {
      dists = privacy::BuildDegreeDistributions(a.published, kWorkers);
    });
    std::optional<chameleon::Result<privacy::ObfuscationCertificate>> sweep;
    const Sample sw =
        spans_.Run("probe.privacy.verify_sweep", root, request, [&] {
          sweep.emplace(privacy::VerifyObfuscation(a.published, dists,
                                                   VerifyOptions(w_, false)));
        });
    replay->probe_s += pmf.wall_s + sw.wall_s;
    if (!sweep->ok()) return sweep->status().ToString();
    if (Bits((*sweep)->epsilon_hat) != Bits(a.certificate.epsilon_hat)) {
      return "verify with caller-held PMFs disagrees with GenObf's verify";
    }
    Add("privacy.pmf_s", pmf.wall_s);
    Add("privacy.pmf_util", pmf.util());
    Add("privacy.verify_sweep_s", sw.wall_s);
    Add("privacy.distinct_omegas",
        static_cast<double>((*sweep)->distinct_omegas));
    Add("privacy.pmf_deg2_ops", static_cast<double>(SumDegreeSquared(g)));
  }
  Add("anonymize.genobf_s", genobf_s);
  Add("anonymize.sigma_levels", static_cast<double>(levels));
  replay->children_s = su.wall_s + sr.wall_s + sp.wall_s + genobf_s;
  return "";
}

void Runner::AuditLoop() {
  const graph::UncertainGraph& g = graphs_[0];
  const double deadline = NowSeconds() + seconds_;
  std::optional<privacy::ObfuscationCertificate> first;
  for (std::size_t i = 0; i == 0 || NowSeconds() < deadline; ++i) {
    std::optional<chameleon::Result<privacy::ObfuscationCertificate>> cert;
    const Sample op = Measure([&] {
      cert.emplace(privacy::VerifyObfuscation(g, VerifyOptions(w_, true)));
    });
    const std::string what = "audit " + std::to_string(i);
    if (!cert->ok()) {
      tally_.Record(cert->status().ToString(), what);
      continue;
    }
    const privacy::ObfuscationCertificate& c = **cert;
    std::string error = CheckCertificate(c, g.num_nodes(), w_.epsilon);
    if (!first) first = c;
    if (error.empty() &&
        (Bits(c.epsilon_hat) != Bits(first->epsilon_hat) ||
         Bits(c.mean_entropy_bits) != Bits(first->mean_entropy_bits) ||
         Bits(c.min_entropy_bits) != Bits(first->min_entropy_bits))) {
      error = "repeated audit gives a different certificate";
    }
    tally_.Record(error, what);
    Add("op_s", op.wall_s);
    Add("verify_s", op.wall_s);
    Add("cpu_s", op.cpu_s);
    if (trace_) ReplayAudit(i, c, op.wall_s);
  }
}

void Runner::ReplayAudit(std::size_t request,
                         const privacy::ObfuscationCertificate& cert,
                         double op_s) {
  const graph::UncertainGraph& g = graphs_[0];
  const int root = spans_.Open("privacy.audit", -1, request);
  const double t0 = NowSeconds();
  const double cpu0 = ProcessCpuSeconds();
  std::vector<privacy::DegreeDistribution> dists;
  const Sample pmf = spans_.Run("privacy.pmf", root, request, [&] {
    dists = privacy::BuildDegreeDistributions(g, kWorkers);
  });
  std::optional<chameleon::Result<privacy::ObfuscationCertificate>> sweep;
  const Sample sw = spans_.Run("privacy.verify_sweep", root, request, [&] {
    sweep.emplace(
        privacy::VerifyObfuscation(g, dists, VerifyOptions(w_, true)));
  });
  spans_.Close(root, {NowSeconds() - t0, ProcessCpuSeconds() - cpu0});
  std::string error;
  if (!sweep->ok()) {
    error = sweep->status().ToString();
  } else if (Bits((*sweep)->epsilon_hat) != Bits(cert.epsilon_hat) ||
             Bits((*sweep)->mean_entropy_bits) !=
                 Bits(cert.mean_entropy_bits)) {
    error = "verify with caller-held PMFs disagrees with the full verify";
  } else {
    Add("privacy.distinct_omegas",
        static_cast<double>((*sweep)->distinct_omegas));
  }
  tally_.Record(error, "traced replay " + std::to_string(request));
  Add("privacy.pmf_s", pmf.wall_s);
  Add("privacy.pmf_util", pmf.util());
  Add("privacy.verify_sweep_s", sw.wall_s);
  Add("graph.builds", 1.0);
  Add("privacy.pmf_deg2_ops", static_cast<double>(SumDegreeSquared(g)));
  Add("bench.trace_overhead_frac",
      (pmf.wall_s + sw.wall_s - op_s) / op_s);
}

int Runner::Run(const std::string& spans_path) {
  chameleon::SetDefaultThreads(kWorkers);
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) > 0) load_at_start_ = load[0];
  if (!SetUp()) return 1;
  if (w_.audit) {
    AuditLoop();
  } else {
    PublishLoop();
  }
  if (trace_ && !spans_path.empty() && !spans_.WriteJsonl(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
  }
  PrintReport();
  PrintResult();
  return 0;
}

void Runner::PrintReport() const {
  const chameleon::obs::BuildInfo& build = chameleon::obs::GetBuildInfo();
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const bool slow_build = !build.sanitize.empty() ||
                          build.build_type == "Debug" ||
                          build.build_type.empty();
  const bool undersized = nproc < kWorkers;
  if (slow_build || undersized) {
    std::fprintf(stderr,
                 "perfbench: WARNING: %s%s; these figures are not a "
                 "baseline\n",
                 slow_build ? "sanitizer or unoptimized build" : "",
                 undersized ? " fewer cores than workers" : "");
  }
  std::printf("perfbench %s seed=%llu trace=%d workers=%d\n", w_.name,
              static_cast<unsigned long long>(seed_), trace_ ? 1 : 0,
              kWorkers);
  // Input shape, summed over the batch (max_degree: its largest).
  std::size_t edges = 0;
  std::uint64_t max_degree = 0;
  std::uint64_t sum_deg2 = 0;
  for (const auto& g : graphs_) {
    edges += g.num_edges();
    max_degree = std::max(max_degree, MaxDegree(g));
    sum_deg2 += SumDegreeSquared(g);
  }
  const chameleon::NodeId nodes = graphs_[0].num_nodes();
  std::printf("  input: graphs=%zu n=%u edges=%zu max_degree=%llu "
              "sum_deg2=%llu file_bytes=%llu\n",
              graphs_.size(), nodes, edges,
              static_cast<unsigned long long>(max_degree),
              static_cast<unsigned long long>(sum_deg2),
              static_cast<unsigned long long>(file_bytes_));
  const char* op = w_.audit ? "audit" : "publish";
  std::printf("  %-14s %12.6f s    median of %zu\n", "setup_s", M("setup_s"),
              N("setup_s"));
  const auto [tail_q, tail_s] = TailPercentile(series_.count("op_s")
                                                   ? series_.at("op_s")
                                                   : std::vector<double>{});
  std::printf("  %-14s %12.6f s    median of %zu (%s)",
              w_.audit ? "op_s" : "publish_s", M("op_s"), N("op_s"), op);
  if (tail_q > 0) std::printf(", p%d %.6f s", tail_q, tail_s);
  std::printf("\n");
  std::printf("  %-14s %12.6f s    median of %zu\n", "verify_s", M("verify_s"),
              N("verify_s"));
  std::printf("  %-14s %12.6f s    median CPU per %s\n", "cpu_s", M("cpu_s"),
              op);
  std::printf("  %-14s %12.3f MB\n", "peak_rss_mb", PeakRssMb());
  if (!w_.audit) {
    std::printf("  %-14s %12.6f      mean over %zu feasible\n", "sigma",
                Sigma(), feasible_);
    std::printf("  %-14s %12.6f      of %zu publications\n", "feasible_frac",
                FeasibleFrac(), publications_);
  }
  std::printf("  %-14s %12zu      failed %zu\n", "attempted", tally_.attempted,
              tally_.failed);
  for (const std::string& reason : tally_.reasons) {
    std::printf("  FAILED %s\n", reason.c_str());
  }
  if (trace_) {
    for (const auto& [key, values] : series_) {
      std::printf("  %-40s %14.6g  median of %zu\n", key.c_str(),
                  Median(values), values.size());
    }
    if (replay_mismatches_ > 0) {
      std::printf("  WARNING: %zu replayed GenObf attempts disagree with the "
                  "driver's trace; the per-layer split is not faithful\n",
                  replay_mismatches_);
    }
  }

  std::printf(
      "{\"report\":{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
      "\"workers\":%d,\"provenance\":{\"nproc\":%ld,\"loadavg_1m\":%.2f,"
      "\"compiler\":\"%s %s\",\"build_type\":\"%s\",\"git_sha\":\"%s\","
      "\"sanitize\":\"%s\",\"flag_not_baseline\":%s},"
      "\"input\":{\"graphs\":%zu,\"n\":%u,\"edges\":%zu,\"max_degree\":%llu,"
      "\"sum_deg2\":%llu,\"file_bytes\":%llu},"
      "\"publish_s\":%.9g,\"publish_n\":%zu,\"op_tail\":{\"q\":%d,"
      "\"s\":%.9g},\"verify_s\":%.9g,"
      "\"verify_n\":%zu,\"sigma\":%.9g,\"feasible_frac\":%.9g,"
      "\"publications\":%zu,\"replay_mismatches\":%zu}}\n",
      w_.name, static_cast<unsigned long long>(seed_), trace_ ? 1 : 0,
      kWorkers, nproc, load_at_start_, build.compiler_id.c_str(),
      build.compiler_version.c_str(), build.build_type.c_str(),
      build.git_sha.c_str(), build.sanitize.c_str(),
      slow_build || undersized ? "true" : "false", graphs_.size(), nodes,
      edges, static_cast<unsigned long long>(max_degree),
      static_cast<unsigned long long>(sum_deg2),
      static_cast<unsigned long long>(file_bytes_),
      w_.audit ? 0.0 : M("op_s"), w_.audit ? 0 : N("op_s"), tail_q, tail_s,
      M("verify_s"),
      N("verify_s"), Sigma(), FeasibleFrac(), publications_,
      replay_mismatches_);
}

void Runner::PrintResult() const {
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics;
  if (!trace_) {
    metrics = {{"setup_s", M("setup_s"), "s"},
               {"op_s", M("op_s"), "s"},
               {"verify_s", M("verify_s"), "s"},
               {"cpu_s", M("cpu_s"), "s"},
               {"peak_rss_mb", PeakRssMb(), "MB"}};
  } else {
    // Per input file: set-up reads the whole batch.
    const double files = static_cast<double>(w_.graphs);
    const double parse_s =
        std::max(M("setup_s") / files - M("graph.build_s"), 1e-9);
    const double attempts = static_cast<double>(genobf_attempts_);
    metrics = {
        {"graph.io.parse_s", parse_s, "s"},
        {"graph.io.mb_per_s",
         static_cast<double>(file_bytes_) / files / 1e6 / parse_s, "MB/s"},
        {"graph.build_s", M("graph.build_s"), "s"},
        {"graph.builds", M("graph.builds"), "count"},
        {"privacy.uniqueness_s", M("privacy.uniqueness_s"), "s"},
        {"privacy.uniqueness_util", M("privacy.uniqueness_util"), "workers"},
        {"privacy.uniqueness_kernel_evals",
         M("privacy.uniqueness_kernel_evals"), "count"},
        {"privacy.pmf_s", M("privacy.pmf_s"), "s"},
        {"privacy.pmf_util", M("privacy.pmf_util"), "workers"},
        {"privacy.pmf_deg2_ops", M("privacy.pmf_deg2_ops"), "count"},
        {"privacy.first_pmf_s", M("privacy.first_pmf_s"), "s"},
        {"privacy.verify_sweep_s", M("privacy.verify_sweep_s"), "s"},
        {"privacy.distinct_omegas", M("privacy.distinct_omegas"), "count"},
        {"anonymize.relevance_s", M("anonymize.relevance_s"), "s"},
        {"anonymize.relevance_util", M("anonymize.relevance_util"),
         "workers"},
        {"anonymize.relevance_edge_worlds",
         M("anonymize.relevance_edge_worlds"), "count"},
        {"anonymize.relevance_ns_per_edge_world",
         M("anonymize.relevance_ns_per_edge_world"), "ns"},
        {"anonymize.priorities_s", M("anonymize.priorities_s"), "s"},
        {"anonymize.genobf_s", M("anonymize.genobf_s"), "s"},
        {"anonymize.genobf_attempts", M("anonymize.genobf_attempts"),
         "count"},
        {"anonymize.sigma_levels", M("anonymize.sigma_levels"), "count"},
        {"anonymize.genobf_success_ratio",
         attempts > 0 ? static_cast<double>(genobf_successes_) / attempts
                      : 0.0,
         "ratio"},
        {"anonymize.driver_self_s", M("anonymize.driver_self_s"), "s"},
        {"anonymize.sigma", Sigma(), "sigma"},
        {"anonymize.feasible_frac", FeasibleFrac(), "ratio"},
        {"bench.trace_overhead_frac", M("bench.trace_overhead_frac"),
         "ratio"},
    };
  }
  std::string out = "{\"correct\":";
  out += tally_.failed == 0 && tally_.attempted > 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(tally_.attempted);
  out += ",\"failed\":" + std::to_string(tally_.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    out += (i ? ",\"" : "\"") + metrics[i].name + "\":{\"value\":" + value +
           ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (args.mode == "selftest") return RunSelfTest(args.Get("dir", "."));
  const Workload* w = FindWorkload(args.Get("workload", ""));
  const std::string seed_text = args.Get("seed", "");
  if (w == nullptr || seed_text.empty()) return Usage();
  const std::uint64_t seed = std::strtoull(seed_text.c_str(), nullptr, 10);
  const std::string dir = args.Get("dir", "");
  if (dir.empty()) return Usage();
  if (args.mode == "gen") return Generate(*w, seed, dir);
  if (args.mode == "run") {
    const double seconds = std::atof(args.Get("seconds", "0").c_str());
    if (!(seconds > 0.0)) return Usage();
    Runner runner(*w, seed, seconds, args.Get("trace", "0") == "1", dir);
    return runner.Run(args.Get("spans", ""));
  }
  return Usage();
}
