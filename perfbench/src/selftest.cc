// Self-check of the benchmark's own machinery: the seeded generators,
// the edge-list round trip that set-up times, the order statistics, and
// the GenObf attempt replay the traced run relies on.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "chameleon/anonymize/chameleon.h"
#include "chameleon/anonymize/gen_obf.h"
#include "chameleon/anonymize/perturbation.h"
#include "chameleon/graph/io.h"
#include "chameleon/privacy/uniqueness.h"
#include "chameleon/util/rng.h"
#include "generators.h"
#include "measure.h"

namespace perfbench {

std::uint64_t AttemptSeed(std::uint64_t seed, std::size_t level,
                          std::size_t attempt);  // main.cc

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest: FAILED %s\n", what.c_str());
  }
}

bool SameEdges(const GeneratedGraph& a, const GeneratedGraph& b) {
  if (a.nodes != b.nodes || a.edges.size() != b.edges.size()) return false;
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    if (a.edges[i].u != b.edges[i].u || a.edges[i].v != b.edges[i].v ||
        a.edges[i].p != b.edges[i].p) {
      return false;
    }
  }
  return true;
}

std::vector<std::uint64_t> Degrees(const GeneratedGraph& g) {
  std::vector<std::uint64_t> degree(g.nodes, 0);
  for (const GenEdge& e : g.edges) {
    ++degree[e.u];
    ++degree[e.v];
  }
  return degree;
}

std::uint64_t SumSquares(const std::vector<std::uint64_t>& degree) {
  std::uint64_t sum = 0;
  for (const std::uint64_t d : degree) sum += d * d;
  return sum;
}

std::size_t TopHub(const GeneratedGraph& g) {
  const auto degree = Degrees(g);
  return static_cast<std::size_t>(
      std::max_element(degree.begin(), degree.end()) - degree.begin());
}

/// Shape invariants every generated graph must satisfy.
void CheckShape(const GeneratedGraph& g, std::uint32_t nodes,
                double avg_degree, const std::string& name) {
  Expect(g.nodes == nodes, name + ": node count");
  Expect(g.edges.size() ==
             static_cast<std::size_t>(nodes * avg_degree / 2.0),
         name + ": m = n*d/2");
  bool canonical = true;
  bool in_range = true;
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    const GenEdge& e = g.edges[i];
    canonical = canonical && e.u < e.v && e.v < nodes;
    if (i > 0) {
      const GenEdge& prev = g.edges[i - 1];
      canonical = canonical && (prev.u < e.u || (prev.u == e.u && prev.v < e.v));
    }
    in_range = in_range && e.p >= kProbLow && e.p <= kProbHigh &&
               e.p == std::round(e.p * 1e4) / 1e4;
  }
  Expect(canonical, name + ": sorted, loop-free, duplicate-free");
  Expect(in_range, name + ": p in [0.2, 0.9] on a 1e-4 grid");
}

void TestGenerators(const std::string& dir) {
  const GeneratedGraph er = GenerateErdosRenyi(2000, 8.0, 7);
  CheckShape(er, 2000, 8.0, "er");
  Expect(SameEdges(er, GenerateErdosRenyi(2000, 8.0, 7)), "er: same seed");
  Expect(!SameEdges(er, GenerateErdosRenyi(2000, 8.0, 8)), "er: new seed");
  const auto er_degree = Degrees(er);
  Expect(*std::max_element(er_degree.begin(), er_degree.end()) < 40,
         "er: no hubs");

  const GeneratedGraph cl = GenerateChungLu(5000, 8.0, 2.3, 7, 1);
  CheckShape(cl, 5000, 8.0, "chung-lu");
  Expect(SameEdges(cl, GenerateChungLu(5000, 8.0, 2.3, 7, 1)),
         "chung-lu: same seed");
  Expect(!SameEdges(cl, GenerateChungLu(5000, 8.0, 2.3, 8, 1)),
         "chung-lu: new seed");
  const auto cl_degree = Degrees(cl);
  const std::uint64_t hub = cl_degree[TopHub(cl)];
  // A γ = 2.3 tail at n = 5k puts the top hub near a thousand edges.
  Expect(hub > 500 && hub < 3000, "chung-lu: hub degree " + std::to_string(hub));
  Expect(SumSquares(cl_degree) > 10 * SumSquares(er_degree),
         "chung-lu: heavy sum of squared degrees");
  // The id permutation follows id_seed only: the hub keeps its id when
  // the edge seed changes, and moves when id_seed does.
  Expect(TopHub(cl) == TopHub(GenerateChungLu(5000, 8.0, 2.3, 8, 1)),
         "chung-lu: hub id fixed by id_seed");
  Expect(TopHub(cl) != TopHub(GenerateChungLu(5000, 8.0, 2.3, 7, 2)),
         "chung-lu: hub id moves with id_seed");

  // The file round trip is exact, so the input shape a run records from
  // the parsed graph is the generated one.
  const std::string path = dir + "/selftest.edges";
  Expect(WriteGraph(cl, path) > 0, "write edge list");
  auto parsed = chameleon::graph::ReadEdgeList(path);
  Expect(parsed.ok(), "parse edge list");
  if (parsed.ok()) {
    bool same = parsed->num_nodes() == cl.nodes &&
                parsed->num_edges() == cl.edges.size();
    for (std::size_t i = 0; same && i < cl.edges.size(); ++i) {
      const auto& e = parsed->edges()[i];
      same = e.u == cl.edges[i].u && e.v == cl.edges[i].v &&
             e.p == cl.edges[i].p;
    }
    Expect(same, "round trip keeps every edge bit for bit");
  }
  std::remove(path.c_str());
}

void TestStatistics() {
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "median odd");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median even");
  Expect(Median({}) == 0.0, "median empty");
  volatile double sink = 0.0;
  const Sample s = Measure([&] {
    for (int i = 0; i < 5000000; ++i) sink = sink + 1e-9 * i;
  });
  Expect(s.wall_s > 0.0 && s.cpu_s > 0.0, "sample times a busy loop");
  Expect(s.util() > 0.3 && s.util() < 1.5, "busy loop keeps one worker busy");
}

/// The traced run re-derives each attempt's stream with AttemptSeed; it
/// must reproduce the driver's certificates exactly.
void TestReplay() {
  namespace anon = chameleon::anonymize;
  const GeneratedGraph gen = GenerateChungLu(600, 8.0, 2.3, 11, 1);
  chameleon::graph::UncertainGraphBuilder builder(gen.nodes);
  for (const GenEdge& e : gen.edges) (void)builder.AddEdge(e.u, e.v, e.p);
  auto g = std::move(builder).Build();
  Expect(g.ok(), "replay: build graph");
  if (!g.ok()) return;
  anon::ChameleonOptions opts;
  opts.k = 20.0;
  opts.epsilon = 0.01;
  opts.threads = 2;
  opts.seed = 99;
  opts.heartbeat = false;
  auto result = anon::Anonymize(*g, anon::Variant::kME, opts);
  Expect(result.ok() && !result->trace.empty(), "replay: publish");
  if (!result.ok()) return;
  chameleon::privacy::UniquenessOptions uopts;
  uopts.threads = opts.threads;
  auto uniq = chameleon::privacy::ComputeUniqueness(*g, uopts);
  auto priorities = anon::ComputeEdgePriorities(*g, uniq->scores, {});
  anon::GenObfOptions gopts;
  gopts.k = opts.k;
  gopts.epsilon = opts.epsilon;
  gopts.threads = opts.threads;
  std::size_t matched = 0;
  for (const auto& entry : result->trace) {
    chameleon::Rng rng(AttemptSeed(opts.seed, entry.level, entry.attempt));
    auto attempt = anon::GenObf(*g, uniq->scores, *priorities, entry.sigma,
                                gopts, rng);
    matched += attempt.ok() &&
               attempt->certificate.epsilon_hat == entry.epsilon_hat &&
               attempt->certificate.obfuscated == entry.success;
  }
  Expect(matched == result->trace.size(),
         "replay reproduces all " + std::to_string(result->trace.size()) +
             " attempts (matched " + std::to_string(matched) + ")");
}

}  // namespace

int RunSelfTest(const std::string& dir) {
  TestGenerators(dir);
  TestStatistics();
  TestReplay();
  std::printf("selftest: %s (%d failures)\n", g_failures ? "FAIL" : "PASS",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
