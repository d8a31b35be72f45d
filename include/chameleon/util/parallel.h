#ifndef CHAMELEON_UTIL_PARALLEL_H_
#define CHAMELEON_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <string_view>

/// \file parallel.h
/// Minimal fork-join parallelism for embarrassingly parallel vertex/edge
/// sweeps. The primitive is block-based: the index range [0, n) is cut
/// into fixed-size blocks whose boundaries depend only on `n` and
/// `block_size`, and workers claim blocks through an atomic cursor.
/// Dynamic claiming balances skewed per-item costs (degree-squared work
/// piles onto hub vertices), while the fixed block boundaries let callers
/// accumulate per-block partial results and reduce them in block order —
/// making floating-point output independent of the worker count.
///
/// While observability is live (obs::InitObservability), every region
/// additionally emits one `parallel_region` JSONL record — per-worker
/// busy/idle time, blocks claimed, imbalance, spawn+join overhead, and
/// realized speedup (see chameleon/obs/parallel_stats.h). The
/// instrumentation is a hook on the one drain loop that only
/// timestamps the existing block claims; block boundaries and the
/// worker-count clamps do not depend on it, so outputs stay
/// bit-identical with telemetry on or off.

namespace chameleon {

/// Resolves a requested worker count: values < 1 mean "use the process
/// default" — the hardware concurrency unless a tool narrowed it with
/// SetDefaultThreads. Explicit requests pass through verbatim;
/// ParallelForBlocks applies its own clamps (block count, real cores,
/// minimum grain) on top, so callers can pass the user-facing --threads
/// flag straight through.
int EffectiveThreads(int requested);

/// Sets the process-wide default worker count that EffectiveThreads
/// resolves `requested < 1` to. Tools call this once after parsing
/// --threads so library code that never sees the flag (e.g. the
/// obfuscation verifier invoked deep inside an estimator) still honours
/// it. Values < 1 restore the hardware-concurrency default.
void SetDefaultThreads(int threads);

/// Number of fixed-size blocks covering [0, n).
inline std::size_t NumBlocks(std::size_t n, std::size_t block_size) {
  return block_size == 0 ? 0 : (n + block_size - 1) / block_size;
}

/// The limit that set a region's worker count; named by the `clamp`
/// field of every `parallel_region` record.
enum class WorkerClamp {
  /// The caller passed threads < 1 and the process default ran
  /// unnarrowed.
  kNone,
  /// The caller's explicit thread count was the smallest limit.
  kRequest,
  /// Fewer blocks than workers: each worker needs a block to claim.
  kBlocks,
  /// Too little work: fewer than ~1024 work units per worker.
  kGrain,
  /// Real cores: oversubscription only adds contention.
  kHardware,
};

/// "none", "request", "blocks", "grain" or "hardware".
std::string_view WorkerClampName(WorkerClamp clamp);

/// The worker count ParallelForBlocks would use, and why.
struct WorkerPlan {
  /// EffectiveThreads(threads): what the caller asked for.
  std::size_t requested = 1;
  /// After every clamp (includes the calling thread).
  std::size_t workers = 1;
  WorkerClamp clamp = WorkerClamp::kNone;
};

/// Resolves the worker count of a ParallelForBlocks region: the request
/// capped at the block count, the hardware concurrency, and the grain
/// ⌊n·work_per_item/1024⌋ (at least 1). When several limits tie, the
/// clamp names the request first, then blocks, grain and hardware.
WorkerPlan PlanWorkers(std::size_t n, std::size_t block_size, int threads,
                       std::size_t work_per_item = 1);

/// Runs `fn(block, begin, end)` for every block of `block_size`
/// consecutive indices in [0, n), using up to `threads` workers (< 1 =
/// hardware concurrency). Blocks are claimed dynamically but their
/// boundaries are fixed, so `fn` sees the same (block, begin, end)
/// triples regardless of the worker count — worker count is purely a
/// scheduling choice, so output stays bit-identical as the clamps
/// change. The effective worker count is PlanWorkers(): capped at the
/// block count, the hardware concurrency, and a minimum grain of ~1024
/// work units per spawned worker (below that, thread startup costs more
/// than the parallelism returns — tiny inputs run inline on the caller
/// with no threads spawned). `fn` must be thread-safe across distinct
/// blocks and must not throw.
///
/// Work hint: the grain counts items times `work_per_item`, the caller's
/// estimate of one item's cost in units of a cheap per-item loop body
/// (default 1; 0 counts as 1). A sweep over a few hundred items that
/// each cost O(|E|) — one sampled world in the relevance estimator —
/// passes |E|, so its handful of blocks fans out instead of running
/// inline as a few hundred cheap items would. The hint only moves the
/// grain clamp; block boundaries, and hence results, do not depend on
/// it.
void ParallelForBlocks(
    std::size_t n, std::size_t block_size, int threads,
    const std::function<void(std::size_t block, std::size_t begin,
                             std::size_t end)>& fn,
    std::size_t work_per_item = 1);

}  // namespace chameleon

#endif  // CHAMELEON_UTIL_PARALLEL_H_
