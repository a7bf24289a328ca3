#pragma once

#include <cstddef>
#include <vector>

#include "busy/dp_unbounded.hpp"
#include "core/continuous_instance.hpp"
#include "core/run_context.hpp"
#include "core/scratch.hpp"

namespace abt::engine {

/// Per-worker scratch bookkeeping for campaign-scale runs. Since the
/// persistent pool, a WorkerScratch belongs to a worker SLOT (pool-owned,
/// alive for the whole process), not to a transient thread: the pool binds
/// each worker thread to its slot's record at startup, so counters and the
/// companion arena accumulate across every sweep/campaign the process runs.
/// `begin_cell()` runs at the top of every cell (trial) and rewinds the
/// bound arena so solver scratch carved out of it is reused instead of
/// re-allocated, trial after trial.
///
/// The arena is only rewound between cells, never inside one — solvers use
/// core::ArenaScope for intra-cell stack discipline, so a missing scope
/// cannot leak past the next begin_cell().
struct WorkerScratch {
  /// Cells this worker slot has executed since pool creation (or thread
  /// start, for unbound serial callers).
  std::size_t cells_served = 0;

  /// High-water mark of arena capacity observed at cell boundaries.
  std::size_t peak_arena_bytes = 0;

  /// One-entry memo of the g = infinity DP (see shared_unbounded): the
  /// last exact solve on this worker, keyed on the instance's job vector,
  /// byte for byte, and the DP's state limit. `valid` is false while the
  /// entry holds no published solve.
  struct UnboundedMemo {
    std::vector<core::ContinuousJob> jobs;
    long state_limit = 0;
    bool valid = false;
    busy::UnboundedSolution solution;
  };
  UnboundedMemo unbounded;

  /// shared_unbounded calls served from the memo / that ran the DP.
  std::size_t dp_hits = 0;
  std::size_t dp_misses = 0;
};

/// The calling thread's scratch record: the bound worker slot's when the
/// pool installed one, a thread_local fallback otherwise (serial path,
/// direct callers).
[[nodiscard]] WorkerScratch& worker_scratch();

/// Binds the calling thread to a pool-owned scratch record (nullptr
/// restores the thread_local fallback). Installed by ThreadPool workers at
/// thread start; thread-affine, pointee must outlive the binding.
void bind_worker_scratch(WorkerScratch* scratch);

/// The g = infinity DP (busy::solve_unbounded) of `inst` through the
/// calling worker's one-entry memo, so the solvers that consume it (the
/// section 4.3 pipelines, dp-unbounded, weighted-flexible) and the runner's
/// span bound solve it once per instance. A miss runs the DP under `ctx`
/// (polled for budget and cancellation) and publishes the result only when
/// it is exact; a hit serves the published solve whatever `ctx` says. The
/// DP is a pure function of the jobs, so a result never depends on which
/// consumer, worker or thread count paid for it. The reference stays valid
/// until the calling thread's next call.
[[nodiscard]] const busy::UnboundedSolution& shared_unbounded(
    const core::ContinuousInstance& inst, const core::RunContext& ctx);

/// Marks the start of one sweep/campaign cell on the calling worker
/// thread: rewinds the thread arena (O(1), keeps blocks) and, every
/// kTrimPeriod cells, trims it back to kTrimBytes so one pathological
/// trial cannot pin a huge footprint for the rest of a campaign.
void begin_cell();

/// Trim threshold: a worker's arena may keep up to this many bytes of
/// blocks across cells. 8 MiB comfortably holds the flat event buffers of
/// the largest benchmark trials (n = 8192 is well under 1 MiB).
inline constexpr std::size_t kTrimBytes = std::size_t{8} << 20;

/// How many cells between trim checks.
inline constexpr std::size_t kTrimPeriod = 256;

}  // namespace abt::engine
