#pragma once

// The trial-sweep scheduler: one lazily-created, process-wide persistent
// ThreadPool reused across every run_sweep / run_campaign / bench
// invocation. parallel_for hands out index RANGES through per-worker
// work-stealing queues (packed-atomic [begin, end) pairs — adaptive chunk
// claims from the front by the owner, half-steals from the back by idle
// workers), so dispatch costs no per-cell heap allocation and no global
// lock, and irregular cells (a budgeted exact search next to a
// microsecond greedy) cannot leave workers idle behind a central queue.
//
// The owner's front-to-back claims are load-bearing for the g = infinity
// DP memo (engine::shared_unbounded, one entry per worker): run_cells lays
// an instance's cells out contiguously, so a worker walking its own range
// meets them back to back and only a range split or steal inside an
// instance costs a second solve. Over 20 passes of the abtbench grids on 2
// workers (4-CPU x86-64 VM) that is 277 DP solves for 240 busy instances
// (240 on 1 worker); one shared claim cursor instead of per-worker ranges
// measured ~330 solves and ~2% more process CPU (4 of 4 runs).
//
// The determinism invariant carried from PR 3 is untouched: fn(i) writes
// only slot i of a pre-sized result vector, so everything aggregated from
// the results is bit-identical for any worker count and any steal order.
//
// Cancellation is drained at the scheduler: once the sweep's CancelToken
// trips, workers claim whole remaining ranges at once and stamp each
// skipped index through `on_cancelled` (when provided) instead of paying
// per-cell dispatch + solver startup — a cancelled campaign stops after
// O(workers) in-flight cells.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/run_context.hpp"
#include "core/scratch.hpp"
#include "engine/scratch.hpp"

namespace abt::engine {

/// Resolves a thread-count request: values >= 1 pass through, anything
/// else (0, negative) becomes the hardware concurrency (at least 1).
[[nodiscard]] int resolve_threads(int requested);

/// Batches smaller than this run inline on the calling thread (same
/// begin_cell() semantics, no pool wakeup): dispatch overhead cannot be
/// amortized over so few cells, and the serial path is bitwise-identical
/// anyway.
inline constexpr std::size_t kSerialBatchThreshold = 4;

struct ParallelOptions {
  /// Polled at every chunk claim; once cancelled, remaining indices are
  /// drained (see on_cancelled) instead of dispatched as normal cells.
  core::CancelToken cancel;
  /// Called instead of fn for every index not yet claimed when `cancel`
  /// trips (no begin_cell, whole-range claims). Every index is still
  /// visited exactly once — callers use this to stamp their pre-sized
  /// result slots with a cheap "cancelled" record. When empty, fn runs
  /// for drained indices too (it is expected to decline cheaply itself).
  std::function<void(std::size_t)> on_cancelled;
  /// Dispatch to the pool even for batches below kSerialBatchThreshold.
  /// The threshold exists because tiny batches of INDEPENDENT cells can't
  /// amortize a pool wakeup — but portfolio races need their (often 2-3)
  /// contestants genuinely concurrent: a race serialized behind its first
  /// entry is not a race. threads <= 1 and nested calls still run inline.
  bool eager_dispatch = false;
};

/// Introspection snapshot of one worker slot (take while the pool is
/// idle). Slots persist across resizes, so these accumulate for the
/// process lifetime — the pool-reuse tests assert arena_capacity stops
/// growing once the first sweep has warmed the slot.
struct WorkerStats {
  std::size_t cells_served = 0;
  std::size_t peak_arena_bytes = 0;
  std::size_t arena_capacity = 0;
  std::uint64_t chunks_claimed = 0;
  std::uint64_t steals = 0;
};

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 0; a 0-worker pool grows on
  /// first use).
  explicit ThreadPool(int threads);
  /// Wakes and joins the workers. Outstanding parallel_for calls must
  /// have returned.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool every engine entry point shares. Created empty
  /// on first touch; parallel_for grows it on demand, so a process that
  /// only ever runs serial sweeps never spawns a worker.
  [[nodiscard]] static ThreadPool& shared();

  /// Live worker threads.
  [[nodiscard]] int thread_count() const;

  /// Sets the worker count exactly: grows by spawning, shrinks by joining
  /// surplus workers. Worker-slot state (arena, counters) is never
  /// discarded — a later regrow rebinds the same slots. Must be called
  /// while the pool is idle.
  void resize(int threads);

  /// Grows to at least `threads` workers (never shrinks).
  void ensure_workers(int threads);

  /// Runs fn(0) .. fn(items-1) on up to `max_workers` workers (0 = all),
  /// each cell preceded by begin_cell() on its executing worker. Blocks
  /// until every index has been visited AND every participating worker
  /// has detached from the batch. Calls from within a pool worker (nested
  /// parallelism) and concurrent calls from several external threads are
  /// safe: the former run inline, the latter serialize.
  void parallel_for(std::size_t items,
                    const std::function<void(std::size_t)>& fn,
                    int max_workers = 0, const ParallelOptions& options = {});

  /// Per-slot counters; take while idle (returns every slot ever used,
  /// including ones parked by a shrink).
  [[nodiscard]] std::vector<WorkerStats> worker_stats() const;

 private:
  /// Batch-state sanity under mutex_: participant counts balance
  /// (finished_ never exceeds participants_, participants_ never exceed
  /// the published ranges), every range is a [b, e) subrange of the
  /// batch's item space (ranges only ever shrink within a batch), and the
  /// worker ledger is consistent with the slot table. No-op unless
  /// ABT_AUDIT is on; called at the publication and completion seams.
  void audit_invariants_locked() const;

  /// Persistent per-worker state. Slots are identity: a worker thread is
  /// "slot i alive", and everything that must survive across sweeps (the
  /// scratch arena above all) lives here rather than in thread_locals of
  /// transient threads.
  struct Slot {
    core::MonotonicArena arena;
    WorkerScratch scratch;
    std::uint64_t chunks_claimed = 0;
    std::uint64_t steals = 0;
    std::thread thread;
  };

  /// One work-stealing queue: a [begin, end) index range packed into one
  /// atomic word (begin in the high 32 bits). The owner claims adaptive
  /// chunks from the front, thieves CAS half off the back; ranges only
  /// ever shrink within a batch, which rules out ABA.
  struct alignas(64) Range {
    std::atomic<std::uint64_t> packed{0};
  };

  /// `seen_epoch` is the epoch at spawn time (captured under the lock, no
  /// batch open) — the baseline for "is this batch new to me".
  void worker_main(std::size_t slot_index, std::uint64_t seen_epoch);
  void run_batch(std::size_t self, Slot& slot);
  void spawn_locked(int target);

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;   ///< workers: a new batch epoch
  std::condition_variable batch_done_;   ///< caller: all participants out
  std::condition_variable pool_idle_;    ///< queued callers: batch slot free

  std::vector<std::unique_ptr<Slot>> slots_;  ///< grows, never shrinks
  int live_workers_ = 0;   ///< slots_[0..live_workers_) have a thread
  bool stopping_ = false;

  // State of the in-flight batch; valid from publication (epoch_ bump)
  // until finished_ == participants_. Guarded by mutex_ except the ranges,
  // which workers race on by design.
  std::uint64_t epoch_ = 0;
  std::vector<Range> ranges_;
  std::size_t batch_items_ = 0;  ///< Item count of the in-flight batch.
  const std::function<void(std::size_t)>* batch_fn_ = nullptr;
  const ParallelOptions* batch_options_ = nullptr;
  std::size_t participants_ = 0;
  std::size_t finished_ = 0;
  bool batch_open_ = false;
};

/// Runs fn(0) .. fn(items-1), fanning out over up to `threads` workers of
/// the shared persistent pool (inline on the calling thread when threads
/// <= 1 or the batch is tiny — bitwise-identical control flow either way
/// as long as fn(i) touches only slot i).
void parallel_for(int threads, std::size_t items,
                  const std::function<void(std::size_t)>& fn,
                  const ParallelOptions& options = {});

}  // namespace abt::engine
