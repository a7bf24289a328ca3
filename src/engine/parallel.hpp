#pragma once

// The trial-sweep scheduler: one lazily-created, process-wide persistent
// ThreadPool reused across every run_sweep / run_campaign / bench
// invocation. parallel_for hands out index RANGES through per-thread
// work-stealing queues (packed-atomic [begin, end) pairs — adaptive chunk
// claims from the front by the owner, half-steals from the back by idle
// threads), so dispatch costs no per-cell heap allocation and no global
// lock, and irregular cells (a budgeted exact search next to a
// microsecond greedy) cannot leave threads idle behind a central queue.
//
// The calling thread is one of the batch's threads: a batch of K threads
// publishes K ranges, wakes only the K - 1 workers that take part, and the
// caller runs the last range itself (on a pool-owned caller slot) instead
// of sleeping until the workers finish. A caller that is already running
// does not wait for a worker to be scheduled: with the abtbench campaign
// pinned to 2 CPUs of a 4-CPU x86-64 VM, the second of two woken workers
// started its first cell 1.6-6.4 ms after the first.
//
// The owner's front-to-back claims are load-bearing for the g = infinity
// DP memo (engine::shared_unbounded, one entry per slot): run_cells lays
// an instance's cells out contiguously and passes the instance boundaries
// as ParallelOptions::group_starts, so the initial partition and every
// steal from a range holding several instances cut between instances, and
// a thread walking its own range meets each instance's cells back to back.
// (One shared claim cursor instead of per-thread ranges measured ~330 DP
// solves for 240 busy instances over 20 abtbench passes, against 277 for
// uncut ranges, and ~2% more process CPU.)
//
// The determinism invariant carried from PR 3 is untouched: fn(i) writes
// only slot i of a pre-sized result vector, so everything aggregated from
// the results is bit-identical for any thread count and any steal order.
//
// Cancellation is drained at the scheduler: once the sweep's CancelToken
// trips, threads claim whole remaining ranges at once and stamp each
// skipped index through `on_cancelled` (when provided) instead of paying
// per-cell dispatch + solver startup — a cancelled campaign stops after
// O(threads) in-flight cells.

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
  /// Strictly increasing first indices of the batch's groups (run_cells:
  /// the first cell of each instance). When set, the initial partition and
  /// every steal cut at the group start nearest the even split whenever
  /// the range being cut holds more than one group; a range inside one
  /// group is still split (a tail steal). Empty = cut anywhere.
  std::vector<std::size_t> group_starts;
};

/// Introspection snapshot of one slot (take while the pool is idle): a
/// worker slot, or the caller slot the calling thread runs its range on.
/// Slots persist across resizes, so these accumulate for the process
/// lifetime — the pool-reuse tests assert arena_capacity stops growing
/// once the first sweep has warmed the slot.
struct WorkerStats {
  std::size_t cells_served = 0;
  std::size_t dp_misses = 0;  ///< WorkerScratch::dp_misses of the slot.
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

  /// Runs fn(0) .. fn(items-1) on up to `max_threads` threads, the
  /// calling thread included (0 = every live worker plus the caller), each
  /// cell preceded by begin_cell() on its executing thread. The caller
  /// runs the last range on the caller slot; only the workers that take
  /// part are woken. Blocks until every index has been visited AND every
  /// worker that joined the batch has detached from it; a worker that has
  /// not joined when the caller's share ends is left asleep. Calls from
  /// within a batch (nested parallelism, on a worker or on the caller's
  /// share) and concurrent calls from several external threads are safe:
  /// the former run inline, the latter serialize.
  void parallel_for(std::size_t items,
                    const std::function<void(std::size_t)>& fn,
                    int max_threads = 0, const ParallelOptions& options = {});

  /// Per-slot counters; take while idle: every worker slot ever used
  /// (including ones parked by a shrink), then the caller slot last.
  [[nodiscard]] std::vector<WorkerStats> worker_stats() const;

 private:
  /// Batch-state sanity under mutex_: participant counts balance
  /// (finished_ never exceeds joined_, joined_ stays below participants_,
  /// participants_ never exceed the published ranges nor the live workers
  /// plus the caller), every range, the caller's last one included, is a
  /// [b, e) subrange of the batch's item space (ranges only ever shrink
  /// within a batch), and the worker ledger is consistent with the slot
  /// table. No-op unless ABT_AUDIT is on; called at the publication and
  /// completion seams.
  void audit_invariants_locked() const;

  /// Persistent per-thread state. Slots are identity: a worker thread is
  /// "slot i alive", and everything that must survive across sweeps (the
  /// scratch arena above all) lives here rather than in thread_locals of
  /// transient threads. The caller slot has no thread of its own; the
  /// calling thread is bound to it for its share of each batch.
  struct Slot {
    core::MonotonicArena arena;
    WorkerScratch scratch;
    std::uint64_t chunks_claimed = 0;
    std::uint64_t steals = 0;
    std::condition_variable wake;  ///< a batch this worker takes part in
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
  /// The caller's share: binds the calling thread to caller_ (arena,
  /// scratch, nested-call guard), runs range `self`, unbinds. noexcept
  /// like a worker's thread body: a throwing cell terminates.
  void run_caller_share(std::size_t self) noexcept;
  void spawn_locked(int target);
  void wake_all_locked();

  mutable std::mutex mutex_;
  std::condition_variable batch_done_;   ///< caller: joined workers out
  std::condition_variable pool_idle_;    ///< queued callers: batch slot free

  std::vector<std::unique_ptr<Slot>> slots_;  ///< grows, never shrinks
  Slot caller_;  ///< the calling thread's slot, bound for its share
  int live_workers_ = 0;   ///< slots_[0..live_workers_) have a thread
  bool stopping_ = false;

  // State of the in-flight batch; valid from publication (epoch_ bump)
  // until the caller's share is done and finished_ == joined_. Guarded by
  // mutex_ except the ranges, which the batch's threads race on by design.
  // participants_ counts the caller: workers 0 .. participants_ - 2 take
  // ranges of their own index, the caller the last. Workers join only
  // while joinable_, which the caller clears when its share is done.
  std::uint64_t epoch_ = 0;
  std::vector<Range> ranges_;
  std::size_t batch_items_ = 0;  ///< Item count of the in-flight batch.
  const std::function<void(std::size_t)>* batch_fn_ = nullptr;
  const ParallelOptions* batch_options_ = nullptr;
  std::size_t participants_ = 0;
  std::size_t joined_ = 0;    ///< Workers that entered the batch.
  std::size_t finished_ = 0;  ///< Joined workers that left it.
  bool joinable_ = false;
  bool batch_open_ = false;
};

/// Runs fn(0) .. fn(items-1) on up to `threads` threads: the calling
/// thread plus threads - 1 workers of the shared persistent pool (inline
/// on the calling thread when threads <= 1 or the batch is tiny —
/// bitwise-identical control flow either way as long as fn(i) touches only
/// slot i).
void parallel_for(int threads, std::size_t items,
                  const std::function<void(std::size_t)>& fn,
                  const ParallelOptions& options = {});

}  // namespace abt::engine
