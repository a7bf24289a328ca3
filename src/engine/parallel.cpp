#include "engine/parallel.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/assert.hpp"

namespace abt::engine {

namespace {

/// True on threads owned by a ThreadPool and on a caller during its share
/// of a batch — nested parallel_for calls from inside a cell run inline
/// instead of deadlocking on the pool.
thread_local bool tl_pool_worker = false;

constexpr std::uint64_t pack(std::size_t begin, std::size_t end) {
  return (static_cast<std::uint64_t>(begin) << 32) |
         static_cast<std::uint64_t>(end);
}
constexpr std::size_t range_begin(std::uint64_t packed) {
  return static_cast<std::size_t>(packed >> 32);
}
constexpr std::size_t range_end(std::uint64_t packed) {
  return static_cast<std::size_t>(packed & 0xffffffffULL);
}
constexpr std::size_t range_size(std::uint64_t packed) {
  const std::size_t b = range_begin(packed);
  const std::size_t e = range_end(packed);
  return b < e ? e - b : 0;
}

/// Cap on one owner claim. Chunks shrink geometrically (a quarter of the
/// remaining range per claim) down to single cells, so the tail stays
/// fine-grained enough for stealing to even out irregular cells.
constexpr std::size_t kMaxChunk = 64;

std::size_t chunk_of(std::size_t remaining) {
  return std::max<std::size_t>(
      1, std::min(kMaxChunk, remaining / 4));
}

/// The group start strictly inside (b, e) nearest to `target`, or `target`
/// itself when [b, e) holds at most one group (or no groups are declared).
/// Ties go to the later start.
std::size_t snap_to_group(const std::vector<std::size_t>& starts,
                          std::size_t b, std::size_t target, std::size_t e) {
  const auto lo = std::upper_bound(starts.begin(), starts.end(), b);
  const auto hi = std::lower_bound(lo, starts.end(), e);
  if (lo == hi) return target;
  const auto at = std::lower_bound(lo, hi, target);
  if (at == lo) return *at;
  if (at == hi) return *(at - 1);
  return *at - target <= target - *(at - 1) ? *at : *(at - 1);
}

/// Owner side of the queue: claims an adaptive chunk off the front (the
/// whole range in drain mode). Returns an empty pair when the range is
/// exhausted.
std::pair<std::size_t, std::size_t> claim_front(
    std::atomic<std::uint64_t>& range, bool take_all) {
  std::uint64_t cur = range.load(std::memory_order_acquire);
  for (;;) {
    const std::size_t b = range_begin(cur);
    const std::size_t e = range_end(cur);
    if (b >= e) return {0, 0};
    const std::size_t take = take_all ? e - b : chunk_of(e - b);
    if (range.compare_exchange_weak(cur, pack(b + take, e),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      ABT_DBG_ASSERT(take >= 1 && b + take <= e,
                     "owner claim must shrink its range from the front");
      return {b, b + take};
    }
  }
}

/// Thief side: takes half the victim's remainder off the back (all of it
/// in drain mode), cut at a group start when the remainder holds several
/// groups. Front and back operate on the same atomic word, so a steal can
/// never overlap an owner claim; ranges only shrink within a batch, which
/// rules out ABA.
std::pair<std::size_t, std::size_t> steal_back(
    std::atomic<std::uint64_t>& range, bool take_all,
    const std::vector<std::size_t>& group_starts) {
  std::uint64_t cur = range.load(std::memory_order_acquire);
  for (;;) {
    const std::size_t b = range_begin(cur);
    const std::size_t e = range_end(cur);
    if (b >= e) return {0, 0};
    const std::size_t take =
        take_all ? e - b
                 : e - snap_to_group(group_starts, b, e - (e - b + 1) / 2, e);
    if (range.compare_exchange_weak(cur, pack(b, e - take),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      ABT_DBG_ASSERT(take >= 1 && take <= e - b,
                     "steal must shrink the victim's range from the back");
      return {e - take, e};
    }
  }
}

/// The inline path: identical cell semantics (begin_cell per cell,
/// cancellation drains the tail), no pool involved.
void serial_run(std::size_t items, const std::function<void(std::size_t)>& fn,
                const ParallelOptions& options) {
  bool drain = false;
  for (std::size_t i = 0; i < items; ++i) {
    if (!drain && options.cancel.cancelled()) drain = true;
    if (drain && options.on_cancelled) {
      options.on_cancelled(i);
    } else {
      begin_cell();
      fn(i);
    }
  }
}

}  // namespace

int resolve_threads(int requested) {
  if (requested >= 1) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::max(1, static_cast<int>(hardware));
}

ThreadPool::ThreadPool(int threads) {
  std::unique_lock<std::mutex> lock(mutex_);
  spawn_locked(std::max(0, threads));
}

ThreadPool::~ThreadPool() {
  std::vector<std::thread*> to_join;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
    for (int i = 0; i < live_workers_; ++i) {
      to_join.push_back(&slots_[static_cast<std::size_t>(i)]->thread);
    }
    live_workers_ = 0;
    wake_all_locked();
  }
  for (std::thread* worker : to_join) worker->join();
}

ThreadPool& ThreadPool::shared() {
  // Created empty: a process that only runs serial sweeps never spawns a
  // worker. Function-local static so workers are joined exactly once at
  // exit (after main, when the pool is necessarily idle).
  static ThreadPool pool(0);
  return pool;
}

int ThreadPool::thread_count() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return live_workers_;
}

void ThreadPool::wake_all_locked() {
  for (const std::unique_ptr<Slot>& slot : slots_) slot->wake.notify_one();
}

void ThreadPool::spawn_locked(int target) {
  while (static_cast<int>(slots_.size()) < target) {
    slots_.push_back(std::make_unique<Slot>());
  }
  for (int i = live_workers_; i < target; ++i) {
    // The spawn-time epoch is the worker's "already seen" baseline. It is
    // captured under the lock while no batch is open, so a batch published
    // any time after this line has a strictly newer epoch — a fresh worker
    // can never mistake an in-flight batch for one it already served
    // (reading epoch_ on first lock acquisition inside the worker would).
    slots_[static_cast<std::size_t>(i)]->thread =
        std::thread(&ThreadPool::worker_main, this,
                    static_cast<std::size_t>(i), epoch_);
  }
  live_workers_ = std::max(live_workers_, target);
}

void ThreadPool::resize(int threads) {
  const int target = std::max(0, threads);
  std::vector<std::thread*> to_join;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    pool_idle_.wait(lock, [this] { return !batch_open_; });
    if (target < live_workers_) {
      for (int i = target; i < live_workers_; ++i) {
        to_join.push_back(&slots_[static_cast<std::size_t>(i)]->thread);
      }
      live_workers_ = target;  // workers with idx >= live_workers_ exit
      wake_all_locked();
    } else {
      spawn_locked(target);
    }
  }
  for (std::thread* worker : to_join) worker->join();
}

void ThreadPool::ensure_workers(int threads) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (threads <= live_workers_) return;
  pool_idle_.wait(lock, [this] { return !batch_open_; });
  spawn_locked(threads);
}

void ThreadPool::worker_main(std::size_t slot_index, std::uint64_t seen) {
  std::unique_lock<std::mutex> lock(mutex_);
  // slots_ may be mid-push_back on another thread; index it under the lock
  // (the pointee itself is stable — slots are unique_ptrs and never die).
  Slot& slot = *slots_[slot_index];
  lock.unlock();

  // Worker-slot identity: the arena and scratch record this thread uses
  // belong to the SLOT, so they persist across pool resizes and are
  // reused by every sweep the process runs.
  core::set_thread_arena(&slot.arena);
  bind_worker_scratch(&slot.scratch);
  tl_pool_worker = true;

  lock.lock();
  for (;;) {
    // Only a batch this slot takes part in wakes it: the batch's workers
    // are slots 0 .. participants_ - 2 (the caller holds the last range).
    // A worker that gets here after the caller has closed the batch to
    // joiners has nothing left to claim and goes back to sleep.
    slot.wake.wait(lock, [&] {
      return stopping_ ||
             static_cast<int>(slot_index) >= live_workers_ ||
             (joinable_ && epoch_ != seen && slot_index + 1 < participants_);
    });
    if (stopping_ || static_cast<int>(slot_index) >= live_workers_) break;
    seen = epoch_;
    ++joined_;
    lock.unlock();
    run_batch(slot_index, slot);
    lock.lock();
    if constexpr (core::kAuditEnabled) audit_invariants_locked();
    if (++finished_ == joined_) batch_done_.notify_all();
  }
  lock.unlock();
  tl_pool_worker = false;
  bind_worker_scratch(nullptr);
  core::set_thread_arena(nullptr);
}

void ThreadPool::run_caller_share(std::size_t self) noexcept {
  // Only pool threads ever bind a slot, and they never get here (their
  // parallel_for calls run inline), so unbinding restores the defaults.
  core::set_thread_arena(&caller_.arena);
  bind_worker_scratch(&caller_.scratch);
  tl_pool_worker = true;
  run_batch(self, caller_);
  tl_pool_worker = false;
  bind_worker_scratch(nullptr);
  core::set_thread_arena(nullptr);
}

void ThreadPool::run_batch(std::size_t self, Slot& slot) {
  // batch_fn_ / batch_options_ / participants_ are frozen for the whole
  // batch; the publishing caller cannot retire them before its own share
  // is done and every worker has reported finished.
  const std::function<void(std::size_t)>& fn = *batch_fn_;
  const ParallelOptions& options = *batch_options_;
  const std::size_t P = participants_;

  const auto run_cells = [&](std::size_t b, std::size_t e, bool drained) {
    for (std::size_t i = b; i < e; ++i) {
      if (drained && options.on_cancelled) {
        // Cancellation-aware draining: stamp the slot, skip dispatch.
        options.on_cancelled(i);
      } else {
        begin_cell();
        fn(i);
      }
    }
  };

  bool drain = false;
  for (;;) {
    if (!drain && options.cancel.cancelled()) drain = true;
    const auto [b, e] = claim_front(ranges_[self].packed, drain);
    if (b < e) {
      ++slot.chunks_claimed;
      run_cells(b, e, drain);
      continue;
    }
    // Own queue empty: steal from the victim with the most work left.
    std::size_t victim = P;
    std::size_t most = 0;
    for (std::size_t off = 1; off < P; ++off) {
      const std::size_t v = (self + off) % P;
      const std::size_t n =
          range_size(ranges_[v].packed.load(std::memory_order_acquire));
      if (n > most) {
        most = n;
        victim = v;
      }
    }
    if (victim == P) break;  // every queue drained; batch is over for us
    const auto [sb, se] =
        steal_back(ranges_[victim].packed, drain, options.group_starts);
    if (sb >= se) continue;  // lost the race; rescan
    ++slot.steals;
    // Install the loot as our own queue so other idle workers can steal
    // from it in turn, then go back to claiming chunks off the front.
    ranges_[self].packed.store(pack(sb, se), std::memory_order_release);
  }
}

void ThreadPool::parallel_for(std::size_t items,
                              const std::function<void(std::size_t)>& fn,
                              int max_threads,
                              const ParallelOptions& options) {
  if (items == 0) return;
  if (tl_pool_worker) {  // nested parallelism runs inline
    serial_run(items, fn, options);
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  // One batch at a time; concurrent external callers queue here.
  pool_idle_.wait(lock, [this] { return !batch_open_; });
  const std::size_t limit =
      max_threads <= 0 ? std::numeric_limits<std::size_t>::max()
                       : static_cast<std::size_t>(max_threads);
  const std::size_t P =
      std::min({static_cast<std::size_t>(live_workers_) + 1, limit, items});
  if (P <= 1) {
    lock.unlock();
    serial_run(items, fn, options);
    return;
  }
  if (ranges_.size() < P) {
    std::vector<Range> grown(P);
    ranges_.swap(grown);
  }
  // Even initial partition, each cut moved to the nearest group start;
  // the ranges are published before the epoch bump, and workers acquire
  // the mutex before reading them.
  const std::size_t base = items / P;
  const std::size_t rem = items % P;
  std::size_t even = 0;
  std::size_t at = 0;
  for (std::size_t i = 0; i < P; ++i) {
    even += base + (i < rem ? 1 : 0);
    const std::size_t end =
        i + 1 == P ? items
                   : snap_to_group(options.group_starts, at,
                                   std::max(even, at), items);
    ranges_[i].packed.store(pack(at, end), std::memory_order_relaxed);
    at = end;
  }
  batch_fn_ = &fn;
  batch_options_ = &options;
  batch_items_ = items;
  participants_ = P;
  joined_ = 0;
  finished_ = 0;
  joinable_ = true;
  batch_open_ = true;
  ++epoch_;
  if constexpr (core::kAuditEnabled) audit_invariants_locked();
  // Wake exactly the batch's workers; the slots cannot move while the
  // batch is open (spawning waits for pool_idle_).
  for (std::size_t i = 0; i + 1 < P; ++i) slots_[i]->wake.notify_one();
  lock.unlock();

  run_caller_share(P - 1);

  // The caller's share ends only when every range is empty, so a worker
  // that has not joined yet would find nothing: close the batch to
  // joiners rather than wait for a late wakeup. Woken once by the last
  // joined worker, no polling. Waiting until every joined worker has
  // detached also makes it safe for the caller to pop `fn` and `options`
  // off its stack on return.
  lock.lock();
  joinable_ = false;
  batch_done_.wait(lock, [this] { return finished_ == joined_; });
  if constexpr (core::kAuditEnabled) audit_invariants_locked();
  batch_open_ = false;
  batch_fn_ = nullptr;
  batch_options_ = nullptr;
  pool_idle_.notify_one();
}

void ThreadPool::audit_invariants_locked() const {
  if constexpr (!core::kAuditEnabled) return;
  ABT_DBG_ASSERT(finished_ <= joined_ && joined_ < participants_,
                 "more workers finished or joined than take part");
  ABT_DBG_ASSERT(participants_ <= ranges_.size(),
                 "participants without a published range");
  ABT_DBG_ASSERT(participants_ <= static_cast<std::size_t>(live_workers_) + 1,
                 "a batch takes part with more threads than workers + caller");
  ABT_DBG_ASSERT(live_workers_ >= 0 &&
                     static_cast<std::size_t>(live_workers_) <= slots_.size(),
                 "worker ledger inconsistent with the slot table");
  for (std::size_t i = 0; i < participants_; ++i) {
    const std::uint64_t packed =
        ranges_[i].packed.load(std::memory_order_acquire);
    const std::size_t b = range_begin(packed);
    const std::size_t e = range_end(packed);
    ABT_DBG_ASSERT(b <= e, "range begin ran past its end");
    if (b < e) {
      ABT_DBG_ASSERT(e <= batch_items_,
                     "published range reaches past the batch's item space");
    }
  }
  // At the completion seam (the caller's share done, every joined worker
  // out) every queue must have drained: a leftover range is lost work.
  if (batch_open_ && !joinable_ && finished_ == joined_) {
    for (std::size_t i = 0; i < participants_; ++i) {
      ABT_DBG_ASSERT(
          range_size(ranges_[i].packed.load(std::memory_order_acquire)) == 0,
          "batch completed with unclaimed cells left in a queue");
    }
  }
}

std::vector<WorkerStats> ThreadPool::worker_stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  std::vector<WorkerStats> out;
  out.reserve(slots_.size() + 1);
  const auto add = [&out](const Slot& slot) {
    WorkerStats stats;
    stats.cells_served = slot.scratch.cells_served;
    stats.dp_misses = slot.scratch.dp_misses;
    stats.peak_arena_bytes = slot.scratch.peak_arena_bytes;
    stats.arena_capacity = slot.arena.capacity();
    stats.chunks_claimed = slot.chunks_claimed;
    stats.steals = slot.steals;
    out.push_back(stats);
  };
  for (const std::unique_ptr<Slot>& slot : slots_) add(*slot);
  add(caller_);
  return out;
}

void parallel_for(int threads, std::size_t items,
                  const std::function<void(std::size_t)>& fn,
                  const ParallelOptions& options) {
  // Tiny batches (and explicit --threads 1) never pay pool dispatch: the
  // serial path has identical begin_cell semantics and identical results.
  if (threads <= 1 || items <= 1 || tl_pool_worker ||
      (items < kSerialBatchThreshold && !options.eager_dispatch)) {
    serial_run(items, fn, options);
    return;
  }
  // The caller runs one range, so K threads need K - 1 workers.
  ThreadPool& pool = ThreadPool::shared();
  pool.ensure_workers(static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(threads), items) - 1));
  pool.parallel_for(items, fn, threads, options);
}

}  // namespace abt::engine
