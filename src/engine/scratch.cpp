#include "engine/scratch.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

namespace abt::engine {

namespace {
thread_local WorkerScratch* tl_scratch_override = nullptr;
}  // namespace

WorkerScratch& worker_scratch() {
  thread_local WorkerScratch scratch;
  return tl_scratch_override != nullptr ? *tl_scratch_override : scratch;
}

void bind_worker_scratch(WorkerScratch* scratch) {
  tl_scratch_override = scratch;
}

const busy::UnboundedSolution& shared_unbounded(
    const core::ContinuousInstance& inst, const core::RunContext& ctx) {
  static_assert(std::is_trivially_copyable_v<core::ContinuousJob> &&
                    sizeof(core::ContinuousJob) == 3 * sizeof(double),
                "the memo key compares jobs as raw bytes");
  WorkerScratch& scratch = worker_scratch();
  WorkerScratch::UnboundedMemo& memo = scratch.unbounded;
  busy::UnboundedOptions options;
  const std::vector<core::ContinuousJob>& jobs = inst.jobs();
  if (memo.valid && memo.state_limit == options.state_limit &&
      memo.jobs.size() == jobs.size() &&
      (jobs.empty() ||
       std::memcmp(memo.jobs.data(), jobs.data(),
                   jobs.size() * sizeof(core::ContinuousJob)) == 0)) {
    ++scratch.dp_hits;
    return memo.solution;
  }
  ++scratch.dp_misses;
  options.context = &ctx;
  memo.valid = false;
  memo.solution = busy::solve_unbounded(inst, options);
  if (memo.solution.exact) {
    memo.jobs = jobs;
    memo.state_limit = options.state_limit;
    memo.valid = true;
  }
  return memo.solution;
}

void begin_cell() {
  WorkerScratch& scratch = worker_scratch();
  core::MonotonicArena& arena = core::thread_arena();
  scratch.peak_arena_bytes = std::max(scratch.peak_arena_bytes,
                                      arena.capacity());
  arena.reset();
  if (++scratch.cells_served % kTrimPeriod == 0) arena.trim(kTrimBytes);
}

}  // namespace abt::engine
