#include "busy/preemptive.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/assert.hpp"
#include "core/scratch.hpp"
#include "core/sweep.hpp"

namespace abt::busy {

using core::ContinuousInstance;
using core::Interval;
using core::JobId;
using core::PreemptiveBusySchedule;

namespace {

constexpr double kEps = 1e-9;

/// Sorted disjoint set of the machine-open time, on one flat sorted vector
/// (core::FlatIntervalSet). The std::map predecessor is frozen as
/// naive::MapOpenSet; outputs are bit-exact against it
/// (tests/test_flat_layout.cpp) and against the original full-rescan form
/// (tests/test_preemptive.cpp). kEps here equals FlatIntervalSet's default
/// sliver threshold, so covered_in / free_in filter exactly as before.
using OpenSet = core::FlatIntervalSet;
static_assert(OpenSet::kSliverEps == kEps);

}  // namespace

PreemptiveUnboundedSolution solve_preemptive_unbounded(
    const ContinuousInstance& inst) {
  ABT_ASSERT(inst.structurally_valid(), "invalid instance");
  PreemptiveUnboundedSolution out;

  std::vector<JobId> order(static_cast<std::size_t>(inst.size()));
  std::iota(order.begin(), order.end(), JobId{0});
  std::sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    return inst.job(a).deadline < inst.job(b).deadline;
  });

  OpenSet open;
  for (JobId j : order) {
    const core::ContinuousJob& job = inst.job(j);
    const Interval window{job.release, job.deadline};
    double deficit = job.length - open.measure_in(window);
    if (deficit <= kEps) continue;
    // Open the *latest* free time inside the window (lazy activation: later
    // jobs all have later deadlines, so late time is most reusable).
    const std::vector<Interval> gaps = open.free_in(window);
    for (auto it = gaps.rbegin(); it != gaps.rend() && deficit > kEps; ++it) {
      const double take = std::min(deficit, it->length());
      open.insert({it->hi - take, it->hi});
      deficit -= take;
    }
    ABT_ASSERT(deficit <= kEps, "window shorter than job length");
  }

  out.open = open.intervals();
  out.busy_time = core::span_of(out.open);

  // Build the schedule: every job takes the latest `p_j` units of
  // U ∩ window; with unbounded capacity a single machine hosts everything.
  out.schedule.pieces.assign(static_cast<std::size_t>(inst.size()), {});
  for (JobId j = 0; j < inst.size(); ++j) {
    const core::ContinuousJob& job = inst.job(j);
    double need = job.length;
    const std::vector<Interval> available =
        open.covered_in({job.release, job.deadline});
    for (auto it = available.rbegin(); it != available.rend() && need > kEps;
         ++it) {
      const double take = std::min(need, it->length());
      out.schedule.pieces[static_cast<std::size_t>(j)].push_back(
          {0, {it->hi - take, it->hi}});
      need -= take;
    }
    ABT_ASSERT(need <= 1e-6, "open set must cover every job's demand");
    std::reverse(out.schedule.pieces[static_cast<std::size_t>(j)].begin(),
                 out.schedule.pieces[static_cast<std::size_t>(j)].end());
  }
  return out;
}

PreemptiveBoundedSolution solve_preemptive_bounded(
    const ContinuousInstance& inst) {
  const PreemptiveUnboundedSolution unbounded =
      solve_preemptive_unbounded(inst);

  PreemptiveBoundedSolution out;
  out.opt_infinity = unbounded.busy_time;
  out.schedule.pieces.assign(static_cast<std::size_t>(inst.size()), {});

  // Interesting intervals of the unbounded schedule: cut at every piece
  // endpoint; inside one cell the set of running jobs is fixed.
  std::vector<double> points;
  for (JobId j = 0; j < inst.size(); ++j) {
    for (const auto& piece :
         unbounded.schedule.pieces[static_cast<std::size_t>(j)]) {
      points.push_back(piece.run.lo);
      points.push_back(piece.run.hi);
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end(),
                           [](double a, double b) { return std::abs(a - b) < kEps; }),
               points.end());

  // Non-degenerate cells with their midpoints (ascending).
  std::vector<Interval> cells;
  std::vector<double> mids;
  for (std::size_t c = 0; c + 1 < points.size(); ++c) {
    const Interval cell{points[c], points[c + 1]};
    if (cell.length() <= kEps) continue;
    cells.push_back(cell);
    mids.push_back(cell.lo + cell.length() / 2);
  }

  // One time-ordered sweep deals every cell. A piece covers the cells whose
  // midpoint lies in [run.lo, run.hi) (the per-cell scan's predicate), a
  // contiguous range found by two binary searches on the midpoints, so the
  // job enters the running set at the range's first cell and leaves it at
  // its end. Enter and leave events are bucketed by cell on arena scratch;
  // filling the buckets with jobs ascending keeps each bucket, and hence
  // the running set, in ascending job order — every cell's running list is
  // the per-cell scan's list element for element.
  core::MonotonicArena& arena = core::thread_arena();
  const core::ArenaScope scope(arena);
  const auto n = static_cast<std::size_t>(inst.size());
  const std::size_t num_cells = cells.size();
  std::size_t num_pieces = 0;
  for (std::size_t j = 0; j < n; ++j) {
    num_pieces += unbounded.schedule.pieces[j].size();
  }
  struct PieceCells {
    std::size_t first;
    std::size_t last;
  };
  const std::span<PieceCells> ranges = arena.alloc<PieceCells>(num_pieces);
  // Counting sort of the events by cell: bucket c is [offsets[c],
  // offsets[c + 1]) once the fill has advanced each start to its end. A
  // piece running to the last cell never leaves.
  const std::span<std::size_t> enter_offsets =
      arena.alloc<std::size_t>(num_cells + 2);
  const std::span<std::size_t> leave_offsets =
      arena.alloc<std::size_t>(num_cells + 2);
  std::fill(enter_offsets.begin(), enter_offsets.end(), 0);
  std::fill(leave_offsets.begin(), leave_offsets.end(), 0);
  std::size_t nr = 0;
  for (std::size_t j = 0; j < n; ++j) {
    for (const auto& piece : unbounded.schedule.pieces[j]) {
      const PieceCells range{
          core::flat_lower_bound(mids.data(), mids.size(), piece.run.lo),
          core::flat_lower_bound(mids.data(), mids.size(), piece.run.hi)};
      ranges[nr++] = range;
      if (range.first >= range.last) continue;
      ++enter_offsets[range.first + 2];
      if (range.last < num_cells) ++leave_offsets[range.last + 2];
    }
  }
  for (std::size_t c = 2; c < num_cells + 2; ++c) {
    enter_offsets[c] += enter_offsets[c - 1];
    leave_offsets[c] += leave_offsets[c - 1];
  }
  const std::span<JobId> enters =
      arena.alloc<JobId>(enter_offsets[num_cells + 1]);
  const std::span<JobId> leaves =
      arena.alloc<JobId>(leave_offsets[num_cells + 1]);
  nr = 0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < unbounded.schedule.pieces[j].size(); ++k) {
      const PieceCells range = ranges[nr++];
      if (range.first >= range.last) continue;
      enters[enter_offsets[range.first + 1]++] = static_cast<JobId>(j);
      if (range.last < num_cells) {
        leaves[leave_offsets[range.last + 1]++] = static_cast<JobId>(j);
      }
    }
  }

  // The running set (ascending job ids), a buffer to rebuild it into, and
  // one open piece per job: a job's pieces arrive in cell order, so
  // extending the open piece while the machine is unchanged and the next
  // cell abuts it yields each job's pieces already sorted and merged.
  std::span<JobId> running = arena.alloc<JobId>(n);
  std::span<JobId> next = arena.alloc<JobId>(n);
  const std::span<PreemptiveBusySchedule::Piece> open =
      arena.alloc<PreemptiveBusySchedule::Piece>(n);
  std::fill(open.begin(), open.end(), PreemptiveBusySchedule::Piece{});
  std::size_t size = 0;
  const int g = inst.capacity();
  // Busy time is summed during the deal, as core::busy_cost sums it: per
  // machine, the lengths of the union runs of its pieces in time order,
  // then the machines in index order. A machine's next cell joins its open
  // run when it starts within interval_union's 1e-12 of the run, or when a
  // piece on the machine was extended into it: such a piece also covers
  // any sliver gap before the cell, so the union bridges it too. Machines
  // 0..used-1 each hold an open run.
  const std::size_t max_machines = (n + static_cast<std::size_t>(g) - 1) /
                                   static_cast<std::size_t>(g);
  const std::span<Interval> runs = arena.alloc<Interval>(max_machines);
  const std::span<double> machine_busy = arena.alloc<double>(max_machines);
  std::size_t used = 0;
  const auto occupy = [&](std::size_t m, const Interval& cell,
                          bool extended) {
    if (m == used) {
      runs[m] = cell;
      machine_busy[m] = 0.0;
      ++used;
    } else if (extended || cell.lo <= runs[m].hi + 1e-12) {
      runs[m].hi = cell.hi;
    } else {
      machine_busy[m] += runs[m].length();
      runs[m] = cell;
    }
  };
  for (std::size_t c = 0; c < num_cells; ++c) {
    // Both buckets are ascending, like the running set.
    if (leave_offsets[c] < leave_offsets[c + 1]) {
      const JobId* end = std::set_difference(
          running.data(), running.data() + size,
          leaves.data() + leave_offsets[c],
          leaves.data() + leave_offsets[c + 1], next.data());
      size = static_cast<std::size_t>(end - next.data());
      std::swap(running, next);
    }
    if (enter_offsets[c] < enter_offsets[c + 1]) {
      const JobId* end = std::merge(
          running.data(), running.data() + size,
          enters.data() + enter_offsets[c],
          enters.data() + enter_offsets[c + 1], next.data());
      size = static_cast<std::size_t>(end - next.data());
      std::swap(running, next);
    }
    // Deal onto ceil(count/g) machines, filling g at a time: at most one
    // machine per cell is below capacity (charged to the span bound).
    const Interval cell = cells[c];
    int machine = 0;
    int fill = 0;
    bool extended = false;
    for (std::size_t i = 0; i < size; ++i) {
      const auto j = static_cast<std::size_t>(running[i]);
      PreemptiveBusySchedule::Piece& piece = open[j];
      if (piece.machine == machine && std::abs(piece.run.hi - cell.lo) < kEps) {
        piece.run.hi = cell.hi;
        extended = true;
      } else {
        if (piece.machine >= 0) out.schedule.pieces[j].push_back(piece);
        piece = {machine, cell};
      }
      if (++fill == g || i + 1 == size) {
        occupy(static_cast<std::size_t>(machine), cell, extended);
        fill = 0;
        ++machine;
        extended = false;
      }
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (open[j].machine >= 0) out.schedule.pieces[j].push_back(open[j]);
  }

  for (std::size_t m = 0; m < used; ++m) {
    out.busy_time += machine_busy[m] + runs[m].length();
  }
  ABT_DBG_ASSERT(out.busy_time == core::busy_cost(inst, out.schedule),
                 "busy time summed in the deal must equal busy_cost");
  return out;
}

}  // namespace abt::busy
