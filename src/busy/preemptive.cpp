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

/// The busy set U and the g = infinity schedule on it: every piece on
/// machine 0, each job's ascending.
struct UnboundedPieces {
  OpenSet open;  ///< The busy set U.
  PreemptiveBusySchedule schedule;
};

/// Theorem 6's greedy, shared by both entry points: builds the busy set U,
/// then gives every job the latest p_j units of U ∩ window as its pieces.
/// One gap buffer serves every job's free_in / covered_in.
UnboundedPieces greedy_unbounded(const ContinuousInstance& inst) {
  ABT_ASSERT(inst.structurally_valid(), "invalid instance");
  UnboundedPieces out;
  OpenSet& open = out.open;
  const auto n = static_cast<std::size_t>(inst.size());
  std::vector<JobId> order(n);
  std::iota(order.begin(), order.end(), JobId{0});
  std::sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    return inst.job(a).deadline < inst.job(b).deadline;
  });

  std::vector<Interval> gaps;
  for (JobId j : order) {
    const core::ContinuousJob& job = inst.job(j);
    const Interval window{job.release, job.deadline};
    double deficit = job.length - open.measure_in(window);
    if (deficit <= kEps) continue;
    // Open the *latest* free time inside the window (lazy activation: later
    // jobs all have later deadlines, so late time is most reusable).
    open.free_in(window, gaps);
    for (auto it = gaps.rbegin(); it != gaps.rend() && deficit > kEps; ++it) {
      const double take = std::min(deficit, it->length());
      open.insert({it->hi - take, it->hi});
      deficit -= take;
    }
    if (deficit > kEps) {
      // What is left fits only in gaps no longer than the sliver
      // threshold, which free_in dropped: take those too, latest first.
      // Only instances the first pass could not serve get here, so every
      // other instance keeps its exact schedule.
      open.free_in(window, gaps, 0.0);
      for (auto it = gaps.rbegin(); it != gaps.rend() && deficit > kEps;
           ++it) {
        const double take = std::min(deficit, it->length());
        open.insert({it->hi - take, it->hi});
        deficit -= take;
      }
    }
    ABT_ASSERT(deficit <= kEps, "window shorter than job length");
  }

  // With unbounded capacity a single machine hosts everything: each job's
  // pieces are taken from the right end of U ∩ window, then put in order.
  std::vector<PreemptiveBusySchedule::Piece>& pieces = out.schedule.pieces.all;
  std::vector<std::size_t>& first = out.schedule.pieces.first;
  pieces.reserve(n);
  first.assign(n + 1, 0);
  for (std::size_t j = 0; j < n; ++j) {
    const core::ContinuousJob& job = inst.job(static_cast<JobId>(j));
    double need = job.length;
    open.covered_in({job.release, job.deadline}, gaps);
    const std::size_t begin = pieces.size();
    for (auto it = gaps.rbegin(); it != gaps.rend() && need > kEps; ++it) {
      const double take = std::min(need, it->length());
      pieces.push_back({0, {it->hi - take, it->hi}});
      need -= take;
    }
    ABT_ASSERT(need <= 1e-6, "open set must cover every job's demand");
    std::reverse(pieces.begin() + static_cast<std::ptrdiff_t>(begin),
                 pieces.end());
    first[j + 1] = pieces.size();
  }
  return out;
}

}  // namespace

PreemptiveUnboundedSolution solve_preemptive_unbounded(
    const ContinuousInstance& inst) {
  UnboundedPieces flat = greedy_unbounded(inst);

  PreemptiveUnboundedSolution out;
  out.open = flat.open.intervals();
  out.busy_time = core::span_of(out.open);
  out.schedule = std::move(flat.schedule);
  return out;
}

PreemptiveBoundedSolution solve_preemptive_bounded(
    const ContinuousInstance& inst) {
  const UnboundedPieces flat = greedy_unbounded(inst);
  const PreemptiveBusySchedule::Pieces& unbounded = flat.schedule.pieces;

  PreemptiveBoundedSolution out;
  out.opt_infinity = core::span_of(flat.open.intervals());
  const auto n = static_cast<std::size_t>(inst.size());

  // Interesting intervals of the unbounded schedule: cut at every piece
  // endpoint; inside one cell the set of running jobs is fixed. One radix
  // sort of (value, 2 * piece + side) endpoint records gives both the cut
  // points and every piece's cell range. A record within kEps of the last
  // kept point folds into it (std::unique's predicate, which compares
  // against the last kept element); cells join consecutive kept points and
  // drop those no longer than kEps. A piece covers the cells whose midpoint
  // lies in [run.lo, run.hi): for an endpoint v folded into kept point p,
  // every cell before the first one starting at or after p ends by p <= v,
  // so the first cell with midpoint >= v is found by stepping from there.
  core::MonotonicArena& arena = core::thread_arena();
  const core::ArenaScope scope(arena);
  const std::size_t num_pieces = unbounded.all.size();
  struct Endpoint {
    double value;
    std::size_t id;  ///< 2 * piece + (0 for run.lo, 1 for run.hi).
  };
  const std::span<Endpoint> endpoints =
      arena.alloc<Endpoint>(2 * num_pieces);
  for (std::size_t k = 0; k < num_pieces; ++k) {
    endpoints[2 * k] = {unbounded.all[k].run.lo, 2 * k};
    endpoints[2 * k + 1] = {unbounded.all[k].run.hi, 2 * k + 1};
  }
  core::radix_sort(endpoints, arena.alloc<Endpoint>(endpoints.size()),
                   [](const Endpoint& e) { return core::radix_key(e.value); });
  // cells[c] with its midpoint mids[c], ascending; first_cell[e] is the
  // count of cells before endpoint e's kept point.
  const std::span<Interval> cells =
      arena.alloc<Interval>(endpoints.empty() ? 0 : endpoints.size() - 1);
  const std::span<double> mids = arena.alloc<double>(cells.size());
  const std::span<std::size_t> first_cell =
      arena.alloc<std::size_t>(endpoints.size());
  std::size_t num_cells = 0;
  double kept = 0.0;
  for (std::size_t e = 0; e < endpoints.size(); ++e) {
    const double v = endpoints[e].value;
    if (e == 0) {
      kept = v;
    } else if (!(std::abs(v - kept) < kEps)) {
      const Interval cell{kept, v};
      if (cell.length() > kEps) {
        cells[num_cells] = cell;
        mids[num_cells] = cell.lo + cell.length() / 2;
        ++num_cells;
      }
      kept = v;
    }
    first_cell[e] = num_cells;
  }
  struct PieceCells {
    std::size_t first;
    std::size_t last;
  };
  const std::span<PieceCells> ranges = arena.alloc<PieceCells>(num_pieces);
  for (std::size_t e = 0; e < endpoints.size(); ++e) {
    std::size_t c = first_cell[e];
    while (c < num_cells && mids[c] < endpoints[e].value) ++c;
    PieceCells& range = ranges[endpoints[e].id / 2];
    (endpoints[e].id % 2 == 0 ? range.first : range.last) = c;
  }

  // One time-ordered sweep deals every cell. A piece's cells are the
  // contiguous range found above, so the job enters the running set at the
  // range's first cell and leaves it at its end. Enter and leave events are
  // bucketed by cell on arena scratch; filling the buckets with jobs
  // ascending keeps each bucket, and hence the running set, in ascending
  // job order — every cell's running list is the per-cell scan's list
  // element for element.
  //
  // Counting sort of the events by cell: bucket c is [offsets[c],
  // offsets[c + 1]) once the fill has advanced each start to its end. A
  // piece running to the last cell never leaves.
  const std::span<std::size_t> enter_offsets =
      arena.alloc<std::size_t>(num_cells + 2);
  const std::span<std::size_t> leave_offsets =
      arena.alloc<std::size_t>(num_cells + 2);
  std::fill(enter_offsets.begin(), enter_offsets.end(), 0);
  std::fill(leave_offsets.begin(), leave_offsets.end(), 0);
  for (const PieceCells& range : ranges) {
    if (range.first >= range.last) continue;
    ++enter_offsets[range.first + 2];
    if (range.last < num_cells) ++leave_offsets[range.last + 2];
  }
  for (std::size_t c = 2; c < num_cells + 2; ++c) {
    enter_offsets[c] += enter_offsets[c - 1];
    leave_offsets[c] += leave_offsets[c - 1];
  }
  const std::span<JobId> enters =
      arena.alloc<JobId>(enter_offsets[num_cells + 1]);
  const std::span<JobId> leaves =
      arena.alloc<JobId>(leave_offsets[num_cells + 1]);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = unbounded.first[j]; k < unbounded.first[j + 1];
         ++k) {
      const PieceCells range = ranges[k];
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
  // Every finished piece as a (job, piece) record, in the order the deal
  // finishes them; the buffer doubles when full. A job's pieces finish in
  // time order, so a stable scatter by job lays out the schedule below.
  struct Record {
    JobId job;
    PreemptiveBusySchedule::Piece piece;
  };
  std::span<Record> records = arena.alloc<Record>(2 * (num_pieces + n));
  std::size_t num_records = 0;
  const auto finish = [&](std::size_t j,
                          const PreemptiveBusySchedule::Piece& piece) {
    if (num_records == records.size()) {
      const std::span<Record> grown = arena.alloc<Record>(2 * records.size());
      std::copy(records.begin(), records.end(), grown.begin());
      records = grown;
    }
    records[num_records++] = {static_cast<JobId>(j), piece};
  };
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
        if (piece.machine >= 0) finish(j, piece);
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
    if (open[j].machine >= 0) finish(j, open[j]);
  }
  std::vector<std::size_t>& first = out.schedule.pieces.first;
  first.assign(n + 1, 0);
  for (std::size_t r = 0; r < num_records; ++r) {
    ++first[static_cast<std::size_t>(records[r].job) + 1];
  }
  for (std::size_t j = 0; j < n; ++j) first[j + 1] += first[j];
  const std::span<std::size_t> cursor = arena.alloc<std::size_t>(n);
  std::copy(first.begin(), first.end() - 1, cursor.begin());
  std::vector<PreemptiveBusySchedule::Piece>& pieces = out.schedule.pieces.all;
  pieces.resize(num_records);
  for (std::size_t r = 0; r < num_records; ++r) {
    pieces[cursor[static_cast<std::size_t>(records[r].job)]++] =
        records[r].piece;
  }

  for (std::size_t m = 0; m < used; ++m) {
    out.busy_time += machine_busy[m] + runs[m].length();
  }
  ABT_DBG_ASSERT(out.busy_time == core::busy_cost(inst, out.schedule),
                 "busy time summed in the deal must equal busy_cost");
  return out;
}

}  // namespace abt::busy
