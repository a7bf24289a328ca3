#pragma once

// Internal to src/active: the G_feas builder behind the feasibility checks
// (active/feasibility.cpp), the closing pass (active/minimal_feasible.cpp),
// the LP rounding's prefix checks (active/lp_rounding.cpp) and the feasible
// instance generator (FeasibleJobSet). Callers outside src/active use
// active/feasibility.hpp.

#include <functional>
#include <vector>

#include "core/active_schedule.hpp"
#include "core/job.hpp"
#include "flow/dinic.hpp"

namespace abt::active {

/// The one G_feas, shared by the single-window and multi-window models:
/// source -> job (cap p_j), job -> slot (cap 1), slot -> sink
/// (cap g), over slots numbered 0..num_slots-1. Node layout is 0 = source,
/// 1..n = jobs, then slots, then sink; edges are emitted job by job
/// (source edge, then the job's slot edges in the order given) and the
/// slot -> sink edges last. That order decides which assignment a fresh
/// flow routes, so keep it fixed: extracted schedules depend on it.
///
/// The network stays alive across a closing pass: try_close() shuts one
/// slot by rerouting only the units it carried (at most g augmenting
/// paths) instead of rebuilding the network and re-running the flow.
/// It can also grow instead: after start_empty(), admit_job() and
/// open_slot() add work and room, and route() extends the flow over the
/// work admitted so far. Or it grows by whole jobs: after start_growing(),
/// try_add_job() keeps a job only when it still fits, and takes a refused
/// job's edges back out (there the slot -> sink edges come first).
class SlotNetwork {
 public:
  using Cap = flow::Dinic::Cap;

  /// Jobs are added in id order 0..num_jobs-1, each followed by its slots.
  SlotNetwork(int num_jobs, int num_slots, int capacity);

  /// Adds the next job with `length` units of work.
  void add_job(Cap length);
  /// Lets the most recently added job run one unit in slot `slot`.
  void add_job_slot(int slot);

  /// Emits the slot -> sink edges and runs the max flow; call once, after
  /// every job. Returns the deficit (total work minus flow, 0 iff
  /// feasible). `should_stop` (may be empty) is polled inside the flow;
  /// when it trips `*cancelled` is set and the deficit is meaningless.
  [[nodiscard]] Cap solve(const std::function<bool()>& should_stop = {},
                          bool* cancelled = nullptr);

  /// Instead of solve(), for checks whose job and slot sets only grow:
  /// emits the slot -> sink edges with every slot closed and withholds
  /// every job's work, so the network starts empty. Call once, after
  /// every job.
  void start_empty();
  /// Gives job `job` its work back (at most once per job).
  void admit_job(int job);
  /// Opens slot `slot` to the sink (capacity g); opening it again is a
  /// no-op.
  void open_slot(int slot);
  /// Routes admitted work not yet routed on top of the current flow and
  /// returns the deficit over the admitted work (0 iff it all fits in the
  /// open slots). The verdict depends only on the two sets, so it matches
  /// a fresh network's. `should_stop` and `cancelled` as in solve().
  [[nodiscard]] Cap route(const std::function<bool()>& should_stop = {},
                          bool* cancelled = nullptr);

  /// Grow-by-jobs mode, instead of add_job(): emits the slot -> sink edges
  /// (capacity g) on a network that has no job yet. Jobs then arrive only
  /// through try_add_job(), at most num_jobs of them kept.
  void start_growing();
  /// Adds a job of `length` units that may run in slots first..last
  /// (inclusive; empty when first > last) when the kept jobs plus it still
  /// fit, and returns true. Otherwise restores the network to the kept
  /// jobs, with their flow still maximum, and returns false; the next
  /// candidate reuses the refused job's node. Exact, and costs at most
  /// `length` augmenting paths on top of the kept jobs' flow.
  [[nodiscard]] bool try_add_job(Cap length, int first_slot, int last_slot);

  /// On a feasible network (solve() returned 0): closes `slot` when the
  /// remaining open slots still fit all work and returns true; otherwise
  /// leaves it open (with a feasible flow) and returns false. Exact, and
  /// costs at most g unit reroutes plus one more round on a refusal.
  [[nodiscard]] bool try_close(int slot);

  /// Per job (in add order), the slots carrying one of its units, in the
  /// order the job's slots were added, as `slot_times[slot]`: `out` is
  /// resized to the job count and each list refilled with exactly the
  /// capacity it needs.
  void routed_slots(const std::vector<core::SlotTime>& slot_times,
                    std::vector<std::vector<core::SlotTime>>& out) const;

  /// Calls fn(job, slot) for every job -> slot edge carrying a unit, in
  /// emission order.
  template <typename Fn>
  void for_each_routed(Fn&& fn) const {
    for (const JobSlotEdge& e : job_slot_edges_) {
      if (dinic_.flow_on(e.edge) > 0) fn(e.job, e.slot);
    }
  }

 private:
  struct JobSlotEdge {
    int job;
    int slot;
    flow::Dinic::EdgeRef edge;
  };

  [[nodiscard]] int slot_node(int slot) const { return 1 + num_jobs_ + slot; }
  [[nodiscard]] int sink() const { return 1 + num_jobs_ + num_slots_; }
  /// Fills incoming_begin_/incoming_ (first try_close only: one-shot
  /// feasibility checks never pay for it).
  void bucket_by_slot();
  /// Emits the slot -> sink edges, each with capacity `cap`.
  void add_sink_edges(Cap cap);

  int num_jobs_;
  int num_slots_;
  int capacity_;
  Cap total_work_ = 0;  // admitted work (all of it, unless start_empty())
  Cap routed_ = 0;      // flow currently routed
  flow::Dinic dinic_;
  std::vector<flow::Dinic::EdgeRef> source_edges_;  // per job
  std::vector<JobSlotEdge> job_slot_edges_;         // in emission order
  std::vector<flow::Dinic::EdgeRef> sink_edges_;    // per slot
  std::vector<Cap> withheld_;  // per job after start_empty(), -1 = admitted
  // Per-slot incoming job -> slot edges: indices into job_slot_edges_,
  // slot s's at incoming_[incoming_begin_[s] .. incoming_begin_[s + 1]).
  std::vector<int> incoming_begin_;
  std::vector<int> incoming_;
};

/// G_feas over the sorted `active_slots` (slot i of the network is
/// active_slots[i], job j of the network is job j). Edges go job by job,
/// each job's windows in order, slots ascending within a window.
template <core::ActiveInstance Instance>
[[nodiscard]] SlotNetwork slot_network(
    const Instance& inst, const std::vector<core::SlotTime>& active_slots);

}  // namespace abt::active
