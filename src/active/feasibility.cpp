#include "active/feasibility.hpp"

#include <algorithm>
#include <memory>

#include "active/slot_network.hpp"
#include "core/assert.hpp"
#include "flow/dinic.hpp"

namespace abt::active {

using core::ActiveSchedule;
using core::MultiWindowInstance;
using core::SlotTime;
using core::SlottedInstance;

SlotNetwork::SlotNetwork(int num_jobs, int num_slots, int capacity)
    : num_jobs_(num_jobs),
      num_slots_(num_slots),
      capacity_(capacity),
      dinic_(2 + num_jobs + num_slots) {
  source_edges_.reserve(static_cast<std::size_t>(num_jobs));
}

void SlotNetwork::add_job(Cap length) {
  ABT_ASSERT(static_cast<int>(source_edges_.size()) < num_jobs_,
             "more jobs than the network was sized for");
  const int job = static_cast<int>(source_edges_.size());
  source_edges_.push_back(dinic_.add_edge(0, 1 + job, length));
  total_work_ += length;
}

void SlotNetwork::add_job_slot(int slot) {
  ABT_ASSERT(!source_edges_.empty(), "add a job before its slots");
  ABT_ASSERT(slot >= 0 && slot < num_slots_, "slot out of range");
  const int job = static_cast<int>(source_edges_.size()) - 1;
  job_slot_edges_.push_back(
      {job, slot, dinic_.add_edge(1 + job, slot_node(slot), 1)});
}

void SlotNetwork::add_sink_edges(Cap cap) {
  ABT_ASSERT(sink_edges_.empty(), "network started twice");
  sink_edges_.reserve(static_cast<std::size_t>(num_slots_));
  for (int slot = 0; slot < num_slots_; ++slot) {
    sink_edges_.push_back(dinic_.add_edge(slot_node(slot), sink(), cap));
  }
}

SlotNetwork::Cap SlotNetwork::solve(const std::function<bool()>& should_stop,
                                    bool* cancelled) {
  ABT_ASSERT(static_cast<int>(source_edges_.size()) == num_jobs_,
             "network solved before every job was added");
  add_sink_edges(capacity_);
  flow::Dinic::Options options;
  options.should_stop = should_stop;
  routed_ = dinic_.max_flow(0, sink(), options, cancelled);
  return total_work_ - routed_;
}

void SlotNetwork::start_empty() {
  ABT_ASSERT(static_cast<int>(source_edges_.size()) == num_jobs_,
             "network started before every job was added");
  add_sink_edges(0);
  withheld_.reserve(source_edges_.size());
  for (const flow::Dinic::EdgeRef e : source_edges_) {
    withheld_.push_back(dinic_.residual_on(e));
    dinic_.set_capacity(e, 0);
  }
  total_work_ = 0;
}

void SlotNetwork::admit_job(int job) {
  ABT_ASSERT(job >= 0 && job < num_jobs_, "job out of range");
  const auto uj = static_cast<std::size_t>(job);
  ABT_ASSERT(uj < withheld_.size() && withheld_[uj] >= 0,
             "admit_job needs start_empty() and admits each job once");
  dinic_.set_capacity(source_edges_[uj], withheld_[uj]);
  total_work_ += withheld_[uj];
  withheld_[uj] = -1;
}

void SlotNetwork::open_slot(int slot) {
  ABT_ASSERT(!sink_edges_.empty(), "open_slot before start_empty");
  ABT_ASSERT(slot >= 0 && slot < num_slots_, "slot out of range");
  dinic_.set_capacity(sink_edges_[static_cast<std::size_t>(slot)], capacity_);
}

SlotNetwork::Cap SlotNetwork::route(const std::function<bool()>& should_stop,
                                    bool* cancelled) {
  ABT_ASSERT(!sink_edges_.empty(), "route before start_empty");
  flow::Dinic::Options options;
  options.should_stop = should_stop;
  routed_ += dinic_.augment(0, sink(), total_work_ - routed_, options,
                            cancelled);
  return total_work_ - routed_;
}

void SlotNetwork::start_growing() {
  ABT_ASSERT(source_edges_.empty(), "start_growing after a job was added");
  add_sink_edges(capacity_);
}

bool SlotNetwork::try_add_job(Cap length, int first_slot, int last_slot) {
  ABT_ASSERT(static_cast<int>(sink_edges_.size()) == num_slots_,
             "try_add_job before start_growing");
  const std::size_t kept_slot_edges = job_slot_edges_.size();
  add_job(length);
  for (int slot = first_slot; slot <= last_slot; ++slot) add_job_slot(slot);
  // The kept jobs' flow is maximum and saturates them, so the job fits
  // iff all its units find augmenting paths on top of it.
  const Cap routed = dinic_.augment(0, sink(), length);
  if (routed == length) {
    routed_ += length;
    return true;
  }
  // Every unit the job routed ends on one of its own slot edges; cancel
  // each along source -> job -> slot -> sink. What remains conserves flow
  // and still saturates every kept job, and the job's edges, added last,
  // are the last in every adjacency list they touch.
  for (std::size_t k = kept_slot_edges; k < job_slot_edges_.size(); ++k) {
    const JobSlotEdge& e = job_slot_edges_[k];
    if (dinic_.flow_on(e.edge) == 0) continue;
    dinic_.cancel_flow(e.edge, 1);
    dinic_.cancel_flow(sink_edges_[static_cast<std::size_t>(e.slot)], 1);
  }
  const flow::Dinic::EdgeRef source = source_edges_.back();
  dinic_.cancel_flow(source, routed);
  dinic_.truncate(source);
  source_edges_.pop_back();
  job_slot_edges_.resize(kept_slot_edges);
  total_work_ -= length;
  return false;
}

void SlotNetwork::bucket_by_slot() {
  incoming_begin_.assign(static_cast<std::size_t>(num_slots_) + 1, 0);
  for (const JobSlotEdge& e : job_slot_edges_) {
    ++incoming_begin_[static_cast<std::size_t>(e.slot) + 1];
  }
  for (std::size_t i = 1; i < incoming_begin_.size(); ++i) {
    incoming_begin_[i] += incoming_begin_[i - 1];
  }
  std::vector<int> fill(incoming_begin_.begin(), incoming_begin_.end() - 1);
  incoming_.resize(job_slot_edges_.size());
  for (std::size_t k = 0; k < job_slot_edges_.size(); ++k) {
    const auto slot = static_cast<std::size_t>(job_slot_edges_[k].slot);
    incoming_[static_cast<std::size_t>(fill[slot]++)] = static_cast<int>(k);
  }
}

bool SlotNetwork::try_close(int slot) {
  ABT_ASSERT(!sink_edges_.empty(), "try_close before solve");
  ABT_ASSERT(slot >= 0 && slot < num_slots_, "slot out of range");
  if (incoming_begin_.empty()) bucket_by_slot();
  const auto first =
      incoming_.begin() + incoming_begin_[static_cast<std::size_t>(slot)];
  const auto last =
      incoming_.begin() + incoming_begin_[static_cast<std::size_t>(slot) + 1];

  // Withdraw every unit routed through the slot, back to its source edge.
  Cap freed = 0;
  for (auto it = first; it != last; ++it) {
    const JobSlotEdge& e = job_slot_edges_[static_cast<std::size_t>(*it)];
    if (dinic_.flow_on(e.edge) == 0) continue;
    dinic_.cancel_flow(e.edge, 1);
    dinic_.cancel_flow(source_edges_[static_cast<std::size_t>(e.job)], 1);
    ++freed;
  }
  const flow::Dinic::EdgeRef sink_edge =
      sink_edges_[static_cast<std::size_t>(slot)];
  ABT_ASSERT(dinic_.flow_on(sink_edge) == freed, "slot flow not conserved");
  dinic_.cancel_flow(sink_edge, freed);
  dinic_.set_capacity(sink_edge, 0);

  // The rest of the flow is untouched and maximum minus `freed`, so the
  // slot can close iff `freed` more units still find a way to the sink.
  const Cap rerouted = dinic_.augment(0, sink(), freed);
  if (rerouted == freed) {
    // Closed for good: drop its job edges so later searches skip it.
    for (auto it = first; it != last; ++it) {
      dinic_.set_capacity(job_slot_edges_[static_cast<std::size_t>(*it)].edge,
                          0);
    }
    return true;
  }
  dinic_.set_capacity(sink_edge, capacity_);
  const Cap restored = dinic_.augment(0, sink(), freed - rerouted);
  ABT_ASSERT(restored == freed - rerouted,
             "reopening a slot must restore a feasible flow");
  return false;
}

void SlotNetwork::routed_slots(const std::vector<SlotTime>& slot_times,
                               std::vector<std::vector<SlotTime>>& out) const {
  out.resize(static_cast<std::size_t>(num_jobs_));
  for (std::size_t job = 0; job < out.size(); ++job) {
    out[job].clear();
    out[job].reserve(
        static_cast<std::size_t>(dinic_.flow_on(source_edges_[job])));
  }
  for_each_routed([&](int job, int slot) {
    out[static_cast<std::size_t>(job)].push_back(
        slot_times[static_cast<std::size_t>(slot)]);
  });
}

template <core::ActiveInstance Instance>
SlotNetwork slot_network(const Instance& inst,
                         const std::vector<SlotTime>& active_slots) {
  SlotNetwork network(inst.size(), static_cast<int>(active_slots.size()),
                      inst.capacity());
  for (const auto& job : inst.jobs()) {
    network.add_job(job.length);
    // Job -> live slot edges. active_slots is sorted; restrict to each
    // window.
    job.for_each_window([&](SlotTime release, SlotTime deadline) {
      const auto lo = std::upper_bound(active_slots.begin(),
                                       active_slots.end(), release);
      for (auto it = lo; it != active_slots.end() && *it <= deadline; ++it) {
        network.add_job_slot(static_cast<int>(it - active_slots.begin()));
      }
    });
  }
  return network;
}

template <core::ActiveInstance Instance>
FeasStatus feasibility_with_slots(const Instance& inst,
                                  const std::vector<SlotTime>& active_slots,
                                  const std::function<bool()>& should_stop) {
  ABT_ASSERT(std::is_sorted(active_slots.begin(), active_slots.end()),
             "active slots must be sorted");
  bool cancelled = false;
  const auto deficit =
      slot_network(inst, active_slots).solve(should_stop, &cancelled);
  if (cancelled) return FeasStatus::kCancelled;
  return deficit == 0 ? FeasStatus::kFeasible : FeasStatus::kInfeasible;
}

template <core::ActiveInstance Instance>
bool is_feasible_with_slots(const Instance& inst,
                            const std::vector<SlotTime>& active_slots) {
  return feasibility_with_slots(inst, active_slots, {}) ==
         FeasStatus::kFeasible;
}

bool is_feasible(const SlottedInstance& inst) {
  return is_feasible_with_slots(inst, candidate_slots(inst));
}

template <core::ActiveInstance Instance>
std::optional<ActiveSchedule> extract_assignment(
    const Instance& inst, std::vector<SlotTime> active_slots,
    const std::function<bool()>& should_stop, bool* cancelled) {
  ABT_ASSERT(std::is_sorted(active_slots.begin(), active_slots.end()),
             "active slots must be sorted");
  SlotNetwork network = slot_network(inst, active_slots);
  bool flow_cancelled = false;
  const auto deficit = network.solve(should_stop, &flow_cancelled);
  if (cancelled != nullptr) *cancelled = flow_cancelled;
  if (flow_cancelled || deficit != 0) return std::nullopt;
  ActiveSchedule sched;
  network.routed_slots(active_slots, sched.job_slots);
  sched.active_slots = std::move(active_slots);
  for (auto& slots : sched.job_slots) std::sort(slots.begin(), slots.end());
  return sched;
}

FeasibleJobSet::FeasibleJobSet(int max_jobs, SlotTime horizon, int capacity)
    : network_(std::make_unique<SlotNetwork>(
          max_jobs, static_cast<int>(horizon), capacity)) {
  network_->start_growing();
}

FeasibleJobSet::~FeasibleJobSet() = default;

bool FeasibleJobSet::try_add(const core::SlottedJob& job) {
  // Network slot i is slot time i + 1; the job may run in release+1..d.
  return network_->try_add_job(job.length, static_cast<int>(job.release),
                               static_cast<int>(job.deadline) - 1);
}

template <core::ActiveInstance Instance>
std::vector<SlotTime> candidate_slots(const Instance& inst) {
  std::vector<char> live(static_cast<std::size_t>(inst.horizon()) + 1, 0);
  for (const auto& job : inst.jobs()) {
    job.for_each_window([&](SlotTime release, SlotTime deadline) {
      for (SlotTime t = release + 1; t <= deadline; ++t) {
        live[static_cast<std::size_t>(t)] = 1;
      }
    });
  }
  std::vector<SlotTime> out;
  for (SlotTime t = 1; t <= inst.horizon(); ++t) {
    if (live[static_cast<std::size_t>(t)] != 0) out.push_back(t);
  }
  return out;
}

// The two job models G_feas serves (core::ActiveInstance).
template SlotNetwork slot_network(const SlottedInstance&,
                                  const std::vector<SlotTime>&);
template SlotNetwork slot_network(const MultiWindowInstance&,
                                  const std::vector<SlotTime>&);
template FeasStatus feasibility_with_slots(const SlottedInstance&,
                                           const std::vector<SlotTime>&,
                                           const std::function<bool()>&);
template FeasStatus feasibility_with_slots(const MultiWindowInstance&,
                                           const std::vector<SlotTime>&,
                                           const std::function<bool()>&);
template bool is_feasible_with_slots(const SlottedInstance&,
                                     const std::vector<SlotTime>&);
template bool is_feasible_with_slots(const MultiWindowInstance&,
                                     const std::vector<SlotTime>&);
template std::optional<ActiveSchedule> extract_assignment(
    const SlottedInstance&, std::vector<SlotTime>,
    const std::function<bool()>&, bool*);
template std::optional<ActiveSchedule> extract_assignment(
    const MultiWindowInstance&, std::vector<SlotTime>,
    const std::function<bool()>&, bool*);
template std::vector<SlotTime> candidate_slots(const SlottedInstance&);
template std::vector<SlotTime> candidate_slots(const MultiWindowInstance&);

}  // namespace abt::active
