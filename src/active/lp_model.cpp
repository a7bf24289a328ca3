#include "active/lp_model.hpp"

#include <algorithm>

#include "active/feasibility.hpp"
#include "active/slot_network.hpp"
#include "core/assert.hpp"

namespace abt::active {

using core::JobId;
using core::SlotTime;
using core::SlottedInstance;

ActiveTimeLp::ActiveTimeLp(const SlottedInstance& inst,
                           const core::RunContext* ctx) {
  // Cancellation polls are amortized per outer-loop iteration (one job or
  // one slot's worth of rows between checks) — cheap next to the row
  // construction, frequent enough that a mid-build cancel returns within
  // one window's work.
  const auto stop = [ctx] { return ctx != nullptr && ctx->should_stop(); };
  slots_ = candidate_slots(inst);
  slot_position_.assign(static_cast<std::size_t>(inst.horizon()) + 1, -1);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slot_position_[static_cast<std::size_t>(slots_[i])] = static_cast<int>(i);
  }

  std::size_t num_x = 0;
  for (const core::SlottedJob& job : inst.jobs()) {
    num_x += static_cast<std::size_t>(job.window_size());
  }
  problem_.objective.reserve(slots_.size() + num_x);
  problem_.upper.reserve(slots_.size() + num_x);

  // y variables, objective 1, bounded by 1.
  y_vars_.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    y_vars_.push_back(problem_.add_variable(1.0, 1.0));
  }
  // x variables, objective 0: job j's window slots get consecutive
  // indices from x_first_[j] on.
  x_first_.resize(static_cast<std::size_t>(inst.size()));
  window_begin_.resize(static_cast<std::size_t>(inst.size()));
  window_size_.resize(static_cast<std::size_t>(inst.size()));
  for (JobId j = 0; j < inst.size(); ++j) {
    if (stop()) {
      build_cancelled_ = true;
      return;
    }
    const core::SlottedJob& job = inst.job(j);
    const auto uj = static_cast<std::size_t>(j);
    window_begin_[uj] = job.release + 1;
    window_size_[uj] = job.window_size();
    x_first_[uj] = problem_.num_vars;
    for (SlotTime t = job.release + 1; t <= job.deadline; ++t) {
      problem_.add_variable(0.0);
    }
  }

  // Rows: one link row per x, one capacity row per live slot, one demand
  // row per job; each x has two link entries, one capacity entry and one
  // demand entry, and each capacity row one y entry.
  const std::size_t num_rows = num_x + slots_.size() + inst.jobs().size();
  problem_.entries.reserve(4 * num_x + slots_.size());
  problem_.row_start.reserve(num_rows + 1);
  problem_.sense.reserve(num_rows);
  problem_.rhs.reserve(num_rows);

  // x_{t,j} <= y_t.
  for (JobId j = 0; j < inst.size(); ++j) {
    if (stop()) {
      build_cancelled_ = true;
      return;
    }
    const core::SlottedJob& job = inst.job(j);
    for (SlotTime t = job.release + 1; t <= job.deadline; ++t) {
      problem_.add_row({{x_index(j, t), 1.0}, {y_index(t), -1.0}},
                       lp::Sense::kLessEqual, 0.0);
    }
  }
  // sum_j x_{t,j} <= g y_t.
  std::vector<lp::LinearProblem::Entry> coeffs;
  coeffs.reserve(static_cast<std::size_t>(inst.size()) + 1);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (stop()) {
      build_cancelled_ = true;
      return;
    }
    const SlotTime t = slots_[i];
    coeffs.clear();
    for (JobId j = 0; j < inst.size(); ++j) {
      const int xv = x_index(j, t);
      if (xv >= 0) coeffs.emplace_back(xv, 1.0);
    }
    if (coeffs.empty()) continue;
    coeffs.emplace_back(y_vars_[i], -static_cast<double>(inst.capacity()));
    problem_.add_row(coeffs, lp::Sense::kLessEqual, 0.0);
  }
  // sum_t x_{t,j} >= p_j.
  for (JobId j = 0; j < inst.size(); ++j) {
    if (stop()) {
      build_cancelled_ = true;
      return;
    }
    const core::SlottedJob& job = inst.job(j);
    coeffs.clear();
    for (SlotTime t = job.release + 1; t <= job.deadline; ++t) {
      coeffs.emplace_back(x_index(j, t), 1.0);
    }
    problem_.add_row(coeffs, lp::Sense::kGreaterEqual,
                     static_cast<double>(job.length));
  }
}

int ActiveTimeLp::y_index(SlotTime t) const {
  ABT_ASSERT(t >= 0 &&
                 t < static_cast<SlotTime>(slot_position_.size()) &&
                 slot_position_[static_cast<std::size_t>(t)] >= 0,
             "not a candidate slot");
  return y_vars_[static_cast<std::size_t>(
      slot_position_[static_cast<std::size_t>(t)])];
}

int ActiveTimeLp::x_index(JobId j, SlotTime t) const {
  const auto uj = static_cast<std::size_t>(j);
  const SlotTime offset = t - window_begin_[uj];
  if (offset < 0 || offset >= window_size_[uj]) return -1;
  return x_first_[uj] + static_cast<int>(offset);
}

std::vector<double> ActiveTimeLp::y_values(const std::vector<double>& x) const {
  std::vector<double> y(slots_.size(), 0.0);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    y[i] = x[static_cast<std::size_t>(y_vars_[i])];
  }
  return y;
}

lp::StartBasis ActiveTimeLp::logical_basis() const {
  lp::StartBasis start;
  start.vars.assign(static_cast<std::size_t>(problem_.num_vars),
                    lp::VarStatus::kAtLower);
  start.rows.assign(static_cast<std::size_t>(problem_.num_rows()),
                    lp::VarStatus::kBasic);
  return start;
}

void ActiveTimeLp::use_slot(lp::StartBasis& start, JobId j, SlotTime t) const {
  // Row layout from the constructor: link rows in x order (x variables
  // follow the y variables, so x_v's link row is v - |slots|), then one
  // capacity row per slot, then one demand row per job. Every logical
  // starts basic; a used x_{t,j} takes its link row's place.
  const int num_y = static_cast<int>(slots_.size());
  const int xv = x_index(j, t);
  ABT_ASSERT(xv >= 0, "assignment uses a slot outside the job's window");
  start.vars[static_cast<std::size_t>(xv)] = lp::VarStatus::kBasic;
  start.rows[static_cast<std::size_t>(xv - num_y)] = lp::VarStatus::kAtLower;
  start.vars[static_cast<std::size_t>(y_index(t))] = lp::VarStatus::kAtUpper;
}

lp::StartBasis ActiveTimeLp::crash_basis(
    const std::vector<std::vector<SlotTime>>& job_slots) const {
  lp::StartBasis start = logical_basis();
  for (std::size_t j = 0; j < job_slots.size(); ++j) {
    for (const SlotTime t : job_slots[j]) {
      use_slot(start, static_cast<JobId>(j), t);
    }
  }
  return start;
}

lp::StartBasis ActiveTimeLp::crash_basis(
    const SlotNetwork& flow, const std::vector<SlotTime>& slot_times) const {
  lp::StartBasis start = logical_basis();
  flow.for_each_routed([&](int job, int slot) {
    use_slot(start, job, slot_times[static_cast<std::size_t>(slot)]);
  });
  return start;
}

ActiveLpSolution solve_active_lp(const ActiveTimeLp& model,
                                 const core::RunContext* ctx,
                                 const lp::StartBasis* start) {
  if (model.build_cancelled()) {
    ActiveLpSolution out;
    out.status = lp::SolveStatus::kCancelled;
    return out;
  }
  lp::SimplexSolver::Options options;
  if (ctx != nullptr) {
    options.should_stop = [ctx] { return ctx->should_stop(); };
  }
  const lp::SimplexSolver solver(options);
  const lp::Solution sol = solver.solve(model.problem(), start);
  ActiveLpSolution out;
  out.status = sol.status;
  out.pivots = sol.pivots;
  if (sol.status == lp::SolveStatus::kOptimal) {
    out.objective = sol.objective;
    out.y = model.y_values(sol.x);
    out.raw = sol.x;
  }
  return out;
}

}  // namespace abt::active
