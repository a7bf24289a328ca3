#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/continuous_instance.hpp"

namespace abt::core {

/// One job's placement in a busy-time schedule.
struct Placement {
  int machine = -1;        ///< Bundle / machine index (>= 0).
  RealTime start = 0.0;    ///< Start time; the job runs [start, start+length).
};

/// A solution to the (non-preemptive) busy-time problem: every job is
/// assigned a machine and a start time. Machines are "virtual": any number
/// may be used, each with capacity g (paper section 1.1).
struct BusySchedule {
  std::vector<Placement> placements;  ///< Indexed by JobId.

  [[nodiscard]] int machine_count() const;
};

/// Total busy time: sum over machines of the measure of the union of the
/// execution intervals assigned to that machine.
[[nodiscard]] RealTime busy_cost(const ContinuousInstance& inst,
                                 const BusySchedule& sched);

/// Busy time of one machine.
[[nodiscard]] RealTime machine_busy_time(const ContinuousInstance& inst,
                                         const BusySchedule& sched,
                                         int machine);

/// Verifies feasibility: each start within [release, deadline-length], and
/// on every machine at most g jobs run simultaneously.
[[nodiscard]] bool check_busy_schedule(const ContinuousInstance& inst,
                                       const BusySchedule& sched,
                                       std::string* why = nullptr,
                                       RealTime eps = 1e-9);

/// One job's run on one machine, as the busy-time passes over a schedule
/// (busy_cost, check_busy_schedule, busy::check_weighted_schedule) see it.
struct MachineRun {
  RealTime lo = 0.0;
  RealTime hi = 0.0;
  int machine = 0;
  int width = 1;  ///< Capacity the run takes (1 outside the weighted model).
};

/// Orders `runs` machine-major into `out` (at least runs.size()): by
/// machine, within a machine by lo. One counting pass by machine, then a
/// std::sort by lo of each machine's runs; every run's machine lies in
/// [0, first.size() - 1). `first[m]` is the index in `out` of machine m's
/// first run (`first` has one entry per machine plus an end sentinel).
/// Runs with equal lo come in no fixed order: the busy-time passes built
/// on it (busy_cost, check_busy_schedule, busy::check_weighted_schedule)
/// give the same result in any.
void sort_machine_major(std::span<const MachineRun> runs,
                        std::span<MachineRun> out,
                        std::span<std::size_t> first);

/// A preemptive busy-time solution: each job is a set of execution pieces,
/// each piece on some machine (paper section 4.4: a job may migrate, but at
/// most one machine works on it at any time).
struct PreemptiveBusySchedule {
  struct Piece {
    int machine = -1;
    Interval run;  ///< Execution interval of this piece.
  };

  /// Every piece on one flat array, job-major: job j's pieces are
  /// all[first[j] .. first[j + 1]), `first` holding one offset per job plus
  /// an end sentinel. It also reads like one piece list per job: size()
  /// jobs, and [j] and iteration give each job's span.
  struct Pieces {
    std::vector<Piece> all;
    std::vector<std::size_t> first;

    class Iterator {
     public:
      Iterator(const Pieces* pieces, std::size_t job)
          : pieces_(pieces), job_(job) {}
      std::span<const Piece> operator*() const { return (*pieces_)[job_]; }
      Iterator& operator++() {
        ++job_;
        return *this;
      }
      bool operator==(const Iterator&) const = default;

     private:
      const Pieces* pieces_;
      std::size_t job_;
    };

    [[nodiscard]] std::size_t size() const {
      return first.empty() ? 0 : first.size() - 1;
    }
    [[nodiscard]] std::span<const Piece> operator[](std::size_t job) const {
      return std::span<const Piece>(all).subspan(
          first[job], first[job + 1] - first[job]);
    }
    [[nodiscard]] Iterator begin() const { return {this, 0}; }
    [[nodiscard]] Iterator end() const { return {this, size()}; }
  };
  Pieces pieces;

  [[nodiscard]] std::span<const Piece> pieces_of(JobId job) const {
    return pieces[static_cast<std::size_t>(job)];
  }
  /// One past the highest machine any piece runs on.
  [[nodiscard]] int machine_count() const;
};

/// Total busy time of a preemptive schedule.
[[nodiscard]] RealTime busy_cost(const ContinuousInstance& inst,
                                 const PreemptiveBusySchedule& sched);

/// Verifies: one piece range per job, with offsets ascending from 0 to the
/// piece count; per job, pieces are disjoint in time, inside the window,
/// total length p_j; per machine, at most g jobs active at any time.
[[nodiscard]] bool check_preemptive_schedule(const ContinuousInstance& inst,
                                             const PreemptiveBusySchedule& sched,
                                             std::string* why = nullptr,
                                             RealTime eps = 1e-6);

}  // namespace abt::core
