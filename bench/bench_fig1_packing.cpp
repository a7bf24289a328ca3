// E1 — Fig 1: the worked example. Seven interval jobs, g = 3; the optimal
// packing uses two machines with total busy time 6. Reproduces the packing
// with the exact solver and shows what the approximation algorithms do.
#include <iostream>

#include "bench_util.hpp"
#include "busy/first_fit.hpp"
#include "busy/greedy_tracking.hpp"
#include "busy/lower_bounds.hpp"
#include "busy/two_track_peeling.hpp"
#include "busy/weighted.hpp"
#include "core/busy_schedule.hpp"
#include "gen/gadgets.hpp"

int main() {
  using namespace abt;
  bench::banner("E1 / Fig 1",
                "Optimal packing of the 7-job example on 2 machines (g=3), "
                "total busy time 6; approximation algorithms for comparison.");

  const core::ContinuousInstance inst = gen::fig1_example();
  const core::BusySchedule exact =
      busy::solve_exact_busy(busy::WeightedInstance::with_unit_widths(inst))
          .schedule;
  const busy::BusyLowerBounds lb = busy::busy_lower_bounds(inst);

  report::Table jobs({"job", "interval", "length"});
  for (int j = 0; j < inst.size(); ++j) {
    const auto& job = inst.job(j);
    // Built with append instead of one operator+ chain: GCC 12's inliner
    // flags the chained temporaries with a bogus -Wrestrict (PR 105329).
    std::string window = "[";
    window += report::Table::num(job.release, 1);
    window += ", ";
    window += report::Table::num(job.deadline, 1);
    window += ")";
    jobs.add_row({std::to_string(j + 1), std::move(window),
                  report::Table::num(job.length, 1)});
  }
  jobs.print(std::cout);

  report::Table results({"algorithm", "busy time", "machines", "vs OPT"});
  const double opt = core::busy_cost(inst, exact);
  auto add = [&](const std::string& name, const core::BusySchedule& s) {
    const double cost = core::busy_cost(inst, s);
    results.add_row({name, report::Table::num(cost),
                     std::to_string(s.machine_count()),
                     report::Table::num(cost / opt)});
  };
  add("exact (OPT)", exact);
  add("GreedyTracking", busy::greedy_tracking(inst));
  add("TwoTrackPeeling", busy::two_track_peeling(inst));
  add("FirstFit", busy::first_fit(inst));
  std::cout << '\n';
  results.print(std::cout);
  std::cout << "\nlower bounds: mass/g=" << report::Table::num(lb.mass)
            << "  span=" << report::Table::num(lb.span)
            << "  profile=" << report::Table::num(lb.profile) << "\n";

  // Show the optimal bundles (the packing of Fig 1 (B)).
  std::cout << "\noptimal bundles:\n";
  for (int m = 0; m < exact.machine_count(); ++m) {
    std::cout << "  machine " << m << ":";
    for (int j = 0; j < inst.size(); ++j) {
      if (exact.placements[static_cast<std::size_t>(j)].machine == m) {
        std::cout << " " << (j + 1);
      }
    }
    std::cout << "  (busy "
              << report::Table::num(core::machine_busy_time(inst, exact, m))
              << ")\n";
  }
  return 0;
}
