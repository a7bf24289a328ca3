#include "busy/online.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

#include "core/assert.hpp"
#include "core/sweep.hpp"

namespace abt::busy {

using core::BusySchedule;
using core::ContinuousInstance;
using core::Interval;
using core::JobId;
using core::RealTime;

BusySchedule schedule_online(const ContinuousInstance& inst,
                             OnlinePolicy policy) {
  ABT_ASSERT(inst.all_interval_jobs(1e-6),
             "online model presents interval jobs in release order");
  std::vector<JobId> order(static_cast<std::size_t>(inst.size()));
  std::iota(order.begin(), order.end(), JobId{0});
  std::stable_sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    return inst.job(a).release < inst.job(b).release;
  });

  // Release order collapses every machine probe to the sweep frontier r:
  // each run already placed starts at or before r, so a machine's coverage
  // on [r, inf) is the number of its runs still live at r and never rises,
  // and the busy part of [r, r + p) is [r, min(latest end, r + p)). A run
  // fits iff fewer than g runs are live at r. Live counts sit in a
  // MachineFreeIndex (first fit is one first_at_most query) and a heap of
  // run ends retires expired runs as the frontier advances.
  BusySchedule sched;
  sched.placements.assign(static_cast<std::size_t>(inst.size()), {});
  core::MachineFreeIndex live;       ///< Machine index by live-run count.
  std::vector<RealTime> latest_end;  ///< Per machine: max end placed so far.
  using Expiry = std::pair<RealTime, int>;  ///< (run end, machine).
  std::priority_queue<Expiry, std::vector<Expiry>, std::greater<>> expiries;
  const double max_live = inst.capacity() - 1.0;  ///< Fits iff live <= this.
  for (JobId j : order) {
    const core::ContinuousJob& job = inst.job(j);
    const Interval run{job.release, job.release + job.length};
    // [lo, hi) is half-open: a run ending at the frontier no longer covers it.
    while (!expiries.empty() && expiries.top().first <= run.lo) {
      const int m = expiries.top().second;
      expiries.pop();
      live.set(m, live.key(m) - 1.0);
    }
    int chosen = -1;
    switch (policy) {
      case OnlinePolicy::kFirstFit:
        chosen = live.first_at_most(max_live);
        break;
      case OnlinePolicy::kBestFit: {
        double best_growth = std::numeric_limits<double>::infinity();
        for (int m = 0; m < live.size(); ++m) {
          if (live.key(m) > max_live) continue;
          const RealTime covered =
              live.key(m) > 0.0
                  ? std::min(latest_end[static_cast<std::size_t>(m)], run.hi) -
                        run.lo
                  : 0.0;
          const double growth = run.length() - covered;
          if (growth < best_growth - 1e-12) {
            best_growth = growth;
            chosen = m;
          }
        }
        break;
      }
      case OnlinePolicy::kNextFit: {
        const int last = live.size() - 1;
        if (last >= 0 && live.key(last) <= max_live) chosen = last;
        break;
      }
    }
    if (chosen < 0) {
      chosen = live.push_back(0.0);
      latest_end.push_back(run.hi);
    } else {
      RealTime& end = latest_end[static_cast<std::size_t>(chosen)];
      end = std::max(end, run.hi);
    }
    live.set(chosen, live.key(chosen) + 1.0);
    expiries.emplace(run.hi, chosen);
    sched.placements[static_cast<std::size_t>(j)] = {chosen, job.release};
  }
  return sched;
}

}  // namespace abt::busy
