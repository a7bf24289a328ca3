#include "busy/track.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace abt::busy {

using core::ContinuousInstance;
using core::JobId;

TrackPeeler::TrackPeeler(const ContinuousInstance& inst,
                         const std::vector<JobId>& candidates,
                         const std::vector<double>& weights) {
  ABT_ASSERT(candidates.size() == weights.size(), "weights size mismatch");
  items_.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const core::ContinuousJob& job = inst.job(candidates[i]);
    items_.push_back(
        {job.release, job.release + job.length, weights[i], candidates[i]});
  }
  std::stable_sort(items_.begin(), items_.end(),
                   [](const Item& a, const Item& b) { return a.end < b.end; });
  // Predecessors are searched once here; each peel remaps them through the
  // survivors.
  pred_.resize(items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const auto it = std::upper_bound(
        items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(i),
        items_[i].start + 1e-12,
        [](double t, const Item& item) { return t < item.end; });
    pred_[i] = static_cast<int>(it - items_.begin()) - 1;
  }
}

std::vector<JobId> TrackPeeler::extract_max_weight_track() {
  const std::size_t m = items_.size();
  if (m == 0) return {};

  // Classic weighted-interval-scheduling DP over the end-sorted items.
  best_.assign(m + 1, 0.0);
  take_.resize(m);
  take_.clear();

  // best[i] = best weight using items[0..i]; take[i] = whether item i used.
  for (std::size_t i = 0; i < m; ++i) {
    const double with_item =
        items_[i].weight + best_[static_cast<std::size_t>(pred_[i] + 1)];
    if (with_item > best_[i]) {
      best_[i + 1] = with_item;
      take_.set(i, 1);
    } else {
      best_[i + 1] = best_[i];
    }
  }

  std::vector<JobId> out;
  chosen_.resize(m);
  chosen_.clear();
  for (auto i = static_cast<std::ptrdiff_t>(m) - 1; i >= 0;) {
    if (take_.get(static_cast<std::size_t>(i)) != 0) {
      chosen_.set(static_cast<std::size_t>(i), 1);
      out.push_back(items_[static_cast<std::size_t>(i)].job);
      i = pred_[static_cast<std::size_t>(i)];
    } else {
      --i;
    }
  }
  std::reverse(out.begin(), out.end());

  // Compact the survivors in place; end order is preserved, so the next
  // peel needs no sort. The survivors that end by an item's start are a
  // prefix of the survivors, so its predecessor remaps through the prefix
  // counts kept[x] = survivors among indices [0, x): pred' = kept[pred + 1]
  // - 1, where pred + 1 <= i is already counted.
  kept_.resize(m);
  std::size_t w = 0;
  for (std::size_t i = 0; i < m; ++i) {
    kept_[i] = static_cast<int>(w);
    if (chosen_.get(i) != 0) continue;
    items_[w] = items_[i];
    pred_[w] = kept_[static_cast<std::size_t>(pred_[i] + 1)] - 1;
    ++w;
  }
  items_.resize(w);
  pred_.resize(w);
  return out;
}

std::vector<JobId> max_weight_track(const ContinuousInstance& inst,
                                    const std::vector<JobId>& candidates,
                                    const std::vector<double>& weights) {
  TrackPeeler peeler(inst, candidates, weights);
  return peeler.extract_max_weight_track();
}

std::vector<JobId> longest_track(const ContinuousInstance& inst,
                                 const std::vector<JobId>& candidates) {
  std::vector<double> weights;
  weights.reserve(candidates.size());
  for (JobId j : candidates) weights.push_back(inst.job(j).length);
  return max_weight_track(inst, candidates, weights);
}

}  // namespace abt::busy
