#include "engine/adapters.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "core/assert.hpp"
#include "core/io.hpp"
#include "core/text.hpp"

namespace abt::engine {

double WeightedExtension::lower_bound() const {
  // Width-weighted mass is always valid; the span projection additionally
  // holds when every run position is forced (interval jobs).
  double bound = inst_.mass_lower_bound();
  if (inst_.all_interval_jobs(1e-6)) {
    bound = std::max(bound, inst_.span_lower_bound());
  }
  return bound;
}

std::string WeightedExtension::describe() const {
  std::ostringstream os;
  os << "weighted busy-time instance: " << inst_.size() << " jobs, g = "
     << inst_.capacity() << ", "
     << (inst_.all_interval_jobs(1e-6) ? "interval" : "flexible")
     << " jobs (cumulative-width model)";
  return os.str();
}

double MultiWindowExtension::lower_bound() const {
  // The Theorem 1 full-slots bound carries over verbatim: P units of work,
  // at most g per active slot.
  return std::ceil(static_cast<double>(inst_.total_work()) /
                   static_cast<double>(inst_.capacity()));
}

std::string MultiWindowExtension::describe() const {
  std::ostringstream os;
  os << "multi-window active-time instance: " << inst_.size()
     << " jobs, g = " << inst_.capacity() << ", horizon " << inst_.horizon();
  return os.str();
}

bool WeightedExtension::write_body(std::string& out) const {
  // %.17g doubles, exactly like the standard continuous writer: they
  // survive the text round trip bit-for-bit.
  for (const busy::WeightedJob& wj : inst_.jobs()) {
    core::append(out, "job ", wj.job.release, ' ', wj.job.deadline, ' ',
                 wj.job.length, "\nweight ", wj.width, '\n');
  }
  return true;
}

bool MultiWindowExtension::write_body(std::string& out) const {
  for (const active::MultiWindowJob& job : inst_.jobs()) {
    core::append(out, "job ", job.length, '\n');
    for (const auto& [r, d] : job.windows) {
      core::append(out, "window ", r, ' ', d, '\n');
    }
  }
  return true;
}

namespace {

/// `model weighted` body: `job r d p` (reals) optionally followed by
/// `weight w` for the preceding job (default width 1).
class WeightedParser final : public core::ExtensionParser {
 public:
  bool directive(std::string_view keyword, core::TokenCursor& args,
                 std::string* why) override {
    if (keyword == "job") {
      core::ContinuousJob j{};
      if (!args.number(&j.release) || !args.number(&j.deadline) ||
          !args.number(&j.length)) {
        if (why != nullptr) *why = "job needs: release deadline length";
        return false;
      }
      jobs_.push_back({j, 1});
      return true;
    }
    if (keyword == "weight") {
      if (jobs_.empty()) {
        if (why != nullptr) *why = "weight before any job";
        return false;
      }
      int w = 0;
      if (!args.number(&w) || w < 1) {
        if (why != nullptr) *why = "weight needs a positive integer";
        return false;
      }
      jobs_.back().width = w;
      return true;
    }
    if (why != nullptr) {
      *why = "unknown directive '" + std::string(keyword) +
             "' in model weighted";
    }
    return false;
  }

  bool finish(int capacity, core::ProblemInstance* out,
              std::string* why) override {
    busy::WeightedInstance inst(std::move(jobs_), capacity);
    if (!inst.structurally_valid(why)) return false;
    *out = make_weighted_instance(std::move(inst));
    return true;
  }

 private:
  std::vector<busy::WeightedJob> jobs_;
};

/// `model multi-window` body: `job p` (length only) followed by one
/// `window r d` line per window of that job.
class MultiWindowParser final : public core::ExtensionParser {
 public:
  bool directive(std::string_view keyword, core::TokenCursor& args,
                 std::string* why) override {
    if (keyword == "job") {
      core::SlotTime p = 0;
      if (!args.number(&p)) {
        if (why != nullptr) *why = "job needs: length";
        return false;
      }
      jobs_.push_back({{}, p});
      return true;
    }
    if (keyword == "window") {
      if (jobs_.empty()) {
        if (why != nullptr) *why = "window before any job";
        return false;
      }
      core::SlotTime r = 0;
      core::SlotTime d = 0;
      if (!args.number(&r) || !args.number(&d)) {
        if (why != nullptr) *why = "window needs: release deadline";
        return false;
      }
      jobs_.back().windows.emplace_back(r, d);
      return true;
    }
    if (why != nullptr) {
      *why = "unknown directive '" + std::string(keyword) +
             "' in model multi-window";
    }
    return false;
  }

  bool finish(int capacity, core::ProblemInstance* out,
              std::string* why) override {
    active::MultiWindowInstance inst(std::move(jobs_), capacity);
    if (!inst.structurally_valid(why)) return false;
    *out = make_multi_window_instance(std::move(inst));
    return true;
  }

 private:
  std::vector<active::MultiWindowJob> jobs_;
};

/// Runs register_instance_codecs whenever this TU is linked: any binary
/// holding the adapters (hence able to solve the extended kinds) can parse
/// and emit them without an explicit setup call.
const bool kCodecsRegistered = [] {
  register_instance_codecs();
  return true;
}();

}  // namespace

void register_instance_codecs() {
  core::register_instance_model(
      "weighted", [] { return std::make_unique<WeightedParser>(); });
  core::register_instance_model(
      "multi-window", [] { return std::make_unique<MultiWindowParser>(); });
}

core::ProblemInstance make_weighted_instance(busy::WeightedInstance inst) {
  return core::make_instance(
      core::Family::kBusy,
      std::make_shared<const WeightedExtension>(std::move(inst)));
}

core::ProblemInstance make_multi_window_instance(
    active::MultiWindowInstance inst) {
  return core::make_instance(
      core::Family::kActive,
      std::make_shared<const MultiWindowExtension>(std::move(inst)));
}

const busy::WeightedInstance& weighted_of(const core::ProblemInstance& inst) {
  ABT_ASSERT(inst.kind == core::InstanceKind::kWeighted && inst.extension,
             "not a weighted instance");
  return static_cast<const WeightedExtension&>(*inst.extension).instance();
}

const active::MultiWindowInstance& multi_window_of(
    const core::ProblemInstance& inst) {
  ABT_ASSERT(inst.kind == core::InstanceKind::kMultiWindow && inst.extension,
             "not a multi-window instance");
  return static_cast<const MultiWindowExtension&>(*inst.extension).instance();
}

}  // namespace abt::engine
