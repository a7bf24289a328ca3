#include "core/io.hpp"

#include <algorithm>
#include <istream>
#include <iterator>
#include <ostream>
#include <utility>
#include <vector>

namespace abt::core {

namespace {

/// The `model` directive's tokens, indexed by Model.
enum class Model { kSlotted, kContinuous, kWeighted, kMultiWindow, kNone };
constexpr std::string_view kModelNames[] = {"slotted", "continuous",
                                            "weighted", "multi-window"};

std::string_view model_name(Model model) {
  return kModelNames[static_cast<std::size_t>(model)];
}

/// Reserve hint: a job line is at most ~80 bytes at 17 digits.
constexpr std::size_t kBytesPerJob = 80;

void append_header(std::string& out, Model model, int capacity,
                   std::size_t jobs) {
  out.reserve(out.size() + 32 + kBytesPerJob * jobs);
  append(out, "model ", model_name(model), "\ncapacity ", capacity, '\n');
}

template <typename Instance>
void write_standard(std::string& out, Model model, const Instance& inst) {
  append_header(out, model, inst.capacity(), inst.jobs().size());
  for (const auto& j : inst.jobs()) {
    append(out, "job ", j.release, ' ', j.deadline, ' ', j.length, '\n');
  }
}

/// Reads `release deadline length` of a slotted or continuous job.
template <typename Job>
bool read_job(TokenCursor& args, Job* j) {
  return args.number(&j->release) && args.number(&j->deadline) &&
         args.number(&j->length);
}

}  // namespace

std::optional<ProblemInstance> parse_instance(std::string_view text,
                                              std::string* error,
                                              int line_base) {
  Model model = Model::kNone;
  int capacity = -1;
  std::vector<SlottedJob> slotted_jobs;
  std::vector<ContinuousJob> continuous_jobs;
  std::vector<WeightedJob> weighted_jobs;
  std::vector<MultiWindowJob> multi_window_jobs;

  LineCursor lines(text, line_base);
  int line_no = line_base;
  auto report = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + what;
    }
    return std::nullopt;
  };
  std::string_view line;
  while (lines.next(&line)) {
    line_no = lines.line_no();
    TokenCursor args(line);
    const std::string_view keyword = args.next();
    if (keyword.empty()) continue;  // blank line

    if (keyword == "model") {
      if (model != Model::kNone) return report("duplicate model directive");
      const std::string_view name = args.next();
      if (name.empty()) return report("model needs a name");
      const auto* known = std::find(std::begin(kModelNames),
                                    std::end(kModelNames), name);
      if (known == std::end(kModelNames)) {
        return report("unknown model '" + std::string(name) +
                      "' (known: slotted, continuous, weighted, "
                      "multi-window)");
      }
      model = static_cast<Model>(known - std::begin(kModelNames));
    } else if (keyword == "capacity") {
      // A repeated capacity silently changing every preceding job's
      // context is exactly the silent-data-change class v2 eliminates.
      if (capacity > 0) return report("duplicate capacity directive");
      if (!args.number(&capacity) || capacity < 1) {
        return report("capacity needs a positive integer");
      }
    } else if (keyword == "job" && model != Model::kNone) {
      if (model == Model::kMultiWindow) {
        SlotTime length = 0;
        if (!args.number(&length)) return report("job needs: length");
        multi_window_jobs.push_back({{}, length});
      } else if (model == Model::kSlotted) {
        SlottedJob j{};
        if (!read_job(args, &j)) {
          return report("job needs: release deadline length");
        }
        slotted_jobs.push_back(j);
      } else {
        ContinuousJob j{};
        if (!read_job(args, &j)) {
          return report("job needs: release deadline length");
        }
        if (model == Model::kWeighted) {
          weighted_jobs.push_back({j, 1});
        } else {
          continuous_jobs.push_back(j);
        }
      }
    } else if (keyword == "weight" && model == Model::kWeighted) {
      if (weighted_jobs.empty()) return report("weight before any job");
      int width = 0;
      if (!args.number(&width) || width < 1) {
        return report("weight needs a positive integer");
      }
      weighted_jobs.back().width = width;
    } else if (keyword == "window" && model == Model::kMultiWindow) {
      if (multi_window_jobs.empty()) return report("window before any job");
      SlotTime r = 0;
      SlotTime d = 0;
      if (!args.number(&r) || !args.number(&d)) {
        return report("window needs: release deadline");
      }
      multi_window_jobs.back().windows.emplace_back(r, d);
    } else if (keyword == "job") {
      return report("job before model directive");
    } else if (model == Model::kWeighted || model == Model::kMultiWindow) {
      return report("unknown directive '" + std::string(keyword) +
                    "' in model " + std::string(model_name(model)));
    } else {
      return report("unknown directive '" + std::string(keyword) + "'");
    }
    if (!args.at_end()) {
      return report("trailing tokens after " + std::string(keyword) +
                    " directive");
    }
  }
  line_no = lines.line_no() + 1;
  if (model == Model::kNone) return report("missing 'model' directive");
  if (capacity < 1) return report("missing 'capacity' directive");

  auto finish = [&](auto inst) -> std::optional<ProblemInstance> {
    std::string why;
    if (!inst.structurally_valid(&why)) return report(why);
    return make_instance(std::move(inst));
  };
  if (model == Model::kSlotted) {
    return finish(SlottedInstance(std::move(slotted_jobs), capacity));
  }
  if (model == Model::kContinuous) {
    return finish(ContinuousInstance(std::move(continuous_jobs), capacity));
  }
  if (model == Model::kWeighted) {
    return finish(WeightedInstance(std::move(weighted_jobs), capacity));
  }
  return finish(MultiWindowInstance(std::move(multi_window_jobs), capacity));
}

std::optional<ProblemInstance> parse_instance(std::istream& in,
                                              std::string* error) {
  std::string text;
  char chunk[4096];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return parse_instance(text, error);
}

void write_instance(std::string& out, const ProblemInstance& inst) {
  switch (inst.kind) {
    case InstanceKind::kStandard:
      if (inst.family == Family::kActive) {
        write_standard(out, Model::kSlotted, inst.slotted);
      } else {
        write_standard(out, Model::kContinuous, inst.continuous);
      }
      return;
    case InstanceKind::kWeighted:
      // %.17g doubles, exactly like the continuous writer: they survive
      // the text round trip bit-for-bit.
      append_header(out, Model::kWeighted, inst.weighted.capacity(),
                    inst.weighted.jobs().size());
      for (const WeightedJob& wj : inst.weighted.jobs()) {
        append(out, "job ", wj.job.release, ' ', wj.job.deadline, ' ',
               wj.job.length, "\nweight ", wj.width, '\n');
      }
      return;
    case InstanceKind::kMultiWindow:
      append_header(out, Model::kMultiWindow, inst.multi_window.capacity(),
                    inst.multi_window.jobs().size());
      for (const MultiWindowJob& job : inst.multi_window.jobs()) {
        append(out, "job ", job.length, '\n');
        for (const auto& [r, d] : job.windows) {
          append(out, "window ", r, ' ', d, '\n');
        }
      }
      return;
  }
}

void write_instance(std::ostream& out, const ProblemInstance& inst) {
  std::string text;
  write_instance(text, inst);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

}  // namespace abt::core
