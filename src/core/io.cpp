#include "core/io.hpp"

#include <istream>
#include <ostream>
#include <utility>
#include <vector>

namespace abt::core {

namespace {

/// model-name -> parser factory, registration order preserved.
std::vector<std::pair<std::string, ExtensionParserFactory>>& codecs() {
  static std::vector<std::pair<std::string, ExtensionParserFactory>> registry;
  return registry;
}

const ExtensionParserFactory* find_codec(std::string_view name) {
  for (const auto& [key, factory] : codecs()) {
    if (key == name) return &factory;
  }
  return nullptr;
}

/// Reserve hint: a job line is at most ~80 bytes at 17 digits.
constexpr std::size_t kBytesPerJob = 80;

void append_header(std::string& out, std::string_view model, int capacity) {
  append(out, "model ", model, "\ncapacity ", capacity, '\n');
}

template <typename Instance>
void write_standard(std::string& out, std::string_view model,
                    const Instance& inst) {
  out.reserve(out.size() + 32 + kBytesPerJob * inst.jobs().size());
  append_header(out, model, inst.capacity());
  for (const auto& j : inst.jobs()) {
    append(out, "job ", j.release, ' ', j.deadline, ' ', j.length, '\n');
  }
}

}  // namespace

void register_instance_model(const std::string& model_name,
                             ExtensionParserFactory factory) {
  for (auto& [key, existing] : codecs()) {
    if (key == model_name) {
      existing = std::move(factory);
      return;
    }
  }
  codecs().emplace_back(model_name, std::move(factory));
}

std::vector<std::string> registered_instance_models() {
  std::vector<std::string> out;
  out.reserve(codecs().size());
  for (const auto& [key, factory] : codecs()) out.push_back(key);
  return out;
}

std::optional<ProblemInstance> parse_instance(std::string_view text,
                                              std::string* error,
                                              int line_base) {
  enum class Model { kNone, kSlotted, kContinuous, kExtended };
  Model model = Model::kNone;
  std::unique_ptr<ExtensionParser> extension_parser;
  int capacity = -1;
  std::vector<SlottedJob> slotted_jobs;
  std::vector<ContinuousJob> continuous_jobs;

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
      if (name == "slotted") {
        model = Model::kSlotted;
      } else if (name == "continuous") {
        model = Model::kContinuous;
      } else if (const ExtensionParserFactory* codec = find_codec(name)) {
        model = Model::kExtended;
        extension_parser = (*codec)();
      } else {
        std::string known = "slotted, continuous";
        for (const std::string& key : registered_instance_models()) {
          known += ", " + key;
        }
        std::string what =
            "unknown model '" + std::string(name) + "' (known: " + known;
        if (codecs().empty()) {
          // Distinguish a typo from a binary that never linked the codecs
          // (engine/adapters registers them at load time).
          what += "; no extended-model codecs are registered — link "
                  "engine/adapters or call engine::register_instance_codecs()";
        }
        return report(what + ")");
      }
    } else if (keyword == "capacity") {
      // A repeated capacity silently changing every preceding job's
      // context is exactly the silent-data-change class v2 eliminates.
      if (capacity > 0) return report("duplicate capacity directive");
      if (!args.number(&capacity) || capacity < 1) {
        return report("capacity needs a positive integer");
      }
    } else if (model == Model::kExtended) {
      // Everything but the shared header belongs to the model's codec.
      std::string why;
      if (!extension_parser->directive(keyword, args, &why)) {
        return report(why);
      }
    } else if (keyword == "job") {
      if (model == Model::kNone) return report("job before model directive");
      if (model == Model::kSlotted) {
        SlottedJob j{};
        if (!args.number(&j.release) || !args.number(&j.deadline) ||
            !args.number(&j.length)) {
          return report("job needs: release deadline length");
        }
        slotted_jobs.push_back(j);
      } else {
        ContinuousJob j{};
        if (!args.number(&j.release) || !args.number(&j.deadline) ||
            !args.number(&j.length)) {
          return report("job needs: release deadline length");
        }
        continuous_jobs.push_back(j);
      }
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

  std::string why;
  if (model == Model::kExtended) {
    ProblemInstance out;
    if (!extension_parser->finish(capacity, &out, &why)) return report(why);
    return out;
  }
  if (model == Model::kSlotted) {
    SlottedInstance inst(std::move(slotted_jobs), capacity);
    if (!inst.structurally_valid(&why)) return report(why);
    return make_instance(std::move(inst));
  }
  ContinuousInstance inst(std::move(continuous_jobs), capacity);
  if (!inst.structurally_valid(&why)) return report(why);
  return make_instance(std::move(inst));
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

bool write_instance(std::string& out, const ProblemInstance& inst,
                    std::string* why) {
  if (inst.kind == InstanceKind::kStandard) {
    if (inst.family == Family::kActive) {
      write_standard(out, "slotted", inst.slotted);
    } else {
      write_standard(out, "continuous", inst.continuous);
    }
    return true;
  }
  const InstanceExtension* ext = inst.extension.get();
  if (ext == nullptr || ext->model_name().empty()) {
    if (why != nullptr) {
      *why = "instance kind '" +
             std::string(instance_kind_name(inst.kind)) +
             "' has no serialization support (emitting the standard-model "
             "view would silently drop the extension payload)";
    }
    return false;
  }
  const std::size_t start = out.size();
  out.reserve(start + 32 +
              kBytesPerJob * static_cast<std::size_t>(ext->size()));
  append_header(out, ext->model_name(), ext->capacity());
  if (!ext->write_body(out)) {
    // A truncated-but-plausible instance text is the artifact this
    // function exists to prevent: drop everything this call appended.
    out.resize(start);
    if (why != nullptr) {
      *why = "model '" + std::string(ext->model_name()) +
             "' failed to serialize its job payload";
    }
    return false;
  }
  return true;
}

bool write_instance(std::ostream& out, const ProblemInstance& inst,
                    std::string* why) {
  std::string text;
  if (!write_instance(text, inst, why)) return false;
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return true;
}

}  // namespace abt::core
