#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/continuous_instance.hpp"
#include "core/slotted_instance.hpp"
#include "core/solver.hpp"
#include "core/text.hpp"

namespace abt::core {

/// Instance I/O v2: plain-text instance format, one directive per line
/// ('#' comments). Every instance starts with a `model` directive and a
/// `capacity` directive; the per-job lines depend on the model:
///
///     model slotted            # integer active-time jobs
///     capacity 3
///     job 0 5 2                # release deadline length
///
///     model continuous         # real busy-time jobs
///     capacity 2
///     job 0.5 3.25 1.75        # release deadline length (reals)
///
///     model weighted           # cumulative-width busy time
///     capacity 4
///     job 0 2.5 2.5            # release deadline length (reals)
///     weight 3                 # width of the preceding job (default 1)
///
///     model multi-window       # window-union active time
///     capacity 2
///     job 3                    # length only
///     window 0 4               # release deadline; one line per window
///     window 6 9
///
/// The two standard models are built in; the extended models are plugged
/// in through the ExtensionCodec registry below (engine/adapters registers
/// `weighted` and `multi-window`), so core stays ignorant of their
/// concrete types while `parse_instance` / `write_instance` remain a
/// lossless inverse pair for every registered kind.
///
/// Lines, comments, tokens and numbers follow core/text.hpp: whitespace
/// includes '\t' and '\r' (CRLF files read fine), a number must be its
/// whole token ("capacity 3.5" and "job 0 5 2x" are errors, not 3 and 2),
/// doubles must be finite, and a directive with tokens left over ("job 0
/// 5 2 extra") is an error. Doubles are written as "%.17g" — 17
/// significant digits, which round-trip bit-for-bit. Those bytes are the
/// canonical text that cache keys and the golden files in data/ are made
/// of, so they are deliberately kept rather than switched to the shortest
/// round-trip form.

/// Parses an instance into the uniform carrier the registry trades in:
/// standard models fill the matching member, extended models carry an
/// InstanceExtension built by their registered codec. On failure returns
/// nullopt and explains in `error` with a "line N: " prefix; N counts
/// from `line_base + 1`, so a format that embeds an instance after lines
/// of its own reports positions in the enclosing text.
[[nodiscard]] std::optional<ProblemInstance> parse_instance(
    std::string_view text, std::string* error = nullptr, int line_base = 0);

/// Stream form for the CLI: reads `in` to the end and forwards.
[[nodiscard]] std::optional<ProblemInstance> parse_instance(
    std::istream& in, std::string* error = nullptr);

/// Appends the canonical text of `inst` to `out` (the lossless inverse of
/// parse_instance). Returns false (explaining in `why`, `out` unchanged)
/// when the instance carries an extension that does not implement the
/// serialization hooks — callers must surface that as an error, never
/// fall back to emitting a lossy standard-model view.
[[nodiscard]] bool write_instance(std::string& out, const ProblemInstance& inst,
                                  std::string* why = nullptr);

/// Stream form for the CLI: builds the text, then writes it whole, so a
/// failure leaves nothing on `out`.
[[nodiscard]] bool write_instance(std::ostream& out,
                                  const ProblemInstance& inst,
                                  std::string* why = nullptr);

/// Per-model parser plugged into parse_instance for one extended model.
/// The shared loop owns line reading, comments, line numbers, the
/// `model`/`capacity` directives and the no-trailing-tokens check;
/// everything else inside an extended-model file is forwarded here
/// keyword by keyword.
class ExtensionParser {
 public:
  virtual ~ExtensionParser() = default;

  /// Consumes one directive (`args` positioned after the keyword). Errors
  /// are reported through `why` WITHOUT a line prefix; the caller adds it.
  virtual bool directive(std::string_view keyword, TokenCursor& args,
                         std::string* why) = 0;

  /// Validates the accumulated jobs and produces the finished instance
  /// (family, kind and extension all set).
  virtual bool finish(int capacity, ProblemInstance* out,
                      std::string* why) = 0;
};

/// Codec for one extended model name: a fresh parser per file.
using ExtensionParserFactory =
    std::function<std::unique_ptr<ExtensionParser>()>;

/// Registers an extended model under its `model` directive token.
/// Registering the same name twice replaces the codec (idempotent
/// re-registration is fine). Not thread-safe: register during startup,
/// before any concurrent parsing.
void register_instance_model(const std::string& model_name,
                             ExtensionParserFactory factory);

/// Registered extended model names, registration order (for diagnostics).
[[nodiscard]] std::vector<std::string> registered_instance_models();

}  // namespace abt::core
