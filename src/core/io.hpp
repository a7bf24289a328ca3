#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

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
/// These four models are the closed set ProblemInstance carries; one loop
/// parses them all and `parse_instance` / `write_instance` are a lossless
/// inverse pair for every one of them, with no registration step.
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

/// Parses an instance into the uniform carrier the registry trades in,
/// filling the member of the file's model. On failure returns
/// nullopt and explains in `error` with a "line N: " prefix; N counts
/// from `line_base + 1`, so a format that embeds an instance after lines
/// of its own reports positions in the enclosing text.
[[nodiscard]] std::optional<ProblemInstance> parse_instance(
    std::string_view text, std::string* error = nullptr, int line_base = 0);

/// Stream form for the CLI: reads `in` to the end and forwards.
[[nodiscard]] std::optional<ProblemInstance> parse_instance(
    std::istream& in, std::string* error = nullptr);

/// Appends the canonical text of `inst` to `out` (the lossless inverse of
/// parse_instance).
void write_instance(std::string& out, const ProblemInstance& inst);

/// Stream form for the CLI: builds the text, then writes it whole.
void write_instance(std::ostream& out, const ProblemInstance& inst);

}  // namespace abt::core
