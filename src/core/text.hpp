#pragma once

// The one tokenizer behind every line-oriented text format in the repo:
// instance I/O v2 (core/io), the abtd frame header and solve payload
// (service/protocol), and the command-line number flags. Everything works
// on std::string_view, so a parse never copies a line; numbers go through
// std::from_chars and are written with std::to_chars, so neither side
// touches a locale or an iostream.
//
// Rules:
//   * A line ends at '\n'. A trailing '\n' does not open an empty last
//     line; a final line without one still counts. '#' starts a comment
//     that runs to the end of the line.
//   * Tokens are separated by C-locale whitespace (' ', '\t', '\r', '\v',
//     '\f'; '\n' too when a cursor spans several lines), so tab-separated
//     fields and CRLF line ends read the same as plain ones.
//   * A number must consume its whole token: "3.5" is not an int and "2x"
//     is not a number. One leading '+' is allowed. Doubles must be finite
//     ("inf" and "nan" are rejected, as is "1e400", which overflows, and
//     "1e-400", which would silently become 0); subnormals such as
//     "1e-320" are kept. Hexadecimal ("0x10") is never a number.
//   * Doubles are written as printf's "%.17g" (to_chars general, precision
//     17): max_digits10, so every double survives the text round trip
//     bit-for-bit. That is NOT the shortest round-trip form; it is kept
//     because canonical instance text, solution-cache keys and every file
//     in data/ are defined by these bytes.

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <system_error>

namespace abt::core {

[[nodiscard]] constexpr bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' ||
         c == '\f';
}

/// Full-token numeric parse under the rules above. On failure `*out` is
/// left untouched.
template <typename T>
  requires std::integral<T> || std::floating_point<T>
[[nodiscard]] bool parse_number(std::string_view token, T* out) {
  if (!token.empty() && token.front() == '+') {
    token.remove_prefix(1);
    if (!token.empty() && token.front() == '-') return false;
  }
  if (token.empty()) return false;
  const char* end = token.data() + token.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::floating_point<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

/// Cursor over the whitespace-separated tokens of one line.
class TokenCursor {
 public:
  explicit TokenCursor(std::string_view line) : rest_(line) {}

  /// The next token, or an empty view when the line is exhausted.
  std::string_view next() {
    std::size_t i = 0;
    while (i < rest_.size() && is_blank(rest_[i])) ++i;
    std::size_t j = i;
    while (j < rest_.size() && !is_blank(rest_[j])) ++j;
    const std::string_view token = rest_.substr(i, j - i);
    rest_.remove_prefix(j);
    return token;
  }

  /// Reads the next token as a number; false when the line is exhausted
  /// or the token is not a number of type T.
  template <typename T>
  [[nodiscard]] bool number(T* out) {
    return parse_number(next(), out);
  }

  /// True when nothing but whitespace remains.
  [[nodiscard]] bool at_end() {
    while (!rest_.empty() && is_blank(rest_.front())) rest_.remove_prefix(1);
    return rest_.empty();
  }

 private:
  std::string_view rest_;
};

/// Cursor over the lines of a text, comments cut off, numbered from
/// `line_base + 1`.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text, int line_base = 0)
      : rest_(text), line_no_(line_base) {}

  /// Advances to the next line (its '#' comment removed); false at the end
  /// of the text.
  bool next(std::string_view* line) {
    if (rest_.empty()) return false;
    const std::size_t nl = rest_.find('\n');
    std::string_view raw = rest_.substr(0, nl);
    rest_.remove_prefix(nl == std::string_view::npos ? rest_.size() : nl + 1);
    ++line_no_;
    const std::size_t hash = raw.find('#');
    if (hash != std::string_view::npos) raw = raw.substr(0, hash);
    *line = raw;
    return true;
  }

  /// Number of the line last returned by next() (`line_base` before the
  /// first call; after the last line, the number of the last line).
  [[nodiscard]] int line_no() const { return line_no_; }

  /// The text after the line last returned.
  [[nodiscard]] std::string_view rest() const { return rest_; }

 private:
  std::string_view rest_;
  int line_no_;
};

/// Appends `value` in decimal.
template <std::integral T>
void append_number(std::string& out, T value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

/// Appends `value` as "%.17g" (see the rules above).
inline void append_number(std::string& out, double value) {
  // "-2.2250738585072014e-308" is 24 characters, the longest %.17g form.
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, value,
                                    std::chars_format::general, 17);
  out.append(buf, result.ptr);
}

namespace detail {
inline void append_piece(std::string& out, std::string_view text) {
  out += text;
}
inline void append_piece(std::string& out, char c) { out += c; }
template <typename T>
  requires std::integral<T> || std::floating_point<T>
void append_piece(std::string& out, T value) {
  append_number(out, value);
}
}  // namespace detail

/// Appends each piece in order: strings and characters verbatim, numbers
/// as append_number writes them. `append(out, "job ", r, ' ', d, '\n')`.
template <typename... Pieces>
void append(std::string& out, const Pieces&... pieces) {
  (detail::append_piece(out, pieces), ...);
}

}  // namespace abt::core
