#!/usr/bin/env python3
"""abt_lint: project-specific lint rules for the active/busy-time repo.

Enforces the written-but-previously-unchecked conventions:

  atomic-memory-order   Every std::atomic load/store/RMW in the concurrency
                        layers (src/engine/, src/service/,
                        src/core/run_context.hpp) name
                        an explicit std::memory_order. Defaulted seq_cst is
                        almost always an accident there, and an accidental
                        relaxed-to-seq_cst change hides real races.
  solver-registration   Every Solver registered in engine/builtin_solvers.cpp
                        assigns both `.applicable` and `.check`. PR 8's
                        portfolio auto-probe crashed with bad_function_call
                        on a registration that skipped `applicable`; the
                        registry validates schedules through `.check`, and
                        "the standard checker, on purpose" must be spelled
                        out (core::check_standard_solution), never implied.
  bare-assert           No `assert(` / `abort(` outside core/assert.hpp.
                        ABT_ASSERT aborts with file:line + message in every
                        build type; NDEBUG-stripped asserts are banned.
  hot-path-containers   The headers PR 6 flattened (busy/first_fit,
                        busy/preemptive, core/sweep) must not reintroduce
                        #include <map>/<set>; node-based containers belong
                        only in tests/oracles/naive_baselines.hpp.
  hot-path-streams      The text codecs on abtd's request path (core/io,
                        core/text, service/protocol) must not use string
                        streams: no #include <sstream>, istringstream,
                        ostringstream or stringstream. They parse with the
                        core/text.hpp tokenizer (from_chars over
                        string_view) and write with to_chars into a
                        std::string; a per-line istringstream made parsing
                        most of a cache hit's cost.
  core-layering         Nothing under src/core/ includes a header of a layer
                        above it (busy/, active/, flow/, lp/, gen/,
                        engine/, service/, report/). core holds the
                        instance models, schedules and the shared
                        kernels; the algorithm layers build on it, never
                        the other way round.
  wall-clock            No date-like wall-clock reads (system_clock,
                        time(), localtime, ...) outside core/run_context.
                        Monotonic steady_clock timing is allowed; calendar
                        time would make runs non-reproducible.

Usage: abt_lint.py [REPO_ROOT]   (default: the repo containing this script)
Exits non-zero iff findings were reported.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterable, List, NamedTuple


class Finding(NamedTuple):
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------- utilities


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving newlines
    and column positions so finding offsets map back to the source."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                if i < n:
                    if text[i] != "\n":
                        out[i] = " "
                    i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def balanced_paren_span(text: str, open_idx: int) -> str:
    """Returns the text inside the parenthesis opening at open_idx
    (exclusive of the parens themselves); empty string if unbalanced."""
    depth = 0
    for j in range(open_idx, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return text[open_idx + 1 : j]
    return ""


def cxx_sources(root: Path, subdirs: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        for ext in ("*.hpp", "*.cpp", "*.h", "*.cc"):
            files.extend(sorted(base.rglob(ext)))
    return files


def rel(root: Path, path: Path) -> str:
    return path.relative_to(root).as_posix()


# -------------------------------------------------------------------- rules

ATOMIC_CALL_RE = re.compile(
    r"\.\s*(load|store|exchange|compare_exchange_weak|compare_exchange_strong"
    r"|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|test_and_set)"
    r"\s*(\()"
)


def check_atomic_memory_order(root: Path) -> List[Finding]:
    findings: List[Finding] = []
    targets = cxx_sources(root, ["src/engine", "src/service"])
    rc = root / "src" / "core" / "run_context.hpp"
    if rc.is_file():
        targets.append(rc)
    for path in targets:
        text = path.read_text(encoding="utf-8")
        clean = strip_comments_and_strings(text)
        for m in ATOMIC_CALL_RE.finditer(clean):
            args = balanced_paren_span(clean, m.start(2))
            if "memory_order" in args:
                continue
            findings.append(
                Finding(
                    rel(root, path),
                    line_of(clean, m.start()),
                    "atomic-memory-order",
                    f".{m.group(1)}() call without an explicit "
                    "std::memory_order argument",
                )
            )
    return findings


SOLVER_DECL_RE = re.compile(r"\bSolver\s+(\w+)\s*;")


def check_solver_registration(root: Path) -> List[Finding]:
    findings: List[Finding] = []
    path = root / "src" / "engine" / "builtin_solvers.cpp"
    if not path.is_file():
        return findings
    clean = strip_comments_and_strings(path.read_text(encoding="utf-8"))
    decls = list(SOLVER_DECL_RE.finditer(clean))
    for idx, decl in enumerate(decls):
        var = decl.group(1)
        start = decl.end()
        # The registration span ends where the Solver leaves this scope:
        # handed to the registry, returned from a builder helper, or (as a
        # backstop) at the next declaration of the same variable name.
        ends = []
        for pat in (
            rf"registry\s*\.\s*add\s*\(\s*std::move\s*\(\s*{var}\s*\)\s*\)",
            rf"\breturn\s+{var}\s*;",
        ):
            m = re.search(pat, clean[start:])
            if m:
                ends.append(start + m.end())
        for later in decls[idx + 1 :]:
            if later.group(1) == var:
                ends.append(later.start())
                break
        end = min(ends) if ends else len(clean)
        span = clean[start:end]
        where = line_of(clean, decl.start())
        for field, hint in (
            (
                "applicable",
                "every registered solver needs an applicability predicate "
                "(use always_applicable when it truly accepts anything)",
            ),
            (
                "check",
                "every registered solver needs a schedule checker (name "
                "core::check_standard_solution for the built-in one)",
            ),
        ):
            if not re.search(rf"\b{var}\s*\.\s*{field}\s*=", span):
                findings.append(
                    Finding(
                        rel(root, path),
                        where,
                        "solver-registration",
                        f"Solver '{var}' registered without .{field}: {hint}",
                    )
                )
    return findings


BARE_ASSERT_RE = re.compile(r"(?<![\w])(assert|abort)\s*\(")


def check_bare_assert(root: Path) -> List[Finding]:
    findings: List[Finding] = []
    for path in cxx_sources(root, ["src", "bench", "tests", "examples"]):
        if rel(root, path) == "src/core/assert.hpp":
            continue
        clean = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for m in BARE_ASSERT_RE.finditer(clean):
            findings.append(
                Finding(
                    rel(root, path),
                    line_of(clean, m.start()),
                    "bare-assert",
                    f"use ABT_ASSERT (core/assert.hpp) instead of "
                    f"{m.group(1)}(): it survives NDEBUG and reports "
                    "file:line plus a message",
                )
            )
    return findings


HOT_PATH_FILES = (
    "src/busy/first_fit.hpp",
    "src/busy/first_fit.cpp",
    "src/busy/preemptive.hpp",
    "src/busy/preemptive.cpp",
    "src/core/sweep.hpp",
    "src/core/sweep.cpp",
)
NODE_CONTAINER_INCLUDE_RE = re.compile(r"#\s*include\s*<(map|set)>")


def check_hot_path_containers(root: Path) -> List[Finding]:
    findings: List[Finding] = []
    for relpath in HOT_PATH_FILES:
        path = root / relpath
        if not path.is_file():
            continue
        clean = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for m in NODE_CONTAINER_INCLUDE_RE.finditer(clean):
            findings.append(
                Finding(
                    relpath,
                    line_of(clean, m.start()),
                    "hot-path-containers",
                    f"<{m.group(1)}> include in a flattened hot-path file; "
                    "node-based containers live only in "
                    "tests/oracles/naive_baselines.hpp",
                )
            )
    return findings


STREAM_FREE_FILES = (
    "src/core/io.hpp",
    "src/core/io.cpp",
    "src/core/text.hpp",
    "src/service/protocol.hpp",
    "src/service/protocol.cpp",
)
STRING_STREAM_RE = re.compile(
    r"#\s*include\s*<sstream>|\b(?:std::)?[io]?stringstream\b"
)


def check_hot_path_streams(root: Path) -> List[Finding]:
    findings: List[Finding] = []
    for relpath in STREAM_FREE_FILES:
        path = root / relpath
        if not path.is_file():
            continue
        clean = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for m in STRING_STREAM_RE.finditer(clean):
            findings.append(
                Finding(
                    relpath,
                    line_of(clean, m.start()),
                    "hot-path-streams",
                    f"'{m.group(0)}' in a request-path text codec; parse "
                    "with core/text.hpp (TokenCursor, parse_number) and "
                    "write with append_number into a std::string",
                )
            )
    return findings


UPPER_LAYERS = ("busy", "active", "flow", "lp", "gen", "engine", "service",
                "report")
UPPER_LAYER_INCLUDE_RE = re.compile(
    r'^[ \t]*#[ \t]*include[ \t]*"(' + "|".join(UPPER_LAYERS) + r')/[^"]*"',
    re.M,
)


def check_core_layering(root: Path) -> List[Finding]:
    findings: List[Finding] = []
    for path in cxx_sources(root, ["src/core"]):
        # Include paths are string literals, so match the raw text; the
        # line anchor keeps `// #include ...` comments out.
        text = path.read_text(encoding="utf-8")
        for m in UPPER_LAYER_INCLUDE_RE.finditer(text):
            findings.append(
                Finding(
                    rel(root, path),
                    line_of(text, m.start()),
                    "core-layering",
                    f"core includes the {m.group(1)}/ layer above it; "
                    "move the shared piece into core or the include out",
                )
            )
    return findings


WALL_CLOCK_RE = re.compile(
    r"\bsystem_clock\b|\bgettimeofday\s*\(|\blocaltime(_r)?\s*\(|"
    r"\bgmtime(_r)?\s*\(|\bstrftime\s*\(|\bput_time\s*\(|"
    r"\bclock_gettime\s*\(|(?<![\w:])time\s*\(\s*(nullptr|NULL|0)\s*\)"
)
WALL_CLOCK_EXEMPT = ("src/core/run_context.hpp", "src/core/run_context.cpp")


def check_wall_clock(root: Path) -> List[Finding]:
    findings: List[Finding] = []
    for path in cxx_sources(root, ["src", "bench", "tests", "examples"]):
        if rel(root, path) in WALL_CLOCK_EXEMPT:
            continue
        clean = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for m in WALL_CLOCK_RE.finditer(clean):
            findings.append(
                Finding(
                    rel(root, path),
                    line_of(clean, m.start()),
                    "wall-clock",
                    "date-like wall-clock call outside core/run_context; "
                    "runs must be reproducible (steady_clock is fine)",
                )
            )
    return findings


RULES = (
    check_atomic_memory_order,
    check_solver_registration,
    check_bare_assert,
    check_hot_path_containers,
    check_hot_path_streams,
    check_core_layering,
    check_wall_clock,
)


def run_lint(root: Path) -> List[Finding]:
    findings: List[Finding] = []
    for rule in RULES:
        findings.extend(rule(root))
    findings.sort()
    return findings


def main(argv: List[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    root = root.resolve()
    if not root.is_dir():
        print(f"abt_lint: no such directory: {root}", file=sys.stderr)
        return 2
    findings = run_lint(root)
    for f in findings:
        print(f.render())
    if findings:
        print(f"abt_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("abt_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
