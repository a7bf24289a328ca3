#!/usr/bin/env python3
"""Unit tests for abt_lint.py: each rule must catch a seeded violation in a
synthetic repo tree and stay quiet on the conforming twin of the same code.

Run directly (python3 scripts/test_abt_lint.py) or via ctest (abt_lint_selftest).
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import abt_lint  # noqa: E402


_TMP_HANDLES = []  # keeps every test tree alive until interpreter exit


def make_tree(files):
    """Materializes {relpath: content} into a temp dir; returns its Path."""
    tmp = tempfile.TemporaryDirectory(prefix="abt_lint_test_")
    _TMP_HANDLES.append(tmp)
    root = Path(tmp.name)
    for relpath, content in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    return root


def rules_of(findings):
    return sorted({f.rule for f in findings})


class AtomicMemoryOrderTest(unittest.TestCase):
    def test_unordered_store_is_flagged(self):
        root = make_tree({
            "src/engine/pool.cpp": (
                "#include <atomic>\n"
                "std::atomic<int> g;\n"
                "void f() { g.store(1); }\n"
            ),
        })
        findings = abt_lint.check_atomic_memory_order(root)
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].rule, "atomic-memory-order")
        self.assertEqual(findings[0].path, "src/engine/pool.cpp")
        self.assertEqual(findings[0].line, 3)

    def test_explicit_order_passes(self):
        root = make_tree({
            "src/engine/pool.cpp": (
                "#include <atomic>\n"
                "std::atomic<int> g;\n"
                "void f() { g.store(1, std::memory_order_release); }\n"
                "int r() { return g.load(std::memory_order_acquire); }\n"
            ),
        })
        self.assertEqual(abt_lint.check_atomic_memory_order(root), [])

    def test_multiline_cas_with_orders_passes(self):
        root = make_tree({
            "src/engine/pool.cpp": (
                "#include <atomic>\n"
                "std::atomic<unsigned long> packed;\n"
                "bool f(unsigned long& want, unsigned long next) {\n"
                "  return packed.compare_exchange_weak(\n"
                "      want, next, std::memory_order_acq_rel,\n"
                "      std::memory_order_relaxed);\n"
                "}\n"
            ),
        })
        self.assertEqual(abt_lint.check_atomic_memory_order(root), [])

    def test_unordered_fetch_add_in_service_is_flagged(self):
        root = make_tree({
            "src/service/server.cpp": (
                "#include <atomic>\n"
                "std::atomic<unsigned> served;\n"
                "void f() { served.fetch_add(1); }\n"
            ),
        })
        findings = abt_lint.check_atomic_memory_order(root)
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].rule, "atomic-memory-order")
        self.assertEqual(findings[0].path, "src/service/server.cpp")

    def test_ordered_service_counters_pass(self):
        root = make_tree({
            "src/service/server.cpp": (
                "#include <atomic>\n"
                "std::atomic<unsigned> served;\n"
                "void f() { served.fetch_add(1, std::memory_order_relaxed); }\n"
            ),
        })
        self.assertEqual(abt_lint.check_atomic_memory_order(root), [])

    def test_unordered_cas_in_run_context_is_flagged(self):
        root = make_tree({
            "src/core/run_context.hpp": (
                "#include <atomic>\n"
                "std::atomic<bool> cancelled;\n"
                "bool trip() { bool f = false;\n"
                "  return cancelled.compare_exchange_strong(f, true); }\n"
            ),
        })
        findings = abt_lint.check_atomic_memory_order(root)
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].line, 4)

    def test_outside_concurrency_layer_ignored(self):
        root = make_tree({
            "src/busy/misc.cpp": (
                "#include <atomic>\n"
                "std::atomic<int> g;\n"
                "void f() { g.store(1); }\n"
            ),
        })
        self.assertEqual(abt_lint.check_atomic_memory_order(root), [])

    def test_commented_call_ignored(self):
        root = make_tree({
            "src/engine/pool.cpp": (
                "// g.store(1); would be a violation if live\n"
                "/* also g.load() here */\n"
            ),
        })
        self.assertEqual(abt_lint.check_atomic_memory_order(root), [])


class SolverRegistrationTest(unittest.TestCase):
    def test_checker_less_registration_is_flagged(self):
        root = make_tree({
            "src/engine/builtin_solvers.cpp": (
                "void reg(SolverRegistry& registry) {\n"
                "  {\n"
                "    Solver s;\n"
                "    s.name = \"busy/bad\";\n"
                "    s.applicable = always_applicable;\n"
                "    s.run = run_bad;\n"
                "    registry.add(std::move(s));\n"
                "  }\n"
                "}\n"
            ),
        })
        findings = abt_lint.check_solver_registration(root)
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].rule, "solver-registration")
        self.assertIn(".check", findings[0].message)
        self.assertEqual(findings[0].line, 3)

    def test_applicable_less_registration_is_flagged(self):
        root = make_tree({
            "src/engine/builtin_solvers.cpp": (
                "Solver build() {\n"
                "  Solver s;\n"
                "  s.check = core::check_standard_solution;\n"
                "  s.run = run_ok;\n"
                "  return s;\n"
                "}\n"
            ),
        })
        findings = abt_lint.check_solver_registration(root)
        self.assertEqual(len(findings), 1)
        self.assertIn(".applicable", findings[0].message)

    def test_complete_registrations_pass(self):
        root = make_tree({
            "src/engine/builtin_solvers.cpp": (
                "Solver build() {\n"
                "  Solver s;\n"
                "  s.applicable = always_applicable;\n"
                "  s.check = core::check_standard_solution;\n"
                "  s.run = run_ok;\n"
                "  return s;\n"
                "}\n"
                "void reg(SolverRegistry& registry) {\n"
                "  {\n"
                "    Solver s;\n"
                "    s.applicable = is_weighted;\n"
                "    s.check = check_weighted;\n"
                "    s.run = run_w;\n"
                "    registry.add(std::move(s));\n"
                "  }\n"
                "}\n"
            ),
        })
        self.assertEqual(abt_lint.check_solver_registration(root), [])

    def test_reused_variable_spans_stay_separate(self):
        # Two blocks both declare `Solver s;` — completeness of the first
        # must not bleed into (or mask) the second's missing fields.
        root = make_tree({
            "src/engine/builtin_solvers.cpp": (
                "void reg(SolverRegistry& registry) {\n"
                "  {\n"
                "    Solver s;\n"
                "    s.applicable = always_applicable;\n"
                "    s.check = core::check_standard_solution;\n"
                "    s.run = a;\n"
                "    registry.add(std::move(s));\n"
                "  }\n"
                "  {\n"
                "    Solver s;\n"
                "    s.run = b;\n"
                "    registry.add(std::move(s));\n"
                "  }\n"
                "}\n"
            ),
        })
        findings = abt_lint.check_solver_registration(root)
        self.assertEqual(len(findings), 2)
        self.assertTrue(all(f.line == 10 for f in findings))


class BareAssertTest(unittest.TestCase):
    def test_bare_assert_and_abort_are_flagged(self):
        root = make_tree({
            "src/busy/x.cpp": (
                "#include <cassert>\n"
                "void f(int n) { assert(n > 0); }\n"
                "void g() { std::abort(); }\n"
            ),
        })
        findings = abt_lint.check_bare_assert(root)
        self.assertEqual(len(findings), 2)
        self.assertEqual({f.line for f in findings}, {2, 3})

    def test_assert_hpp_itself_is_exempt(self):
        root = make_tree({
            "src/core/assert.hpp": "inline void die() { std::abort(); }\n",
        })
        self.assertEqual(abt_lint.check_bare_assert(root), [])

    def test_uppercase_and_static_assert_pass(self):
        root = make_tree({
            "src/busy/x.cpp": (
                "static_assert(sizeof(int) == 4);\n"
                "void f(int n) { ABT_ASSERT(n > 0, \"positive\"); }\n"
                "void t() { ASSERT_TRUE(true); }\n"
            ),
        })
        self.assertEqual(abt_lint.check_bare_assert(root), [])


class HotPathContainersTest(unittest.TestCase):
    def test_map_include_in_sweep_is_flagged(self):
        root = make_tree({
            "src/core/sweep.hpp": "#include <map>\n#include <vector>\n",
        })
        findings = abt_lint.check_hot_path_containers(root)
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].rule, "hot-path-containers")
        self.assertEqual(findings[0].line, 1)

    def test_naive_baselines_keeps_its_maps(self):
        root = make_tree({
            "tests/oracles/naive_baselines.hpp":
                "#include <map>\n#include <set>\n",
            "src/busy/first_fit.hpp": "#include <vector>\n",
        })
        self.assertEqual(abt_lint.check_hot_path_containers(root), [])

    def test_unordered_map_is_allowed(self):
        root = make_tree({
            "src/core/sweep.hpp": "#include <unordered_map>\n",
        })
        self.assertEqual(abt_lint.check_hot_path_containers(root), [])


class HotPathStreamsTest(unittest.TestCase):
    def test_string_streams_in_codecs_are_flagged(self):
        root = make_tree({
            "src/core/io.cpp": (
                "#include <sstream>\n"
                "void f() { std::istringstream ls(\"x\"); }\n"
            ),
            "src/service/protocol.cpp": (
                "#include <string>\n"
                "std::string g() { std::ostringstream os; return os.str(); }\n"
            ),
        })
        findings = abt_lint.check_hot_path_streams(root)
        self.assertEqual(
            [(f.path, f.line) for f in findings],
            [("src/core/io.cpp", 1), ("src/core/io.cpp", 2),
             ("src/service/protocol.cpp", 2)],
        )
        self.assertEqual(rules_of(findings), ["hot-path-streams"])

    def test_plain_stringstream_is_flagged(self):
        root = make_tree({
            "src/core/text.hpp": "void f() { std::stringstream s; }\n",
        })
        self.assertEqual(len(abt_lint.check_hot_path_streams(root)), 1)

    def test_stream_free_codecs_and_other_files_pass(self):
        root = make_tree({
            "src/core/io.cpp": (
                "#include <istream>\n"
                "#include \"core/text.hpp\"\n"
                "// no istringstream here: comments are ignored\n"
                "const char* k = \"ostringstream\";\n"
                "void f(std::istream& in) { in.read(nullptr, 0); }\n"
            ),
            "src/engine/runner.cpp": (
                "#include <sstream>\n"
                "void d() { std::ostringstream os; }\n"
            ),
        })
        self.assertEqual(abt_lint.check_hot_path_streams(root), [])


class CoreLayeringTest(unittest.TestCase):
    def test_upper_layer_includes_are_flagged(self):
        root = make_tree({
            "src/core/io.cpp": (
                "#include \"core/io.hpp\"\n"
                "#include \"engine/runner.hpp\"\n"
                "  #  include \"busy/weighted.hpp\"\n"
            ),
            "src/core/solver.hpp": "#include \"service/protocol.hpp\"\n",
        })
        findings = abt_lint.check_core_layering(root)
        self.assertEqual(
            sorted((f.path, f.line) for f in findings),
            [("src/core/io.cpp", 2), ("src/core/io.cpp", 3),
             ("src/core/solver.hpp", 1)],
        )
        self.assertEqual(rules_of(findings), ["core-layering"])

    def test_core_and_system_includes_and_other_layers_pass(self):
        root = make_tree({
            "src/core/io.cpp": (
                "#include <vector>\n"
                "#include \"core/text.hpp\"\n"
                "// #include \"engine/runner.hpp\" (commented out)\n"
                "const char* k = \"see busy/weighted.hpp\";\n"
            ),
            "src/busy/weighted.hpp": "#include \"engine/runner.hpp\"\n",
            "src/engine/runner.cpp": "#include \"busy/weighted.hpp\"\n",
        })
        self.assertEqual(abt_lint.check_core_layering(root), [])


class WallClockTest(unittest.TestCase):
    def test_system_clock_is_flagged(self):
        root = make_tree({
            "src/engine/y.cpp": (
                "#include <chrono>\n"
                "auto t() { return std::chrono::system_clock::now(); }\n"
            ),
        })
        findings = abt_lint.check_wall_clock(root)
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].rule, "wall-clock")
        self.assertEqual(findings[0].line, 2)

    def test_time_nullptr_is_flagged(self):
        root = make_tree({
            "bench/seed.cpp": "long seed() { return time(nullptr); }\n",
        })
        self.assertEqual(len(abt_lint.check_wall_clock(root)), 1)

    def test_steady_clock_passes(self):
        root = make_tree({
            "src/engine/y.cpp": (
                "#include <chrono>\n"
                "auto t() { return std::chrono::steady_clock::now(); }\n"
            ),
        })
        self.assertEqual(abt_lint.check_wall_clock(root), [])

    def test_run_context_is_exempt(self):
        root = make_tree({
            "src/core/run_context.hpp": (
                "auto wall() { return std::chrono::system_clock::now(); }\n"
            ),
        })
        self.assertEqual(abt_lint.check_wall_clock(root), [])


class DriverTest(unittest.TestCase):
    def test_run_lint_aggregates_and_sorts(self):
        root = make_tree({
            "src/engine/pool.cpp": "std::atomic<int> g;\nvoid f() { g.store(1); }\n",
            "src/busy/x.cpp": "void f(int n) { assert(n > 0); }\n",
        })
        findings = abt_lint.run_lint(root)
        self.assertEqual(rules_of(findings), ["atomic-memory-order", "bare-assert"])
        self.assertEqual(findings, sorted(findings))

    def test_main_exit_codes(self):
        clean = make_tree({"src/core/ok.cpp": "int x = 0;\n"})
        self.assertEqual(abt_lint.main(["abt_lint.py", str(clean)]), 0)
        dirty = make_tree({"src/busy/x.cpp": "void f() { abort(); }\n"})
        self.assertEqual(abt_lint.main(["abt_lint.py", str(dirty)]), 1)
        self.assertEqual(abt_lint.main(["abt_lint.py", str(clean / "nope")]), 2)


if __name__ == "__main__":
    unittest.main()
