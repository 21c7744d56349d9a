#!/usr/bin/env python3
"""Unit tests for tools/determinism_lint.py.

Each rule gets positive fixtures (code that must be flagged) and negative
fixtures (idiomatic code that must not be). The linter guards the repo's
determinism story, so the linter itself needs the same regression safety as
the simulator: a rule that silently stops firing is worse than no rule.

Run directly (``python3 tests/tools/determinism_lint_test.py``) or through
ctest as ``determinism_lint_unittests``.
"""

import importlib.util
import pathlib
import sys
import unittest

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "determinism_lint", REPO / "tools" / "determinism_lint.py"
)
lint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lint)


def rules_of(findings):
    return [f.rule for f in findings]


def run(text, rel="src/core/x.cpp", extra=None):
    return lint.lint_text(text, rel, extra or set())


class UnorderedIterTest(unittest.TestCase):
    def test_range_for_over_local_unordered_map(self):
        src = (
            "std::unordered_map<int, int> m;\n"
            "for (const auto& [k, v] : m) emit(k);\n"
        )
        self.assertEqual(rules_of(run(src)), ["unordered-iter"])

    def test_begin_call_and_iterator_pair_construction(self):
        src = (
            "std::unordered_set<FlowKey, FlowKeyHash> found;\n"
            "std::vector<FlowKey> out(found.begin(), found.end());\n"
        )
        self.assertEqual(rules_of(run(src)), ["unordered-iter"])

    def test_structured_binding_and_deref(self):
        src = (
            "std::unordered_map<K, V>* tbl = lookup();\n"
            "for (auto& kv : *tbl) use(kv);\n"
        )
        self.assertEqual(rules_of(run(src)), ["unordered-iter"])

    def test_ordered_map_is_fine(self):
        src = "std::map<int, int> m;\nfor (const auto& [k, v] : m) emit(k);\n"
        self.assertEqual(run(src), [])

    def test_vector_named_like_nothing_unordered_is_fine(self):
        src = "std::vector<DropEntry> drops_;\nfor (const auto& d : drops_) use(d);\n"
        self.assertEqual(run(src), [])

    def test_lookup_without_iteration_is_fine(self):
        src = (
            "std::unordered_map<int, int> m;\n"
            "auto it = m.find(3);\n"
            "if (m.count(4)) f();\n"
        )
        self.assertEqual(run(src), [])

    def test_extra_names_from_primary_header(self):
        # foo.cpp iterating a member that foo.h declared unordered.
        src = "for (const auto& [k, v] : flows_) emit(v);\n"
        self.assertEqual(rules_of(run(src, extra={"flows_"})), ["unordered-iter"])
        self.assertEqual(run(src), [])  # without the header hand-off: clean

    def test_multiline_declaration(self):
        src = (
            "std::unordered_map<FlowKey, DropEntry,\n"
            "                   FlowKeyHash> drops;\n"
            "for (const auto& [k, d] : drops) out.push_back(d);\n"
        )
        self.assertEqual(rules_of(run(src)), ["unordered-iter"])

    def test_mention_in_comment_or_string_is_fine(self):
        src = (
            "// iterate the unordered_map<int,int> m carefully\n"
            'log("for (auto& x : m)");\n'
        )
        self.assertEqual(run(src), [])


class PointerKeyTest(unittest.TestCase):
    def test_map_keyed_on_pointer(self):
        self.assertEqual(
            rules_of(run("std::unordered_map<Node*, int> owners;\n")),
            ["pointer-key"],
        )

    def test_set_of_const_pointers(self):
        self.assertEqual(
            rules_of(run("std::set<const Event*> pending;\n")), ["pointer-key"]
        )

    def test_std_hash_over_pointer(self):
        self.assertEqual(
            rules_of(run("std::size_t h = std::hash<Flow*>{}(f);\n")),
            ["pointer-key"],
        )

    def test_reinterpret_cast_to_uintptr(self):
        self.assertEqual(
            rules_of(run("auto key = reinterpret_cast<std::uintptr_t>(node);\n")),
            ["pointer-key"],
        )

    def test_value_keys_are_fine(self):
        src = (
            "std::unordered_map<FlowKey, DropEntry, FlowKeyHash> drops;\n"
            "std::map<std::uint32_t, Node> nodes;\n"
        )
        self.assertEqual(run(src), [])


class WallClockTest(unittest.TestCase):
    def test_rand_and_srand(self):
        self.assertEqual(rules_of(run("int x = rand();\n")), ["wall-clock"])
        self.assertEqual(rules_of(run("srand(42);\n")), ["wall-clock"])

    def test_chrono_clocks(self):
        src = "auto t = std::chrono::steady_clock::now();\n"
        self.assertEqual(rules_of(run(src)), ["wall-clock"])

    def test_posix_clocks(self):
        self.assertEqual(
            rules_of(run("clock_gettime(CLOCK_MONOTONIC, &ts);\n")), ["wall-clock"]
        )
        self.assertEqual(rules_of(run("time(NULL);\n")), ["wall-clock"])

    def test_obs_layer_is_exempt(self):
        src = "auto t = std::chrono::steady_clock::now();\n"
        self.assertEqual(run(src, rel="src/obs/trace.cpp"), [])
        # ...but only that directory.
        self.assertEqual(rules_of(run(src, rel="src/sim/x.cpp")), ["wall-clock"])

    def test_serve_daemon_is_exempt(self):
        # The streaming daemon is host-side plumbing: wall-time latency
        # metrics and tail-poll pacing are legitimate there and never feed a
        # determinism digest.
        src = "auto deadline = std::chrono::steady_clock::now() + poll;\n"
        self.assertEqual(run(src, rel="src/serve/tail_source.cpp"), [])
        self.assertEqual(run(src, rel="src/serve/session.cpp"), [])
        # The exemption is the directory, not the name: a serve-like file
        # elsewhere in src/ is still held to sim time.
        self.assertEqual(
            rules_of(run(src, rel="src/core/serve_helpers.cpp")), ["wall-clock"]
        )
        # Prefix matching is per path segment — src/served is not src/serve.
        self.assertEqual(
            rules_of(run(src, rel="src/served/x.cpp")), ["wall-clock"]
        )

    def test_sim_time_identifiers_are_fine(self):
        src = "Tick now = sim().now();\nconst auto runtime_ns = now - start;\n"
        self.assertEqual(run(src), [])


class RngSeedTest(unittest.TestCase):
    def test_random_device(self):
        src = "std::random_device rd;\nstd::mt19937 gen(rd());\n"
        self.assertEqual(rules_of(run(src)), ["rng-seed"])

    def test_default_random_engine_and_arc4random(self):
        self.assertEqual(
            rules_of(run("std::default_random_engine e;\n")), ["rng-seed"]
        )
        self.assertEqual(rules_of(run("x = arc4random();\n")), ["rng-seed"])

    def test_getrandom_and_getentropy(self):
        src = "getrandom(buf, sizeof buf, 0);\ngetentropy(buf, 16);\n"
        self.assertEqual(rules_of(run(src)), ["rng-seed", "rng-seed"])

    def test_no_exemption_for_obs_or_serve(self):
        # Unlike wall-clock, the daemon may not draw entropy either.
        src = "std::random_device rd;\n"
        self.assertEqual(rules_of(run(src, rel="src/serve/server.cpp")), ["rng-seed"])
        self.assertEqual(rules_of(run(src, rel="src/obs/metrics.cpp")), ["rng-seed"])

    def test_fixed_seed_constants_are_fine(self):
        src = (
            "inline constexpr std::uint64_t kSketchRowSeeds[] = {\n"
            "    0x9E3779B97F4A7C15ULL, 0xC2B2AE3D27D4EB4FULL,\n"
            "};\n"
            "sim::Rng rng(case_seed);\n"
        )
        self.assertEqual(run(src), [])

    def test_mention_in_comment_is_fine(self):
        self.assertEqual(run("// never use std::random_device here\n"), [])


class UninitPodTest(unittest.TestCase):
    def test_bare_scalar_fields_in_payload_struct(self):
        src = (
            "struct DropEvent {\n"
            "  std::uint64_t count;\n"
            "  double rate;\n"
            "};\n"
        )
        self.assertEqual(rules_of(run(src)), ["uninit-pod", "uninit-pod"])

    def test_raw_pointer_field(self):
        src = "struct TraceFrame {\n  const char* name;\n};\n"
        self.assertEqual(rules_of(run(src)), ["uninit-pod"])

    def test_initialized_fields_are_fine(self):
        src = (
            "struct DropEvent {\n"
            "  std::uint64_t count = 0;\n"
            "  double rate{0.0};\n"
            "  const char* name = nullptr;\n"
            "  std::string label;\n"  # class type: self-initializing
            "};\n"
        )
        self.assertEqual(run(src), [])

    def test_non_payload_struct_is_ignored(self):
        src = "struct Config {\n  int workers;\n};\n"
        self.assertEqual(run(src), [])

    def test_methods_and_nested_braces_are_ignored(self):
        src = (
            "struct StatEvent {\n"
            "  std::uint64_t v = 0;\n"
            "  int value() const { int tmp; return tmp + v; }\n"
            "  static int parse(const char* s);\n"
            "};\n"
        )
        self.assertEqual(run(src), [])

    def test_forward_declaration_is_ignored(self):
        self.assertEqual(run("struct TraceEvent;\n"), [])

    def test_brace_on_next_line(self):
        src = "struct PollRecord\n{\n  int n;\n};\n"
        self.assertEqual(rules_of(run(src)), ["uninit-pod"])


class SuppressionTest(unittest.TestCase):
    def test_justified_suppression_silences_the_rule(self):
        src = (
            "std::unordered_map<int, int> m;\n"
            "for (const auto& [k, v] : m) n += v;"
            "  // vedr-lint: allow(unordered-iter): commutative sum\n"
        )
        self.assertEqual(run(src), [])

    def test_bare_suppression_is_itself_a_finding(self):
        src = (
            "std::unordered_map<int, int> m;\n"
            "for (const auto& [k, v] : m) n += v;  // vedr-lint: allow(unordered-iter)\n"
        )
        self.assertEqual(rules_of(run(src)), ["bare-suppression"])

    def test_unknown_rule_name_is_flagged(self):
        src = "int x = 0;  // vedr-lint: allow(unordred-iter): typo'd rule\n"
        self.assertEqual(rules_of(run(src)), ["unknown-rule"])

    def test_suppression_only_covers_its_own_rule(self):
        src = (
            "std::unordered_map<Node*, int> m;\n"
            "for (const auto& [k, v] : m) n += v;"
            "  // vedr-lint: allow(unordered-iter): commutative sum\n"
        )
        # pointer-key on line 1 is not covered by line 2's allow.
        self.assertEqual(rules_of(run(src)), ["pointer-key"])


class HelperTest(unittest.TestCase):
    def test_collect_unordered_names(self):
        src = (
            "std::unordered_map<FlowKey, DropEntry, FlowKeyHash> drops_;\n"
            "std::unordered_set<int> seen, visited;\n"
            "std::vector<int> plain_;\n"
            "std::unordered_map<int, int> f(std::unordered_set<long> s);\n"
        )
        names = lint.collect_unordered_names(src)
        self.assertIn("drops_", names)
        self.assertIn("seen", names)
        self.assertIn("visited", names)
        self.assertNotIn("plain_", names)

    def test_strip_comments_and_strings(self):
        self.assertEqual(
            lint.strip_comments_and_strings('call("rand()"); // time(NULL)'),
            'call(""); ',
        )

    def test_finding_str_format(self):
        f = lint.Finding("src/a.cpp", 7, "wall-clock", "msg")
        self.assertEqual(str(f), "src/a.cpp:7: msg [wall-clock]")

    def test_rule_names_are_stable(self):
        # CI and suppression comments reference these exact names.
        self.assertEqual(
            set(lint.RULE_NAMES),
            {"unordered-iter", "pointer-key", "wall-clock", "rng-seed",
             "uninit-pod", "bare-suppression", "unknown-rule",
             "rand", "float-eq", "header-guard"},
        )


OUTSIDE_SRC = ("tools/x.cpp", "tests/core/x_test.cpp", "bench/x.cpp", "examples/x.cpp")


class RandTest(unittest.TestCase):
    def test_rand_in_every_source_dir(self):
        for rel in OUTSIDE_SRC:
            self.assertEqual(rules_of(run("int x = rand();\n", rel=rel)), ["rand"], rel)
            self.assertEqual(rules_of(run("std::srand(7);\n", rel=rel)), ["rand"], rel)

    def test_wall_clock_exempt_dirs_still_ban_rand(self):
        self.assertEqual(rules_of(run("srand(42);\n", rel="src/obs/trace.cpp")), ["rand"])
        self.assertEqual(rules_of(run("srand(42);\n", rel="src/serve/session.cpp")), ["rand"])

    def test_one_finding_per_line_where_wall_clock_applies(self):
        self.assertEqual(rules_of(run("int x = rand();\n", rel="src/net/x.cpp")), ["wall-clock"])

    def test_seeded_generators_are_fine(self):
        src = "std::mt19937_64 gen(seed);\nconst auto v = gen();\nint operand(int);\n"
        for rel in OUTSIDE_SRC:
            self.assertEqual(run(src, rel=rel), [], rel)

    def test_suppression(self):
        src = "int x = rand();  // vedr-lint: allow(rand): fixture of the linter test\n"
        self.assertEqual(run(src, rel="tests/x.cpp"), [])


class FloatEqTest(unittest.TestCase):
    def test_compare_against_float_literal(self):
        for rel in ("src/core/x.cpp",) + OUTSIDE_SRC:
            self.assertEqual(rules_of(run("if (x == 0.5) f();\n", rel=rel)), ["float-eq"], rel)
            self.assertEqual(rules_of(run("if (1.0f != y) f();\n", rel=rel)), ["float-eq"], rel)

    def test_integers_epsilons_and_orderings_are_fine(self):
        src = (
            "if (n == 3) f();\n"
            "if (std::abs(x - y) < 1e-9) g();\n"
            "if (w >= 0.5) h();\n"
        )
        self.assertEqual(run(src), [])

    def test_literal_in_string_or_comment_is_fine(self):
        self.assertEqual(run('log("x == 0.5");  // y == 1.0\n', rel="bench/x.cpp"), [])


class HeaderGuardTest(unittest.TestCase):
    def test_header_without_pragma_once(self):
        for rel in ("src/core/x.h", "tools/x.h", "tests/x.h", "bench/x.hpp", "examples/x.h"):
            findings = run("int f();\n", rel=rel)
            self.assertEqual(rules_of(findings), ["header-guard"], rel)
            self.assertEqual(findings[0].line, 1)

    def test_guarded_header_and_sources_are_fine(self):
        self.assertEqual(run("// doc\n#pragma once\nint f();\n", rel="src/core/x.h"), [])
        self.assertEqual(run("int f();\n", rel="tests/x.cpp"), [])


class ScopeTest(unittest.TestCase):
    def test_determinism_rules_hold_in_src_only(self):
        # Tests and benches time themselves and iterate hash tables.
        src = (
            "auto t0 = std::chrono::steady_clock::now();\n"
            "std::unordered_map<int, int> m;\n"
            "for (const auto& [k, v] : m) emit(k);\n"
        )
        for rel in OUTSIDE_SRC:
            self.assertEqual(run(src, rel=rel), [], rel)
        self.assertEqual(rules_of(run(src)), ["wall-clock", "unordered-iter"])

    def test_other_dirs_are_not_linted(self):
        self.assertEqual(run("int x = rand();\nbool b = y == 0.5;\n", rel="pipebench/x.cpp"), [])


class RepoCleanTest(unittest.TestCase):
    def test_src_tree_is_clean(self):
        # The acceptance bar for the PR: the shipped tree has zero findings.
        findings = []
        header_names = {}
        files = [f for f in lint.gather_files(REPO, [str(REPO / "src")])]
        for f in files:
            if f.suffix in {".h", ".hpp"}:
                names = lint.collect_unordered_names(f.read_text())
                if names:
                    header_names.setdefault(f.stem, set()).update(names)
        for f in files:
            findings.extend(lint.lint_file(f, REPO, header_names))
        self.assertEqual([str(f) for f in findings], [])

    def test_every_source_dir_is_clean(self):
        files = lint.gather_files(REPO, [])
        self.assertEqual({f.relative_to(REPO).parts[0] for f in files},
                         set(lint.SOURCE_DIRS))
        findings = []
        for f in files:
            findings.extend(lint.lint_file(f, REPO, {}))
        self.assertEqual([str(f) for f in findings], [])


if __name__ == "__main__":
    unittest.main()
