#!/usr/bin/env python3
"""Self-test for gdelt_astcheck.py against the seeded fixtures in
testdata/.

Run directly (python3 tools/analyze/gdelt_astcheck_test.py) or via ctest
as `gdelt_astcheck_selftest`. Guards the analyzer itself: every rule
must fire on its bad fixtures with the exact expected counts and stay
silent on the good ones, so a refactor of the analyzer cannot quietly
stop enforcing a rule. The clang-frontend test SKIPs when no clang++ or
compilation database is available (mirrors tsa_negative_compile's
SKIPPED-under-GCC contract); the builtin frontend is exercised
everywhere.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ANALYZE_DIR = os.path.dirname(os.path.abspath(__file__))
ANALYZER = os.path.join(ANALYZE_DIR, "gdelt_astcheck.py")
TESTDATA = os.path.join(ANALYZE_DIR, "testdata")
REPO_ROOT = os.path.dirname(os.path.dirname(ANALYZE_DIR))

EXPECTED_BAD = {
    "lock-order": 2,
    "view-escape": 3,
    "snapshot-discipline": 2,
    "cancel-poll": 5,
    "bounded-alloc": 8,
    "raw-mutex": 3,
    "tsa-escape": 1,
    "trace-name": 2,
    "raw-random": 2,
    "bare-allow": 2,
}


def run_check(*args, root=TESTDATA):
    proc = subprocess.run(
        [sys.executable, ANALYZER, "--root", root, "--frontend", "builtin",
         "--no-cache", *args],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def findings_by_rule(output):
    counts = {}
    for line in output.splitlines():
        if "] " not in line or not line.startswith(("bad", "good", "src")):
            continue
        rule = line.split("[", 1)[1].split("]", 1)[0]
        counts[rule] = counts.get(rule, 0) + 1
    return counts


def finding_lines(path, rule):
    """Sorted line numbers of `rule`'s findings in one fixture, and the
    analyzer output."""
    _code, out, _err = run_check(path)
    return sorted(int(l.split(":")[1]) for l in out.splitlines()
                  if f"[{rule}]" in l), out


class GdeltAstcheckTest(unittest.TestCase):
    def test_bad_fixtures_fire_every_rule_exactly(self):
        code, out, _err = run_check("bad")
        self.assertEqual(code, 1, out)
        self.assertEqual(findings_by_rule(out), EXPECTED_BAD, out)

    def test_good_fixtures_are_clean(self):
        code, out, _err = run_check("good")
        self.assertEqual(code, 0, out)
        self.assertEqual(findings_by_rule(out), {}, out)

    def test_view_escape_lines_are_precise(self):
        lines, out = finding_lines("bad/serve/view_escape.cpp", "view-escape")
        self.assertEqual(lines, [24, 30, 36], out)

    def test_raw_mutex_lines_are_precise(self):
        lines, out = finding_lines("bad/serve/raw_mutex.cpp", "raw-mutex")
        self.assertEqual(lines, [8, 9, 12], out)

    def test_unguarded_memcpy_is_a_bounded_alloc(self):
        lines, out = finding_lines("bad/io/unchecked_copy.cpp",
                                   "bounded-alloc")
        self.assertEqual(lines, [18, 19, 27], out)
        self.assertIn("memcpy(..., len)", out)

    def test_lock_cycle_reports_full_witness_path(self):
        _code, out, _err = run_check("bad/serve/lock_cycle.cpp")
        cycles = [l for l in out.splitlines() if "[lock-order]" in l]
        self.assertEqual(len(cycles), 2, out)
        direct = [c for c in cycles if "Ledger::Credit" in c]
        self.assertEqual(len(direct), 1, out)
        # The witness names both edges of the inversion.
        self.assertIn("Ledger::accounts_mu_ -> Ledger::journal_mu_",
                      direct[0])
        self.assertIn("Ledger::journal_mu_ -> Ledger::accounts_mu_",
                      direct[0])
        # The second cycle only exists through call summaries.
        inter = [c for c in cycles if "FlushJournal" in c]
        self.assertEqual(len(inter), 1, out)
        self.assertIn("->", inter[0])

    def test_deep_poll_defeats_the_old_line_window(self):
        # ScanDeep's poll is >6 lines into the body: the retired regex
        # window called it blind; the AST rule must not.
        code, out, _err = run_check("good/analysis/cancel_ok.cpp")
        self.assertEqual(code, 0, out)

    def test_bare_allow_still_suppresses_base_finding(self):
        _code, out, _err = run_check("bad/serve/bare_allow.cpp")
        counts = findings_by_rule(out)
        self.assertEqual(counts.get("bare-allow"), 2, out)
        self.assertNotIn("view-escape", counts, out)

    def test_rule_filter(self):
        code, out, _err = run_check("--rule", "bounded-alloc", "bad")
        self.assertEqual(code, 1, out)
        self.assertEqual(findings_by_rule(out), {"bounded-alloc": 8}, out)
        code, out, _err = run_check("--rule", "trace-name", "bad")
        self.assertEqual(code, 1, out)
        self.assertEqual(findings_by_rule(out), {"trace-name": 2}, out)

    def test_json_output_shape(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "findings.json")
            code, out, _err = run_check("--json", path, "bad")
            self.assertEqual(code, 1, out)
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        self.assertEqual(payload["counts"], EXPECTED_BAD, payload)
        self.assertEqual(len(payload["findings"]),
                         sum(EXPECTED_BAD.values()), payload)
        for f in payload["findings"]:
            self.assertIn(f["rule"], EXPECTED_BAD, f)
            self.assertIsInstance(f["line"], int, f)
            self.assertTrue(f["path"].startswith("bad"), f)
            self.assertTrue(f["message"], f)

    def test_cache_round_trip_is_stable(self):
        with tempfile.TemporaryDirectory() as tmp:
            cold = subprocess.run(
                [sys.executable, ANALYZER, "--root", TESTDATA,
                 "--frontend", "builtin", "--cache-dir", tmp, "--stats",
                 "bad"],
                capture_output=True, text=True, check=False)
            self.assertTrue(os.listdir(tmp), "cache stayed empty")
            warm = subprocess.run(
                [sys.executable, ANALYZER, "--root", TESTDATA,
                 "--frontend", "builtin", "--cache-dir", tmp, "--stats",
                 "bad"],
                capture_output=True, text=True, check=False)
        self.assertEqual(cold.stdout, warm.stdout)
        self.assertEqual(cold.returncode, warm.returncode)
        self.assertIn("cache_hits=14", warm.stderr, warm.stderr)

    def test_missing_path_is_a_usage_error(self):
        code, _out, _err = run_check("no/such/dir")
        self.assertEqual(code, 2)

    def test_list_rules(self):
        proc = subprocess.run(
            [sys.executable, ANALYZER, "--list-rules"],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0)
        self.assertEqual(
            proc.stdout.split(),
            ["lock-order", "view-escape", "snapshot-discipline",
             "cancel-poll", "bounded-alloc", "raw-mutex", "tsa-escape",
             "trace-name", "raw-random", "bare-allow"])

    def test_real_tree_is_clean(self):
        # The repo's own sources must satisfy the rules the repo ships,
        # and every allow tag must carry a justification (bare-allow).
        code, out, _err = run_check("src", root=REPO_ROOT)
        self.assertEqual(code, 0, out)

    def test_planted_violations_in_real_tree_are_caught(self):
        # One violation per line rule, plus an unguarded memcpy, planted in
        # a copy of src/: each is caught exactly once, where it was put.
        plants = {
            "serve/planted_mutex.cpp": (
                "#include <mutex>\nstd::mutex g_planted_mu;\n",
                "raw-mutex", 2),
            "engine/planted_random.cpp": (
                "#include <cstdlib>\nint PlantedRoll() { return rand(); }\n",
                "raw-random", 2),
            "engine/planted_span.cpp": (
                "void PlantedSpan() {\n  TRACE_SPAN(\"Bad\");\n}\n",
                "trace-name", 2),
            "serve/planted_escape.cpp": (
                "#include \"util/sync.hpp\"\n\n\n\n"
                "int PlantedRead() GDELT_NO_THREAD_SAFETY_ANALYSIS "
                "{ return 0; }\n",
                "tsa-escape", 5),
            "io/planted_copy.cpp": (
                "#include <cstring>\n"
                "void PlantedCopy(char* out, const char* in, unsigned n) {\n"
                "  std::memcpy(out, in, n);\n}\n",
                "bounded-alloc", 3),
        }
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(os.path.join(REPO_ROOT, "src"),
                            os.path.join(tmp, "src"))
            for rel, (text, _rule, _line) in plants.items():
                with open(os.path.join(tmp, "src", rel), "w",
                          encoding="utf-8") as fh:
                    fh.write(text)
            code, out, _err = run_check("src", root=tmp)
        self.assertEqual(code, 1, out)
        found = sorted(l.split(": [", 1)[0] + " " + l.split("[", 1)[1]
                       .split("]", 1)[0] for l in out.splitlines()
                       if l.startswith("src/"))
        want = sorted(f"src/{rel}:{line} {rule}"
                      for rel, (_text, rule, line) in plants.items())
        self.assertEqual(found, want, out)

    def test_clang_frontend_matches_builtin(self):
        # The clang frontend refines the builtin facts with compiler-
        # accurate function inventories; findings on the real tree must
        # agree between the two. Needs clang++ plus a compilation
        # database (the CI static-analysis job has both).
        clang = shutil.which("clang++")
        build_dir = os.environ.get("GDELT_ASTCHECK_BUILD_DIR",
                                   os.path.join(REPO_ROOT, "build-tidy"))
        db = os.path.join(build_dir, "compile_commands.json")
        if clang is None or not os.path.isfile(db):
            print("SKIPPED: requires clang++ and compile_commands.json")
            return
        proc = subprocess.run(
            [sys.executable, ANALYZER, "--root", REPO_ROOT,
             "--frontend", "clang", "--build-dir", build_dir,
             "--no-cache", "src"],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
