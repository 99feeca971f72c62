#!/usr/bin/env python3
"""Self-test for gdelt_lint.py against the seeded fixtures in testdata/.

Run directly (python3 tools/lint/gdelt_lint_test.py) or via ctest as
`gdelt_lint_selftest`. Guards the linter itself: every rule must fire on
its bad fixture and stay silent on the good ones, so a refactor of the
linter cannot quietly stop enforcing a rule.
"""

import os
import subprocess
import sys
import unittest

LINT_DIR = os.path.dirname(os.path.abspath(__file__))
LINTER = os.path.join(LINT_DIR, "gdelt_lint.py")
TESTDATA = os.path.join(LINT_DIR, "testdata")


def run_lint(*paths):
    """Runs the linter with TESTDATA as root; returns (exit, stdout)."""
    proc = subprocess.run(
        [sys.executable, LINTER, "--root", TESTDATA, *paths],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout


def findings_by_rule(output):
    counts = {}
    for line in output.splitlines():
        if "] " not in line or not line.startswith(("bad", "good")):
            continue
        rule = line.split("[", 1)[1].split("]", 1)[0]
        counts[rule] = counts.get(rule, 0) + 1
    return counts


class GdeltLintTest(unittest.TestCase):
    def test_bad_fixtures_fire_every_rule(self):
        code, out = run_lint("bad")
        self.assertEqual(code, 1, out)
        counts = findings_by_rule(out)
        self.assertEqual(counts.get("raw-mutex"), 3, out)
        self.assertEqual(counts.get("tsa-escape"), 1, out)
        self.assertEqual(counts.get("unchecked-copy"), 3, out)
        self.assertEqual(counts.get("trace-name"), 2, out)
        self.assertEqual(counts.get("raw-random"), 2, out)
        # Retired from the default run: the AST cancel-poll rule in
        # tools/analyze/gdelt_astcheck.py owns this class now.
        self.assertNotIn("cancel-blind-loop", counts, out)

    def test_cancel_fallback_still_works_behind_no_ast(self):
        code, out = run_lint("--no-ast", "bad")
        self.assertEqual(code, 1, out)
        counts = findings_by_rule(out)
        self.assertEqual(counts.get("cancel-blind-loop"), 3, out)

    def test_good_fixtures_are_clean(self):
        code, out = run_lint("good")
        self.assertEqual(code, 0, out)
        self.assertEqual(findings_by_rule(out), {}, out)

    def test_good_fixtures_are_clean_with_fallback(self):
        code, out = run_lint("--no-ast", "good")
        self.assertEqual(code, 0, out)
        self.assertEqual(findings_by_rule(out), {}, out)

    def test_finding_lines_are_precise(self):
        _code, out = run_lint("bad/serve/raw_mutex.cpp")
        lines = sorted(int(l.split(":")[1]) for l in out.splitlines()
                       if "[raw-mutex]" in l)
        self.assertEqual(lines, [8, 9, 12], out)

    def test_missing_path_is_a_usage_error(self):
        code, _out = run_lint("no/such/dir")
        self.assertEqual(code, 2)

    def test_real_tree_is_clean(self):
        # The repo's own sources must satisfy the rules the repo ships.
        repo_root = os.path.dirname(os.path.dirname(LINT_DIR))
        proc = subprocess.run(
            [sys.executable, LINTER, "--root", repo_root],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
