#!/usr/bin/env python3
"""Project-rule linter for the GDELT mining engine.

Mechanically enforces conventions that the compiler cannot (or that only
Clang enforces, leaving GCC-only boxes unprotected):

  raw-mutex       Raw std::mutex / std::lock_guard / std::unique_lock /
                  std::scoped_lock / std::condition_variable are only
                  allowed inside src/util/sync.hpp. Everything else uses
                  sync::Mutex so Clang Thread-Safety Analysis sees every
                  lock site.
  tsa-escape      GDELT_NO_THREAD_SAFETY_ANALYSIS outside sync.hpp must
                  carry an explanatory comment within the three lines
                  above it; a silent escape hatch defeats the analysis.
  unchecked-copy  In src/io and src/columnar, memcpy/resize whose size
                  comes from parsed (untrusted) data must be preceded by
                  a visible bounds check *on that size*: a nearby
                  remaining()/std::min/CheckedMul line, or an if/assert
                  mentioning an identifier from the call's arguments.
                  A `sizeof(` in the argument list (length derived from
                  a type) or an explicit
                  `// gdelt-lint: allow(unchecked-copy)` also satisfies
                  it; an unrelated `if` nearby does not.
  trace-name      TRACE_SPAN string literals follow the `area.verb`
                  convention (lowercase dotted path), keeping the trace
                  aggregation table and the Prometheus stage metrics
                  consistent.
  raw-random      rand() and std::random_device are banned outside
                  src/gen: kernels and tests must use the seeded
                  Xoshiro256 helpers so every run is replayable.
  cancel-blind-loop  (fallback only — run with --no-ast)
                  In src/analysis, src/engine and src/stream, a `for`
                  loop bounded by the full row range (num_events()/
                  num_mentions()/events_end) or walking every delta
                  chunk (chunks_/chunks()) must consult the cooperative
                  cancel token — a util::Cancelled(...) poll on the loop
                  line or within the first few body lines. Such loops are exactly the
                  scans that make a query outlive its deadline; a loop
                  that cannot observe cancellation holds a worker hostage
                  until the full scan completes. Ablation baselines and
                  setup passes that deliberately run to completion carry
                  `// gdelt-lint: allow(cancel-blind-loop)` with a reason.

                  RETIRED from the default run: the AST-accurate
                  cancel-poll rule in tools/analyze/gdelt_astcheck.py
                  analyzes the real brace-matched loop body instead of a
                  6-line window (no false findings on deep polls, no
                  false confidence from polls in comments). The regex
                  version stays available behind --no-ast for quick
                  checks in environments where running the analyzer is
                  inconvenient; both honor the same allow tag.

Usage:
  gdelt_lint.py [--root DIR] [--no-ast] [paths...]

With no paths, lints `src/` under --root (default: the repository root
two levels above this script). Paths may be files or directories.
Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Iterator, List, NamedTuple

EXTENSIONS = (".hpp", ".h", ".cpp", ".cc")

# How many lines above a copy/resize we search for a bounds check.
CHECK_WINDOW = 12

ALLOW_TAG = "gdelt-lint: allow({rule})"

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|shared_mutex|timed_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable(_any)?)\b"
)
TSA_ESCAPE_RE = re.compile(r"\bGDELT_NO_THREAD_SAFETY_ANALYSIS\b")
MEMCPY_RE = re.compile(r"\b(?:std::)?memcpy\s*\(")
RESIZE_RE = re.compile(r"\.\s*(resize|reserve)\s*\(")
TRACE_SPAN_RE = re.compile(r"\bTRACE_SPAN\s*\(\s*\"([^\"]*)\"")
TRACE_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")
RAW_RANDOM_RE = re.compile(r"(?<![\w:])rand\s*\(\s*\)|\bstd::random_device\b")
# A row-range loop: a `for` whose header names the full event/mention
# extent, or walks the streaming store's full chunk list (every delta
# row accumulated since startup). Morsel bodies iterate IndexRange
# begin/end instead, so this only matches whole-table scans.
ROW_LOOP_RE = re.compile(
    r"\bfor\s*\(.*\b(?:num_events\s*\(\s*\)|num_mentions\s*\(\s*\)|"
    r"events_end\b|chunks_\b|chunks\s*\(\s*\))")
CANCEL_POLL_RE = re.compile(r"\bCancelled\s*\(")
# How many lines below a row-range loop header we search for the poll
# (the idiom puts it on the first body line; multi-line headers push it
# a couple of lines further down).
CANCEL_WINDOW = 6
# A nearby line is a bounds check if it contains one of these tokens
# (which only appear in limit arithmetic in this codebase), or if it is
# an if/assert that mentions an identifier from the copy's own argument
# list. A guard over unrelated state does not count: `if (flag) ...`
# above `out.resize(len)` says nothing about len.
STRONG_BOUNDS_TOKENS = ("remaining()", "std::min(", "CheckedMul")
GUARD_RE = re.compile(r"(?:^|[^\w])(?:if|assert)\s*\(")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Identifiers too generic to tie a guard to a specific copy.
GENERIC_IDENTS = frozenset({
    "std", "memcpy", "data", "size", "sizeof", "static_cast",
    "reinterpret_cast", "size_t", "uint8_t", "uint16_t", "uint32_t",
    "uint64_t", "int64_t", "begin", "end", "c_str", "get",
})


class Finding(NamedTuple):
    path: str
    line: int
    rule: str
    message: str


def strip_comment(line: str) -> str:
    """Drops a trailing // comment (naive: ignores // inside strings,
    which the codebase's style never produces on rule-relevant lines)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def call_args(first: str, lines: List[str], index: int) -> str:
    """Argument-list text of a call whose opening paren was just consumed;
    `first` is the rest of the match line, and the scan continues over the
    next few lines until the parens balance (multi-line calls)."""
    chunks = [first] + [strip_comment(lines[j])
                        for j in range(index + 1, min(index + 4, len(lines)))]
    depth = 1
    buf: List[str] = []
    for text in chunks:
        for ch in text:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return "".join(buf)
            buf.append(ch)
        buf.append(" ")
    return "".join(buf)


def is_bounds_check(line: str, idents: frozenset) -> bool:
    """True if `line` plausibly bounds one of the copy's identifiers."""
    if any(tok in line for tok in STRONG_BOUNDS_TOKENS):
        return True
    if not GUARD_RE.search(line):
        return False
    return any(re.search(r"\b" + re.escape(t) + r"\b", line)
               for t in idents)


def has_allow(lines: List[str], index: int, rule: str) -> bool:
    """True if the allow tag appears on the line itself or in the few
    lines above it (room for a multi-line justification comment)."""
    tag = ALLOW_TAG.format(rule=rule)
    lo = max(0, index - 4)
    return any(tag in lines[i] for i in range(lo, index + 1))


def norm(path: str) -> str:
    return path.replace(os.sep, "/")


def is_sync_header(path: str) -> bool:
    return norm(path).endswith("util/sync.hpp")


def in_untrusted_scope(path: str) -> bool:
    p = norm(path)
    return "/io/" in p or p.startswith("io/") or "/columnar/" in p or \
        p.startswith("columnar/")


def in_gen_scope(path: str) -> bool:
    p = norm(path)
    return "/gen/" in p or p.startswith("gen/")


def in_cancel_scope(path: str) -> bool:
    """Directories whose full-table scans must observe cancellation:
    the query kernels plus the streaming delta scans."""
    p = norm(path)
    return any(f"/{d}/" in p or p.startswith(f"{d}/")
               for d in ("analysis", "engine", "stream"))


def check_file(path: str, rel: str,
               cancel_fallback: bool = False) -> Iterator[Finding]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        yield Finding(rel, 0, "io-error", str(err))
        return

    in_block_comment = False
    for i, raw in enumerate(lines):
        line = raw
        # Track /* ... */ blocks so commented-out code cannot trip rules.
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + line[end + 2:]
        code = strip_comment(line)
        lineno = i + 1

        # --- raw-mutex ---------------------------------------------------
        if not is_sync_header(rel):
            m = RAW_MUTEX_RE.search(code)
            if m and not has_allow(lines, i, "raw-mutex"):
                yield Finding(
                    rel, lineno, "raw-mutex",
                    f"raw {m.group(0)} outside util/sync.hpp; use "
                    "sync::Mutex / sync::MutexLock / sync::CondVar so "
                    "thread-safety analysis sees the lock")

        # --- tsa-escape --------------------------------------------------
        if not is_sync_header(rel) and TSA_ESCAPE_RE.search(code):
            window = lines[max(0, i - 3):i]
            if not any("//" in w for w in window):
                yield Finding(
                    rel, lineno, "tsa-escape",
                    "GDELT_NO_THREAD_SAFETY_ANALYSIS needs a comment "
                    "directly above explaining why the analysis must be "
                    "suppressed")

        # --- unchecked-copy ----------------------------------------------
        if in_untrusted_scope(rel):
            for pattern in (MEMCPY_RE, RESIZE_RE):
                m = pattern.search(code)
                if not m:
                    continue
                args = call_args(code[m.end():], lines, i)
                if "sizeof(" in args:
                    continue  # length derived from a type, not from input
                idents = frozenset(IDENT_RE.findall(args)) - GENERIC_IDENTS
                if not idents:
                    continue  # constant size, nothing to bound
                window = lines[max(0, i - CHECK_WINDOW):i + 1]
                if any(is_bounds_check(w, idents) for w in window):
                    continue
                if has_allow(lines, i, "unchecked-copy"):
                    continue
                yield Finding(
                    rel, lineno, "unchecked-copy",
                    "memcpy/resize in untrusted-input code without a "
                    f"bounds check on its size in the preceding "
                    f"{CHECK_WINDOW} lines; check the size against "
                    "remaining()/a parsed limit or annotate "
                    "`// gdelt-lint: allow(unchecked-copy)` with a reason")

        # --- trace-name --------------------------------------------------
        for m in TRACE_SPAN_RE.finditer(code):
            name = m.group(1)
            if not TRACE_NAME_RE.match(name):
                yield Finding(
                    rel, lineno, "trace-name",
                    f'TRACE_SPAN name "{name}" does not match the '
                    "area.verb convention (lowercase dotted path, e.g. "
                    '"convert.parse_events")')

        # --- cancel-blind-loop (fallback; gdelt_astcheck owns this) ------
        if cancel_fallback and in_cancel_scope(rel) and \
                ROW_LOOP_RE.search(code):
            window = lines[i:min(len(lines), i + 1 + CANCEL_WINDOW)]
            if not any(CANCEL_POLL_RE.search(strip_comment(w))
                       for w in window) \
                    and not has_allow(lines, i, "cancel-blind-loop"):
                yield Finding(
                    rel, lineno, "cancel-blind-loop",
                    "full row-range loop never consults the cancel "
                    "token; poll util::Cancelled(cancel) every few "
                    "hundred rows (see country.cpp) or annotate "
                    "`// gdelt-lint: allow(cancel-blind-loop)` with a "
                    "reason")

        # --- raw-random --------------------------------------------------
        if not in_gen_scope(rel):
            m = RAW_RANDOM_RE.search(code)
            if m and not has_allow(lines, i, "raw-random"):
                yield Finding(
                    rel, lineno, "raw-random",
                    f"{m.group(0).strip()} is not replayable; use the "
                    "seeded Xoshiro256 from util/rng.hpp (raw entropy is "
                    "allowed only under src/gen)")


def collect_files(root: str, paths: List[str]) -> List[str]:
    if not paths:
        src = os.path.join(root, "src")
        if not os.path.isdir(src):
            print(f"gdelt_lint: no src/ under {root}", file=sys.stderr)
            sys.exit(2)
        paths = [src]
    files: List[str] = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(full):
            files.append(full)
        elif os.path.isdir(full):
            for dirpath, _dirnames, filenames in os.walk(full):
                for name in sorted(filenames):
                    if name.endswith(EXTENSIONS):
                        files.append(os.path.join(dirpath, name))
        else:
            print(f"gdelt_lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="gdelt_lint.py",
        description="project-rule linter (see module docstring)")
    default_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--root", default=default_root,
                        help="repository root (default: two levels above "
                             "this script)")
    parser.add_argument("--no-ast", action="store_true",
                        help="also run the retired regex cancel-blind-loop "
                             "heuristic (fallback for environments not "
                             "running tools/analyze/gdelt_astcheck.py, "
                             "whose AST cancel-poll rule supersedes it)")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: ROOT/src)")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    findings: List[Finding] = []
    for path in collect_files(root, args.paths):
        rel = os.path.relpath(path, root)
        findings.extend(check_file(path, rel, cancel_fallback=args.no_ast))

    for f in sorted(findings):
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    if findings:
        print(f"gdelt_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("gdelt_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
