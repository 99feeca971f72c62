#!/usr/bin/env python3
"""AST-level semantic analyzer for the GDELT mining engine.

Where tools/lint/gdelt_lint.py enforces *syntactic* conventions with
regexes and line windows, this analyzer builds a semantic model of every
translation unit — functions with real body extents, lock scopes, loop
bodies, return expressions, guard dominance — and enforces five
project-specific rules that line-window heuristics cannot express:

  lock-order           Builds the inter-mutex acquisition graph from
                       `sync::MutexLock` scopes (including one level of
                       interprocedural acquisition through resolvable
                       calls) and fails on any cycle, printing the full
                       witness path. A cycle is a potential deadlock the
                       instant two threads run the two paths concurrently.
  view-escape          Functions returning `std::string_view`/`std::span`
                       must not derive the view from a local, a
                       temporary, or a reallocatable container member
                       (`std::vector<std::string>` elements, `.data()` of
                       a member `std::string`). This is the exact PR 5
                       `DeltaStore::source_domain` use-after-free class:
                       an SSO-length string dies with its owner even when
                       the heap block would have survived. Members of
                       `std::deque<std::string>` are address-stable under
                       growth and are deliberately not flagged.
  snapshot-discipline  Two or more `DeltaStore` convenience accessors
                       (`delta_events()`, `Generation()`, ...) in one
                       function body read *different* snapshots — each
                       call acquires its own — so the values can straddle
                       an ingest tick. Callers needing two facts must
                       `Acquire()` once and read both from the snapshot.
  cancel-poll          Row-range loops (full event/mention extent, delta
                       chunk walks) in src/analysis, src/engine and
                       src/stream must consult `util::Cancelled` somewhere
                       in the real, brace-matched loop body. Replaces the
                       6-line regex window of gdelt_lint's
                       `cancel-blind-loop` (kept there behind --no-ast as
                       a GCC-only fallback); the legacy
                       `// gdelt-lint: allow(cancel-blind-loop)` tag is
                       honored as a suppression for this rule.
  bounded-alloc        In src/io, src/columnar and the serve files that
                       size things from network bytes (serve/partial.cpp,
                       serve/protocol.cpp, serve/json.cpp),
                       `resize`/`reserve`/`assign` whose size argument
                       carries an untrusted identifier must be *dominated*
                       by a guard naming that identifier: the allocation
                       sits inside an `if` on it, or follows an early-exit
                       guard on it in an enclosing scope, or the
                       identifier was initialized from a clamping
                       expression (`std::min`, `.size()`, `remaining()`,
                       `CheckedMul`). Supersedes the token-window
                       heuristic of gdelt_lint's `unchecked-copy` for
                       allocation sites.

Suppressions: `// gdelt-astcheck: allow(rule) — reason` on the finding
line or up to four lines above it. The justification text is mandatory;
a tag without one still suppresses the base finding but is itself
reported under the `bare-allow` rule, so silent escapes cannot
accumulate.

Frontends: with `--frontend clang` (or `auto` when clang++ and a
compilation database are available) each file's function inventory —
boundaries, qualified names, return types — is extracted from
`clang++ -Xclang -ast-dump=json -fsyntax-only` run with the exact flags
recorded in `compile_commands.json`; statement-level facts are then
collected over the clang-reported extents. With `--frontend builtin`
(any box, no clang needed) the same model is built by the analyzer's own
comment-stripping, brace-matching parser. Either way the distilled
per-file facts are cached keyed by content hash, so incremental runs
re-analyze only what changed.

Usage:
  gdelt_astcheck.py [--root DIR] [--build-dir DIR] [--frontend F]
                    [--cache-dir DIR] [--no-cache] [--json PATH]
                    [--rule RULE ...] [paths...]

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

ANALYZER_VERSION = 3  # bump to invalidate cached facts after rule changes

EXTENSIONS = (".hpp", ".h", ".cpp", ".cc")

ALLOW_TAG_RE = re.compile(r"gdelt-astcheck:\s*allow\(([\w-]+)\)\s*(.*)")
LEGACY_CANCEL_TAG = "gdelt-lint: allow(cancel-blind-loop)"
# Lines above a finding (inclusive of the finding line) searched for a tag.
ALLOW_WINDOW = 4
# A justification must say something: at least this many non-space chars
# after the tag (separators like "—" or ":" are stripped first).
MIN_JUSTIFICATION = 8

RULES = (
    "lock-order",
    "view-escape",
    "snapshot-discipline",
    "cancel-poll",
    "bounded-alloc",
    "bare-allow",
)

KEYWORDS = frozenset({
    "if", "for", "while", "switch", "return", "catch", "sizeof", "do",
    "else", "case", "new", "delete", "throw", "alignof", "decltype",
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
    "template", "typename", "operator", "noexcept", "static_assert",
})

GENERIC_IDENTS = frozenset({
    "std", "size", "sizeof", "data", "begin", "end", "first", "second",
    "size_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t", "int8_t",
    "int16_t", "int32_t", "int64_t", "ptrdiff_t", "true", "false",
    "nullptr", "static_cast", "reinterpret_cast", "const_cast",
})

# Types whose instances own string storage that dies (or moves) with them.
OWNING_TYPE_RE = re.compile(
    r"\bstd::(string|ostringstream|stringstream)\b(?!_view)")
VECTOR_OF_STRING_RE = re.compile(
    r"\bstd::vector\s*<\s*(?:const\s+)?std::string\s*>")
DEQUE_OF_STRING_RE = re.compile(
    r"\bstd::deque\s*<\s*(?:const\s+)?std::string\s*>")
VIEW_RET_RE = re.compile(r"\bstd::(string_view|span)\b|(?<![\w:])span\s*<")
# Expressions that materialize an owning temporary inside a return.
TEMP_OWNER_RE = re.compile(
    r"\bstd::string\s*\(|\bstd::to_string\s*\(|\bStrFormat\s*\(|"
    r"\bToLowerAscii\s*\(|\.str\s*\(\s*\)")

LOCK_RE = re.compile(r"\bsync::MutexLock\s+(\w+)\s*\(")
CANCEL_POLL_RE = re.compile(r"\bCancelled\s*\(")
ROW_LOOP_RE = re.compile(
    r"\b(?:num_events\s*\(\s*\)|num_mentions\s*\(\s*\)|events_end\b|"
    r"chunks_\b|chunks\s*\(\s*\))")
ALLOC_RE = re.compile(r"[\w\)\]]\s*(?:\.|->)\s*(resize|reserve|assign)\s*\(")
GUARD_RE = re.compile(r"(?<![\w.])(if|assert|GDELT_CHECK)\s*\(")
EARLY_EXIT_RE = re.compile(
    r"\breturn\b|\bthrow\b|\bcontinue\b|\bbreak\b|\babort\s*\(|"
    r"GDELT_RETURN_IF_ERROR|GDELT_ASSIGN_OR_RETURN")
# Size expressions containing any of these are bounded by construction.
CLAMP_TOKEN_RE = re.compile(
    r"\.size\s*\(\s*\)|\.length\s*\(\s*\)|\bstd::min\b|\bstd::clamp\b|"
    r"\bCheckedMul\b|\bremaining\s*\(\s*\)|\bsizeof\b")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

DELTA_ACCESSORS = frozenset({
    "delta_events", "delta_mentions", "malformed_rows", "Generation",
    "num_sources", "source_domain", "CombinedArticlesPerSource",
    "CombinedMentionCount", "CombinedTopSources",
    "CombinedArticlesAboutCountry",
})

CALL_RE = re.compile(r"([\w\]\)]*)\s*(\.|->|::)?\s*\b(\w+)\s*\(")


def _split_args(args: str) -> List[str]:
    """Splits an argument list on top-level commas."""
    out = []
    depth = 0
    start = 0
    for i, ch in enumerate(args):
        if ch in "(<[{":
            depth += 1
        elif ch in ")>]}":
            depth -= 1
        elif ch == "," and depth == 0:
            out.append(args[start:i])
            start = i + 1
    out.append(args[start:])
    return [a.strip() for a in out if a.strip()]


class Finding(NamedTuple):
    path: str
    line: int
    rule: str
    message: str


# --------------------------------------------------------------------------
# Source model: comment/string stripping, line table, brace block tree.
# --------------------------------------------------------------------------


class Source:
    """One file's code with comments/strings blanked (same offsets as the
    original), its comment text per line, and a brace block tree."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.raw = text
        self.code, self.comments = _strip(text)
        self.line_starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                self.line_starts.append(i + 1)
        self.blocks = _match_blocks(self.code)

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self.line_starts, offset)

    def innermost_block(self, offset: int) -> Optional[Tuple[int, int]]:
        best = None
        for b, e in self.blocks:
            if b < offset < e and (best is None or b > best[0]):
                best = (b, e)
        return best

    def enclosing_blocks(self, offset: int) -> List[Tuple[int, int]]:
        out = [(b, e) for b, e in self.blocks if b < offset < e]
        out.sort()
        return out


def _strip(text: str) -> Tuple[str, Dict[int, str]]:
    """Blanks comments, string and char literals (newlines preserved) and
    returns (code, {line: comment text})."""
    out = list(text)
    comments: Dict[int, str] = {}
    i, n = 0, len(text)
    line = 1

    def blank(a: int, b: int) -> None:
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            comments[line] = comments.get(line, "") + text[i:j]
            blank(i, j)
            i = j
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            seg_line = line
            for part in text[i:j].split("\n"):
                comments[seg_line] = comments.get(seg_line, "") + part
                seg_line += 1
            line = seg_line - 1
            blank(i, j)
            i = j
            continue
        if ch == 'R' and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m:
                end = text.find(")" + m.group(1) + '"', i)
                j = n if end < 0 else end + len(m.group(1)) + 2
                line += text.count("\n", i, j)
                blank(i + 2, max(i + 2, j - 1))
                i = j
                continue
        if ch == '"' or ch == "'":
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == ch:
                    break
                if text[j] == "\n":
                    break  # unterminated; don't eat the file
                j += 1
            blank(i + 1, min(j, n))
            i = min(j + 1, n)
            continue
        i += 1
    return "".join(out), comments


def _match_blocks(code: str) -> List[Tuple[int, int]]:
    blocks: List[Tuple[int, int]] = []
    stack: List[int] = []
    for i, ch in enumerate(code):
        if ch == "{":
            stack.append(i)
        elif ch == "}":
            if stack:
                blocks.append((stack.pop(), i))
    blocks.sort()
    return blocks


def _match_paren(code: str, open_idx: int) -> int:
    """Offset of the ')' matching code[open_idx] == '('; -1 if unbalanced."""
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


# --------------------------------------------------------------------------
# Per-file facts (cacheable as JSON).
# --------------------------------------------------------------------------


SIG_TRAIL_RE = re.compile(
    r"^(?:\s|const\b|noexcept\b|final\b|override\b|mutable\b|&&?|"
    r"->\s*[\w:<>,\*&\s]+|GDELT_\w+\s*\([^()]*(?:\([^()]*\))?[^()]*\)|"
    r"noexcept\s*\([^)]*\)|:\s*.*)*$", re.S)

CLASS_HEAD_RE = re.compile(r"\b(class|struct)\s+(\w+)\s*(?:final\s*)?"
                           r"(?::[^{;]*)?$")
NAMESPACE_HEAD_RE = re.compile(r"\bnamespace\b[^{;]*$")
MEMBER_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+|constexpr\s+|inline\s+|const\s+)*"
    r"([\w:]+(?:\s*<[\w:<>,\s\*&]*>)?(?:\s*[\*&]+)?)\s+(\w+)\s*"
    r"(?:GDELT_\w+\s*\([^)]*\)\s*)?(?:=[^;]*|\{[^;]*\})?;\s*$")
LOCAL_DECL_RE = re.compile(
    r"(?:^|[;{}\(])\s*(?:const\s+|constexpr\s+|static\s+)*"
    r"([\w:]+(?:\s*<[\w:<>,\s\*&]*>)?(?:\s*[\*&]+)?)\s+(\w+)\s*"
    r"(=[^;]*|\([^;]*\)|\{[^;]*\})?;")
AUTO_MAKE_RE = re.compile(r"make_(?:shared|unique)\s*<\s*([\w:]+)")

TYPE_KEYWORDS = frozenset({
    "const", "constexpr", "static", "mutable", "inline", "return",
    "auto", "void", "bool", "char", "int", "long", "short", "float",
    "double", "unsigned", "signed", "if", "for", "while", "else", "new",
    "delete", "case", "break", "continue", "throw", "struct", "class",
})


def type_tail(type_text: str) -> str:
    """Last project-class-looking identifier in a type, so
    `std::vector<std::unique_ptr<Worker>>&` resolves to `Worker`."""
    ids = re.findall(r"[A-Za-z_]\w*", type_text)
    for name in reversed(ids):
        if name not in TYPE_KEYWORDS and name not in (
                "std", "vector", "unique_ptr", "shared_ptr", "deque",
                "string", "string_view", "optional", "span", "map",
                "unordered_map", "list", "array", "atomic", "pair",
                "size_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t",
                "int8_t", "int16_t", "int32_t", "int64_t"):
            return name
    return ""


class FileFacts:
    """Everything the rules need about one file, JSON-serializable."""

    def __init__(self) -> None:
        self.classes: Dict[str, Dict[str, str]] = {}
        self.functions: List[dict] = []
        self.suppressions: List[dict] = []
        self.frontend = "builtin"

    def to_json(self) -> dict:
        return {
            "classes": self.classes,
            "functions": self.functions,
            "suppressions": self.suppressions,
            "frontend": self.frontend,
        }

    @staticmethod
    def from_json(data: dict) -> "FileFacts":
        f = FileFacts()
        f.classes = data["classes"]
        f.functions = data["functions"]
        f.suppressions = data["suppressions"]
        f.frontend = data.get("frontend", "builtin")
        return f


def _collect_suppressions(src: Source) -> List[dict]:
    out = []
    for line, text in sorted(src.comments.items()):
        m = ALLOW_TAG_RE.search(text)
        if m:
            reason = m.group(2).strip().lstrip("—-–: ").strip()
            out.append({"line": line, "rule": m.group(1),
                        "reason": reason})
        if LEGACY_CANCEL_TAG in text:
            tail = text.split(LEGACY_CANCEL_TAG, 1)[1]
            out.append({"line": line, "rule": "cancel-poll",
                        "reason": tail.strip().lstrip("—-–: ").strip(),
                        "legacy": True})
    return out


def _class_context(src: Source, offset: int) -> str:
    """Name of the innermost class/struct block containing offset."""
    name = ""
    for b, e in src.enclosing_blocks(offset):
        head = _chunk_before(src.code, b)
        m = CLASS_HEAD_RE.search(head)
        if m:
            name = m.group(2)
    return name


def _chunk_before(code: str, brace: int) -> str:
    """Text between the previous ';', '{', '}' or '#' line and `brace`."""
    j = brace - 1
    depth = 0
    while j >= 0:
        ch = code[j]
        if ch in ">)":
            depth += 1
        elif ch in "<(":
            depth -= 1 if depth > 0 else 0
        elif depth == 0 and ch in ";{}":
            break
        j -= 1
    return code[j + 1:brace]


def _parse_signature(chunk: str) -> Optional[Tuple[str, str, str]]:
    """(ret_type, name, params) if `chunk` looks like a function signature
    ending just before its body's '{'. Handles member-init lists and
    trailing qualifiers; rejects control statements and lambdas."""
    stripped = chunk.strip()
    if not stripped or stripped.endswith(("]", "=", ",", "do", "else",
                                          "try")):
        return None
    first_word = re.match(r"[A-Za-z_]\w*", stripped)
    if first_word and first_word.group(0) in (
            "if", "for", "while", "switch", "catch", "namespace", "class",
            "struct", "enum", "union", "do", "else", "return", "case"):
        return None
    # Find the parameter list: first '(' whose preceding identifier chain
    # is the function name (the part before it must contain no parens —
    # it is the return type, empty for constructors/destructors).
    for m in re.finditer(r"((?:[\w~]+::)*[\w~]+)\s*\(", chunk):
        before = chunk[:m.start()]
        if "(" in before or ")" in before:
            return None  # e.g. macro invocation already consumed parens
        name = m.group(1)
        base = name.rsplit("::", 1)[-1].lstrip("~")
        if base in KEYWORDS:
            return None
        open_idx = m.end() - 1
        close = _match_paren(chunk, open_idx)
        if close < 0:
            return None
        trail = chunk[close + 1:]
        if not SIG_TRAIL_RE.match(trail):
            return None
        ret = before.strip()
        if re.search(r"\boperator\b", ret + name):
            return None
        return ret, name, chunk[open_idx + 1:close]
    return None


def _parse_params(params: str) -> List[Tuple[str, str]]:
    out = []
    depth = 0
    start = 0
    parts = []
    for i, ch in enumerate(params):
        if ch in "<([":
            depth += 1
        elif ch in ">)]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(params[start:i])
            start = i + 1
    parts.append(params[start:])
    for p in parts:
        p = p.split("=")[0].strip()
        if not p or p == "void":
            continue
        m = re.match(r"(.+?)\s*[\*&]*\s*(\w+)\s*$", p)
        if m and m.group(2) not in TYPE_KEYWORDS:
            out.append((m.group(2), m.group(1)))
    return out


def _collect_classes(src: Source) -> Dict[str, Dict[str, str]]:
    classes: Dict[str, Dict[str, str]] = {}
    for b, e in src.blocks:
        head = _chunk_before(src.code, b)
        m = CLASS_HEAD_RE.search(head)
        if not m:
            continue
        cls = m.group(2)
        members = classes.setdefault(cls, {})
        # Member declarations at this block's own depth only.
        inner = [(ib, ie) for ib, ie in src.blocks if b < ib < e]
        body = src.code[b + 1:e]
        # Blank nested blocks so method bodies don't contribute decls.
        body_chars = list(body)
        for ib, ie in inner:
            for k in range(ib - b - 1, min(ie - b, len(body_chars))):
                if body_chars[k] != "\n":
                    body_chars[k] = " "
        # Access-specifier labels would otherwise prefix (and break) the
        # declaration that follows them.
        body_text = re.sub(r"\b(?:public|private|protected)\s*:(?!:)", " ",
                           "".join(body_chars))
        for stmt in body_text.split(";"):
            dm = MEMBER_DECL_RE.match(stmt + ";")
            if dm:
                members[dm.group(2)] = dm.group(1)
    return classes


def _function_records(src: Source) -> List[dict]:
    fns = []
    for b, e in src.blocks:
        chunk = _chunk_before(src.code, b)
        sig = _parse_signature(chunk)
        if not sig:
            continue
        ret, name, params = sig
        cls = ""
        if "::" in name:
            cls = name.rsplit("::", 2)[-2]
        else:
            cls = _class_context(src, b)
        # Skip blocks that are nested inside another function body (the
        # enclosing record already covers their statements; lambdas and
        # local structs must not double-report).
        enclosing = src.enclosing_blocks(b)
        nested = False
        for eb, _ee in enclosing:
            ch = _chunk_before(src.code, eb)
            s2 = _parse_signature(ch)
            if s2:
                nested = True
                break
        if nested:
            continue
        fns.append({
            "name": name.rsplit("::", 1)[-1],
            "qual": name,
            "cls": cls,
            "ret": ret,
            "params": _parse_params(params),
            "body": [b + 1, e],
            "line": src.line_of(b),
        })
    return fns


# ----- statement-level facts inside one function body ---------------------


def _scope_end(src: Source, offset: int, body_end: int) -> int:
    blk = src.innermost_block(offset)
    if blk is None:
        return body_end
    return min(blk[1], body_end)


def _collect_locals(code: str, base: int, src: Source) -> List[dict]:
    out = []
    for m in LOCAL_DECL_RE.finditer(code):
        type_text, name = m.group(1), m.group(2)
        init = (m.group(3) or "")
        first = re.match(r"[A-Za-z_]\w*", type_text.strip())
        if not first or first.group(0) in ("return", "delete", "throw",
                                           "case", "goto", "new"):
            continue
        if type_text.strip() == "auto":
            am = AUTO_MAKE_RE.search(init)
            type_text = am.group(1) if am else "auto"
        out.append({"name": name, "type": type_text.strip(),
                    "init": init.lstrip("=({").strip(),
                    "line": src.line_of(base + m.start(2))})
    return out


def _collect_statement_facts(src: Source, fn: dict) -> None:
    b, e = fn["body"]
    code = src.code[b:e]

    locks = []
    for m in LOCK_RE.finditer(code):
        open_idx = b + m.end() - 1
        close = _match_paren(src.code, open_idx)
        expr = src.code[open_idx + 1:close] if close > 0 else ""
        locks.append({
            "var": m.group(1),
            "expr": re.sub(r"\s+", "", expr),
            "line": src.line_of(b + m.start()),
            "scope_end_line": src.line_of(_scope_end(src, b + m.start(), e)),
            "off": b + m.start(),
            "scope_end_off": _scope_end(src, b + m.start(), e),
        })
    fn["locks"] = locks

    calls = []
    for m in CALL_RE.finditer(code):
        name = m.group(3)
        if name in KEYWORDS or name in ("MutexLock",):
            continue
        recv = ""
        sep = m.group(2) or ""
        if sep in (".", "->") and m.group(1):
            recv = m.group(1)
        elif sep == "::":
            recv = ""
        calls.append({"recv": re.sub(r"[\)\]]+$", "", recv), "name": name,
                      "line": src.line_of(b + m.start(3)),
                      "off": b + m.start(3)})
    fn["calls"] = calls

    returns = []
    for m in re.finditer(r"\breturn\b", code):
        semi = code.find(";", m.end())
        if semi < 0:
            continue
        returns.append({"expr": code[m.end():semi].strip(),
                        "line": src.line_of(b + m.start())})
    fn["returns"] = returns

    loops = []
    for m in re.finditer(r"\b(for|while)\s*\(", code):
        open_idx = b + m.end() - 1
        close = _match_paren(src.code, open_idx)
        if close < 0:
            continue
        header = src.code[open_idx + 1:close]
        # Body: next '{' block, or a single statement up to ';'.
        k = close + 1
        while k < e and src.code[k] in " \n\t":
            k += 1
        if k < e and src.code[k] == "{":
            blk = next(((bb, ee) for bb, ee in src.blocks if bb == k), None)
            body_b, body_e = (blk if blk else (k, e))
        else:
            body_b, body_e = k, max(k, src.code.find(";", k, e))
        loops.append({
            "header": header,
            "line": src.line_of(b + m.start()),
            "body": [body_b, body_e],
            "polls": bool(
                CANCEL_POLL_RE.search(src.code[body_b:body_e]) or
                CANCEL_POLL_RE.search(header)),
        })
    fn["loops"] = loops

    allocs = []
    for m in ALLOC_RE.finditer(code):
        open_idx = b + m.end() - 1
        close = _match_paren(src.code, open_idx)
        if close < 0:
            continue
        args = src.code[open_idx + 1:close]
        arg_list = _split_args(args)
        size_arg = arg_list[0] if arg_list else ""
        # string::assign(ptr, len) / vector::assign(first, last): the
        # first argument is a pointer, the count (if any) comes second.
        if len(arg_list) >= 2 and (
                "_cast<" in size_arg or ".data()" in size_arg or
                size_arg.lstrip().startswith("&")):
            size_arg = arg_list[1]
        allocs.append({"method": m.group(1),
                       "size": size_arg.strip(),
                       "line": src.line_of(b + m.start()),
                       "off": b + m.start()})
    fn["allocs"] = allocs

    guards = []
    for m in GUARD_RE.finditer(code):
        open_idx = b + m.end() - 1
        close = _match_paren(src.code, open_idx)
        if close < 0:
            continue
        cond = src.code[open_idx + 1:close]
        k = close + 1
        while k < e and src.code[k] in " \n\t":
            k += 1
        if k < e and src.code[k] == "{":
            blk = next(((bb, ee) for bb, ee in src.blocks if bb == k), None)
            body_b, body_e = (blk if blk else (k, e))
        else:
            body_b, body_e = k, max(k, src.code.find(";", k, e))
        body_text = src.code[body_b:body_e]
        kind = m.group(1)
        guards.append({
            "cond": cond,
            "kind": kind,
            "line": src.line_of(b + m.start()),
            "body": [body_b, body_e],
            "body_end_line": src.line_of(body_e),
            "exits": bool(EARLY_EXIT_RE.search(body_text)) or
            kind in ("assert", "GDELT_CHECK"),
            "scope_end_line": src.line_of(_scope_end(src, b + m.start(), e)),
        })
    fn["guards"] = guards

    fn["locals"] = _collect_locals(code, b, src)
    fn["body_lines"] = [src.line_of(b), src.line_of(e)]
    del fn["body"]
    for lk in fn["locks"]:
        del lk["off"], lk["scope_end_off"]
    for c in fn["calls"]:
        del c["off"]
    for a in fn["allocs"]:
        del a["off"]
    for lp in fn["loops"]:
        lp["body_lines"] = [src.line_of(lp["body"][0]),
                            src.line_of(lp["body"][1])]
        del lp["body"]
    for g in fn["guards"]:
        g["body_lines"] = [src.line_of(g["body"][0]),
                           src.line_of(g["body"][1])]
        del g["body"]


# --------------------------------------------------------------------------
# Clang frontend: function inventory from -ast-dump=json.
# --------------------------------------------------------------------------


def load_compile_db(build_dir: str) -> Dict[str, List[str]]:
    path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(path):
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, ValueError):
        return {}
    db: Dict[str, List[str]] = {}
    for entry in entries:
        f = os.path.normpath(os.path.join(entry.get("directory", "."),
                                          entry["file"]))
        if "command" in entry:
            args = shlex.split(entry["command"])
        else:
            args = list(entry.get("arguments", []))
        db[f] = args
    return db


def find_clang() -> Optional[str]:
    for cand in ("clang++", "clang++-20", "clang++-19", "clang++-18",
                 "clang++-17", "clang++-16", "clang++-15", "clang++-14"):
        try:
            subprocess.run([cand, "--version"], capture_output=True,
                           check=False)
            return cand
        except OSError:
            continue
    return None


def _clang_flags(args: List[str]) -> List[str]:
    """Compile flags without compiler/-c/-o/input, suitable for reuse."""
    out = []
    skip = False
    for a in args[1:]:
        if skip:
            skip = False
            continue
        if a in ("-c", "-o"):
            skip = a == "-o"
            continue
        if a.endswith((".cpp", ".cc", ".o")):
            continue
        out.append(a)
    return out


def clang_function_inventory(clang: str, path: str,
                             flags: List[str]) -> Optional[List[dict]]:
    """[{qual, line_begin, line_end, ret}] from clang's JSON AST, or None
    if clang or the JSON walk fails (caller falls back to builtin)."""
    cmd = [clang] + flags + ["-fsyntax-only", "-Xclang", "-ast-dump=json",
                             "-Wno-everything", path]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=False, timeout=120)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0 or not proc.stdout:
        return None
    try:
        root = json.loads(proc.stdout)
    except ValueError:
        return None

    want = os.path.abspath(path)
    fns: List[dict] = []

    def walk(node: dict, cls: str, cur_file: List[str]) -> None:
        if not isinstance(node, dict):
            return
        loc = node.get("loc") or {}
        f = loc.get("file") or (loc.get("spellingLoc") or {}).get("file")
        if f:
            cur_file = [os.path.abspath(f)]
        kind = node.get("kind", "")
        if kind in ("CXXRecordDecl", "ClassTemplateDecl"):
            cls = node.get("name", cls)
        if kind in ("FunctionDecl", "CXXMethodDecl", "CXXConstructorDecl",
                    "CXXDestructorDecl") and cur_file[0] == want:
            rng = node.get("range") or {}
            begin = (rng.get("begin") or {}).get("line") or \
                ((rng.get("begin") or {}).get("expansionLoc") or {}).get(
                    "line")
            end = (rng.get("end") or {}).get("line") or \
                ((rng.get("end") or {}).get("expansionLoc") or {}).get("line")
            qtype = (node.get("type") or {}).get("qualType", "")
            ret = qtype.split("(")[0].strip()
            has_body = any(isinstance(c, dict) and
                           c.get("kind") == "CompoundStmt"
                           for c in node.get("inner", []))
            if begin and end and has_body:
                name = node.get("name", "")
                fns.append({"qual": (cls + "::" + name) if cls else name,
                            "cls": cls, "name": name, "ret": ret,
                            "line_begin": begin, "line_end": end})
        for child in node.get("inner", []) or []:
            walk(child, cls, cur_file)

    try:
        walk(root, "", [""])
    except RecursionError:
        return None
    return fns


def merge_clang_inventory(facts: FileFacts, inventory: List[dict]) -> None:
    """Clang's return types and qualified names are authoritative where a
    builtin record overlaps a clang record's extent."""
    for fn in facts.functions:
        line = fn["line"]
        for c in inventory:
            if c["line_begin"] <= line <= c["line_end"] and \
                    c["name"] == fn["name"]:
                fn["ret"] = c["ret"] or fn["ret"]
                if c["cls"]:
                    fn["cls"] = c["cls"]
                break
    facts.frontend = "clang"


# --------------------------------------------------------------------------
# Facts extraction with caching.
# --------------------------------------------------------------------------


def extract_facts(path: str, frontend: str, clang: Optional[str],
                  compile_db: Dict[str, List[str]],
                  cache_dir: Optional[str]) -> FileFacts:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()

    use_clang = frontend == "clang" or (
        frontend == "auto" and clang is not None and
        os.path.abspath(path) in compile_db)
    mode = "clang" if use_clang and clang else "builtin"

    key = hashlib.sha256(
        (text + "|" + mode + "|" + str(ANALYZER_VERSION)).encode()
    ).hexdigest()
    cache_path = os.path.join(cache_dir, key + ".json") if cache_dir else None
    if cache_path and os.path.isfile(cache_path):
        try:
            with open(cache_path, encoding="utf-8") as fh:
                return FileFacts.from_json(json.load(fh))
        except (OSError, ValueError, KeyError):
            pass

    src = Source(path, text)
    facts = FileFacts()
    facts.classes = _collect_classes(src)
    facts.functions = _function_records(src)
    for fn in facts.functions:
        _collect_statement_facts(src, fn)
    facts.suppressions = _collect_suppressions(src)

    if mode == "clang":
        args = compile_db.get(os.path.abspath(path))
        flags = _clang_flags(args) if args else []
        inventory = clang_function_inventory(clang, path, flags)
        if inventory is not None:
            merge_clang_inventory(facts, inventory)
        # else: builtin facts stand; the run is still valid.

    if cache_path:
        try:
            os.makedirs(cache_dir, exist_ok=True)
            tmp = cache_path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(facts.to_json(), fh)
            os.replace(tmp, cache_path)
        except OSError:
            pass
    return facts


# --------------------------------------------------------------------------
# Suppression helpers.
# --------------------------------------------------------------------------


class SuppressionIndex:
    def __init__(self, facts_by_file: Dict[str, FileFacts]):
        self.by_file = facts_by_file
        self.used: Set[Tuple[str, int]] = set()

    def suppressed(self, rel: str, line: int, rule: str) -> bool:
        facts = self.by_file.get(rel)
        if not facts:
            return False
        for s in facts.suppressions:
            if s["rule"] != rule and not (
                    rule == "cancel-poll" and s.get("legacy")):
                continue
            if s["rule"] == rule or (rule == "cancel-poll"
                                     and s.get("legacy")):
                if s["line"] <= line <= s["line"] + ALLOW_WINDOW:
                    self.used.add((rel, s["line"]))
                    return True
        return False

    def bare_allow_findings(self) -> List[Finding]:
        out = []
        for rel, facts in self.by_file.items():
            for s in facts.suppressions:
                if s.get("legacy"):
                    continue  # the legacy tag's contract lives in gdelt_lint
                if s["rule"] not in RULES:
                    out.append(Finding(
                        rel, s["line"], "bare-allow",
                        f"allow({s['rule']}) names no known rule "
                        f"(known: {', '.join(RULES)})"))
                elif len(s["reason"]) < MIN_JUSTIFICATION:
                    out.append(Finding(
                        rel, s["line"], "bare-allow",
                        f"allow({s['rule']}) carries no justification; "
                        "state why the rule does not apply here "
                        "(e.g. `// gdelt-astcheck: allow(view-escape) — "
                        "snapshot is immutable after publication`)"))
        return out


# --------------------------------------------------------------------------
# Rule: lock-order.
# --------------------------------------------------------------------------


def _resolve_type_of(name: str, fn: dict, facts: FileFacts,
                     classes: Dict[str, Dict[str, str]]) -> str:
    for p_name, p_type in fn.get("params", []):
        if p_name == name:
            return p_type
    for loc in fn.get("locals", []):
        if loc["name"] == name:
            return loc["type"]
    cls = fn.get("cls", "")
    if cls and cls in classes and name in classes[cls]:
        return classes[cls][name]
    return ""


def _mutex_id(expr: str, fn: dict, facts: FileFacts,
              classes: Dict[str, Dict[str, str]]) -> str:
    e = expr.replace("this->", "").lstrip("&*")
    parts = re.split(r"->|\.", e)
    parts = [re.sub(r"\[.*?\]", "", p) for p in parts if p]
    if not parts:
        return "?:" + expr
    if len(parts) == 1:
        name = parts[0]
        cls = fn.get("cls", "")
        if cls and name in classes.get(cls, {}):
            return f"{cls}::{name}"
        if cls and name.endswith("_"):
            return f"{cls}::{name}"
        return f"::{name}"
    # Chain: resolve the base, then walk member types.
    base_type = _resolve_type_of(parts[0], fn, facts, classes)
    cur = type_tail(base_type) if base_type else ""
    for member in parts[1:-1]:
        if cur and member in classes.get(cur, {}):
            cur = type_tail(classes[cur][member])
        else:
            cur = ""
            break
    if cur:
        return f"{cur}::{parts[-1]}"
    return "?:" + e


def _resolve_callee(call: dict, fn: dict, facts_by_file: Dict[str, FileFacts],
                    classes: Dict[str, Dict[str, str]],
                    fn_index: Dict[str, List[Tuple[str, dict]]]) -> Optional[
                        Tuple[str, dict]]:
    name = call["name"]
    cands = fn_index.get(name, [])
    if not cands:
        return None
    recv = call["recv"]
    if recv:
        recv_base = re.split(r"->|\.", recv.replace("this->", ""))[0]
        recv_base = re.sub(r"\[.*?\]", "", recv_base)
        rtype = _resolve_type_of(recv_base, fn,
                                 facts_by_file.get("", FileFacts()), classes)
        cls = type_tail(rtype) if rtype else ""
        if cls:
            matches = [c for c in cands if c[1].get("cls") == cls]
            if len(matches) == 1:
                return matches[0]
        return None
    # Unqualified: same class first, then a unique project-wide match.
    same = [c for c in cands if c[1].get("cls") == fn.get("cls")]
    if len(same) == 1:
        return same[0]
    if len(cands) == 1 and not cands[0][1].get("cls"):
        return cands[0]
    return None


def check_lock_order(facts_by_file: Dict[str, FileFacts],
                     supp: SuppressionIndex) -> List[Finding]:
    classes: Dict[str, Dict[str, str]] = {}
    for facts in facts_by_file.values():
        for cls, members in facts.classes.items():
            classes.setdefault(cls, {}).update(members)

    fn_index: Dict[str, List[Tuple[str, dict]]] = {}
    for rel, facts in facts_by_file.items():
        for fn in facts.functions:
            fn_index.setdefault(fn["name"], []).append((rel, fn))

    # Direct-acquisition summaries, then a small fixpoint over calls.
    summary: Dict[int, Set[str]] = {}
    for rel, facts in facts_by_file.items():
        for fn in facts.functions:
            ids = set()
            for lk in fn["locks"]:
                ids.add(_mutex_id(lk["expr"], fn, facts, classes))
            summary[id(fn)] = ids
    for _ in range(6):
        changed = False
        for rel, facts in facts_by_file.items():
            for fn in facts.functions:
                for call in fn["calls"]:
                    # Receiver types may live in this file's facts.
                    target = _resolve_callee(
                        call, _with_ctx(fn, facts), facts_by_file, classes,
                        fn_index)
                    if target is None:
                        continue
                    extra = summary.get(id(target[1]), set())
                    if not extra <= summary[id(fn)]:
                        summary[id(fn)] |= extra
                        changed = True
        if not changed:
            break

    # Edges from nesting: lock (or call that locks) inside a held scope.
    edges: Dict[Tuple[str, str], Tuple[str, int, str]] = {}
    for rel, facts in facts_by_file.items():
        for fn in facts.functions:
            held: List[Tuple[str, dict]] = [
                (_mutex_id(lk["expr"], fn, facts, classes), lk)
                for lk in fn["locks"]]
            for mid, lk in held:
                for mid2, lk2 in held:
                    if lk2 is lk:
                        continue
                    if lk["line"] < lk2["line"] <= lk["scope_end_line"]:
                        edges.setdefault(
                            (mid, mid2),
                            (rel, lk2["line"], fn["qual"]))
            for call in fn["calls"]:
                target = _resolve_callee(call, _with_ctx(fn, facts),
                                         facts_by_file, classes, fn_index)
                if target is None:
                    continue
                acquired = summary.get(id(target[1]), set())
                if not acquired:
                    continue
                for mid, lk in held:
                    if lk["line"] < call["line"] <= lk["scope_end_line"]:
                        for mid2 in acquired:
                            if mid2 != mid:
                                edges.setdefault(
                                    (mid, mid2),
                                    (rel, call["line"],
                                     fn["qual"] + " -> " + call["name"]))

    # Cycle detection over the acquisition graph.
    graph: Dict[str, Set[str]] = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
    findings = []
    seen_cycles: Set[Tuple[str, ...]] = set()

    def dfs(start: str) -> None:
        stack = [(start, [start])]
        while stack:
            node, path = stack.pop()
            for nxt in sorted(graph.get(node, ())):
                if nxt == start and len(path) > 1:
                    rot = min(range(len(path)),
                              key=lambda i: path[i])
                    canon = tuple(path[rot:] + path[:rot])
                    if canon in seen_cycles:
                        continue
                    seen_cycles.add(canon)
                    witness = []
                    cyc = list(path) + [start]
                    for i in range(len(cyc) - 1):
                        rel, line, where = edges[(cyc[i], cyc[i + 1])]
                        witness.append(
                            f"{cyc[i]} -> {cyc[i + 1]} at {rel}:{line} "
                            f"({where})")
                    rel0, line0, _ = edges[(cyc[0], cyc[1])]
                    if not supp.suppressed(rel0, line0, "lock-order"):
                        findings.append(Finding(
                            rel0, line0, "lock-order",
                            "mutex acquisition cycle (potential deadlock): "
                            + "; ".join(witness)))
                elif nxt not in path:
                    stack.append((nxt, path + [nxt]))

    for node in sorted(graph):
        dfs(node)
    return findings


def _with_ctx(fn: dict, facts: FileFacts) -> dict:
    """The resolver needs the fn's own locals/params plus its file's
    member maps; fn already carries the former, classes arg the latter."""
    return fn


# --------------------------------------------------------------------------
# Rule: view-escape.
# --------------------------------------------------------------------------


def _is_owning(type_text: str) -> str:
    """'' | 'owning' | 'stable' for a declared type."""
    if DEQUE_OF_STRING_RE.search(type_text):
        return "stable"
    if OWNING_TYPE_RE.search(type_text) or \
            VECTOR_OF_STRING_RE.search(type_text):
        return "owning"
    if re.search(r"\bstd::vector\s*<", type_text) and \
            "string_view" not in type_text:
        return "owning"  # vector<T> data()/element views dangle on realloc
    return ""


def _member_chain_kind(expr: str, fn: dict,
                       classes: Dict[str, Dict[str, str]]) -> str:
    """Classifies a returned expression that walks into members: 'owning'
    when the terminal storage is a reallocatable string container."""
    chain = re.split(r"->|\.", expr.replace("this->", ""))
    chain = [c.strip() for c in chain if c.strip()]
    if not chain:
        return ""
    first = re.match(r"(\w+)\s*(\[.*\])?$", chain[0])
    if not first:
        return ""
    base = first.group(1)
    cls = fn.get("cls", "")
    # The base must be a member of the enclosing class (or a local whose
    # type we can resolve into the class map).
    base_type = ""
    if cls and base in classes.get(cls, {}):
        base_type = classes[cls][base]
    else:
        for loc in fn.get("locals", []):
            if loc["name"] == base:
                base_type = loc["type"]
        for p_name, p_type in fn.get("params", []):
            if p_name == base:
                return ""  # parameter-derived: caller owns the storage
    if not base_type:
        return ""
    cur_type = base_type
    for part in chain[1:]:
        m = re.match(r"(\w+)\s*(\(.*)?(\[.*\])?$", part)
        if not m:
            return ""
        member = m.group(1)
        if m.group(2) is not None:  # method call on the way: give up
            if member in ("data", "c_str", "substr", "back", "front"):
                return _is_owning(cur_type) and "owning" or ""
            return ""
        tail = type_tail(cur_type)
        if tail and member in classes.get(tail, {}):
            cur_type = classes[tail][member]
        else:
            return ""
    kind = _is_owning(cur_type)
    # Indexing a vector<string> (or similar) yields a reference into
    # reallocatable storage; a whole-object mention is only a copy.
    last = chain[-1]
    if kind == "owning" and ("[" in last or last.endswith("()")):
        return "owning"
    if kind == "owning" and VECTOR_OF_STRING_RE.search(cur_type) and \
            "[" in expr:
        return "owning"
    if kind == "owning" and OWNING_TYPE_RE.search(cur_type):
        return "owning"
    return ""


def check_view_escape(facts_by_file: Dict[str, FileFacts],
                      supp: SuppressionIndex) -> List[Finding]:
    classes: Dict[str, Dict[str, str]] = {}
    for facts in facts_by_file.values():
        for cls, members in facts.classes.items():
            classes.setdefault(cls, {}).update(members)

    findings = []
    for rel, facts in facts_by_file.items():
        for fn in facts.functions:
            if not VIEW_RET_RE.search(fn.get("ret", "")):
                continue
            local_types = {loc["name"]: loc["type"]
                           for loc in fn.get("locals", [])}
            param_names = {p for p, _t in fn.get("params", [])}
            for ret in fn.get("returns", []):
                expr = ret["expr"].strip()
                if not expr or expr in ("{}", "nullptr"):
                    continue
                line = ret["line"]
                reason = ""
                # A braced return `{ptr_expr, len_expr}` builds the view
                # from its components; a dangling component dangles the
                # whole view, so each is classified separately.
                if expr.startswith("{") and expr.endswith("}"):
                    components = _split_args(expr[1:-1])
                else:
                    components = [expr]
                # Case 1: returning an owning local (implicit conversion
                # to view: the exact SSO dangling-string class).
                m = re.match(r"^\{?\s*(\w+)\s*[\}\s]*$", expr)
                if m and m.group(1) in local_types and \
                        _is_owning(local_types[m.group(1)]) == "owning":
                    reason = (f"returns a view of local "
                              f"`{m.group(1)}` "
                              f"({local_types[m.group(1)]}); the storage "
                              "dies with this frame (SSO strings die even "
                              "when the heap block would survive)")
                # Case 2: view built over an owning local's storage.
                if not reason:
                    for name, type_text in local_types.items():
                        if _is_owning(type_text) != "owning":
                            continue
                        if name in param_names:
                            continue
                        if re.search(
                                r"\b" + re.escape(name) +
                                r"\s*(\.|\[)\s*"
                                r"(data\b|c_str\b|substr\b|back\b|front\b|"
                                r"\d|\w)?", expr):
                            reason = (
                                f"returns a view into local `{name}` "
                                f"({type_text}); the storage dies when the "
                                "function returns")
                            break
                # Case 3: view of a temporary created in the return.
                if not reason and TEMP_OWNER_RE.search(expr):
                    reason = ("returns a view of a temporary string; the "
                              "temporary is destroyed before the caller "
                              "can look at the view")
                # Case 4: view into a reallocatable container member.
                if not reason and any(
                        _member_chain_kind(c, fn, classes) == "owning"
                        for c in components):
                    reason = (
                        "returns a view into a reallocatable container "
                        "member; a mutation that grows the container "
                        "invalidates the view (the PR 5 "
                        "DeltaStore::source_domain bug class)")
                if reason and not supp.suppressed(rel, line, "view-escape"):
                    findings.append(Finding(
                        rel, line, "view-escape",
                        f"{fn['qual']} {reason}; return std::string by "
                        "value, point at stable storage, or annotate "
                        "`// gdelt-astcheck: allow(view-escape)` with the "
                        "lifetime contract"))
    return findings


# --------------------------------------------------------------------------
# Rule: snapshot-discipline.
# --------------------------------------------------------------------------


def check_snapshot_discipline(facts_by_file: Dict[str, FileFacts],
                              supp: SuppressionIndex) -> List[Finding]:
    classes: Dict[str, Dict[str, str]] = {}
    for facts in facts_by_file.values():
        for cls, members in facts.classes.items():
            classes.setdefault(cls, {}).update(members)

    findings = []
    for rel, facts in facts_by_file.items():
        for fn in facts.functions:
            store_vars: Set[str] = set()
            for p_name, p_type in fn.get("params", []):
                if "DeltaStore" in p_type:
                    store_vars.add(p_name)
            for loc in fn.get("locals", []):
                if "DeltaStore" in loc["type"]:
                    store_vars.add(loc["name"])
            cls = fn.get("cls", "")
            for name, type_text in classes.get(cls, {}).items():
                if "DeltaStore" in type_text and "Snapshot" not in type_text:
                    store_vars.add(name)
            if not store_vars:
                continue
            by_recv: Dict[str, List[dict]] = {}
            for call in fn.get("calls", []):
                if call["name"] not in DELTA_ACCESSORS:
                    continue
                recv = re.sub(r"\[.*?\]", "",
                              call["recv"].replace("this->", ""))
                if recv in store_vars:
                    by_recv.setdefault(recv, []).append(call)
            for recv, calls in sorted(by_recv.items()):
                if len(calls) < 2:
                    continue
                second = sorted(calls, key=lambda c: c["line"])[1]
                lines = ", ".join(str(c["line"])
                                  for c in sorted(calls,
                                                  key=lambda c: c["line"]))
                if supp.suppressed(rel, second["line"],
                                   "snapshot-discipline"):
                    continue
                findings.append(Finding(
                    rel, second["line"], "snapshot-discipline",
                    f"{fn['qual']} calls {len(calls)} DeltaStore "
                    f"convenience accessors on `{recv}` (lines {lines}); "
                    "each acquires its own snapshot, so the values can "
                    "straddle an ingest tick — call Acquire() once and "
                    "read every fact from that snapshot"))
    return findings


# --------------------------------------------------------------------------
# Rule: cancel-poll.
# --------------------------------------------------------------------------


def in_cancel_scope(rel: str) -> bool:
    p = rel.replace(os.sep, "/")
    return any(seg in p for seg in ("/analysis/", "/engine/", "/stream/")) \
        or p.startswith(("analysis/", "engine/", "stream/"))


def check_cancel_poll(facts_by_file: Dict[str, FileFacts],
                      supp: SuppressionIndex) -> List[Finding]:
    findings = []
    for rel, facts in facts_by_file.items():
        if not in_cancel_scope(rel):
            continue
        for fn in facts.functions:
            for loop in fn.get("loops", []):
                if not ROW_LOOP_RE.search(loop["header"]):
                    continue
                if loop["polls"]:
                    continue
                if supp.suppressed(rel, loop["line"], "cancel-poll"):
                    continue
                findings.append(Finding(
                    rel, loop["line"], "cancel-poll",
                    f"{fn['qual']}: full row-range loop (lines "
                    f"{loop['body_lines'][0]}-{loop['body_lines'][1]}) "
                    "never consults the cancel token anywhere in its "
                    "body; poll util::Cancelled(cancel) every few hundred "
                    "rows or annotate "
                    "`// gdelt-astcheck: allow(cancel-poll)` with a "
                    "reason"))
    return findings


# --------------------------------------------------------------------------
# Rule: bounded-alloc.
# --------------------------------------------------------------------------


def in_alloc_scope(rel: str) -> bool:
    p = rel.replace(os.sep, "/")
    if any(seg in p for seg in ("/io/", "/columnar/")) or \
            p.startswith(("io/", "columnar/")):
        return True
    return p.endswith(("serve/partial.cpp", "serve/protocol.cpp",
                       "serve/json.cpp"))


def _size_idents(size_expr: str) -> Set[str]:
    """Plain identifiers in a size expression that could carry untrusted
    magnitudes: not call names, not receivers of calls."""
    out = set()
    for m in IDENT_RE.finditer(size_expr):
        name = m.group(0)
        if name in GENERIC_IDENTS or name in KEYWORDS:
            continue
        after = size_expr[m.end():].lstrip()
        if after.startswith(("(", ".", "->", "::")):
            continue  # function name or object whose member is consumed
        before = size_expr[:m.start()].rstrip()
        if before.endswith((".", "->", "::")):
            continue  # member access: handled via the receiver
        out.add(name)
    return out


def check_bounded_alloc(facts_by_file: Dict[str, FileFacts],
                        supp: SuppressionIndex) -> List[Finding]:
    findings = []
    for rel, facts in facts_by_file.items():
        if not in_alloc_scope(rel):
            continue
        for fn in facts.functions:
            local_init = {loc["name"]: loc.get("init", "")
                          for loc in fn.get("locals", [])}
            guards = fn.get("guards", [])
            for alloc in fn.get("allocs", []):
                size = alloc["size"]
                if not size:
                    continue
                if CLAMP_TOKEN_RE.search(size):
                    continue
                idents = _size_idents(size)
                if not idents:
                    continue
                unbounded = []
                for ident in sorted(idents):
                    init = local_init.get(ident, "")
                    if init and CLAMP_TOKEN_RE.search(init):
                        continue  # initialized from a clamping expression
                    dominated = False
                    for g in guards:
                        if not re.search(r"\b" + re.escape(ident) + r"\b",
                                         g["cond"]):
                            continue
                        inside = (g["body_lines"][0] <= alloc["line"]
                                  <= g["body_lines"][1])
                        after_exit = (g["exits"] and
                                      g["line"] < alloc["line"] <=
                                      g["scope_end_line"])
                        if inside or after_exit:
                            dominated = True
                            break
                    if not dominated:
                        unbounded.append(ident)
                if not unbounded:
                    continue
                if supp.suppressed(rel, alloc["line"], "bounded-alloc"):
                    continue
                findings.append(Finding(
                    rel, alloc["line"], "bounded-alloc",
                    f"{fn['qual']}: .{alloc['method']}({size}) — size "
                    f"depends on `{', '.join(unbounded)}` with no "
                    "dominating guard naming it; bound it against a "
                    "parsed limit (early-exit `if` or std::min clamp) "
                    "before allocating, or annotate "
                    "`// gdelt-astcheck: allow(bounded-alloc)` with a "
                    "reason"))
    return findings


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------


def collect_files(root: str, paths: List[str]) -> List[str]:
    if not paths:
        src = os.path.join(root, "src")
        if not os.path.isdir(src):
            print(f"gdelt_astcheck: no src/ under {root}", file=sys.stderr)
            sys.exit(2)
        paths = [src]
    files: List[str] = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(full):
            files.append(full)
        elif os.path.isdir(full):
            for dirpath, _dirs, names in os.walk(full):
                for name in sorted(names):
                    if name.endswith(EXTENSIONS):
                        files.append(os.path.join(dirpath, name))
        else:
            print(f"gdelt_astcheck: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="gdelt_astcheck.py",
        description="AST-level semantic analyzer (see module docstring)")
    default_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--root", default=default_root)
    parser.add_argument("--build-dir", default=None,
                        help="build tree with compile_commands.json "
                             "(enables the clang frontend under auto)")
    parser.add_argument("--frontend", choices=("auto", "clang", "builtin"),
                        default="auto")
    parser.add_argument("--cache-dir", default=None,
                        help="AST-facts cache keyed by content hash "
                             "(default: <build-dir>/astcheck-cache when "
                             "--build-dir is given, else no cache)")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write machine-readable findings ('-' = "
                             "stdout)")
    parser.add_argument("--rule", action="append", default=None,
                        choices=RULES, help="run only these rules")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--stats", action="store_true",
                        help="print frontend/cache statistics")
    parser.add_argument("paths", nargs="*")
    args = parser.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    root = os.path.abspath(args.root)
    files = collect_files(root, args.paths)

    compile_db: Dict[str, List[str]] = {}
    clang = None
    if args.frontend in ("auto", "clang"):
        if args.build_dir:
            compile_db = load_compile_db(args.build_dir)
        clang = find_clang()
        if args.frontend == "clang" and (clang is None or not compile_db):
            print("gdelt_astcheck: --frontend clang needs clang++ and "
                  "--build-dir with compile_commands.json", file=sys.stderr)
            return 2

    cache_dir = None
    if not args.no_cache:
        if args.cache_dir:
            cache_dir = args.cache_dir
        elif args.build_dir:
            cache_dir = os.path.join(args.build_dir, "astcheck-cache")

    facts_by_file: Dict[str, FileFacts] = {}
    cache_hits = 0
    for path in files:
        rel = os.path.relpath(path, root)
        before = None
        if cache_dir:
            before = len(os.listdir(cache_dir)) if os.path.isdir(
                cache_dir) else 0
        facts = extract_facts(path, args.frontend, clang, compile_db,
                              cache_dir)
        if cache_dir and before is not None:
            after = len(os.listdir(cache_dir)) if os.path.isdir(
                cache_dir) else 0
            if after == before:
                cache_hits += 1
        facts_by_file[rel] = facts

    supp = SuppressionIndex(facts_by_file)
    selected = set(args.rule) if args.rule else set(RULES)
    findings: List[Finding] = []
    if "lock-order" in selected:
        findings += check_lock_order(facts_by_file, supp)
    if "view-escape" in selected:
        findings += check_view_escape(facts_by_file, supp)
    if "snapshot-discipline" in selected:
        findings += check_snapshot_discipline(facts_by_file, supp)
    if "cancel-poll" in selected:
        findings += check_cancel_poll(facts_by_file, supp)
    if "bounded-alloc" in selected:
        findings += check_bounded_alloc(facts_by_file, supp)
    if "bare-allow" in selected:
        findings += supp.bare_allow_findings()

    findings.sort()
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")

    if args.stats:
        frontends = {}
        for facts in facts_by_file.values():
            frontends[facts.frontend] = frontends.get(facts.frontend, 0) + 1
        print(f"gdelt_astcheck: {len(files)} file(s), frontends={frontends},"
              f" cache_hits={cache_hits}", file=sys.stderr)

    if args.json:
        payload = {
            "version": ANALYZER_VERSION,
            "root": root,
            "files": len(files),
            "findings": [f._asdict() for f in findings],
            "counts": {},
        }
        for f in findings:
            payload["counts"][f.rule] = payload["counts"].get(f.rule, 0) + 1
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")

    if findings:
        print(f"gdelt_astcheck: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("gdelt_astcheck: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
