#!/usr/bin/env python3
"""Determinism linter: forbids constructs that break bit-reproducibility.

SOL's core promise (ROADMAP.md north star) is that a seeded run is
bit-identical across repeats, thread counts, and — for everything the
golden tests fingerprint — machines. Most regressions against that
promise come from a handful of C++ constructs that look harmless in
review. Each rule below names the incident class it prevents:

  wall-clock            A `steady_clock::now()` (or any wall-clock read)
                        that leaks into simulated logic makes behavior
                        depend on host speed: the same seed produces
                        different event orders on a loaded CI runner.
                        Clock reads are only legal inside the designated
                        clock-policy files (the ThreadedRuntime's
                        SteadyClockPolicy and the trace SteadyClock),
                        or behind an explicit pragma for report-only /
                        contention-gated timing that never feeds
                        simulated state.

  unseeded-random       `std::random_device`, `rand()`, `srand()` draw
                        entropy outside the seeded sim::Rng streams, so
                        a failing run cannot be replayed. All randomness
                        must come from sim::Rng (seeded, splittable).

  libm-transcendental   sin/cos/log/pow/... are NOT correctly rounded
                        by IEEE-754; glibc and llvm-libm disagree in the
                        last ulp. A transcendental on a golden-hashed
                        path makes the golden pass on one libm and fail
                        on another. (`sqrt` is exempt: IEEE requires it
                        correctly rounded.) Scoped to src/sim/,
                        src/workloads/, and hash/fingerprint files —
                        the paths whose outputs are golden-fingerprinted.

  float-fingerprint     Floating-point arithmetic inside a hash or
                        fingerprint function feeds rounding noise into
                        the one value that must be exact. Quantize
                        first: `std::llround(value * scale)` is the
                        sanctioned idiom (see trace_driver.cc), so lines
                        using llround/lround are exempt.

  unordered-iteration   Iterating a `std::unordered_map`/`set` yields a
                        libstdc++-specific order; feeding it into
                        serialized or hashed output produces goldens
                        that break on a standard-library upgrade.
                        Membership tests are fine; range-for is not.

Pragmas (every exception is visible and reviewed):
  line:  <code>  // determinism-lint: allow(<rule>)
  file:  // determinism-lint: allow-file(<rule>) -- <reason>
The file form requires a reason after `--`; a bare allow-file is itself
a lint error.

Usage:
  python3 tools/lint_determinism.py [--root REPO] \
      [--compile-commands build/compile_commands.json] [files...]

With no explicit files, lints every *.h/*.cc under <root>/src (the
compile-commands file, when given, narrows the .cc set to what actually
builds). Stdlib-only; exits 1 iff there are findings.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

# Files allowed to read the wall clock: the two clock-policy types that
# deliberately bridge host time into the runtime (and nothing else).
CLOCK_POLICY_FILES = {
    "src/core/threaded_runtime.h",  # SteadyClockPolicy
    "src/telemetry/trace.h",        # trace::SteadyClock
}

# Paths whose outputs are golden-fingerprinted; transcendental libm here
# is a cross-platform hazard (see module docstring).
TRANSCENDENTAL_SCOPES = ("src/sim/", "src/workloads/")

RULES = (
    "wall-clock",
    "unseeded-random",
    "libm-transcendental",
    "float-fingerprint",
    "unordered-iteration",
)

WALL_CLOCK_RE = re.compile(
    r"steady_clock\s*::\s*now|system_clock|high_resolution_clock"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\bstd::time\s*\("
    r"|\blocaltime\s*\(|\bgmtime\s*\("
)

UNSEEDED_RANDOM_RE = re.compile(
    r"\brandom_device\b|\brand\s*\(\s*\)|\bsrand\s*\("
)

# sqrt is deliberately absent: IEEE-754 requires it correctly rounded.
TRANSCENDENTAL_RE = re.compile(
    r"\b(?:std\s*::\s*)?"
    r"(sin|cos|tan|asin|acos|atan|atan2|sinh|cosh|tanh"
    r"|exp|exp2|expm1|log|log2|log10|log1p"
    r"|pow|cbrt|hypot|tgamma|lgamma|erf|erfc)\s*\("
)

# `hashed` is excluded: an Add*Hashed() style function *consumes* a
# precomputed hash; it does not produce one.
FINGERPRINT_NAME_RE = re.compile(
    r"\b[\w:~]*(?:hash(?!ed)|fingerprint|fnv)[\w]*\s*\(", re.IGNORECASE
)

FLOAT_USE_RE = re.compile(r"\b(?:float|double)\b|\b\d+\.\d+")
FLOAT_SANCTIONED_RE = re.compile(r"\bll?round\b|\bstatic_cast<")

UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s*"
    r"(\w+)\s*[;({=]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*?:\s*([\w.\->]+)\s*\)")

LINE_PRAGMA_RE = re.compile(r"determinism-lint:\s*allow\(([\w-]+)\)")
FILE_PRAGMA_RE = re.compile(
    r"determinism-lint:\s*allow-file\(([\w-]+)\)\s*(?:--\s*(.*))?"
)


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line breaks
    so finding line numbers stay exact. Pragma comments are consumed
    separately before this runs."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            seg = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * (min(j, n - 1) - i - 1) + quote)
            i = min(j + 1, n)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def fingerprint_spans(code_lines):
    """Line-number ranges (1-based, inclusive) of function bodies whose
    definition line names a hash/fingerprint function. Brace-matched
    from the first '{' at or after the signature; the span starts at
    that brace, so float *parameters* in the signature don't flag —
    only unquantized arithmetic inside the body does."""
    spans = []
    for idx, line in enumerate(code_lines):
        if not FINGERPRINT_NAME_RE.search(line):
            continue
        if ";" in line.split("(")[0]:
            continue
        depth = 0
        body_begin = None
        for j in range(idx, min(idx + 400, len(code_lines))):
            stretch = code_lines[j]
            if ";" in stretch and body_begin is None:
                break  # Declaration or a call statement, not a body.
            for ch in stretch:
                if ch == "{":
                    depth += 1
                    if body_begin is None:
                        body_begin = j + 1
                elif ch == "}":
                    depth -= 1
            if body_begin is not None and depth == 0:
                spans.append((body_begin, j + 1))
                break
    return spans


def lint_text(rel_path: str, text: str):
    """All findings for one file. `rel_path` uses forward slashes
    relative to the repo root (rule scoping keys off it)."""
    findings = []
    raw_lines = text.splitlines()

    file_allows = {}
    for lineno, raw in enumerate(raw_lines, 1):
        m = FILE_PRAGMA_RE.search(raw)
        if m:
            rule, reason = m.group(1), (m.group(2) or "").strip()
            if rule not in RULES:
                findings.append(Finding(rel_path, lineno, "pragma",
                                        f"unknown rule '{rule}' in allow-file"))
            elif not reason:
                findings.append(Finding(
                    rel_path, lineno, "pragma",
                    "allow-file without a reason; write "
                    f"'allow-file({rule}) -- <why this is safe>'"))
            else:
                file_allows[rule] = reason

    # A pragma suppresses its own line; a comment-only pragma line also
    # covers the next line (for statements too long to share a line).
    line_allows = {}
    for lineno, raw in enumerate(raw_lines, 1):
        m = LINE_PRAGMA_RE.search(raw)
        if m:
            line_allows.setdefault(lineno, set()).add(m.group(1))
            if raw.lstrip().startswith("//"):
                line_allows.setdefault(lineno + 1, set()).add(m.group(1))

    code = strip_comments_and_strings(text)
    code_lines = code.splitlines()

    def emit(lineno: int, rule: str, message: str):
        if rule in file_allows:
            return
        if rule in line_allows.get(lineno, ()):  # same-line pragma
            return
        findings.append(Finding(rel_path, lineno, rule, message))

    in_clock_policy = rel_path in CLOCK_POLICY_FILES
    for lineno, line in enumerate(code_lines, 1):
        if not in_clock_policy:
            m = WALL_CLOCK_RE.search(line)
            if m:
                emit(lineno, "wall-clock",
                     f"wall-clock read '{m.group(0).strip()}' outside a "
                     "clock-policy file; host time must not reach "
                     "simulated logic")
        m = UNSEEDED_RANDOM_RE.search(line)
        if m:
            emit(lineno, "unseeded-random",
                 f"'{m.group(0).strip()}' bypasses the seeded sim::Rng "
                 "streams; failing runs cannot be replayed")

    if rel_path.startswith(TRANSCENDENTAL_SCOPES) or re.search(
            r"hash|fingerprint", pathlib.PurePosixPath(rel_path).name,
            re.IGNORECASE):
        for lineno, line in enumerate(code_lines, 1):
            m = TRANSCENDENTAL_RE.search(line)
            if m:
                emit(lineno, "libm-transcendental",
                     f"'{m.group(1)}' is not correctly rounded; its last "
                     "ulp differs across libm implementations, so goldens "
                     "hashed from this path are platform-dependent")

    for begin, end in fingerprint_spans(code_lines):
        for lineno in range(begin, end + 1):
            line = code_lines[lineno - 1]
            if FLOAT_USE_RE.search(line) and not FLOAT_SANCTIONED_RE.search(
                    line):
                emit(lineno, "float-fingerprint",
                     "floating point inside a hash/fingerprint function; "
                     "quantize with std::llround(value * scale) first")

    unordered_names = set(UNORDERED_DECL_RE.findall(code))
    if unordered_names:
        for lineno, line in enumerate(code_lines, 1):
            for m in RANGE_FOR_RE.finditer(line):
                target = m.group(1).split("->")[-1].split(".")[-1]
                if target in unordered_names:
                    emit(lineno, "unordered-iteration",
                         f"range-for over unordered container '{target}': "
                         "iteration order is implementation-defined and "
                         "breaks serialized/hashed output on a libstdc++ "
                         "upgrade")
    return findings


def collect_files(root: pathlib.Path, compile_commands: pathlib.Path | None):
    src = root / "src"
    headers = sorted(src.rglob("*.h"))
    if compile_commands and compile_commands.is_file():
        sources = []
        for entry in json.loads(compile_commands.read_text()):
            f = pathlib.Path(entry["file"])
            if not f.is_absolute():
                f = pathlib.Path(entry["directory"]) / f
            try:
                if f.resolve().is_relative_to(src.resolve()):
                    sources.append(f.resolve())
            except (OSError, ValueError):
                continue
        sources = sorted(set(sources))
    else:
        sources = sorted(src.rglob("*.cc"))
    return headers + sources


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json narrowing the .cc set")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("files", nargs="*",
                        help="explicit files to lint (default: src tree)")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(__doc__)
        return 0

    root = pathlib.Path(args.root).resolve() if args.root else \
        pathlib.Path(__file__).resolve().parent.parent
    cc = pathlib.Path(args.compile_commands) if args.compile_commands else None

    if args.files:
        paths = [pathlib.Path(f).resolve() for f in args.files]
    else:
        paths = collect_files(root, cc)

    findings = []
    for path in paths:
        try:
            rel = path.resolve().relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as err:
            findings.append(Finding(rel, 0, "io", str(err)))
            continue
        findings.extend(lint_text(rel, text))

    for finding in sorted(findings, key=lambda f: (f.path, f.line)):
        print(finding)
    if findings:
        print(f"\n{len(findings)} determinism finding(s). Each needs a fix "
              "or a reviewed pragma (see tools/lint_determinism.py "
              "docstring).", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
