#!/usr/bin/env python3
"""Repo-specific invariant linter for the pqidx library sources.

Enforces the project's hard conventions (see DESIGN.md and
common/check.h) that generic linters don't know about:

  R1  no exceptions: `throw` / `try` / `catch` never appear
  R2  no naked `new`: allocations go through std::make_* or are
      immediately owned by a smart pointer on the same line (the idiom
      for private constructors); annotate intentional exceptions with
      `// lint:allow-new`
  R3  no `assert`: invariants use PQIDX_CHECK / PQIDX_DCHECK, which stay
      active in release builds
  R4  no direct process exit: `abort` / `exit` only inside
      common/check.h; parse and I/O paths report Status instead
  R5  include guards match the file path: src/foo/bar.h guards with
      PQIDX_FOO_BAR_H_
  R6  no raw standard synchronization primitives (std::mutex,
      std::shared_mutex, std::condition_variable, std::lock_guard,
      std::unique_lock, std::shared_lock, std::scoped_lock, or their
      headers) outside src/common/sync.h: use the annotated wrappers
      from common/sync.h so Clang's thread-safety analysis sees every
      lock; annotate intentional exceptions with `// lint:allow-raw-sync`
  R7  every PQIDX_NO_THREAD_SAFETY_ANALYSIS escape hatch carries a
      justification: a comment containing `no-tsa:` on the same line or
      within the preceding lines
  R8  every Mutex member is referenced by at least one
      PQIDX_* thread-safety annotation in the same file (GUARDED_BY,
      REQUIRES, EXCLUDES, ACQUIRE, ...): an unannotated capability
      member means the analysis silently checks nothing for it

Usage: tools/lint.py [repo-root] [--quiet]
Exits 0 when clean, 1 with file:line diagnostics otherwise.
"""

import os
import re
import sys

LINT_DIRS = ("src",)
ALLOW_NEW_MARKER = "lint:allow-new"
ALLOW_RAW_SYNC_MARKER = "lint:allow-raw-sync"
NO_TSA_JUSTIFICATION = "no-tsa:"
# How far back (in lines) an R7 justification comment may sit from the
# PQIDX_NO_THREAD_SAFETY_ANALYSIS it justifies.
NO_TSA_LOOKBACK = 8
RAW_SYNC_ALLOWED_FILES = {os.path.join("src", "common", "sync.h")}
# The macro layer defines the annotations; R7/R8 would misfire on it.
ANNOTATION_EXEMPT_FILES = RAW_SYNC_ALLOWED_FILES | {
    os.path.join("src", "common", "thread_annotations.h")}
RAW_SYNC_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock)\b|"
    r"#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>")
CAPABILITY_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?Mutex\s+(\w+)\s*;")
SMART_PTR_WRAP = re.compile(r"\b(?:unique_ptr|shared_ptr)\s*<[^;]*>\s*\w*\s*\(\s*$|"
                            r"\b(?:unique_ptr|shared_ptr)\s*<[^;]*\(\s*new\b")
EXIT_ALLOWED_FILES = {os.path.join("src", "common", "check.h")}


def mask_comments_and_strings(text):
    """Replaces comment and string/char literal contents with spaces,
    preserving line structure so reported line numbers stay exact."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def expected_guard(rel_path):
    stem = rel_path
    if stem.startswith("src" + os.sep):
        stem = stem[len("src" + os.sep):]
    return "PQIDX_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_"


def check_file(root, rel_path, errors):
    path = os.path.join(root, rel_path)
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    masked = mask_comments_and_strings(raw)
    raw_lines = raw.splitlines()
    masked_lines = masked.splitlines()

    for lineno, (masked_line, raw_line) in enumerate(
            zip(masked_lines, raw_lines), start=1):

        def report(rule, message):
            errors.append(f"{rel_path}:{lineno}: [{rule}] {message}")

        if re.search(r"\b(throw|try|catch)\b", masked_line):
            report("R1", "exceptions are forbidden; return Status instead")

        if re.search(r"\bnew\b", masked_line):
            # The owning smart pointer may sit on the previous line when
            # the constructor call wraps (clang-format's usual layout).
            prev = masked_lines[lineno - 2] if lineno >= 2 else ""
            wrapped = (re.search(r"\b(?:make_unique|make_shared)\b", masked_line)
                       or re.search(r"\b(?:unique_ptr|shared_ptr)\b[^;]*\bnew\b",
                                    masked_line)
                       or re.search(r"\b(?:unique_ptr|shared_ptr)\b[^;]*\($",
                                    prev.rstrip())
                       or ALLOW_NEW_MARKER in raw_line)
            if not wrapped:
                report("R2", "naked `new`; use std::make_* or wrap the "
                             "allocation in a smart pointer on the same line")

        if re.search(r"\bassert\s*\(", masked_line):
            report("R3", "use PQIDX_CHECK / PQIDX_DCHECK instead of assert")

        if rel_path not in EXIT_ALLOWED_FILES and re.search(
                r"(?<![\w:])(?:std::)?(?:abort|_Exit|quick_exit)\s*\(",
                masked_line):
            report("R4", "no direct abort/exit outside common/check.h; "
                         "parse and I/O paths must return Status")

        if (rel_path not in RAW_SYNC_ALLOWED_FILES
                and ALLOW_RAW_SYNC_MARKER not in raw_line
                and RAW_SYNC_RE.search(masked_line)):
            report("R6", "raw std synchronization primitive; use the "
                         "annotated wrappers from common/sync.h")

        if (rel_path not in ANNOTATION_EXEMPT_FILES
                and "PQIDX_NO_THREAD_SAFETY_ANALYSIS" in masked_line):
            window = raw_lines[max(0, lineno - 1 - NO_TSA_LOOKBACK):lineno]
            if not any(NO_TSA_JUSTIFICATION in line for line in window):
                report("R7", "PQIDX_NO_THREAD_SAFETY_ANALYSIS without a "
                             f"`{NO_TSA_JUSTIFICATION}` justification comment "
                             "on or above the escape hatch")

    if rel_path not in ANNOTATION_EXEMPT_FILES:
        for lineno, masked_line in enumerate(masked_lines, start=1):
            member = CAPABILITY_MEMBER_RE.match(masked_line)
            if not member:
                continue
            name = member.group(1)
            # Any PQIDX_* annotation naming the member counts:
            # PQIDX_GUARDED_BY(name), PQIDX_REQUIRES(name),
            # PQIDX_EXCLUDES(other, name), PQIDX_ACQUIRE(name), ...
            referenced = re.search(
                rf"PQIDX_[A-Z_]+\([^)]*\b{re.escape(name)}\b", masked)
            if not referenced:
                errors.append(
                    f"{rel_path}:{lineno}: [R8] capability member `{name}` is "
                    "not referenced by any PQIDX_* annotation in this file; "
                    "the thread-safety analysis checks nothing for it")

    if rel_path.endswith(".h"):
        guard = expected_guard(rel_path)
        has_ifndef = re.search(rf"^#ifndef {re.escape(guard)}$", masked,
                               re.MULTILINE)
        has_define = re.search(rf"^#define {re.escape(guard)}$", masked,
                               re.MULTILINE)
        if not (has_ifndef and has_define):
            errors.append(f"{rel_path}:1: [R5] include guard must be "
                          f"`{guard}` (matching the path)")


def main(argv):
    args = [a for a in argv[1:] if a != "--quiet"]
    quiet = "--quiet" in argv[1:]
    root = args[0] if args else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    files = []
    for lint_dir in LINT_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(root, lint_dir)):
            for name in sorted(filenames):
                if name.endswith((".h", ".cc")):
                    files.append(os.path.relpath(os.path.join(dirpath, name),
                                                 root))
    files.sort()

    errors = []
    for rel_path in files:
        check_file(root, rel_path, errors)

    if errors:
        print("\n".join(errors))
        print(f"lint.py: {len(errors)} violation(s) in {len(files)} files")
        return 1
    if not quiet:
        print(f"lint.py: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
