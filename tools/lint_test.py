#!/usr/bin/env python3
"""Tests for tools/lint.py: one positive (violating) and one negative
(clean) fixture per rule, run against a synthetic repo tree.

Usage: tools/lint_test.py
Exits 0 when all cases pass; prints the failures and exits 1 otherwise.
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint  # noqa: E402


GUARD_TOP = "#ifndef PQIDX_A_H_\n#define PQIDX_A_H_\n"
GUARD_BOTTOM = "#endif  // PQIDX_A_H_\n"


def run_lint_on(files):
    """Writes {relpath: content} into a temp repo and lints it.

    Returns the list of diagnostics ("path:line: [Rn] message").
    """
    with tempfile.TemporaryDirectory() as root:
        for rel_path, content in files.items():
            path = os.path.join(root, rel_path)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        errors = []
        for rel_path in sorted(files):
            lint.check_file(root, rel_path, errors)
        return errors


def rules_of(errors):
    return {e.split("[")[1].split("]")[0] for e in errors}


CASES = []


def case(name, files, expect_rules):
    CASES.append((name, files, frozenset(expect_rules)))


# --- R1: exceptions ------------------------------------------------------

case("r1_throw_flagged",
     {"src/a.cc": "void F() { throw 1; }\n"}, {"R1"})
case("r1_throw_in_comment_ok",
     {"src/a.cc": "// does not throw\nvoid F() {}\n"}, set())

# --- R2: naked new -------------------------------------------------------

case("r2_naked_new_flagged",
     {"src/a.cc": "int* p = new int;\n"}, {"R2"})
case("r2_make_unique_ok",
     {"src/a.cc": "auto p = std::make_unique<int>();\n"}, set())
case("r2_allow_marker_ok",
     {"src/a.cc": "int* p = new int;  // lint:allow-new\n"}, set())

# --- R3: assert ----------------------------------------------------------

case("r3_assert_flagged",
     {"src/a.cc": "void F() { assert(true); }\n"}, {"R3"})
case("r3_check_ok",
     {"src/a.cc": "void F() { PQIDX_CHECK(true); }\n"}, set())

# --- R4: abort/exit ------------------------------------------------------

case("r4_abort_flagged",
     {"src/a.cc": "void F() { std::abort(); }\n"}, {"R4"})
case("r4_abort_in_check_h_ok",
     {"src/common/check.h":
      "#ifndef PQIDX_COMMON_CHECK_H_\n#define PQIDX_COMMON_CHECK_H_\n"
      "inline void Die() { std::abort(); }\n"
      "#endif  // PQIDX_COMMON_CHECK_H_\n"}, set())

# --- R5: include guards --------------------------------------------------

case("r5_wrong_guard_flagged",
     {"src/a.h": "#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n"}, {"R5"})
case("r5_matching_guard_ok",
     {"src/a.h": GUARD_TOP + GUARD_BOTTOM}, set())

# --- R6: raw synchronization primitives ----------------------------------

case("r6_std_mutex_flagged",
     {"src/a.cc": "std::mutex mu;\n"}, {"R6"})
case("r6_include_mutex_flagged",
     {"src/a.cc": "#include <mutex>\n"}, {"R6"})
case("r6_lock_guard_flagged",
     {"src/a.cc": "std::lock_guard<std::mutex> lock(mu);\n"}, {"R6"})
case("r6_condition_variable_flagged",
     {"src/a.cc": "std::condition_variable cv;\n"}, {"R6"})
case("r6_allowed_in_sync_h_ok",
     {"src/common/sync.h":
      "#ifndef PQIDX_COMMON_SYNC_H_\n#define PQIDX_COMMON_SYNC_H_\n"
      "#include <mutex>\nstd::mutex mu;\n"
      "#endif  // PQIDX_COMMON_SYNC_H_\n"}, set())
case("r6_allow_marker_ok",
     {"src/a.cc": "std::mutex mu;  // lint:allow-raw-sync\n"}, set())
case("r6_in_comment_ok",
     {"src/a.cc": "// replaces std::mutex with Mutex\nint x;\n"}, set())

# --- R7: no-tsa justification --------------------------------------------

case("r7_unjustified_flagged",
     {"src/a.cc": "void F() PQIDX_NO_THREAD_SAFETY_ANALYSIS {}\n"}, {"R7"})
case("r7_same_line_justification_ok",
     {"src/a.cc":
      "void F() PQIDX_NO_THREAD_SAFETY_ANALYSIS {}  // no-tsa: why\n"},
     set())
case("r7_preceding_justification_ok",
     {"src/a.cc":
      "// no-tsa: the caller holds mu via the turnstile protocol.\n"
      "void F() PQIDX_NO_THREAD_SAFETY_ANALYSIS {}\n"}, set())
case("r7_justification_too_far_flagged",
     {"src/a.cc":
      "// no-tsa: too far away to count\n" + "int x;\n" * 9 +
      "void F() PQIDX_NO_THREAD_SAFETY_ANALYSIS {}\n"}, {"R7"})

# --- R8: unannotated capability members ----------------------------------

case("r8_unreferenced_mutex_flagged",
     {"src/a.h": GUARD_TOP +
      "class C {\n Mutex mutex_;\n int x_;\n};\n" + GUARD_BOTTOM}, {"R8"})
case("r8_guarded_by_reference_ok",
     {"src/a.h": GUARD_TOP +
      "class C {\n mutable Mutex mutex_;\n"
      " int x_ PQIDX_GUARDED_BY(mutex_);\n};\n" + GUARD_BOTTOM}, set())
case("r8_excludes_reference_ok",
     {"src/a.h": GUARD_TOP +
      "class C {\n void F() PQIDX_EXCLUDES(mutex_);\n"
      " Mutex mutex_;\n};\n" + GUARD_BOTTOM}, set())
case("r8_similar_name_not_confused",
     {"src/a.h": GUARD_TOP +
      "class C {\n Mutex mu_;\n"
      " int x_ PQIDX_GUARDED_BY(mu_extra_);\n Mutex mu_extra_;\n};\n" +
      GUARD_BOTTOM}, {"R8"})


def main():
    failures = []
    for name, files, expect in CASES:
        errors = run_lint_on(files)
        got = frozenset(rules_of(errors))
        if got != expect:
            failures.append(
                f"{name}: expected rules {sorted(expect) or '{}'}, "
                f"got {sorted(got) or '{}'}: {errors}")
    if failures:
        print("\n".join(failures))
        print(f"lint_test.py: {len(failures)}/{len(CASES)} cases FAILED")
        return 1
    print(f"lint_test.py: OK ({len(CASES)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
