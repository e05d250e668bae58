// Clang thread-safety-analysis attribute macros (the compile-time lock
// discipline layer; see docs/ARCHITECTURE.md, "Locking model").
//
// The attributes drive Clang's -Wthread-safety analysis: members declare
// which capability (mutex) guards them, functions declare which
// capabilities they require, acquire, or release, and the compiler
// proves every access consistent with those declarations. On compilers
// without the attribute (GCC, MSVC) every macro expands to nothing, so
// annotated code builds identically everywhere; the dedicated
// -DPQIDX_THREAD_SAFETY=ON Clang build (CMakeLists.txt) turns the
// analysis into hard errors.
//
// The attributes only fire on types themselves marked as capabilities,
// which is why the project wraps the std primitives in common/sync.h
// (PQIDX_CAPABILITY Mutex) and tools/lint.py rule R6
// forbids the raw std types outside that header.
//
// PQIDX_NO_THREAD_SAFETY_ANALYSIS is the escape hatch for contracts the
// analysis cannot express (e.g. "only the single batch leader runs
// this"). Every use must carry a `no-tsa:` justification
// comment on the same or the preceding line -- tools/lint.py rule R7
// rejects bare escapes.

#ifndef PQIDX_COMMON_THREAD_ANNOTATIONS_H_
#define PQIDX_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && !defined(SWIG)
#define PQIDX_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define PQIDX_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

// Marks a class as a capability (lockable). The given string names the
// capability kind in diagnostics ("mutex").
#define PQIDX_CAPABILITY(x) PQIDX_THREAD_ANNOTATION_(capability(x))

// Marks an RAII class whose constructor acquires and destructor
// releases a capability.
#define PQIDX_SCOPED_CAPABILITY PQIDX_THREAD_ANNOTATION_(scoped_lockable)

// The member may only be read or written while holding `x`.
#define PQIDX_GUARDED_BY(x) PQIDX_THREAD_ANNOTATION_(guarded_by(x))

// The pointee may only be accessed while holding `x` (the pointer
// itself is unguarded).
#define PQIDX_PT_GUARDED_BY(x) PQIDX_THREAD_ANNOTATION_(pt_guarded_by(x))

// Lock-ordering declarations: this capability must be acquired before /
// after the listed ones (deadlock detection with -Wthread-safety-beta).
#define PQIDX_ACQUIRED_BEFORE(...) \
  PQIDX_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define PQIDX_ACQUIRED_AFTER(...) \
  PQIDX_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

// The function may only be called while holding the listed
// capabilities; it does not acquire or release them.
#define PQIDX_REQUIRES(...) \
  PQIDX_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

// The function acquires the capability and holds it on return.
#define PQIDX_ACQUIRE(...) \
  PQIDX_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

// The function releases a capability the caller holds.
#define PQIDX_RELEASE(...) \
  PQIDX_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

// The function acquires the capability iff it returns the given value.
#define PQIDX_TRY_ACQUIRE(...) \
  PQIDX_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

// The function may not be called while holding the listed capabilities
// (self-deadlock prevention for functions that acquire them).
#define PQIDX_EXCLUDES(...) \
  PQIDX_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Tells the analysis the capability is held without acquiring it
// (runtime-checked assertions).
#define PQIDX_ASSERT_CAPABILITY(x) \
  PQIDX_THREAD_ANNOTATION_(assert_capability(x))

// The function returns a reference to the given capability.
#define PQIDX_RETURN_CAPABILITY(x) \
  PQIDX_THREAD_ANNOTATION_(lock_returned(x))

// Disables the analysis for one function. A contract the analysis
// cannot see must exist and must be stated in a `no-tsa:` comment on
// the same or preceding line (enforced by tools/lint.py rule R7).
#define PQIDX_NO_THREAD_SAFETY_ANALYSIS \
  PQIDX_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // PQIDX_COMMON_THREAD_ANNOTATIONS_H_
