// Named, runtime-armed failpoints for the syscall boundaries the chaos
// harness cannot reach from outside the process: open(2)/pread in the fd
// cache and prefetch stage, and BufferPool acquisition. Each site asks
// `JBS_FAILPOINT("name")` whether to misbehave; an armed failpoint scripts
// the site to return EIO/ENOSPC/EMFILE/short reads deterministically
// (seeded when probabilistic).
//
// Arming is programmatic (`failpoints::Arm("fdcache.open", "emfile*3")`) or
// via the JBS_FAILPOINTS environment variable, parsed lazily on the first
// hit so any binary can be driven without code changes:
//
//   JBS_FAILPOINTS="fdcache.open=emfile*3;supplier.pread=eio+2" ./jbs_test
//
// Spec grammar, per failpoint:  name=action[*N][+K][%P]
//   action:  eio | enospc | emfile | enfile | enoent | eagain | einval |
//            err:<errno> | short:<bytes> | false
//   *N  fire at most N times, then stay quiet
//   +K  skip the first K hits before firing
//   %P  fire with probability P percent (seeded: JBS_FAILPOINTS_SEED or
//       SetSeed(); deterministic run to run for a fixed seed)
//
// Entries are ';' or ','-separated. `false` is for boolean sites (DataCache
// acquisition) that degrade rather than error.
//
// Compiled out in release builds: with JBS_FAILPOINTS_ENABLED unset the
// macro expands to a constexpr no-op Action, the `if (fp)` at every site
// constant-folds to false, and the dead branch is eliminated — zero
// instructions on the hot path (perf_smoke parity, DESIGN.md §16).
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"

namespace jbs::failpoints {

/// What an armed failpoint tells its site to do.
struct Action {
  enum class Kind : uint8_t {
    kNone = 0,    // not armed (or skipped this hit) — behave normally
    kError,       // fail with errno `err`
    kShortRead,   // return at most `arg` bytes from this read
    kFalse,       // boolean sites: report failure/unavailability
  };
  Kind kind = Kind::kNone;
  int err = 0;       // errno for kError
  uint64_t arg = 0;  // byte cap for kShortRead

  explicit operator bool() const { return kind != Kind::kNone; }
};

#if JBS_FAILPOINTS_ENABLED

inline constexpr bool Enabled() { return true; }

/// Called by instrumented sites (via JBS_FAILPOINT). Returns the action to
/// take this hit; a default Action means "behave normally". Thread-safe.
Action Hit(const char* name);

/// Arms `name` with `spec` (grammar above). Replaces any existing arming
/// and resets its hit/fire counters.
Status Arm(const std::string& name, const std::string& spec);

/// Disarms one failpoint / all failpoints. Counters are discarded.
void Disarm(const std::string& name);
void DisarmAll();

/// Times an armed `name` was reached / actually fired. 0 when not armed —
/// arm first (even with "false*0"-style quiet specs) to count a site.
uint64_t HitCount(const std::string& name);
uint64_t FireCount(const std::string& name);

/// Seeds the RNG behind %P probabilistic firing (default: the
/// JBS_FAILPOINTS_SEED env var, else a fixed constant).
void SetSeed(uint64_t seed);

#else  // !JBS_FAILPOINTS_ENABLED

inline constexpr bool Enabled() { return false; }
inline constexpr Action Hit(const char*) { return {}; }
inline Status Arm(const std::string&, const std::string&) {
  return Unavailable("failpoints compiled out (JBS_FAILPOINTS=OFF)");
}
inline void Disarm(const std::string&) {}
inline void DisarmAll() {}
inline constexpr uint64_t HitCount(const std::string&) { return 0; }
inline constexpr uint64_t FireCount(const std::string&) { return 0; }
inline void SetSeed(uint64_t) {}

#endif  // JBS_FAILPOINTS_ENABLED

}  // namespace jbs::failpoints

/// Site macro. Usage:
///   if (const auto fp = JBS_FAILPOINT("fdcache.open")) { errno = fp.err; … }
/// Expands to a constexpr empty Action when failpoints are compiled out, so
/// the branch folds away entirely.
#if JBS_FAILPOINTS_ENABLED
#define JBS_FAILPOINT(name) ::jbs::failpoints::Hit(name)
#else
#define JBS_FAILPOINT(name) (::jbs::failpoints::Action{})
#endif
