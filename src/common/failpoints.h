// Named, runtime-armed failpoints for the boundaries the chaos harness
// cannot reach from outside the process: open(2)/pread in the fd cache and
// prefetch stage, and the dial/send edges of FaultInjectingTransport. Each
// site asks `failpoints::Hit("name")` whether to misbehave; an armed
// failpoint scripts the site to return EIO/ENOSPC/EMFILE/short reads
// deterministically (seeded when probabilistic).
//
// Arming is programmatic (`failpoints::Arm("fdcache.open", "emfile*3")`) or
// via the JBS_FAILPOINTS environment variable, read before the first hit
// or arming call so any binary can be driven without code changes:
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
// Entries are ';' or ','-separated; each modifier may appear at most once.
// `false` is for boolean sites that degrade rather than error: it parks a
// FaultInjectingTransport dial like a silent host.
//
// Always compiled in. While nothing is armed, Hit() is one relaxed atomic
// load and a predicted branch: no lock, no allocation (DESIGN.md §16).
#pragma once

#include <atomic>
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

namespace detail {
/// Number of armed failpoints, plus one until the JBS_FAILPOINTS env var
/// has been read. Constant-initialized, so it is valid during static init.
extern std::atomic<uint64_t> armed;
/// The registry lookup behind Hit() once anything may be armed.
Action HitArmed(const char* name);
}  // namespace detail

/// Called by instrumented sites. Returns the action to take this hit; a
/// default Action means "behave normally". Thread-safe.
inline Action Hit(const char* name) {
  if (detail::armed.load(std::memory_order_relaxed) == 0) return {};
  return detail::HitArmed(name);
}

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

}  // namespace jbs::failpoints
