#include "common/failpoints.h"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"

namespace jbs::failpoints {

namespace detail {
std::atomic<uint64_t> armed{1};
}  // namespace detail

namespace {

struct FpState {
  Action action;
  uint64_t max_fires = std::numeric_limits<uint64_t>::max();
  uint64_t skip = 0;       // swallow this many hits before firing
  int prob_pct = 100;      // fire with this probability once eligible
  uint64_t hits = 0;
  uint64_t fires = 0;
};

struct Registry {
  Mutex mu;
  std::unordered_map<std::string, FpState> points GUARDED_BY(mu);
  Rng rng GUARDED_BY(mu){0x6A5F00D5EEDull};
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives all threads
  return *r;
}

/// Re-publishes the armed count the Hit() fast path reads.
void PublishArmed(Registry& reg) REQUIRES(reg.mu) {
  detail::armed.store(reg.points.size(), std::memory_order_relaxed);
}

/// Whole-string decimal parse: no sign, no whitespace, no overflow.
template <typename T>
bool ParseNumber(const std::string& s, T& out) {
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, out);
  return !s.empty() && ec == std::errc() && ptr == last;
}

/// Parses one action token (no modifiers). Returns false on syntax error.
bool ParseAction(const std::string& tok, Action& out) {
  struct Named {
    const char* name;
    int err;
  };
  static constexpr Named kErrnos[] = {
      {"eio", EIO},       {"enospc", ENOSPC}, {"emfile", EMFILE},
      {"enfile", ENFILE}, {"enoent", ENOENT}, {"eagain", EAGAIN},
      {"einval", EINVAL},
  };
  for (const auto& n : kErrnos) {
    if (tok == n.name) {
      out.kind = Action::Kind::kError;
      out.err = n.err;
      return true;
    }
  }
  if (tok == "false") {
    out.kind = Action::Kind::kFalse;
    return true;
  }
  if (tok.rfind("err:", 0) == 0) {
    out.kind = Action::Kind::kError;
    return ParseNumber(tok.substr(4), out.err) && out.err > 0;
  }
  if (tok.rfind("short:", 0) == 0) {
    out.kind = Action::Kind::kShortRead;
    return ParseNumber(tok.substr(6), out.arg);
  }
  return false;
}

/// Parses "action[*N][+K][%P]" into `st`. Modifiers may appear in any
/// order, each at most once.
Status ParseSpec(const std::string& name, const std::string& spec,
                 FpState& st) {
  const auto bad = [&](const std::string& why) {
    return InvalidArgument("failpoint " + name + ": bad spec '" + spec +
                           "' (" + why + ")");
  };
  size_t end = spec.find_first_of("*+%");
  const std::string action_tok = spec.substr(0, end);
  if (!ParseAction(action_tok, st.action)) return bad("unknown action");
  std::string seen;
  while (end != std::string::npos && end < spec.size()) {
    const char mod = spec[end];
    if (seen.find(mod) != std::string::npos) return bad("repeated modifier");
    seen += mod;
    const size_t next = spec.find_first_of("*+%", end + 1);
    const std::string num = spec.substr(
        end + 1, next == std::string::npos ? next : next - end - 1);
    uint64_t v = 0;
    if (!ParseNumber(num, v)) return bad("non-numeric modifier");
    switch (mod) {
      case '*':
        st.max_fires = v;
        break;
      case '+':
        st.skip = v;
        break;
      case '%':
        if (v > 100) return bad("probability > 100");
        st.prob_pct = static_cast<int>(v);
        break;
    }
    end = next;
  }
  return Status::Ok();
}

Status ArmParsed(const std::string& name, const std::string& spec) {
  FpState st;
  JBS_RETURN_IF_ERROR(ParseSpec(name, spec, st));
  Registry& reg = registry();
  MutexLock lock(reg.mu);
  reg.points[name] = st;
  PublishArmed(reg);
  return Status::Ok();
}

[[noreturn]] void EnvAbort(const std::string& why) {
  std::fprintf(stderr, "%s\n", why.c_str());
  std::abort();
}

/// One-time arming from the JBS_FAILPOINTS / JBS_FAILPOINTS_SEED env vars,
/// run before the first Hit() or registry call so any binary is
/// scriptable from outside. Until it finishes, detail::armed stays nonzero
/// so no hit can take the fast path past an env-armed point. A malformed
/// env var aborts: silently ignoring it would make a fault campaign pass
/// vacuously.
void ArmFromEnvOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    Registry& reg = registry();
    if (const char* seed = std::getenv("JBS_FAILPOINTS_SEED")) {
      uint64_t v = 0;
      if (!ParseNumber(seed, v)) {
        EnvAbort(std::string("JBS_FAILPOINTS_SEED: '") + seed +
                 "' is not a decimal integer");
      }
      MutexLock lock(reg.mu);
      reg.rng = Rng(v);
    }
    const char* env = std::getenv("JBS_FAILPOINTS");
    const std::string all(env == nullptr ? "" : env);
    size_t pos = 0;
    while (pos < all.size()) {
      size_t sep = all.find_first_of(";,", pos);
      if (sep == std::string::npos) sep = all.size();
      const std::string entry = all.substr(pos, sep - pos);
      pos = sep + 1;
      if (entry.empty()) continue;
      const size_t eq = entry.find('=');
      if (eq == std::string::npos) {
        EnvAbort("JBS_FAILPOINTS: entry '" + entry + "' has no '='");
      }
      const Status s = ArmParsed(entry.substr(0, eq), entry.substr(eq + 1));
      if (!s.ok()) EnvAbort("JBS_FAILPOINTS: " + s.ToString());
    }
    MutexLock lock(reg.mu);
    PublishArmed(reg);
  });
}

}  // namespace

Action detail::HitArmed(const char* name) {
  ArmFromEnvOnce();
  Registry& reg = registry();
  MutexLock lock(reg.mu);
  const auto it = reg.points.find(name);
  if (it == reg.points.end()) return {};
  FpState& st = it->second;
  ++st.hits;
  if (st.hits <= st.skip || st.fires >= st.max_fires) return {};
  if (st.prob_pct < 100 &&
      reg.rng.Below(100) >= static_cast<uint64_t>(st.prob_pct)) {
    return {};
  }
  ++st.fires;
  return st.action;
}

Status Arm(const std::string& name, const std::string& spec) {
  ArmFromEnvOnce();
  return ArmParsed(name, spec);
}

void Disarm(const std::string& name) {
  ArmFromEnvOnce();
  Registry& reg = registry();
  MutexLock lock(reg.mu);
  reg.points.erase(name);
  PublishArmed(reg);
}

void DisarmAll() {
  ArmFromEnvOnce();
  Registry& reg = registry();
  MutexLock lock(reg.mu);
  reg.points.clear();
  PublishArmed(reg);
}

uint64_t HitCount(const std::string& name) {
  Registry& reg = registry();
  MutexLock lock(reg.mu);
  const auto it = reg.points.find(name);
  return it == reg.points.end() ? 0 : it->second.hits;
}

uint64_t FireCount(const std::string& name) {
  Registry& reg = registry();
  MutexLock lock(reg.mu);
  const auto it = reg.points.find(name);
  return it == reg.points.end() ? 0 : it->second.fires;
}

void SetSeed(uint64_t seed) {
  ArmFromEnvOnce();
  Registry& reg = registry();
  MutexLock lock(reg.mu);
  reg.rng = Rng(seed);
}

}  // namespace jbs::failpoints
