// Deterministic fault injection around any Transport. Receives follow a
// seeded chaos schedule (phases of bit-flip corruption, drops, delays and
// blackholes). Dials and sends consult two failpoints (common/failpoints.h):
//
//   faults.connect  `false` parks the dial like a dead-but-routed host
//                   until its deadline or ReleaseBlackholes(); any other
//                   action fails it with kUnavailable (e.g. "eagain*2").
//   faults.send     any action closes the connection and fails the send,
//                   e.g. "eio+2" breaks every send after the first two.
//
// The failpoints are process-global: they apply to every wrapper and every
// connection, and HitCount/FireCount are the dial and send counters.
//
// Server side, one fault: a slow wire (SetSlowWire), whose unpaid bytes
// every endpoint the wrapper creates reports as its Backlog, the signal the
// supplier's compress-while-behind rule reads.
//
// Used by the fault-tolerance, deadline, chaos and wire-compression tests
// and perf_smoke; in production code the wrapper is simply not installed.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "transport/transport.h"

namespace jbs::net {

/// One phase of a scripted chaos schedule: the next `ops` Receive() or
/// ReceivePlaced() calls (across all connections) each independently
/// suffer at most one fault, chosen by the schedule's seeded RNG with these
/// probabilities evaluated in order drop -> blackhole -> delay -> corrupt.
/// A corrupt op flips one random bit of the received frame payload, bytes
/// placed in caller storage included — the end-to-end CRC's job is to
/// catch exactly this. Phases with ops <= 0 are skipped; after the last
/// phase the wire is clean again.
struct ChaosPhase {
  int ops = 0;
  double corrupt_prob = 0;
  double drop_prob = 0;       // close the connection mid-conversation
  double delay_prob = 0;
  int delay_ms = 0;           // stall applied when delay_prob fires
  double blackhole_prob = 0;  // park like a silent peer
};

class FaultInjectingTransport final : public Transport {
 public:
  explicit FaultInjectingTransport(Transport* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name() + "+faults"; }

  /// Wakes every operation currently parked in a blackhole and lets it
  /// proceed normally. Later blackholed ops still park.
  void ReleaseBlackholes();

  /// Installs a deterministic chaos schedule driven by `seed` (see
  /// ChaosPhase). Replaces any active schedule and restarts from the first
  /// phase. A one-phase schedule with probability 1 scripts the next `ops`
  /// receives exactly, e.g. {{.ops = n, .blackhole_prob = 1}}.
  void SetChaosSchedule(std::vector<ChaosPhase> phases, uint64_t seed)
      EXCLUDES(chaos_mu_);
  /// Drops the remaining schedule; the wire is clean from now on.
  void ClearChaos() EXCLUDES(chaos_mu_);
  /// Seed of the most recently installed schedule (0 before any).
  uint64_t chaos_seed() const EXCLUDES(chaos_mu_);

  int chaos_corruptions() const { return chaos_corruptions_.load(); }
  int chaos_drops() const { return chaos_drops_.load(); }
  int chaos_delays() const { return chaos_delays_.load(); }
  int chaos_blackholes() const { return chaos_blackholes_.load(); }

  /// Slow-wire fault: endpoints created through this transport (before or
  /// after the call) charge every frame they send or receive, header
  /// included, to one node-wide bucket that pays off `bytes_per_sec`, and
  /// report the bytes it has not yet paid off as their Backlog (or the
  /// inner endpoint's backlog, if larger). Bytes still move at the inner
  /// transport's speed: only the backlog signal sees the slow wire, so
  /// tests stay fast, and a stop-and-wait client, which never queues one
  /// reply behind another, still finds the wire behind — its own request
  /// was charged. 0 (the default) turns the fault off and clears the
  /// bucket.
  void SetSlowWire(double bytes_per_sec);

  StatusOr<std::unique_ptr<ServerEndpoint>> CreateServer() override;

  using Transport::Connect;
  StatusOr<std::unique_ptr<Connection>> Connect(
      const std::string& host, uint16_t port,
      const Deadline& deadline) override;

 private:
  class FlakyConnection;
  class SlowWireEndpoint;

  /// The slow wire's bucket, shared by every endpoint created through this
  /// transport (they may outlive it). Lock-free: a charge moves the time
  /// at which the wire will have sent everything charged so far.
  struct SlowWire {
    std::atomic<double> bytes_per_sec{0};
    std::atomic<int64_t> paid_at_ns{0};  // steady_clock

    void Charge(uint64_t bytes);
    uint64_t Unpaid() const;
  };

  /// Shared park bench for blackholed operations: they wait here for a
  /// deadline, a connection close, or a release broadcast.
  struct Blackhole {
    Mutex mu;
    CondVar cv;
    uint64_t release_gen GUARDED_BY(mu) = 0;

    /// Blocks like a silent peer. Ok() when released; otherwise the error
    /// the caller should report (kUnavailable once `closed` is set).
    Status Park(const Deadline& deadline, const std::atomic<bool>& closed,
                const char* what) EXCLUDES(mu);
  };

  /// One receive op's fate under the active chaos schedule. `entropy`
  /// carries the bit-picker draw for corruption, taken at decision time so
  /// the RNG stream doesn't depend on payload sizes.
  struct ChaosDecision {
    enum class Action { kNone, kCorrupt, kDrop, kDelay, kBlackhole };
    Action action = Action::kNone;
    int delay_ms = 0;
    uint64_t entropy = 0;
  };
  /// Consumes one op from the schedule (advancing phases) and rolls its
  /// fate. kNone when no schedule is active or the schedule is exhausted.
  ChaosDecision NextChaosDecision() EXCLUDES(chaos_mu_);

  Transport* inner_;
  std::shared_ptr<Blackhole> blackhole_ = std::make_shared<Blackhole>();
  std::shared_ptr<SlowWire> wire_ = std::make_shared<SlowWire>();

  // Chaos schedule state: the phase list, the cursor, and the seeded RNG
  // all advance together under one mutex so the draw sequence is a pure
  // function of (seed, op order).
  mutable Mutex chaos_mu_;
  std::vector<ChaosPhase> chaos_phases_ GUARDED_BY(chaos_mu_);
  size_t chaos_phase_ GUARDED_BY(chaos_mu_) = 0;
  // Ops already consumed from the current phase.
  int chaos_phase_ops_ GUARDED_BY(chaos_mu_) = 0;
  uint64_t chaos_seed_ GUARDED_BY(chaos_mu_) = 0;
  Rng chaos_rng_ GUARDED_BY(chaos_mu_){0};
  std::atomic<int> chaos_corruptions_{0};
  std::atomic<int> chaos_drops_{0};
  std::atomic<int> chaos_delays_{0};
  std::atomic<int> chaos_blackholes_{0};
};

}  // namespace jbs::net
