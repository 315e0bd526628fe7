#include "transport/fault_injection.h"

#include <chrono>
#include <thread>

namespace jbs::net {

class FaultInjectingTransport::FlakyConnection final : public Connection {
 public:
  FlakyConnection(std::unique_ptr<Connection> inner,
                  FaultInjectingTransport* owner, int break_after)
      : inner_(std::move(inner)),
        owner_(owner),
        hole_(owner->blackhole_),
        sends_left_(break_after) {}

  Status Send(const Frame& frame, const Deadline& deadline) override {
    if (sends_left_ > 0 && sends_left_.fetch_sub(1) == 1) {
      owner_->connections_broken_.fetch_add(1);
      inner_->Close();
      return Unavailable("injected connection break");
    }
    if (!inner_->alive()) return Unavailable("connection broken");
    return inner_->Send(frame, deadline);
  }

  StatusOr<Frame> Receive(const Deadline& deadline) override {
    if (TakeToken(owner_->blackholed_receives_)) {
      owner_->receives_blackholed_.fetch_add(1);
      Status parked = Park(deadline, "injected silent peer");
      if (!parked.ok()) return parked;
      // Released: behave like a peer that finally woke up.
    } else if (TakeToken(owner_->delayed_receives_)) {
      owner_->receives_delayed_.fetch_add(1);
      const auto delay =
          std::chrono::milliseconds(owner_->receive_delay_ms_.load());
      const Deadline nap = Deadline::Sooner(deadline, Deadline::After(delay));
      std::this_thread::sleep_until(nap.time());
      if (deadline.expired()) {
        return DeadlineExceeded("injected slow peer");
      }
    }
    using Action = ChaosDecision::Action;
    const ChaosDecision chaos = owner_->NextChaosDecision();
    switch (chaos.action) {
      case Action::kDrop:
        owner_->chaos_drops_.fetch_add(1);
        inner_->Close();
        return Unavailable("chaos: injected connection drop");
      case Action::kBlackhole: {
        owner_->chaos_blackholes_.fetch_add(1);
        Status parked = Park(deadline, "chaos: silent peer");
        if (!parked.ok()) return parked;
        break;
      }
      case Action::kDelay: {
        owner_->chaos_delays_.fetch_add(1);
        const Deadline nap = Deadline::Sooner(
            deadline,
            Deadline::After(std::chrono::milliseconds(chaos.delay_ms)));
        std::this_thread::sleep_until(nap.time());
        if (deadline.expired()) return DeadlineExceeded("chaos: slow peer");
        break;
      }
      case Action::kNone:
      case Action::kCorrupt:
        break;
    }
    auto frame = inner_->Receive(deadline);
    if (chaos.action == Action::kCorrupt && frame.ok() &&
        frame->payload_size() > 0) {
      // One flipped bit anywhere in the payload — header fields and data
      // bytes alike — exactly the fault the chunk CRC must catch. Received
      // frames are contiguous, so `payload` holds every byte.
      const uint64_t bit =
          chaos.entropy % (static_cast<uint64_t>(frame->payload.size()) * 8);
      frame->payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      owner_->chaos_corruptions_.fetch_add(1);
    }
    return frame;
  }

  void Close() override {
    closed_.store(true);
    inner_->Close();
    hole_->cv.NotifyAll();  // wake a Receive parked in a blackhole
  }

  bool alive() const override { return inner_->alive(); }
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  uint64_t bytes_received() const override {
    return inner_->bytes_received();
  }

 private:
  /// Blocks like a silent peer. Ok() when released; otherwise the error
  /// the caller should report.
  Status Park(const Deadline& deadline, const char* what) {
    MutexLock lock(hole_->mu);
    const uint64_t gen = hole_->release_gen;
    while (!closed_.load() && hole_->release_gen == gen) {
      if (deadline.infinite()) {
        hole_->cv.Wait(lock);
      } else if (hole_->cv.WaitUntil(lock, deadline.time()) ==
                 std::cv_status::timeout) {
        break;
      }
    }
    if (closed_.load()) return Unavailable("connection closed");
    if (hole_->release_gen != gen) return Status::Ok();
    return DeadlineExceeded(what);
  }

  std::unique_ptr<Connection> inner_;
  FaultInjectingTransport* owner_;
  std::shared_ptr<Blackhole> hole_;
  std::atomic<int> sends_left_;
  std::atomic<bool> closed_{false};
};

bool FaultInjectingTransport::TakeToken(std::atomic<int>& counter) {
  int expected = counter.load();
  while (expected > 0) {
    if (counter.compare_exchange_weak(expected, expected - 1)) return true;
  }
  return false;
}

void FaultInjectingTransport::ReleaseBlackholes() {
  {
    MutexLock lock(blackhole_->mu);
    ++blackhole_->release_gen;
  }
  blackhole_->cv.NotifyAll();
}

void FaultInjectingTransport::SetChaosSchedule(std::vector<ChaosPhase> phases,
                                               uint64_t seed) {
  MutexLock lock(chaos_mu_);
  chaos_phases_ = std::move(phases);
  chaos_phase_ = 0;
  chaos_phase_ops_ = 0;
  chaos_seed_ = seed;
  chaos_rng_ = Rng(seed);
}

void FaultInjectingTransport::ClearChaos() {
  MutexLock lock(chaos_mu_);
  chaos_phases_.clear();
  chaos_phase_ = 0;
  chaos_phase_ops_ = 0;
}

uint64_t FaultInjectingTransport::chaos_seed() const {
  MutexLock lock(chaos_mu_);
  return chaos_seed_;
}

FaultInjectingTransport::ChaosDecision
FaultInjectingTransport::NextChaosDecision() {
  MutexLock lock(chaos_mu_);
  // Advance past exhausted (or empty) phases.
  while (chaos_phase_ < chaos_phases_.size() &&
         chaos_phase_ops_ >= chaos_phases_[chaos_phase_].ops) {
    ++chaos_phase_;
    chaos_phase_ops_ = 0;
  }
  ChaosDecision decision;
  if (chaos_phase_ >= chaos_phases_.size()) return decision;
  const ChaosPhase& phase = chaos_phases_[chaos_phase_];
  ++chaos_phase_ops_;
  // One roll decides the op's fate; a second draw is reserved for the
  // corruption bit picker so the stream shape stays fixed per op.
  const double roll = chaos_rng_.NextDouble();
  decision.entropy = chaos_rng_.Next();
  double threshold = phase.drop_prob;
  if (roll < threshold) {
    decision.action = ChaosDecision::Action::kDrop;
    return decision;
  }
  threshold += phase.blackhole_prob;
  if (roll < threshold) {
    decision.action = ChaosDecision::Action::kBlackhole;
    return decision;
  }
  threshold += phase.delay_prob;
  if (roll < threshold) {
    decision.action = ChaosDecision::Action::kDelay;
    decision.delay_ms = phase.delay_ms;
    return decision;
  }
  threshold += phase.corrupt_prob;
  if (roll < threshold) {
    decision.action = ChaosDecision::Action::kCorrupt;
  }
  return decision;
}

StatusOr<std::unique_ptr<Connection>> FaultInjectingTransport::Connect(
    const std::string& host, uint16_t port, const Deadline& deadline) {
  connects_attempted_.fetch_add(1);
  if (TakeToken(failing_connects_)) {
    connects_failed_.fetch_add(1);
    return Unavailable("injected connect failure");
  }
  if (TakeToken(blackholed_connects_)) {
    connects_blackholed_.fetch_add(1);
    MutexLock lock(blackhole_->mu);
    const uint64_t gen = blackhole_->release_gen;
    while (blackhole_->release_gen == gen) {
      if (deadline.infinite()) {
        blackhole_->cv.Wait(lock);
      } else if (blackhole_->cv.WaitUntil(lock, deadline.time()) ==
                 std::cv_status::timeout) {
        break;
      }
    }
    if (blackhole_->release_gen == gen) {
      connects_failed_.fetch_add(1);
      return DeadlineExceeded("injected connect blackhole");
    }
    // Released: fall through to a real dial.
  }
  auto conn = inner_->Connect(host, port, deadline);
  JBS_RETURN_IF_ERROR(conn.status());
  // Always wrap: blackhole/delay modes may be armed after this connection
  // is established (a live connection can turn into a silent peer later).
  return std::unique_ptr<Connection>(std::make_unique<FlakyConnection>(
      std::move(conn).value(), this, break_after_sends_.load()));
}

}  // namespace jbs::net
