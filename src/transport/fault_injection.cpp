#include "transport/fault_injection.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/failpoints.h"

namespace jbs::net {

class FaultInjectingTransport::FlakyConnection final : public Connection {
 public:
  FlakyConnection(std::unique_ptr<Connection> inner,
                  FaultInjectingTransport* owner)
      : inner_(std::move(inner)), owner_(owner), hole_(owner->blackhole_) {}

  Status Send(const Frame& frame, const Deadline& deadline) override {
    if (!inner_->alive()) return Unavailable("connection broken");
    if (failpoints::Hit("faults.send")) {
      inner_->Close();
      return Unavailable("injected connection break");
    }
    return inner_->Send(frame, deadline);
  }

  StatusOr<Frame> Receive(const Deadline& deadline) override {
    return ReceivePlaced(0, nullptr, deadline);
  }

  StatusOr<Frame> ReceivePlaced(size_t head_len, const Placement& place,
                                const Deadline& deadline) override {
    using Action = ChaosDecision::Action;
    const ChaosDecision chaos = owner_->NextChaosDecision();
    switch (chaos.action) {
      case Action::kDrop:
        owner_->chaos_drops_.fetch_add(1);
        inner_->Close();
        return Unavailable("chaos: injected connection drop");
      case Action::kBlackhole: {
        owner_->chaos_blackholes_.fetch_add(1);
        Status parked = hole_->Park(deadline, closed_, "chaos: silent peer");
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
    // Placement is forwarded, and the span it named is kept so a flipped
    // bit can land in placed bytes too.
    std::span<uint8_t> placed;
    Placement track;
    if (place) {
      track = [&](uint8_t type, std::span<const uint8_t> head,
                  size_t tail_len) {
        placed = place(type, head, tail_len);
        return placed;
      };
    }
    auto frame = inner_->ReceivePlaced(head_len, track, deadline);
    if (chaos.action == Action::kCorrupt && frame.ok() &&
        frame->payload_size() > 0) {
      // One flipped bit anywhere in the payload — header fields and data
      // bytes alike — exactly the fault the chunk CRC must catch. A frame
      // received in place keeps its tail in `ext`, which views `placed`.
      const uint64_t bit =
          chaos.entropy % (static_cast<uint64_t>(frame->payload_size()) * 8);
      const uint64_t byte = bit / 8;
      uint8_t& target = byte < frame->payload.size()
                            ? frame->payload[byte]
                            : placed[byte - frame->payload.size()];
      target ^= static_cast<uint8_t>(1u << (bit % 8));
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
  std::unique_ptr<Connection> inner_;
  FaultInjectingTransport* owner_;
  std::shared_ptr<Blackhole> hole_;
  std::atomic<bool> closed_{false};
};

class FaultInjectingTransport::SlowWireEndpoint final : public ServerEndpoint {
 public:
  SlowWireEndpoint(std::unique_ptr<ServerEndpoint> inner,
                   std::shared_ptr<SlowWire> wire)
      : inner_(std::move(inner)), wire_(std::move(wire)) {}

  Status Start(Handlers handlers) override {
    // Requests cross the wire too: charging them is what makes a lone
    // request's reply find the wire behind.
    handlers.on_frame = [wire = wire_, on_frame = std::move(handlers.on_frame)](
                            ConnId conn, Frame frame) {
      wire->Charge(kFrameHeaderSize + frame.payload_size());
      if (on_frame) on_frame(conn, std::move(frame));
    };
    return inner_->Start(std::move(handlers));
  }

  uint16_t port() const override { return inner_->port(); }

  Status SendAsync(ConnId conn, Frame frame) override {
    const uint64_t bytes = kFrameHeaderSize + frame.payload_size();
    JBS_RETURN_IF_ERROR(inner_->SendAsync(conn, std::move(frame)));
    wire_->Charge(bytes);
    return Status::Ok();
  }

  uint64_t Backlog(ConnId conn) const override {
    return std::max(wire_->Unpaid(), inner_->Backlog(conn));
  }

  void Stop() override { inner_->Stop(); }
  Stats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<ServerEndpoint> inner_;
  std::shared_ptr<SlowWire> wire_;
};

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void FaultInjectingTransport::SlowWire::Charge(uint64_t bytes) {
  const double rate = bytes_per_sec.load(std::memory_order_relaxed);
  if (rate <= 0) return;
  const auto cost =
      static_cast<int64_t>(static_cast<double>(bytes) * 1e9 / rate);
  const int64_t now = SteadyNowNs();
  int64_t paid_at = paid_at_ns.load(std::memory_order_relaxed);
  while (!paid_at_ns.compare_exchange_weak(paid_at,
                                           std::max(paid_at, now) + cost,
                                           std::memory_order_relaxed)) {
  }
}

uint64_t FaultInjectingTransport::SlowWire::Unpaid() const {
  const double rate = bytes_per_sec.load(std::memory_order_relaxed);
  if (rate <= 0) return 0;
  const int64_t ahead =
      paid_at_ns.load(std::memory_order_relaxed) - SteadyNowNs();
  // Rounded up: a wire still busy with part of a byte is behind.
  return ahead > 0 ? static_cast<uint64_t>(
                         std::ceil(static_cast<double>(ahead) * rate / 1e9))
                   : 0;
}

void FaultInjectingTransport::SetSlowWire(double bytes_per_sec) {
  wire_->bytes_per_sec.store(bytes_per_sec, std::memory_order_relaxed);
  wire_->paid_at_ns.store(0, std::memory_order_relaxed);
}

StatusOr<std::unique_ptr<ServerEndpoint>>
FaultInjectingTransport::CreateServer() {
  auto endpoint = inner_->CreateServer();
  JBS_RETURN_IF_ERROR(endpoint.status());
  // Always wrap, as Connect does: the slow wire may be set after the
  // endpoint starts.
  return std::unique_ptr<ServerEndpoint>(std::make_unique<SlowWireEndpoint>(
      std::move(endpoint).value(), wire_));
}

Status FaultInjectingTransport::Blackhole::Park(
    const Deadline& deadline, const std::atomic<bool>& closed,
    const char* what) {
  MutexLock lock(mu);
  const uint64_t gen = release_gen;
  while (!closed.load() && release_gen == gen) {
    if (deadline.infinite()) {
      cv.Wait(lock);
    } else if (cv.WaitUntil(lock, deadline.time()) ==
               std::cv_status::timeout) {
      break;
    }
  }
  if (closed.load()) return Unavailable("connection closed");
  if (release_gen != gen) return Status::Ok();
  return DeadlineExceeded(what);
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
  if (const auto fp = failpoints::Hit("faults.connect")) {
    if (fp.kind != failpoints::Action::Kind::kFalse) {
      return Unavailable("injected connect failure");
    }
    const std::atomic<bool> never_closed{false};
    JBS_RETURN_IF_ERROR(
        blackhole_->Park(deadline, never_closed, "injected connect blackhole"));
    // Released: fall through to a real dial.
  }
  auto conn = inner_->Connect(host, port, deadline);
  JBS_RETURN_IF_ERROR(conn.status());
  // Always wrap: chaos phases and faults.send may be armed after this
  // connection is established (a live connection can turn into a silent
  // peer later).
  return std::unique_ptr<Connection>(
      std::make_unique<FlakyConnection>(std::move(conn).value(), this));
}

}  // namespace jbs::net
