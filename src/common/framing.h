// Length-prefixed message framing shared by the shuffle wire protocol and
// the loopback control channel between TaskTracker and the native JBS
// processes (§III-A: "they communicate via loopback sockets").
//
// Wire layout of one frame:
//   u32 payload_length | u8 type | payload bytes
//
// In memory an outbound frame is scatter-gather (DESIGN.md §13): the wire
// payload is the concatenation of
//   payload  — small owned bytes (protocol headers, control messages)
//   ext      — a borrowed view over buffer(s) kept alive by `lease`
// so the serve path hands a DataCache buffer to the transport without
// copying it. Receivers produce contiguous frames (ext empty) unless the
// caller asked for a placed receive, whose `ext` views the caller's own
// storage (Connection::ReceivePlaced); the wire format is identical
// either way.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"

namespace jbs {

struct Frame {
  uint8_t type = 0;
  std::vector<uint8_t> payload;
  /// Borrowed payload tail. Valid only while `lease` is held (or, on a
  /// placed receive, while the caller's storage lives); senders may read
  /// it until the last queued reference drops, nobody may write it.
  std::span<const uint8_t> ext{};
  /// Ownership token for `ext`: released when the final sender reference
  /// is destroyed (last byte on the socket, or the connection died with
  /// the frame still queued). Typically wraps a PooledBuffer — its release
  /// returns the buffer to the DataCache.
  std::shared_ptr<const void> lease;

  /// Total wire payload length: payload + ext bytes.
  size_t payload_size() const { return payload.size() + ext.size(); }
};

/// Serializes a frame (header + payload + ext) into `out`. Copies the
/// whole payload — legacy path, counted by PayloadCopyBytes().
void EncodeFrame(const Frame& frame, std::vector<uint8_t>& out);

/// Writes the 5-byte wire header (u32 payload_length | u8 type) for
/// `frame` into `out[0..5)`, covering payload + ext bytes.
void EncodeFrameHeader(const Frame& frame, uint8_t out[5]);

constexpr size_t kFrameHeaderSize = 5;  // u32 length + u8 type

/// Serve-path copy accounting: a process-wide count of payload bytes
/// memcpy'd in user space on the send side (legacy EncodeFrame/EncodeData
/// copies). The zero-copy serve path
/// leaves it untouched — tests reset it, run a serve, and assert zero;
/// MofSupplier exports it as the `jbs_serve_bytes_copied_total` gauge.
uint64_t PayloadCopyBytes();
void AddPayloadCopyBytes(uint64_t n);
void ResetPayloadCopyBytes();

/// Incremental decoder: feed arbitrary byte chunks, pop whole frames.
class FrameDecoder {
 public:
  /// Maximum accepted payload; oversized frames poison the decoder.
  explicit FrameDecoder(size_t max_payload = 64 * 1024 * 1024)
      : max_payload_(max_payload) {}

  /// Appends received bytes to the internal reassembly buffer.
  Status Feed(std::span<const uint8_t> data);

  /// Returns the next complete frame, or nullopt if more bytes are needed.
  std::optional<Frame> Next();

  bool poisoned() const { return poisoned_; }
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  size_t max_payload_;
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  bool poisoned_ = false;
};

}  // namespace jbs
