#include "common/framing.h"

#include <atomic>

#include "common/bytes.h"

namespace jbs {

namespace {
std::atomic<uint64_t> g_payload_copy_bytes{0};
}  // namespace

uint64_t PayloadCopyBytes() {
  return g_payload_copy_bytes.load(std::memory_order_relaxed);
}

void AddPayloadCopyBytes(uint64_t n) {
  g_payload_copy_bytes.fetch_add(n, std::memory_order_relaxed);
}

void ResetPayloadCopyBytes() {
  g_payload_copy_bytes.store(0, std::memory_order_relaxed);
}

void EncodeFrame(const Frame& frame, std::vector<uint8_t>& out) {
  PutU32(out, static_cast<uint32_t>(frame.payload_size()));
  out.push_back(frame.type);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  out.insert(out.end(), frame.ext.begin(), frame.ext.end());
  AddPayloadCopyBytes(frame.payload.size() + frame.ext.size());
}

void EncodeFrameHeader(const Frame& frame, uint8_t out[5]) {
  const uint32_t length = static_cast<uint32_t>(frame.payload_size());
  out[0] = static_cast<uint8_t>(length >> 24);
  out[1] = static_cast<uint8_t>(length >> 16);
  out[2] = static_cast<uint8_t>(length >> 8);
  out[3] = static_cast<uint8_t>(length);
  out[4] = frame.type;
}

Status FrameDecoder::Feed(std::span<const uint8_t> data) {
  if (poisoned_) return Internal("decoder poisoned by oversized frame");
  // Compact occasionally so the buffer does not grow without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
  return Status::Ok();
}

std::optional<Frame> FrameDecoder::Next() {
  if (poisoned_) return std::nullopt;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderSize) return std::nullopt;
  const uint8_t* base = buffer_.data() + consumed_;
  const uint32_t length = GetU32(base);
  if (length > max_payload_) {
    poisoned_ = true;
    return std::nullopt;
  }
  if (available < kFrameHeaderSize + length) return std::nullopt;
  Frame frame;
  frame.type = base[4];
  frame.payload.assign(base + kFrameHeaderSize,
                       base + kFrameHeaderSize + length);
  consumed_ += kFrameHeaderSize + length;
  return frame;
}

}  // namespace jbs
