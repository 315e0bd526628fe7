#include "common/compress.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>

#include "common/bytes.h"
#include "common/compress_internal.h"

namespace jbs {

namespace {

constexpr uint8_t kMagic = 'J';
constexpr uint8_t kVersion = 1;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 131;          // 0x7F + kMinMatch
constexpr size_t kMaxLiteralRun = 128;     // 0x7F + 1
constexpr size_t kMaxDistance = 65535;
constexpr size_t kMaxHeaderBytes = 2 + 10;  // magic, version, varint

// Encoder: 2^kHashBits slots of 32-bit positions per thread.
constexpr int kHashBits = 14;
constexpr size_t kHashSize = size_t{1} << kHashBits;
// After 2^kSkipTrigger probes without a match the search steps 2 bytes at
// a time, then 3, and so on (LZ4's acceleration); a match resets it.
constexpr unsigned kSkipTrigger = 6;
// Positions one table generation may cover; a longer input opens a new
// generation where this one ends (and forgets its matches).
constexpr size_t kGenerationSpan = size_t{1} << 30;
// The lowest generation base: farther than any distance from a 0 slot.
constexpr uint32_t kFirstBase = kMaxDistance + 1;
// Room past a copy's end that a 16-byte block copy may write.
constexpr size_t kWildSlack = 15;
// Output scratch kept by a thread between calls; a larger one is freed.
constexpr size_t kRetainedScratchBytes = size_t{1} << 20;

// Decoder: a token's wild copy writes whole 16-byte blocks, so it may run
// up to 15 bytes past the token's end. Tokens take the wild path while
// that much room is left in the destination (and in the input, for
// literals); near either end they copy exactly.
constexpr size_t kWildLiteralRoom = kMaxLiteralRun;
constexpr size_t kWildMatchRoom = (kMaxMatch + 15) / 16 * 16;  // 144
// Extra bytes Decompress gives its own buffer so that the whole stream
// can take the wild path.
constexpr size_t kDecodeSlack = kWildMatchRoom;

uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

size_t Hash4(uint32_t v) { return (v * 2654435761u) >> (32 - kHashBits); }

/// Length of the common prefix of `p` and the earlier `q`, reading `p` no
/// further than `end`.
size_t CommonPrefix(const uint8_t* p, const uint8_t* q, const uint8_t* end) {
  const uint8_t* const start = p;
  while (end - p >= 8) {
    const uint64_t diff = Load64(p) ^ Load64(q);
    if (diff != 0) {
      const int bits = std::endian::native == std::endian::little
                           ? std::countr_zero(diff)
                           : std::countl_zero(diff);
      return static_cast<size_t>(p - start) + static_cast<size_t>(bits >> 3);
    }
    p += 8;
    q += 8;
  }
  while (p < end && *p == *q) {
    ++p;
    ++q;
  }
  return static_cast<size_t>(p - start);
}

/// Copies whole 16-byte blocks until at least `n` bytes are written, so
/// it may read and write up to 15 bytes past `n`. Safe for a match source
/// 16 or more bytes back: each block is read before any later block is
/// written, and none reads bytes it writes.
void WildCopy16(uint8_t* dst, const uint8_t* src, size_t n) {
  uint8_t* const stop = dst + n;
  do {
    std::memcpy(dst, src, 16);
    dst += 16;
    src += 16;
  } while (dst < stop);
}

/// Emits `len` literals from `src` as runs of at most kMaxLiteralRun.
/// Copies in whole 16-byte blocks while `src_end` leaves room to read
/// them, so it may write up to 15 bytes past the last run.
uint8_t* EmitLiterals(uint8_t* op, const uint8_t* src, size_t len,
                      const uint8_t* src_end) {
  while (len > 0) {
    const size_t run = std::min(kMaxLiteralRun, len);
    *op++ = static_cast<uint8_t>(run - 1);
    if (static_cast<size_t>(src_end - src) >= kMaxLiteralRun) {
      WildCopy16(op, src, run);
    } else {
      std::memcpy(op, src, run);
    }
    op += run;
    src += run;
    len -= run;
  }
  return op;
}

uint8_t* EmitMatchToken(uint8_t* op, size_t length, size_t distance) {
  op[0] = static_cast<uint8_t>(0x80 | (length - kMinMatch));
  op[1] = static_cast<uint8_t>(distance & 0xFF);
  op[2] = static_cast<uint8_t>(distance >> 8);
  return op + 3;
}

/// Emits a match of any length >= kMinMatch as tokens of at most
/// kMaxMatch bytes, none shorter than kMinMatch.
uint8_t* EmitMatch(uint8_t* op, size_t length, size_t distance) {
  while (length > kMaxMatch) {
    const size_t piece =
        length - kMaxMatch < kMinMatch ? length - kMinMatch : kMaxMatch;
    op = EmitMatchToken(op, piece, distance);
    length -= piece;
  }
  return EmitMatchToken(op, length, distance);
}

/// Worst-case stream size for `n` input bytes: all literals.
size_t MaxCompressedSize(size_t n) {
  return n + n / kMaxLiteralRun + 1 + kMaxHeaderBytes;
}

/// A thread's encoder state: the match table and the output scratch.
struct EncoderState {
  // A slot holds base + offset for the position it indexes. Every value
  // stored so far is more than kMaxDistance below the next generation's
  // base, and so is an empty slot's 0, so one distance test rejects stale
  // and empty slots alike.
  uint32_t next_base = kFirstBase;
  std::array<uint32_t, kHashSize> slots{};
  std::unique_ptr<uint8_t[]> out;
  size_t out_capacity = 0;

  /// Opens a table generation for `span` (<= kGenerationSpan) positions
  /// and returns its base. The table reads as empty without being filled,
  /// except when the bases would wrap past 2^32.
  uint32_t NewGeneration(size_t span) {
    constexpr uint32_t kLastBase = std::numeric_limits<uint32_t>::max();
    if (next_base > kLastBase - span - kMaxDistance) {
      slots.fill(0);
      next_base = kFirstBase;
    }
    const uint32_t base = next_base;
    next_base += static_cast<uint32_t>(span + kMaxDistance);
    return base;
  }

  uint8_t* Scratch(size_t bytes) {
    if (out_capacity < bytes) {
      out.reset(new uint8_t[bytes]);
      out_capacity = bytes;
    }
    return out.get();
  }

  void TrimScratch() {
    if (out_capacity > kRetainedScratchBytes) {
      out.reset();
      out_capacity = 0;
    }
  }
};

EncoderState& ThreadEncoder() {
  thread_local std::unique_ptr<EncoderState> state;
  if (state == nullptr) state = std::make_unique<EncoderState>();
  return *state;
}

/// The encoder behind Compress and CompressWithin: writes the stream for
/// `input` into `out` (MaxCompressedSize + kWildSlack bytes) and returns
/// its length, or 0 (never a stream's length) once the output passes
/// `cap`.
size_t Encode(std::span<const uint8_t> input, size_t cap, uint8_t* out,
              EncoderState& state) {
  const size_t n = input.size();
  std::vector<uint8_t> header{kMagic, kVersion};
  PutVarint64(header, static_cast<int64_t>(n));
  std::memcpy(out, header.data(), header.size());
  uint8_t* op = out + header.size();

  // The cap as a pointer: never past the scratch, which holds any stream.
  const uint8_t* const cap_end = out + std::min(cap, MaxCompressedSize(n));
  if (op > cap_end) return 0;

  const uint8_t* const in = input.data();
  size_t anchor = 0;  // first input byte not yet emitted
  if (n > kMinMatch) {
    // The last position whose 4 bytes a probe may read.
    const size_t match_limit = n - kMinMatch;
    uint32_t* const slots = state.slots.data();
    size_t search_end = 0;  // the last position this generation covers
    uint32_t shift = 0;     // a position's slot value minus it, mod 2^32
    const auto open_generation = [&](size_t at) {
      const size_t span = std::min(n - at, kGenerationSpan);
      shift = state.NewGeneration(span) - static_cast<uint32_t>(at);
      search_end = std::min(match_limit, at + span - 1);
    };
    open_generation(0);
    size_t pos = 0;
    for (;;) {
      // Search: probe the table at pos, stepping farther the longer no
      // match turns up. Stop at the input's end, at the generation's end,
      // or once the pending literals alone would pass the cap.
      const size_t limit =
          std::min(search_end, anchor + static_cast<size_t>(cap_end - op));
      size_t candidate = 0;
      bool found = false;
      unsigned probes = 1u << kSkipTrigger;
      while (pos <= limit) {
        const uint32_t sequence = Load32(in + pos);
        uint32_t& slot = slots[Hash4(sequence)];
        const uint32_t current = static_cast<uint32_t>(pos) + shift;
        const uint32_t distance = current - slot;
        slot = current;
        if (distance <= kMaxDistance &&
            Load32(in + pos - distance) == sequence) {
          candidate = pos - distance;
          found = true;
          break;
        }
        pos += probes++ >> kSkipTrigger;
      }
      if (!found) {
        if (limit < search_end) return 0;  // the literals pass the cap
        if (search_end == match_limit) break;
        pos = search_end + 1;
        open_generation(pos);
        continue;
      }
      const size_t length =
          kMinMatch + CommonPrefix(in + pos + kMinMatch,
                                   in + candidate + kMinMatch, in + n);
      op = EmitLiterals(op, in + anchor, pos - anchor, in + n);
      op = EmitMatch(op, length, pos - candidate);
      if (op > cap_end) return 0;
      pos += length;
      anchor = pos;
      if (pos > match_limit) break;
      if (pos > search_end) {
        open_generation(pos);
      } else {
        // Index one position inside the match, not all of them; the
        // next search probes pos itself first.
        slots[Hash4(Load32(in + pos - 2))] =
            static_cast<uint32_t>(pos - 2) + shift;
      }
    }
  }
  op = EmitLiterals(op, in + anchor, n - anchor, in + n);
  return op > cap_end ? 0 : static_cast<size_t>(op - out);
}

/// Reads a stream's header; returns the declared raw size and leaves
/// `*offset` at the first token.
StatusOr<size_t> ReadHeader(std::span<const uint8_t> input, size_t* offset) {
  if (input.size() < 2 || input[0] != kMagic || input[1] != kVersion) {
    return InvalidArgument("not a compressed stream");
  }
  *offset = 2;
  auto raw_size = GetVarint64(input, offset);
  if (!raw_size || *raw_size < 0) {
    return IoError("corrupt compressed header");
  }
  // `raw_size` is an untrusted wire value: a forged 16-byte stream could
  // otherwise claim a multi-GB size and turn the caller's allocation into
  // a bomb. Reject claims the remaining tokens could never produce.
  const auto claimed = static_cast<uint64_t>(*raw_size);
  if (claimed > MaxDecompressedSize(input.size() - *offset)) {
    return IoError("implausible decompressed size " + std::to_string(claimed) +
                   " for " + std::to_string(input.size() - *offset) +
                   " token bytes");
  }
  return static_cast<size_t>(claimed);
}

/// WildCopy16 in 8-byte blocks, for a match source 8 to 15 bytes back.
void WildCopy8(uint8_t* dst, const uint8_t* src, size_t n) {
  uint8_t* const stop = dst + n;
  do {
    std::memcpy(dst, src, 8);
    dst += 8;
    src += 8;
  } while (dst < stop);
}

}  // namespace

std::optional<std::vector<uint8_t>> CompressWithin(
    std::span<const uint8_t> input, size_t max_output) {
  EncoderState& state = ThreadEncoder();
  uint8_t* const out =
      state.Scratch(MaxCompressedSize(input.size()) + kWildSlack);
  const size_t size = Encode(input, max_output, out, state);
  std::optional<std::vector<uint8_t>> stream;
  if (size != 0) stream.emplace(out, out + size);
  state.TrimScratch();
  return stream;
}

std::vector<uint8_t> Compress(std::span<const uint8_t> input) {
  return *CompressWithin(input, std::numeric_limits<size_t>::max());
}

size_t MaxDecompressedSize(size_t token_bytes) {
  // Densest possible encoding: every 3 input bytes are one match token
  // producing kMaxMatch output bytes. Anything claimed above this bound
  // cannot be backed by the tokens that follow, however they decode.
  return token_bytes / 3 * kMaxMatch + kMaxMatch;
}

StatusOr<size_t> DecompressInto(std::span<const uint8_t> input,
                                std::span<uint8_t> dst) {
  size_t offset = 0;
  auto claimed = ReadHeader(input, &offset);
  JBS_RETURN_IF_ERROR(claimed.status());
  if (*claimed > dst.size()) {
    return ResourceExhausted("decompressed size " + std::to_string(*claimed) +
                             " exceeds the " + std::to_string(dst.size()) +
                             "-byte destination");
  }
  const uint8_t* ip = input.data() + offset;
  const uint8_t* const iend = input.data() + input.size();
  uint8_t* const ostart = dst.data();
  uint8_t* op = ostart;
  uint8_t* const oend = ostart + *claimed;
  uint8_t* const dend = ostart + dst.size();
  while (ip < iend) {
    const uint8_t control = *ip++;
    if ((control & 0x80) == 0) {
      const size_t run = static_cast<size_t>(control) + 1;
      if (run > static_cast<size_t>(iend - ip)) {
        return IoError("truncated literal run");
      }
      if (run > static_cast<size_t>(oend - op)) {
        return IoError("decompressed size mismatch");
      }
      if (static_cast<size_t>(iend - ip) >= kWildLiteralRoom &&
          static_cast<size_t>(dend - op) >= kWildLiteralRoom) {
        WildCopy16(op, ip, run);
      } else {
        std::memcpy(op, ip, run);
      }
      op += run;
      ip += run;
    } else {
      if (iend - ip < 2) return IoError("truncated match token");
      const size_t length = static_cast<size_t>(control & 0x7F) + kMinMatch;
      const size_t distance =
          static_cast<size_t>(ip[0]) | (static_cast<size_t>(ip[1]) << 8);
      ip += 2;
      if (distance == 0 || distance > static_cast<size_t>(op - ostart)) {
        return IoError("match distance outside window");
      }
      if (length > static_cast<size_t>(oend - op)) {
        return IoError("decompressed size mismatch");
      }
      const uint8_t* const from = op - distance;
      const bool room = static_cast<size_t>(dend - op) >= kWildMatchRoom;
      if (room && distance >= 16) {
        WildCopy16(op, from, length);
      } else if (room && distance >= 8) {
        WildCopy8(op, from, length);
      } else {
        // Byte by byte: the match may overlap itself (RLE-style).
        for (size_t i = 0; i < length; ++i) op[i] = from[i];
      }
      op += length;
    }
  }
  if (op != oend) return IoError("decompressed size mismatch");
  return *claimed;
}

StatusOr<std::vector<uint8_t>> Decompress(std::span<const uint8_t> input) {
  size_t offset = 0;
  auto claimed = ReadHeader(input, &offset);
  JBS_RETURN_IF_ERROR(claimed.status());
  std::vector<uint8_t> out(*claimed + kDecodeSlack);
  auto size = DecompressInto(input, out);
  JBS_RETURN_IF_ERROR(size.status());
  out.resize(*size);
  return out;
}

bool LooksCompressed(std::span<const uint8_t> data) {
  return data.size() >= 2 && data[0] == kMagic && data[1] == kVersion;
}

namespace internal {

uint32_t MatchTableBase() { return ThreadEncoder().next_base; }

void SetMatchTableBase(uint32_t base) {
  EncoderState& state = ThreadEncoder();
  state.next_base = std::max(state.next_base, base);
}

}  // namespace internal

}  // namespace jbs
