// Block compression for map outputs (Hadoop's mapred.compress.map.output)
// and for chunks on the wire. An LZSS-family byte codec with a 64 KB
// window, tuned for the repetitive key prefixes of sorted shuffle
// segments. The encoder and decoder are built the way LZ4's block codec
// is (DESIGN.md §14): a per-thread hash table of 32-bit positions, 8-byte
// match extension, literals and matches copied in whole words.
//
// Stream layout:
//   u8 magic 'J' | u8 version | varint raw_size | tokens...
// Token:
//   control byte c:
//     c & 0x80 == 0: literal run of (c + 1) bytes follows       (1..128)
//     c & 0x80 != 0: match of length ((c & 0x7F) + kMinMatch)   (4..131)
//                    followed by u16 little-endian distance      (1..65535)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"

namespace jbs {

/// Compresses `input`; output always decompresses to exactly `input`.
/// Compression is skip-proof: pathological inputs expand by at most
/// input/128 + 16 bytes.
std::vector<uint8_t> Compress(std::span<const uint8_t> input);

/// Compress with an output cap: nullopt when the stream would be longer
/// than `max_output` bytes. The encoder stops as soon as its output passes
/// the cap, so an input that does not shrink enough is given up partway
/// through instead of compressed whole. The returned vector holds exactly
/// the stream's bytes.
std::optional<std::vector<uint8_t>> CompressWithin(
    std::span<const uint8_t> input, size_t max_output);

/// Decompresses a Compress() stream into the front of `dst` and returns
/// the decoded size. Fails on malformed input (bad magic, truncated
/// tokens, out-of-window distances, size mismatch); ResourceExhausted,
/// with nothing written, when the declared raw size does not fit `dst`.
/// Writes nothing past `dst`'s end, but may overwrite any byte of `dst`
/// after the decoded ones, and leaves `dst` undefined on failure.
StatusOr<size_t> DecompressInto(std::span<const uint8_t> input,
                                std::span<uint8_t> dst);

/// Decompresses a Compress() stream into a new vector of the declared
/// size (DecompressInto, given slack past it for whole-word copies, which
/// the vector then drops). The declared raw size is validated against
/// MaxDecompressedSize() before any allocation, so a forged header cannot
/// demand an arbitrary reserve.
StatusOr<std::vector<uint8_t>> Decompress(std::span<const uint8_t> input);

/// Upper bound on how many bytes `token_bytes` of token stream can decode
/// to (every 3 bytes a max-length match). The decoders reject raw-size
/// claims above this bound.
size_t MaxDecompressedSize(size_t token_bytes);

/// True if `data` starts with a Compress() header.
bool LooksCompressed(std::span<const uint8_t> data);

}  // namespace jbs
