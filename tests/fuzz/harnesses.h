// Fuzz harness entry points for the wire/disk parsers that consume
// attacker-controllable bytes: length-prefixed framing (common/framing),
// JBS shuffle protocol headers (jbs/protocol), IFile records
// (mapred/ifile), and the LZSS codec (common/compress) that wire
// compression points at network bytes.
//
// Each harness is an ordinary function with a unique name so that all
// can be linked into one corpus-replay gtest; the per-target
// LLVMFuzzerTestOneInput shims (fuzz_*.cpp) are one-liners delegating here.
// Harnesses must be deterministic, must not touch the filesystem or clock,
// and must tolerate arbitrary bytes without crashing — that is the property
// under test.
#pragma once

#include <cstddef>
#include <cstdint>

namespace jbs::fuzz {

/// FrameDecoder: feeds the input in irregular chunk sizes (derived from the
/// input itself) and drains complete frames, checking decoder invariants.
int FuzzFraming(const uint8_t* data, size_t size);

/// Protocol decoders: input[0] selects the frame type under test, the rest
/// is the payload. Successful decodes are round-tripped through the
/// encoders and must reproduce the accepted payload prefix.
int FuzzProtocol(const uint8_t* data, size_t size);

/// IFileReader: iterates records to EOF/error and verifies the checksum
/// trailer path; accepted streams are re-encoded and must parse again.
/// The input is also read by a SegmentStream while it arrives in pieces
/// sized from its own bytes, which must yield the same records and the
/// same verdict.
int FuzzIfile(const uint8_t* data, size_t size);

/// LZSS codec: Decompress on arbitrary bytes (must fail cleanly — no
/// crash, no forged-raw_size allocation bomb), DecompressInto agreeing
/// with it into exact, one-byte-short and roomy destinations, plus
/// Compress→Decompress round-trip identity on the same bytes.
int FuzzCompress(const uint8_t* data, size_t size);

}  // namespace jbs::fuzz
