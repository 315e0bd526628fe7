// JBS fetch wire protocol. A fetch conversation moves MOF segments in
// transport-buffer-sized chunks:
//
//   client -> server : kFetchRequest {map_task, partition, offset, max_len}
//   server -> client : kFetchData    {map_task, partition, offset,
//                                     segment_total, flags, data bytes}
//   server -> client : kFetchError   {map_task, partition, message}
//   server -> client : kErrorBusy    {map_task, partition, retry_after_ms}
//
// One conversation carries several segments of a node at once, with
// requests for all of them in flight. Every reply names its segment, so
// the client matches it by (map_task, partition), and a data reply by its
// offset too; no request id is needed. The supplier keeps each segment's
// replies in offset order: one disk thread serves a MOF's requests at a
// time, in (partition, offset) order, and posts them to the transport's
// FIFO send queue before another thread may take that MOF.
//
// Chunking to the transport buffer size is what makes the protocol work
// unchanged over the verbs backend (pre-posted receive buffers) and what
// Fig. 11 sweeps.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/framing.h"

namespace jbs::shuffle {

enum FrameType : uint8_t {
  kFetchRequest = 1,
  kFetchData = 2,
  kFetchError = 3,
  kHello = 4,
  kErrorBusy = 5,
};

/// Highest protocol version this build speaks. Version 1 (implicit — no
/// hello frame) is the PR 6 wire format; version 2 adds the hello
/// capability advertisement and per-chunk wire compression.
inline constexpr uint32_t kProtocolVersion = 2;

/// Hello capability bit: the client can decompress kChunkCompressed
/// payloads, so the supplier may compress eligible chunks for this
/// connection.
inline constexpr uint32_t kCapWireCompression = 1u << 0;

/// One-way capability advertisement, sent by the client as the first frame
/// after dialing. There is no reply — the fetch conversation stays a strict
/// request/response alternation — and the server treats its absence (old
/// client, dropped frame) as "no capabilities": it just serves raw chunks.
/// Servers older than version 2 log-and-ignore the unknown frame type, so
/// the handshake is backward compatible in both directions.
struct Hello {
  uint32_t version = kProtocolVersion;
  uint32_t caps = 0;  // kCapWireCompression etc.
};

struct FetchRequest {
  int32_t map_task = 0;
  int32_t partition = 0;
  uint64_t offset = 0;   // into the segment
  uint32_t max_len = 0;  // server returns at most this many bytes
};

/// FetchDataHeader flag: segment bytes are block-compressed.
inline constexpr uint32_t kSegmentCompressed = 1u << 0;
/// FetchDataHeader flag: `crc32` carries a per-chunk checksum covering the
/// header fields and the payload (see ChunkWireCrc). Suppliers always set
/// it, and the NetMerger rejects a data chunk without it as corrupt.
inline constexpr uint32_t kChunkHasCrc = 1u << 1;
/// FetchDataHeader flag: this chunk's payload is a Compress() stream of the
/// logical chunk bytes. `offset` and `segment_total` stay in logical
/// (decompressed) coordinates; only the payload on the wire shrinks. The
/// chunk CRC folds over the *compressed* payload, so the client verifies
/// integrity before paying for decompression. Only set for clients that
/// advertised kCapWireCompression.
inline constexpr uint32_t kChunkCompressed = 1u << 2;

struct FetchDataHeader {
  int32_t map_task = 0;
  int32_t partition = 0;
  uint64_t offset = 0;
  uint64_t segment_total = 0;  // full segment length, lets the client plan
  uint32_t flags = 0;          // kSegmentCompressed etc.
  uint32_t crc32 = 0;          // per-chunk checksum (kChunkHasCrc)
};

struct FetchError {
  int32_t map_task = 0;
  int32_t partition = 0;
  std::string message;
};

/// Overload pushback (DESIGN.md §16): the supplier shed this request
/// instead of queueing it — its admission queue, inflight-byte budget, or
/// DataCache is saturated. Not a failure: the segment exists and the server
/// is healthy, just busy. Clients retry the same server after roughly
/// `retry_after_ms` (plus jitter); pushback must not count against node
/// health, trigger failover-replica promotion, or be treated as corruption.
struct BusyReply {
  int32_t map_task = 0;
  int32_t partition = 0;
  uint32_t retry_after_ms = 0;  // server's backlog-derived retry hint
};

Frame EncodeRequest(const FetchRequest& request);
std::optional<FetchRequest> DecodeRequest(const Frame& frame);

Frame EncodeHello(const Hello& hello);
std::optional<Hello> DecodeHello(const Frame& frame);

/// Builds a data frame: header followed by `data`. Copies `data` into the
/// frame's owned payload (counted by PayloadCopyBytes) — the serve path
/// uses the zero-copy variants below instead.
Frame EncodeData(const FetchDataHeader& header, std::span<const uint8_t> data);

/// Zero-copy data frame: the owned payload is just the 32-byte header; the
/// chunk bytes ride as the frame's borrowed `ext` view, kept alive by
/// `lease` until the transport has put the last byte on the wire.
/// `data` must point into the leased storage (e.g. a PooledBuffer wrapped
/// by MakeBufferLease).
Frame EncodeDataZeroCopy(const FetchDataHeader& header,
                         std::span<const uint8_t> data,
                         std::shared_ptr<const void> lease);

/// Decodes header; `data` is set to the chunk bytes after it (a view into
/// the frame's payload, or its `ext` when the chunk bytes live there).
std::optional<FetchDataHeader> DecodeData(const Frame& frame,
                                          std::span<const uint8_t>* data);
/// Decodes the header from the first kDataHeaderSize bytes of a data
/// payload, e.g. a frame head seen before its chunk bytes are placed.
std::optional<FetchDataHeader> DecodeDataHeader(
    std::span<const uint8_t> head);

Frame EncodeError(const FetchError& error);
std::optional<FetchError> DecodeError(const Frame& frame);

Frame EncodeBusy(const BusyReply& busy);
std::optional<BusyReply> DecodeBusy(const Frame& frame);

/// The chunk checksum: CRC32 over the payload bytes folded with the header
/// fields (everything except the crc field itself), so a bit flip anywhere
/// in the frame — including `segment_total`, which would silently truncate
/// or inflate the client's reassembly — is detected, not just payload
/// damage. `data_crc` is Crc32 over the payload alone; the fold over the
/// 28 header bytes is added on top.
uint32_t ChunkWireCrc(const FetchDataHeader& header, uint32_t data_crc);

/// Wire size of the data-frame header, for sizing chunk payloads.
inline constexpr size_t kDataHeaderSize = 4 + 4 + 8 + 8 + 4 + 4;

}  // namespace jbs::shuffle
