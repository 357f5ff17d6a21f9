// SEALDB wire protocol: length-prefixed binary frames over TCP.
//
// Every message (request or response) is one frame:
//
//   offset size  field
//   0      2     magic 0x5E 0xA1
//   2      1     protocol version (kWireVersion)
//   3      1     opcode (requests: Op; responses: Op | kResponseBit)
//   4      8     request id (fixed64, echoed verbatim in the response)
//   12     8     trace id (fixed64; 0 = untraced — see DESIGN.md §12)
//   20     4     payload length (fixed32)
//   24     4     masked crc32c of the payload (fixed32, util/crc32c)
//   28     ...   payload
//
// Version history: v1 had no trace-id field (20-byte header). v2 spends
// eight reserved bytes on a client-minted trace id so a request can be
// followed through queue-wait / group-commit / engine / device spans
// server-side. The id is echoed on responses like the request id.
//
// Payloads use the same little-endian primitives as the on-disk formats
// (util/coding): length-prefixed slices and varints. Every response payload
// begins with a status record (code byte + length-prefixed message) so
// engine errors — NotFound, the read-only-degradation IOError, NoSpace —
// and serving-layer errors — Busy (admission control rejected the
// request), TimedOut (a server-side deadline elapsed), ShardDegraded (the
// target shard latched a persistent fault; not retryable) — travel to the
// client as typed errors, never as closed sockets.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace sealdb {
class WriteBatch;
}

namespace sealdb::net {

inline constexpr uint8_t kWireMagic0 = 0x5E;
inline constexpr uint8_t kWireMagic1 = 0xA1;
inline constexpr uint8_t kWireVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 28;

// Field offsets within the frame header. Anything that peeks at a raw
// header (the client's reader, the chaos proxy, tests) must use these
// rather than hard-coded offsets.
inline constexpr size_t kVersionOffset = 2;
inline constexpr size_t kOpcodeOffset = 3;
inline constexpr size_t kRequestIdOffset = 4;
inline constexpr size_t kTraceIdOffset = 12;
inline constexpr size_t kPayloadLenOffset = 20;
inline constexpr size_t kCrcOffset = 24;

// Cap on a frame payload, request or response. The server answers a
// request header that claims more with a typed error and closes the
// connection; the client and the chaos proxy reject such a response.
inline constexpr uint32_t kMaxPayloadBytes = 8u << 20;

enum class Op : uint8_t {
  kPing = 1,
  kGet = 2,
  kPut = 3,
  kDelete = 4,
  kWriteBatch = 5,
  kScan = 6,
  // 7 was the retired STATS text opcode; it now gets the unknown-opcode
  // error like any unassigned value.
  kMetrics = 8,
};

// Set on the opcode byte of every response frame.
inline constexpr uint8_t kResponseBit = 0x80;

// Opcode of a protocol-level error response (bad checksum, unknown or
// oversized request). The payload is a status record; the connection is
// closed after it is flushed.
inline constexpr uint8_t kOpError = 0x7F;

const char* OpName(uint8_t opcode);

struct FrameHeader {
  uint8_t version = 0;
  uint8_t opcode = 0;
  uint64_t request_id = 0;
  uint64_t trace_id = 0;  // 0 = untraced
  uint32_t payload_len = 0;
};

// Append one complete frame (header + payload) to *dst. trace_id 0 marks
// the request untraced.
void EncodeFrame(std::string* dst, uint8_t opcode, uint64_t request_id,
                 const Slice& payload, uint64_t trace_id = 0);

enum class DecodeResult {
  kOk,         // *header/*payload filled, frame consumed from *input
  kNeedMore,   // partial frame; read more bytes and retry
  kBadMagic,   // stream is not speaking this protocol — close it
  kBadVersion, // version mismatch — close after an error response
  kBadCrc,     // payload corrupted in flight
  kTooLarge,   // payload length exceeds kMaxPayloadBytes
};

// Try to decode one frame from the front of *input. On kOk the frame's
// bytes are consumed and *payload aliases *input's buffer. On kNeedMore
// nothing is consumed. The other results are fatal for the stream.
DecodeResult DecodeFrame(Slice* input, FrameHeader* header, Slice* payload);

// ---- status record (leads every response payload) ----

void EncodeStatusRecord(std::string* dst, const Status& s);
bool DecodeStatusRecord(Slice* input, Status* s);

// ---- request payloads ----

void EncodeKeyRequest(std::string* dst, const Slice& key);  // GET / DELETE
bool DecodeKeyRequest(Slice input, Slice* key);

void EncodePutRequest(std::string* dst, const Slice& key, const Slice& value);
bool DecodePutRequest(Slice input, Slice* key, Slice* value);

// WRITE_BATCH: varint32 op count, then per op a tag byte (0 = put,
// 1 = delete), a key, and for puts a value.
void EncodeWriteBatchRequest(std::string* dst, const WriteBatch& batch);
bool DecodeWriteBatchRequest(Slice input, WriteBatch* batch);

// SCAN: up to `limit` entries from `start`, in key order. The server may
// answer with fewer (it clamps `limit` and keeps the answer within one
// frame), so a short answer does not mean the range is exhausted: resume
// just past the last key returned. Only an empty answer ends the range.
void EncodeScanRequest(std::string* dst, const Slice& start, uint32_t limit);
bool DecodeScanRequest(Slice input, Slice* start, uint32_t* limit);

// ---- response payloads ----

// PING / PUT / DELETE / WRITE_BATCH responses carry just the status record.
void EncodeGetResponse(std::string* dst, const Status& s, const Slice& value);
bool DecodeGetResponse(Slice input, Status* s, std::string* value);

void EncodeScanResponse(
    std::string* dst, const Status& s,
    const std::vector<std::pair<std::string, std::string>>& entries);
bool DecodeScanResponse(
    Slice input, Status* s,
    std::vector<std::pair<std::string, std::string>>* entries);

// METRICS response: status record + length-prefixed Prometheus text
// exposition. The request carries an empty payload.
void EncodeMetricsResponse(std::string* dst, const Status& s,
                           const Slice& text);
bool DecodeMetricsResponse(Slice input, Status* s, std::string* text);

}  // namespace sealdb::net
