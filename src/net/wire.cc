#include "net/wire.h"

#include "lsm/write_batch.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace sealdb::net {

const char* OpName(uint8_t opcode) {
  switch (static_cast<Op>(opcode & ~kResponseBit)) {
    case Op::kPing:
      return "PING";
    case Op::kGet:
      return "GET";
    case Op::kPut:
      return "PUT";
    case Op::kDelete:
      return "DELETE";
    case Op::kWriteBatch:
      return "WRITE_BATCH";
    case Op::kScan:
      return "SCAN";
    case Op::kMetrics:
      return "METRICS";
  }
  if (opcode == (kOpError | kResponseBit) || opcode == kOpError) return "ERROR";
  return "UNKNOWN";
}

void EncodeFrame(std::string* dst, uint8_t opcode, uint64_t request_id,
                 const Slice& payload, uint64_t trace_id) {
  char header[kFrameHeaderBytes];
  header[0] = static_cast<char>(kWireMagic0);
  header[1] = static_cast<char>(kWireMagic1);
  header[kVersionOffset] = static_cast<char>(kWireVersion);
  header[kOpcodeOffset] = static_cast<char>(opcode);
  EncodeFixed64(header + kRequestIdOffset, request_id);
  EncodeFixed64(header + kTraceIdOffset, trace_id);
  EncodeFixed32(header + kPayloadLenOffset,
                static_cast<uint32_t>(payload.size()));
  EncodeFixed32(header + kCrcOffset,
                crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  dst->append(header, kFrameHeaderBytes);
  dst->append(payload.data(), payload.size());
}

DecodeResult DecodeFrame(Slice* input, FrameHeader* header, Slice* payload) {
  // Reject garbage streams as early as the bytes allow rather than
  // waiting for a full header that will never arrive.
  const char* p = input->data();
  if (input->size() >= 1 && static_cast<uint8_t>(p[0]) != kWireMagic0) {
    return DecodeResult::kBadMagic;
  }
  if (input->size() >= 2 && static_cast<uint8_t>(p[1]) != kWireMagic1) {
    return DecodeResult::kBadMagic;
  }
  if (input->size() >= 3 && static_cast<uint8_t>(p[kVersionOffset]) !=
                                kWireVersion) {
    return DecodeResult::kBadVersion;
  }
  if (input->size() < kFrameHeaderBytes) return DecodeResult::kNeedMore;
  header->version = static_cast<uint8_t>(p[kVersionOffset]);
  header->opcode = static_cast<uint8_t>(p[kOpcodeOffset]);
  header->request_id = DecodeFixed64(p + kRequestIdOffset);
  header->trace_id = DecodeFixed64(p + kTraceIdOffset);
  header->payload_len = DecodeFixed32(p + kPayloadLenOffset);
  const uint32_t masked_crc = DecodeFixed32(p + kCrcOffset);
  if (header->payload_len > kMaxPayloadBytes) return DecodeResult::kTooLarge;
  if (input->size() < kFrameHeaderBytes + header->payload_len) {
    return DecodeResult::kNeedMore;
  }
  const char* body = p + kFrameHeaderBytes;
  const uint32_t crc = crc32c::Value(body, header->payload_len);
  if (crc32c::Unmask(masked_crc) != crc) return DecodeResult::kBadCrc;
  *payload = Slice(body, header->payload_len);
  input->remove_prefix(kFrameHeaderBytes + header->payload_len);
  return DecodeResult::kOk;
}

namespace {

// The status record carries the numeric code plus the untyped message so
// the receiving side can rebuild an equivalent Status via the factories.
enum WireStatusCode : uint8_t {
  kWireOk = 0,
  kWireNotFound = 1,
  kWireCorruption = 2,
  kWireNotSupported = 3,
  kWireInvalidArgument = 4,
  kWireIOError = 5,
  kWireNoSpace = 6,
  kWireBusy = 7,
  kWireTimedOut = 8,
  kWireShardDegraded = 9,
};

uint8_t StatusToWireCode(const Status& s) {
  if (s.ok()) return kWireOk;
  if (s.IsNotFound()) return kWireNotFound;
  if (s.IsCorruption()) return kWireCorruption;
  if (s.IsNotSupported()) return kWireNotSupported;
  if (s.IsInvalidArgument()) return kWireInvalidArgument;
  if (s.IsIOError()) return kWireIOError;
  if (s.IsNoSpace()) return kWireNoSpace;
  if (s.IsBusy()) return kWireBusy;
  if (s.IsTimedOut()) return kWireTimedOut;
  if (s.IsShardDegraded()) return kWireShardDegraded;
  return kWireIOError;
}

Status WireCodeToStatus(uint8_t code, const Slice& msg) {
  switch (code) {
    case kWireOk:
      return Status::OK();
    case kWireNotFound:
      return Status::NotFound(msg);
    case kWireCorruption:
      return Status::Corruption(msg);
    case kWireNotSupported:
      return Status::NotSupported(msg);
    case kWireInvalidArgument:
      return Status::InvalidArgument(msg);
    case kWireIOError:
      return Status::IOError(msg);
    case kWireNoSpace:
      return Status::NoSpace(msg);
    case kWireBusy:
      return Status::Busy(msg);
    case kWireTimedOut:
      return Status::TimedOut(msg);
    case kWireShardDegraded:
      return Status::ShardDegraded(msg);
  }
  return Status::Corruption("unknown wire status code");
}

}  // namespace

void EncodeStatusRecord(std::string* dst, const Status& s) {
  dst->push_back(static_cast<char>(StatusToWireCode(s)));
  PutLengthPrefixedSlice(dst, s.message());
}

bool DecodeStatusRecord(Slice* input, Status* s) {
  if (input->empty()) return false;
  const uint8_t code = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  Slice msg;
  if (!GetLengthPrefixedSlice(input, &msg)) return false;
  *s = WireCodeToStatus(code, msg);
  return true;
}

void EncodeKeyRequest(std::string* dst, const Slice& key) {
  PutLengthPrefixedSlice(dst, key);
}

bool DecodeKeyRequest(Slice input, Slice* key) {
  return GetLengthPrefixedSlice(&input, key) && input.empty();
}

void EncodePutRequest(std::string* dst, const Slice& key, const Slice& value) {
  PutLengthPrefixedSlice(dst, key);
  PutLengthPrefixedSlice(dst, value);
}

bool DecodePutRequest(Slice input, Slice* key, Slice* value) {
  return GetLengthPrefixedSlice(&input, key) &&
         GetLengthPrefixedSlice(&input, value) && input.empty();
}

namespace {

constexpr uint8_t kBatchTagPut = 0;
constexpr uint8_t kBatchTagDelete = 1;

class BatchEncoder : public WriteBatch::Handler {
 public:
  explicit BatchEncoder(std::string* dst) : dst_(dst) {}
  void Put(const Slice& key, const Slice& value) override {
    count_++;
    dst_->push_back(static_cast<char>(kBatchTagPut));
    PutLengthPrefixedSlice(dst_, key);
    PutLengthPrefixedSlice(dst_, value);
  }
  void Delete(const Slice& key) override {
    count_++;
    dst_->push_back(static_cast<char>(kBatchTagDelete));
    PutLengthPrefixedSlice(dst_, key);
  }
  uint32_t count() const { return count_; }

 private:
  std::string* dst_;
  uint32_t count_ = 0;
};

}  // namespace

void EncodeWriteBatchRequest(std::string* dst, const WriteBatch& batch) {
  std::string ops;
  BatchEncoder enc(&ops);
  (void)batch.Iterate(&enc);  // in-memory iteration over a valid batch
  PutVarint32(dst, enc.count());
  dst->append(ops);
}

bool DecodeWriteBatchRequest(Slice input, WriteBatch* batch) {
  uint32_t count = 0;
  if (!GetVarint32(&input, &count)) return false;
  batch->Clear();
  for (uint32_t i = 0; i < count; i++) {
    if (input.empty()) return false;
    const uint8_t tag = static_cast<uint8_t>(input[0]);
    input.remove_prefix(1);
    Slice key, value;
    if (!GetLengthPrefixedSlice(&input, &key)) return false;
    if (tag == kBatchTagPut) {
      if (!GetLengthPrefixedSlice(&input, &value)) return false;
      batch->Put(key, value);
    } else if (tag == kBatchTagDelete) {
      batch->Delete(key);
    } else {
      return false;
    }
  }
  return input.empty();
}

void EncodeScanRequest(std::string* dst, const Slice& start, uint32_t limit) {
  PutLengthPrefixedSlice(dst, start);
  PutVarint32(dst, limit);
}

bool DecodeScanRequest(Slice input, Slice* start, uint32_t* limit) {
  return GetLengthPrefixedSlice(&input, start) && GetVarint32(&input, limit) &&
         input.empty();
}

void EncodeGetResponse(std::string* dst, const Status& s, const Slice& value) {
  EncodeStatusRecord(dst, s);
  PutLengthPrefixedSlice(dst, value);
}

bool DecodeGetResponse(Slice input, Status* s, std::string* value) {
  Slice v;
  if (!DecodeStatusRecord(&input, s) || !GetLengthPrefixedSlice(&input, &v) ||
      !input.empty()) {
    return false;
  }
  value->assign(v.data(), v.size());
  return true;
}

void EncodeScanResponse(
    std::string* dst, const Status& s,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  EncodeStatusRecord(dst, s);
  PutVarint32(dst, static_cast<uint32_t>(entries.size()));
  for (const auto& [key, value] : entries) {
    PutLengthPrefixedSlice(dst, key);
    PutLengthPrefixedSlice(dst, value);
  }
}

bool DecodeScanResponse(
    Slice input, Status* s,
    std::vector<std::pair<std::string, std::string>>* entries) {
  entries->clear();
  uint32_t count = 0;
  if (!DecodeStatusRecord(&input, s) || !GetVarint32(&input, &count)) {
    return false;
  }
  entries->reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    Slice key, value;
    if (!GetLengthPrefixedSlice(&input, &key) ||
        !GetLengthPrefixedSlice(&input, &value)) {
      return false;
    }
    entries->emplace_back(std::string(key.data(), key.size()),
                          std::string(value.data(), value.size()));
  }
  return input.empty();
}

void EncodeMetricsResponse(std::string* dst, const Status& s,
                           const Slice& text) {
  EncodeStatusRecord(dst, s);
  PutLengthPrefixedSlice(dst, text);
}

bool DecodeMetricsResponse(Slice input, Status* s, std::string* text) {
  Slice t;
  if (!DecodeStatusRecord(&input, s) || !GetLengthPrefixedSlice(&input, &t) ||
      !input.empty()) {
    return false;
  }
  text->assign(t.data(), t.size());
  return true;
}

}  // namespace sealdb::net
