#include "net/seal_client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "lsm/write_batch.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/coding.h"

namespace sealdb::net {

namespace {

uint64_t NowMillis() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// A per-client session nonce for the top 24 bits of every request id.
// The server's write-dedup window is shared across connections, so ids
// must not collide across clients: a process-wide counter guarantees
// in-process uniqueness and the clock decorrelates separate processes.
uint64_t MakeSessionNonce() {
  static std::atomic<uint64_t> counter{1};
  const uint64_t c = counter.fetch_add(1, std::memory_order_relaxed);
  const uint64_t t = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  uint64_t nonce = (c * 0x9E3779B97F4A7C15ull) ^ t;
  nonce &= 0xFFFFFFu;
  if (nonce == 0) nonce = c & 0xFFFFFFu ? c & 0xFFFFFFu : 1;
  return nonce;
}

// Trace ids are a bijective mix of the request id: unique per request,
// never zero (zero means untraced on the wire), and decorrelated from the
// id's incrementing low bits so the server's trace_id % N sampling does
// not systematically hit one client's every-Nth operation pattern.
uint64_t MakeTraceId(uint64_t request_id) {
  uint64_t x = request_id * 0x9E3779B97F4A7C15ull;
  x ^= x >> 32;
  return x == 0 ? 1 : x;
}

}  // namespace

SealClient::SealClient()
    : registry_(std::make_shared<obs::MetricsRegistry>()) {
  const uint64_t nonce = MakeSessionNonce();
  next_request_id_ = (nonce << 40) | 1;
  jitter_rng_ = Random(static_cast<uint32_t>(nonce));
  c_retries_ = registry_->RegisterCounter("sealdb_client_retries_total",
                                          "Attempts after the first");
  c_reconnects_ = registry_->RegisterCounter(
      "sealdb_client_reconnects_total", "Successful automatic reconnects");
  c_busy_ = registry_->RegisterCounter(
      "sealdb_client_busy_responses_total",
      "Busy rejections observed, including retried ones");
  c_timeouts_ = registry_->RegisterCounter("sealdb_client_timeouts_total",
                                           "Attempts that timed out");
}

SealClient::~SealClient() { Close(); }

Status SealClient::Connect(const std::string& host, uint16_t port,
                           int recv_timeout_millis,
                           int connect_timeout_millis) {
  Close();
  host_ = host;
  port_ = port;
  recv_timeout_millis_ = recv_timeout_millis;
  connect_timeout_millis_ = connect_timeout_millis;
  Status s = ConnectTcp(host, port, &fd_, connect_timeout_millis);
  if (!s.ok()) return s;
  if (recv_timeout_millis > 0) {
    s = SetRecvTimeout(fd_, recv_timeout_millis);
    if (!s.ok()) {
      Close();
      return s;
    }
  }
  return Status::OK();
}

void SealClient::set_retry_policy(const RetryPolicy& policy) {
  retry_ = policy;
  if (retry_.jitter_seed != 0) jitter_rng_ = Random(retry_.jitter_seed);
}

Status SealClient::Reconnect() {
  if (fd_ >= 0) {
    CloseFd(fd_);
    fd_ = -1;
  }
  if (host_.empty()) return Status::IOError("never connected");
  Status s = ConnectTcp(host_, port_, &fd_, connect_timeout_millis_);
  if (!s.ok()) return s;
  if (recv_timeout_millis_ > 0) {
    s = SetRecvTimeout(fd_, recv_timeout_millis_);
    if (!s.ok()) {
      CloseFd(fd_);
      fd_ = -1;
      return s;
    }
  }
  c_reconnects_->Inc();
  return Status::OK();
}

ClientStats SealClient::stats() const {
  ClientStats s;
  s.retries = c_retries_->Value();
  s.reconnects = c_reconnects_->Value();
  s.busy_responses = c_busy_->Value();
  s.timeouts = c_timeouts_->Value();
  return s;
}

void SealClient::Close() {
  if (fd_ >= 0) {
    CloseFd(fd_);
    fd_ = -1;
  }
  send_buf_.clear();
  pending_.clear();
}

Status SealClient::SendFrame(uint8_t opcode, uint64_t request_id,
                             uint64_t trace_id, const Slice& payload) {
  std::string frame;
  EncodeFrame(&frame, opcode, request_id, payload, trace_id);
  return WriteFully(fd_, frame.data(), frame.size());
}

Status SealClient::ReadFrame(uint8_t* opcode, uint64_t* request_id,
                             std::string* storage, Slice* payload) {
  char header[kFrameHeaderBytes];
  Status s = ReadFully(fd_, header, sizeof(header));
  if (!s.ok()) return s;
  // Reassemble header + payload and run it through the shared decoder so
  // client and server enforce identical framing rules (magic, version,
  // crc).
  storage->assign(header, sizeof(header));
  FrameHeader parsed;
  {
    // Validate the header (magic, version, size cap) before trusting the
    // length field; a header-only input can already fail those checks.
    Slice probe(*storage);
    DecodeResult r = DecodeFrame(&probe, &parsed, payload);
    if (r != DecodeResult::kNeedMore && r != DecodeResult::kOk) {
      return Status::Corruption("malformed response frame header");
    }
  }
  const size_t payload_len =
      static_cast<size_t>(DecodeFixed32(storage->data() + kPayloadLenOffset));
  storage->resize(kFrameHeaderBytes + payload_len);
  if (payload_len > 0) {
    s = ReadFully(fd_, storage->data() + kFrameHeaderBytes, payload_len);
    if (!s.ok()) return s;
  }
  Slice input(*storage);
  DecodeResult r = DecodeFrame(&input, &parsed, payload);
  switch (r) {
    case DecodeResult::kOk:
      break;
    case DecodeResult::kBadCrc:
      return Status::Corruption("response frame checksum mismatch");
    default:
      return Status::Corruption("malformed response frame");
  }
  *opcode = parsed.opcode;
  *request_id = parsed.request_id;
  return Status::OK();
}

Status SealClient::OneRoundTrip(uint8_t opcode, uint64_t id,
                                uint64_t trace_id,
                                const Slice& request_payload,
                                std::string* response_storage,
                                Slice* response_payload) {
  if (fd_ < 0) return Status::IOError("not connected");
  Status s = SendFrame(opcode, id, trace_id, request_payload);
  if (!s.ok()) return s;
  // A duplicated response (network-level retransmission) for an older
  // request may sit ahead of ours in the stream; skip a bounded number of
  // stale frames instead of declaring the connection corrupt.
  for (int skipped = 0; skipped < 32; skipped++) {
    uint8_t resp_opcode = 0;
    uint64_t resp_id = 0;
    s = ReadFrame(&resp_opcode, &resp_id, response_storage, response_payload);
    if (!s.ok()) return s;
    if (resp_opcode == (kOpError | kResponseBit)) {
      Status err;
      Slice in = *response_payload;
      if (DecodeStatusRecord(&in, &err) && !err.ok()) return err;
      return Status::Corruption("server reported a protocol error");
    }
    if (resp_id != id && resp_id < id) continue;  // stale duplicate
    if (resp_id != id || resp_opcode != (opcode | kResponseBit)) {
      return Status::Corruption("response does not match request");
    }
    return Status::OK();
  }
  return Status::Corruption("no response among stale frames");
}

Status SealClient::RoundTrip(uint8_t opcode, const Slice& request_payload,
                             std::string* response_storage,
                             Slice* response_payload) {
  if (!pending_.empty()) {
    return Status::InvalidArgument(
        "pipelined requests pending; call Flush() first");
  }
  // The id is fixed before the first attempt and reused verbatim on every
  // retry: the server's dedup window recognises a resubmitted write by it.
  // The trace id is likewise fixed, so a retried operation shows up as one
  // trace on the server even when it took several attempts.
  const uint64_t id = next_request_id_++;
  const uint64_t trace_id = MakeTraceId(id);
  last_trace_id_ = trace_id;
  if (!retry_.enabled) {
    return OneRoundTrip(opcode, id, trace_id, request_payload,
                        response_storage, response_payload);
  }

  const uint64_t deadline =
      retry_.deadline_millis > 0 ? NowMillis() + retry_.deadline_millis : 0;
  const int attempts = retry_.max_attempts > 0 ? retry_.max_attempts : 1;
  Status last = Status::IOError("no attempts made");
  for (int attempt = 0; attempt < attempts; attempt++) {
    if (attempt > 0) {
      // Exponential backoff, capped, then half-jittered so concurrent
      // clients spread out instead of re-colliding in lockstep.
      int64_t backoff = retry_.base_backoff_millis > 0
                            ? static_cast<int64_t>(retry_.base_backoff_millis)
                                  << std::min(attempt - 1, 20)
                            : 0;
      if (retry_.max_backoff_millis > 0 &&
          backoff > retry_.max_backoff_millis) {
        backoff = retry_.max_backoff_millis;
      }
      if (backoff > 0) {
        backoff = backoff / 2 +
                  jitter_rng_.Uniform(static_cast<int>(backoff / 2 + 1));
      }
      if (deadline != 0) {
        const uint64_t now = NowMillis();
        if (now >= deadline) break;
        backoff = std::min<int64_t>(backoff,
                                    static_cast<int64_t>(deadline - now));
      }
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
      if (deadline != 0 && NowMillis() >= deadline) break;
      c_retries_->Inc();
    }

    if (fd_ < 0) {
      if (!retry_.reconnect) break;
      last = Reconnect();
      if (!last.ok()) continue;
    }

    last = OneRoundTrip(opcode, id, trace_id, request_payload,
                        response_storage, response_payload);
    if (last.ok()) {
      // Transport succeeded; peek at the leading status record (every
      // response payload starts with one) so admission-control rejections
      // are retried here instead of surfacing to the caller. Busy is the
      // ONLY remote status treated as transient: ShardDegraded in
      // particular surfaces immediately — the shard stays down until
      // repaired, so resubmitting would just burn the retry budget.
      Status remote;
      Slice in = *response_payload;
      if (DecodeStatusRecord(&in, &remote) && remote.IsBusy()) {
        c_busy_->Inc();
        last = remote;
        continue;  // connection is fine: back off and resend
      }
      return Status::OK();
    }

    if (last.IsTimedOut()) c_timeouts_->Inc();
    if (!last.IsIOError() && !last.IsTimedOut() && !last.IsCorruption()) {
      return last;  // a typed engine error: give up, it's the real answer
    }
    // IOError / TimedOut / Corruption are all connection-shaped: the
    // stream is dead or desynced and only a fresh socket is usable.
    // The connection is mid-frame or dead; only a fresh one is usable.
    if (fd_ >= 0) {
      CloseFd(fd_);
      fd_ = -1;
    }
    if (!retry_.reconnect) break;
  }
  if (deadline != 0 && NowMillis() >= deadline) {
    return Status::TimedOut("retry deadline exhausted", last.ToString());
  }
  return last;
}

Status SealClient::Ping() {
  std::string storage;
  Slice payload;
  Status s = RoundTrip(static_cast<uint8_t>(Op::kPing), Slice(), &storage,
                       &payload);
  if (!s.ok()) return s;
  Status remote;
  if (!DecodeStatusRecord(&payload, &remote)) {
    return Status::Corruption("malformed PING response");
  }
  return remote;
}

Status SealClient::Put(const Slice& key, const Slice& value) {
  std::string req;
  EncodePutRequest(&req, key, value);
  std::string storage;
  Slice payload;
  Status s =
      RoundTrip(static_cast<uint8_t>(Op::kPut), req, &storage, &payload);
  if (!s.ok()) return s;
  Status remote;
  if (!DecodeStatusRecord(&payload, &remote)) {
    return Status::Corruption("malformed PUT response");
  }
  return remote;
}

Status SealClient::Get(const Slice& key, std::string* value) {
  std::string req;
  EncodeKeyRequest(&req, key);
  std::string storage;
  Slice payload;
  Status s =
      RoundTrip(static_cast<uint8_t>(Op::kGet), req, &storage, &payload);
  if (!s.ok()) return s;
  Status remote;
  if (!DecodeGetResponse(payload, &remote, value)) {
    return Status::Corruption("malformed GET response");
  }
  return remote;
}

Status SealClient::Delete(const Slice& key) {
  std::string req;
  EncodeKeyRequest(&req, key);
  std::string storage;
  Slice payload;
  Status s =
      RoundTrip(static_cast<uint8_t>(Op::kDelete), req, &storage, &payload);
  if (!s.ok()) return s;
  Status remote;
  if (!DecodeStatusRecord(&payload, &remote)) {
    return Status::Corruption("malformed DELETE response");
  }
  return remote;
}

Status SealClient::Write(const WriteBatch& batch) {
  std::string req;
  EncodeWriteBatchRequest(&req, batch);
  std::string storage;
  Slice payload;
  Status s = RoundTrip(static_cast<uint8_t>(Op::kWriteBatch), req, &storage,
                       &payload);
  if (!s.ok()) return s;
  Status remote;
  if (!DecodeStatusRecord(&payload, &remote)) {
    return Status::Corruption("malformed WRITE_BATCH response");
  }
  return remote;
}

Status SealClient::Scan(
    const Slice& start, size_t limit,
    std::vector<std::pair<std::string, std::string>>* out) {
  std::string req;
  EncodeScanRequest(&req, start, static_cast<uint32_t>(limit));
  std::string storage;
  Slice payload;
  Status s =
      RoundTrip(static_cast<uint8_t>(Op::kScan), req, &storage, &payload);
  if (!s.ok()) return s;
  Status remote;
  if (!DecodeScanResponse(payload, &remote, out)) {
    return Status::Corruption("malformed SCAN response");
  }
  return remote;
}

Status SealClient::Metrics(std::string* text) {
  std::string storage;
  Slice payload;
  Status s = RoundTrip(static_cast<uint8_t>(Op::kMetrics), Slice(), &storage,
                       &payload);
  if (!s.ok()) return s;
  Status remote;
  if (!DecodeMetricsResponse(payload, &remote, text)) {
    return Status::Corruption("malformed METRICS response");
  }
  return remote;
}

uint64_t SealClient::QueueFrame(uint8_t opcode, const Slice& request) {
  const uint64_t id = next_request_id_++;
  EncodeFrame(&send_buf_, opcode, id, request, MakeTraceId(id));
  pending_.push_back({id, opcode});
  return id;
}

uint64_t SealClient::QueuePut(const Slice& key, const Slice& value) {
  std::string req;
  EncodePutRequest(&req, key, value);
  return QueueFrame(static_cast<uint8_t>(Op::kPut), req);
}

uint64_t SealClient::QueueDelete(const Slice& key) {
  std::string req;
  EncodeKeyRequest(&req, key);
  return QueueFrame(static_cast<uint8_t>(Op::kDelete), req);
}

uint64_t SealClient::QueueWrite(const WriteBatch& batch) {
  std::string req;
  EncodeWriteBatchRequest(&req, batch);
  return QueueFrame(static_cast<uint8_t>(Op::kWriteBatch), req);
}

uint64_t SealClient::QueueGet(const Slice& key) {
  std::string req;
  EncodeKeyRequest(&req, key);
  return QueueFrame(static_cast<uint8_t>(Op::kGet), req);
}

Status SealClient::Flush(std::vector<Result>* results) {
  results->clear();
  if (fd_ < 0) return Status::IOError("not connected");
  if (pending_.empty()) return Status::OK();

  Status s = WriteFully(fd_, send_buf_.data(), send_buf_.size());
  send_buf_.clear();
  if (!s.ok()) {
    pending_.clear();
    return s;
  }

  // The server's workers may complete requests out of order; collect by
  // request id, then emit in queue order.
  std::unordered_map<uint64_t, Result> by_id;
  by_id.reserve(pending_.size());
  for (size_t answered = 0; answered < pending_.size();) {
    uint8_t opcode = 0;
    uint64_t id = 0;
    std::string storage;
    Slice payload;
    s = ReadFrame(&opcode, &id, &storage, &payload);
    if (!s.ok()) {
      pending_.clear();
      return s;
    }
    if (opcode == (kOpError | kResponseBit)) {
      Status err;
      Slice in = payload;
      pending_.clear();
      if (DecodeStatusRecord(&in, &err) && !err.ok()) return err;
      return Status::Corruption("server reported a protocol error");
    }
    Result r;
    r.request_id = id;
    r.opcode = opcode & ~kResponseBit;
    if (r.opcode == static_cast<uint8_t>(Op::kGet)) {
      if (!DecodeGetResponse(payload, &r.status, &r.value)) {
        pending_.clear();
        return Status::Corruption("malformed GET response");
      }
    } else {
      Slice in = payload;
      if (!DecodeStatusRecord(&in, &r.status)) {
        pending_.clear();
        return Status::Corruption("malformed response payload");
      }
    }
    if (by_id.emplace(id, std::move(r)).second) answered++;
  }

  results->reserve(pending_.size());
  for (const Pending& p : pending_) {
    auto it = by_id.find(p.request_id);
    if (it == by_id.end()) {
      pending_.clear();
      return Status::Corruption("response for unknown request id");
    }
    results->push_back(std::move(it->second));
  }
  pending_.clear();
  return Status::OK();
}

}  // namespace sealdb::net
