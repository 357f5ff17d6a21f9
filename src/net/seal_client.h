// SealClient: the client half of the SEALDB wire protocol (net/wire.h).
//
// Two APIs over one blocking socket:
//   - sync: Put/Get/Delete/Write/Scan/Metrics/Ping, one round trip each;
//   - pipelined: Queue* stages frames locally, Flush() sends them in one
//     burst and collects every response (the server may answer out of
//     order across its worker pool; responses are matched by request id
//     and returned in queue order).
//
// Resilience (DESIGN.md §11): with a RetryPolicy enabled, every sync
// operation retries on Busy (server admission control), TimedOut, and
// transport errors with exponential backoff + jitter under an overall
// per-operation deadline, reconnecting automatically when the socket
// dies. A retried request keeps its original request id, and ids embed a
// per-client session nonce, so the server's dedup window recognises the
// resubmission of a write whose ack was lost and never applies it twice.
// The pipelined API does not retry — callers own resubmission there.
//
// Observability (DESIGN.md §12): every request carries a nonzero trace id
// (a bijective mix of its request id, reused verbatim on retries) in the
// v2 frame header; the server samples trace ids to record per-request
// span breakdowns. Retry/reconnect accounting lives in a client-private
// MetricsRegistry (sealdb_client_*); stats() snapshots it.
//
// A SealClient is NOT thread-safe; use one per thread (the server side is
// built for many concurrent connections).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/status.h"

namespace sealdb {
class WriteBatch;
}

namespace sealdb::net {

// Retry budget for the sync API. Attempt n (n >= 1) sleeps
// base_backoff_millis << (n-1), capped at max_backoff_millis, then
// half-jittered; the whole operation (attempts + sleeps) must finish
// within deadline_millis or it fails with TimedOut.
struct RetryPolicy {
  bool enabled = false;
  int max_attempts = 5;
  int base_backoff_millis = 2;
  int max_backoff_millis = 200;
  // Overall per-operation deadline across every attempt and backoff
  // sleep; 0 = attempts alone bound the retries.
  int deadline_millis = 2000;
  // Reopen the socket (same host/port/timeouts as Connect) before a retry
  // when the previous attempt broke the connection.
  bool reconnect = true;
  // Seed for backoff jitter; 0 derives one from the session nonce so
  // independent clients don't retry in lockstep.
  uint32_t jitter_seed = 0;
};

// Snapshot of the client's sealdb_client_* registry counters.
struct ClientStats {
  uint64_t retries = 0;          // attempts after the first
  uint64_t reconnects = 0;       // successful automatic reconnects
  uint64_t busy_responses = 0;   // Busy rejections observed (incl. retried)
  uint64_t timeouts = 0;         // attempts that timed out
};

class SealClient {
 public:
  SealClient();
  ~SealClient();

  SealClient(const SealClient&) = delete;
  SealClient& operator=(const SealClient&) = delete;

  // `recv_timeout_millis` bounds every blocking receive so a dead server
  // surfaces as TimedOut instead of a hang; 0 blocks forever.
  // `connect_timeout_millis` bounds connection establishment; 0 leaves the
  // kernel's default (minutes of SYN retries).
  Status Connect(const std::string& host, uint16_t port,
                 int recv_timeout_millis = 30000,
                 int connect_timeout_millis = 5000);
  void Close();
  bool connected() const { return fd_ >= 0; }

  void set_retry_policy(const RetryPolicy& policy);
  const RetryPolicy& retry_policy() const { return retry_; }
  ClientStats stats() const;
  // The client-private registry behind stats(); render for a
  // sealdb_client_* exposition alongside the server's METRICS text.
  const std::shared_ptr<obs::MetricsRegistry>& metrics_registry() const {
    return registry_;
  }
  // Trace id attached to the most recent sync operation (reused verbatim
  // across its retries). Zero before the first operation.
  uint64_t last_trace_id() const { return last_trace_id_; }

  // ---- sync API ----
  Status Ping();
  Status Put(const Slice& key, const Slice& value);
  Status Get(const Slice& key, std::string* value);
  Status Delete(const Slice& key);
  Status Write(const WriteBatch& batch);
  Status Scan(const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out);
  // Prometheus-style text exposition of the server's metrics registry.
  Status Metrics(std::string* text);

  // ---- pipelined API ----
  struct Result {
    uint64_t request_id = 0;
    uint8_t opcode = 0;       // request opcode
    Status status;            // per-request outcome
    std::string value;        // GET only
  };

  // Stage a request; returns its id. Nothing is sent until Flush().
  uint64_t QueuePut(const Slice& key, const Slice& value);
  uint64_t QueueDelete(const Slice& key);
  uint64_t QueueGet(const Slice& key);

  // Send every staged frame, then read responses until all are answered.
  // Results come back in queue order regardless of server-side completion
  // order. Returns non-OK only on transport/protocol failure — per-request
  // engine errors land in each Result::status.
  Status Flush(std::vector<Result>* results);
  size_t pending() const { return pending_.size(); }

 private:
  struct Pending {
    uint64_t request_id;
    uint8_t opcode;
  };

  Status SendFrame(uint8_t opcode, uint64_t request_id, uint64_t trace_id,
                   const Slice& payload);
  // Read exactly one frame; *payload is backed by *storage.
  Status ReadFrame(uint8_t* opcode, uint64_t* request_id,
                   std::string* storage, Slice* payload);
  // Send `id` + read its response, no retries. The connection is left in
  // an indeterminate state on failure and must be reopened.
  Status OneRoundTrip(uint8_t opcode, uint64_t id, uint64_t trace_id,
                      const Slice& request_payload,
                      std::string* response_storage, Slice* response_payload);
  // One sync operation: OneRoundTrip wrapped in the retry policy. Fails if
  // pipelined requests are pending.
  Status RoundTrip(uint8_t opcode, const Slice& request_payload,
                   std::string* response_storage, Slice* response_payload);
  Status Reconnect();

  int fd_ = -1;
  uint64_t next_request_id_ = 1;   // high bits carry the session nonce
  std::string send_buf_;           // staged pipelined frames
  std::vector<Pending> pending_;   // queue order

  std::string host_;               // remembered for Reconnect()
  uint16_t port_ = 0;
  int recv_timeout_millis_ = 0;
  int connect_timeout_millis_ = 0;

  RetryPolicy retry_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  obs::Counter* c_retries_;
  obs::Counter* c_reconnects_;
  obs::Counter* c_busy_;
  obs::Counter* c_timeouts_;
  uint64_t last_trace_id_ = 0;
  Random jitter_rng_{1};
};

}  // namespace sealdb::net
