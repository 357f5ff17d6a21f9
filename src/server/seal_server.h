// SealServer: a network front-end over a preset stack's ShardedDb (any
// shard count, one included) — an epoll-driven, non-blocking event loop
// feeding a fixed worker pool.
//
// Threading model (DESIGN.md §10):
//   - one event-loop thread owns every socket: it accepts, reads bytes,
//     parses complete frames, and performs all socket writes;
//   - `num_workers` worker threads execute DB operations. Every parsed
//     request joins one FIFO; a worker pops the oldest and runs it, a
//     read as one engine call and a write (PUT/DELETE/WRITE_BATCH) as its
//     own DB::Write, answered with its own status. The shard engine's
//     writer queue group-commits concurrent writes, from any connection,
//     into one WAL record; the server merges nothing. Pipelined requests
//     run concurrently, so their answers and the order their writes are
//     applied are undefined;
//   - workers never touch sockets: responses are appended to the
//     connection's output buffer under its mutex and the loop is woken
//     via eventfd to flush.
//
// Graceful shutdown: Stop() stops accepting and reading, lets the workers
// run the queue dry so every parsed request is executed and acked, flushes
// the remaining output buffers (bounded by a drain deadline for stuck
// peers), then closes.
// Only after Stop() returns may the caller close the DB.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace sealdb {
class ShardedDb;
}

namespace sealdb::baselines {
class Stack;
}

namespace sealdb::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  // 0 binds an ephemeral port; SealServer::port() reports the actual one.
  uint16_t port = 0;
  int num_workers = 4;
  // WriteOptions::sync for every write.
  bool sync_writes = false;

  // ---- admission control (DESIGN.md §11) ----
  // Connection cap; 0 = unlimited. A connection beyond the cap is
  // accepted, answered with a single kBusy error frame, and closed, so
  // clients see a typed rejection instead of a SYN backlog black hole.
  int max_connections = 0;
  // Per-connection cap on dispatched-but-unanswered requests. Excess
  // requests (read or write) are rejected with kBusy; 0 = unlimited. The
  // default is sized well above any sane pipelining depth.
  uint32_t max_inflight_per_conn = 4096;
  // Byte budget for write payloads in the request queue across all
  // connections, counted from dispatch until a worker picks the write up.
  // A write that would exceed it is rejected with kBusy instead of growing
  // the queue without bound; 0 = unlimited.
  size_t max_queued_write_bytes = 4u << 20;
  // Slow-client response-buffer cap: a connection whose un-flushed
  // response bytes exceed this has its buffer discarded and is closed
  // (eviction), bounding memory against peers that stop reading. 0 =
  // unlimited. A SCAN answer is cut short to fit under this cap as well
  // as under net::kMaxPayloadBytes.
  size_t max_response_buffer_bytes = 16u << 20;
  // While the engine reports write-stall level 2 ("stop": the next write
  // would park inside MakeRoomForWrite), reject writes with kBusy at the
  // door instead of letting a worker block inside DB::Write.
  bool reject_writes_on_stall = true;

  // ---- observability (DESIGN.md §12) ----
  // Op tracing: a request whose (client-minted, nonzero) trace id
  // satisfies trace_id % trace_sample_every == 0 gets a span breakdown
  // (queue-wait / commit / engine) recorded in the trace ring,
  // observed into the sealdb_server_span_micros histograms, and — when
  // log_sampled_traces is set — printed to stderr. Sampling is
  // deterministic in the trace id, so a retried request is sampled
  // consistently across attempts. 0 disables tracing entirely; 1 traces
  // every request (tests). The default keeps the span bookkeeping (clock
  // reads, histogram updates, the trace ring's lock) off nearly every
  // request.
  uint64_t trace_sample_every = 1024;
  bool log_sampled_traces = false;
};

// Span breakdown of one sampled request, in wall-clock microseconds.
struct TraceSpan {
  uint64_t trace_id = 0;
  uint64_t request_id = 0;
  uint8_t opcode = 0;            // request opcode (no response bit)
  uint64_t queue_micros = 0;     // dispatch -> worker pickup
  uint64_t commit_micros = 0;    // worker pickup -> response encoded
  uint64_t engine_micros = 0;    // inside the DB call; for writes, this
                                 // includes the engine's group commit
  uint64_t total_micros = 0;     // dispatch -> response encoded
};

class SealServer {
 public:
  // Serves `db`, which is `stack->db()`; both are required and must
  // outlive Stop(). The server publishes its sealdb_server_* metrics into
  // the stack's registry (so METRICS renders the whole system), and the
  // connection buffer bytes are folded into the stack's external-memory
  // counter (and therefore into "sealdb.approximate-memory-usage").
  SealServer(ShardedDb* db, baselines::Stack* stack,
             const ServerOptions& options);
  ~SealServer();

  SealServer(const SealServer&) = delete;
  SealServer& operator=(const SealServer&) = delete;

  Status Start();
  // Graceful drain; idempotent and safe to call from any thread.
  void Stop();

  uint16_t port() const { return port_; }
  // Bytes currently held in per-connection read/write buffers.
  uint64_t connection_buffer_bytes() const;
  // The registry this server publishes into: the stack's.
  const std::shared_ptr<obs::MetricsRegistry>& metrics_registry() const;
  // The most recent sampled trace spans (bounded ring), newest last.
  std::vector<TraceSpan> sampled_traces() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  uint16_t port_ = 0;
};

}  // namespace sealdb::server
