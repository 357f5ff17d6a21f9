#include "server/seal_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "baselines/presets.h"
#include "lsm/db.h"
#include "lsm/iterator.h"
#include "lsm/sharded_db.h"
#include "lsm/write_batch.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/coding.h"

namespace sealdb::server {

namespace {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Per-connection state. The read buffer and epoll bookkeeping are touched
// only by the event-loop thread; the write buffer is shared between the
// workers (append) and the loop (flush) under `mu`.
struct Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}

  const int fd;

  // ---- loop-thread-only state ----
  std::string rbuf;
  bool reading = true;       // EPOLLIN registered
  bool want_write = false;   // EPOLLOUT registered
  bool peer_closed = false;  // read() saw EOF (or a write failed)

  // ---- shared state (guarded by mu unless atomic) ----
  std::mutex mu;
  std::string wbuf;   // pending response bytes
  size_t woff = 0;    // flushed prefix of wbuf
  bool close_after_flush = false;  // protocol error: flush, then close
  bool closed = false;             // fd closed; late responses are dropped
  // Slow-client eviction: the response buffer blew past
  // ServerOptions::max_response_buffer_bytes. The buffered bytes are
  // already discarded; the loop closes the fd at the next opportunity,
  // without waiting for in-flight requests (their late responses drop).
  bool evicted = false;
  // Requests dispatched to the workers but not yet answered. Decremented
  // inside Respond() under `mu`, so "inflight == 0 and wbuf empty" can
  // never be observed between an op finishing and its response landing.
  std::atomic<uint32_t> inflight{0};
};

using ConnPtr = std::shared_ptr<Connection>;

bool IsWriteOp(uint8_t opcode) {
  const net::Op op = static_cast<net::Op>(opcode);
  return op == net::Op::kPut || op == net::Op::kDelete ||
         op == net::Op::kWriteBatch;
}

struct Request {
  ConnPtr conn;
  uint8_t opcode = 0;
  uint64_t request_id = 0;
  uint64_t trace_id = 0;       // 0 = untraced
  uint64_t enqueue_micros = 0; // when Dispatch() queued it (tracing)
  std::string payload;
};

}  // namespace

struct SealServer::Impl {
  Impl(ShardedDb* db, baselines::Stack* stack, const ServerOptions& options)
      : db_(db),
        opts_(options),
        external_memory_(stack->external_memory_bytes()),
        registry_(stack->metrics_registry()) {
    RegisterMetrics();
  }

  ~Impl() {
    StopImpl();
    // The registry (stack-owned) outlives this Impl; the hook
    // reads our queue, so it must not.
    registry_->RemoveCollectHook(depth_hook_id_);
  }

  void RegisterMetrics() {
    obs::MetricsRegistry& r = *registry_;
    c_conns_accepted_ = r.RegisterCounter(
        "sealdb_server_connections_accepted_total", "Connections accepted");
    g_conns_active_ = r.RegisterGauge("sealdb_server_connections_active",
                                      "Currently open connections");
    c_requests_ = r.RegisterCounter("sealdb_server_requests_total",
                                    "Complete frames dispatched or rejected");
    const char* ops_help = "Requests by operation class";
    c_gets_ = r.RegisterCounter("sealdb_server_ops_total", ops_help,
                                {{"op", "get"}});
    c_writes_ = r.RegisterCounter("sealdb_server_ops_total", ops_help,
                                  {{"op", "write"}});
    c_scans_ = r.RegisterCounter("sealdb_server_ops_total", ops_help,
                                 {{"op", "scan"}});
    c_protocol_errors_ = r.RegisterCounter(
        "sealdb_server_protocol_errors_total",
        "Malformed frames and unknown opcodes");
    const char* bytes_help = "Wire bytes by direction";
    c_bytes_in_ = r.RegisterCounter("sealdb_server_bytes_total", bytes_help,
                                    {{"dir", "in"}});
    c_bytes_out_ = r.RegisterCounter("sealdb_server_bytes_total", bytes_help,
                                     {{"dir", "out"}});
    const char* rej_help =
        "Load shed by admission control, by reason (kBusy responses, plus "
        "over-cap connections)";
    c_rej_conns_ = r.RegisterCounter("sealdb_server_admission_rejected_total",
                                     rej_help, {{"reason", "connections"}});
    c_rej_queue_full_ =
        r.RegisterCounter("sealdb_server_admission_rejected_total", rej_help,
                          {{"reason", "queue_full"}});
    c_rej_inflight_ =
        r.RegisterCounter("sealdb_server_admission_rejected_total", rej_help,
                          {{"reason", "inflight_cap"}});
    c_rej_stall_ =
        r.RegisterCounter("sealdb_server_admission_rejected_total", rej_help,
                          {{"reason", "stall"}});
    c_evictions_ = r.RegisterCounter(
        "sealdb_server_slow_client_evictions_total",
        "Connections closed for not draining their responses");
    c_dedup_replays_ = r.RegisterCounter(
        "sealdb_server_dedup_replays_total",
        "Retried writes acked from the dedup window without re-applying");

    const char* span_help =
        "Sampled request span breakdown (see ServerOptions::trace_sample_"
        "every)";
    const std::vector<double> buckets = obs::MicrosBuckets();
    h_queue_ = r.RegisterHistogram("sealdb_server_span_micros", span_help,
                                   buckets, {{"stage", "queue"}});
    h_commit_ = r.RegisterHistogram("sealdb_server_span_micros", span_help,
                                    buckets, {{"stage", "commit"}});
    h_engine_ = r.RegisterHistogram("sealdb_server_span_micros", span_help,
                                    buckets, {{"stage", "engine"}});
    h_total_ = r.RegisterHistogram("sealdb_server_span_micros", span_help,
                                   buckets, {{"stage", "total"}});

    obs::Gauge* g_queue = r.RegisterGauge("sealdb_server_queue_depth",
                                          "Requests awaiting a worker");
    obs::Gauge* g_queued_bytes = r.RegisterGauge(
        "sealdb_server_queued_write_bytes",
        "Write payload bytes awaiting a worker");
    obs::Gauge* g_buffer = r.RegisterGauge(
        "sealdb_server_connection_buffer_bytes",
        "Bytes across per-connection read and response buffers");
    depth_hook_id_ = r.AddCollectHook([this, g_queue, g_queued_bytes,
                                       g_buffer] {
      std::lock_guard<std::mutex> l(queue_mu_);
      g_queue->Set(static_cast<double>(queue_.size()));
      g_queued_bytes->Set(static_cast<double>(queued_write_bytes_));
      g_buffer->Set(static_cast<double>(
          buffer_bytes_.load(std::memory_order_relaxed)));
    });
  }

  // ---- configuration / collaborators ----
  ShardedDb* const db_;
  const ServerOptions opts_;
  std::shared_ptr<std::atomic<uint64_t>> external_memory_;

  // ---- sockets / loop ----
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  std::unordered_map<int, ConnPtr> conns_;  // loop thread only

  // Connections with freshly appended responses, waiting for a flush.
  std::mutex pending_mu_;
  std::vector<ConnPtr> pending_flush_;

  // ---- the request queue ----
  // Every dispatched request, read or write, waits here in arrival order
  // until a worker pops and runs it. Writes are not merged: each is its
  // own DB::Write, and the shard engine's writer queue group-commits
  // concurrent writers.
  std::mutex queue_mu_;
  std::condition_variable work_cv_;  // queue_ grew, or queue_closed_ set
  std::deque<Request> queue_;        // guarded by queue_mu_
  // Write payload bytes in queue_ (the admission byte budget). Guarded by
  // queue_mu_.
  size_t queued_write_bytes_ = 0;
  // Set by the loop once it has acknowledged stopping_: reads are off and
  // every already-received complete frame is queued, so nothing more
  // arrives. Workers return once it is set and queue_ is empty. Guarded by
  // queue_mu_.
  bool queue_closed_ = false;

  // Write request ids claimed by a worker whose write has not finished,
  // and the most recently applied ones (at most kWriteDedupWindow, newest
  // at the back of applied_write_order_). A retried write whose ack was
  // lost replays its OK instead of re-applying, and a copy of a write
  // still in flight waits for it, so a request id is applied at most once.
  static constexpr size_t kWriteDedupWindow = 4096;
  std::mutex dedup_mu_;
  std::condition_variable dedup_cv_;  // a claim was released
  std::unordered_set<uint64_t> claimed_write_ids_;
  std::unordered_set<uint64_t> applied_write_ids_;
  std::deque<uint64_t> applied_write_order_;

  // ---- lifecycle ----
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> flush_and_exit_{false};
  std::mutex stop_mu_;  // serializes Stop() callers
  bool stopped_ = false;

  // ---- accounting: everything lives in the metrics registry ----
  // Exact byte ledger for per-connection buffers; the registry gauge is a
  // collect-hook rendering of this (it also feeds external_memory_).
  std::atomic<uint64_t> buffer_bytes_{0};
  std::shared_ptr<obs::MetricsRegistry> registry_;
  obs::Counter* c_conns_accepted_;
  obs::Gauge* g_conns_active_;
  obs::Counter* c_requests_;
  obs::Counter* c_gets_;
  obs::Counter* c_writes_;
  obs::Counter* c_scans_;
  obs::Counter* c_protocol_errors_;
  obs::Counter* c_bytes_in_;
  obs::Counter* c_bytes_out_;
  obs::Counter* c_rej_conns_;
  obs::Counter* c_rej_queue_full_;
  obs::Counter* c_rej_inflight_;
  obs::Counter* c_rej_stall_;
  obs::Counter* c_evictions_;
  obs::Counter* c_dedup_replays_;
  obs::FixedHistogram* h_queue_;
  obs::FixedHistogram* h_commit_;
  obs::FixedHistogram* h_engine_;
  obs::FixedHistogram* h_total_;
  size_t depth_hook_id_ = 0;

  // ---- sampled trace spans (bounded ring, newest at the back) ----
  static constexpr size_t kTraceRing = 128;
  mutable std::mutex trace_mu_;
  std::deque<TraceSpan> traces_;

  void AdjustBuffered(int64_t delta) {
    buffer_bytes_.fetch_add(static_cast<uint64_t>(delta),
                            std::memory_order_relaxed);
    external_memory_->fetch_add(static_cast<uint64_t>(delta),
                                std::memory_order_relaxed);
  }

  // ---------------------------------------------------------------- start

  Status Start() {
    Status s = net::ListenTcp(opts_.host, opts_.port, /*backlog=*/128,
                              &listen_fd_, &port_);
    if (!s.ok()) return s;
    s = net::SetNonBlocking(listen_fd_);
    if (s.ok()) {
      epoll_fd_ = ::epoll_create1(0);
      wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
      if (epoll_fd_ < 0 || wake_fd_ < 0) {
        s = Status::IOError("epoll/eventfd setup", std::strerror(errno));
      }
    }
    if (!s.ok()) {
      net::CloseFd(listen_fd_);
      net::CloseFd(epoll_fd_);
      net::CloseFd(wake_fd_);
      listen_fd_ = epoll_fd_ = wake_fd_ = -1;
      return s;
    }
    EpollAdd(listen_fd_, EPOLLIN);
    EpollAdd(wake_fd_, EPOLLIN);

    started_.store(true);
    loop_thread_ = std::thread([this] { LoopMain(); });
    const int n = opts_.num_workers > 0 ? opts_.num_workers : 1;
    workers_.reserve(n);
    for (int i = 0; i < n; i++) {
      workers_.emplace_back([this] { WorkerMain(); });
    }
    return Status::OK();
  }

  void EpollAdd(int fd, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }

  void EpollMod(int fd, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }

  void Wake() {
    uint64_t one = 1;
    ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    (void)n;
  }

  // ----------------------------------------------------------- event loop

  // How long Stop() keeps flushing response buffers to peers that have
  // stopped reading before force-closing them.
  static constexpr std::chrono::milliseconds kDrainDeadline{5000};

  void LoopMain() {
    bool reads_disabled = false;
    bool deadline_armed = false;
    std::chrono::steady_clock::time_point force_close_at;

    epoll_event events[64];
    for (;;) {
      const int timeout =
          flush_and_exit_.load(std::memory_order_acquire) ? 50 : -1;
      int n = ::epoll_wait(epoll_fd_, events, 64, timeout);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }

      for (int i = 0; i < n; i++) {
        const int fd = events[i].data.fd;
        const uint32_t ev = events[i].events;
        if (fd == wake_fd_) {
          uint64_t junk;
          while (::read(wake_fd_, &junk, sizeof(junk)) > 0) {
          }
          FlushPending();
        } else if (fd == listen_fd_) {
          if (!reads_disabled) AcceptNew();
        } else {
          auto it = conns_.find(fd);
          if (it == conns_.end()) continue;
          ConnPtr conn = it->second;
          if (ev & (EPOLLHUP | EPOLLERR)) {
            conn->peer_closed = true;
            TryFlush(conn);
            MaybeClose(conn);
            continue;
          }
          if ((ev & EPOLLIN) && conn->reading && !reads_disabled) {
            ReadAndDispatch(conn);
          }
          if (ev & EPOLLOUT) TryFlush(conn);
          MaybeClose(conn);
        }
      }

      // Checked after the events, not before: draining wake_fd_ above can
      // consume the Wake() that Stop() sent after setting stopping_, and
      // the next epoll_wait would then sleep through the shutdown.
      if (stopping_.load(std::memory_order_acquire) && !reads_disabled) {
        QuiesceReads();
        reads_disabled = true;
      }

      if (flush_and_exit_.load(std::memory_order_acquire)) {
        if (!deadline_armed) {
          deadline_armed = true;
          force_close_at = std::chrono::steady_clock::now() + kDrainDeadline;
        }
        // Flush what is left; exit once every buffer is empty or the drain
        // deadline passes (a peer that stopped reading its responses).
        bool all_drained = true;
        std::vector<ConnPtr> snapshot;
        snapshot.reserve(conns_.size());
        for (auto& [cfd, conn] : conns_) snapshot.push_back(conn);
        for (auto& conn : snapshot) {
          TryFlush(conn);
          MaybeClose(conn);
        }
        for (auto& [cfd, conn] : conns_) {
          std::lock_guard<std::mutex> l(conn->mu);
          if (!conn->closed && conn->woff < conn->wbuf.size()) {
            all_drained = false;
          }
        }
        if (all_drained ||
            std::chrono::steady_clock::now() >= force_close_at) {
          break;
        }
      }
    }

    // Tear down every remaining connection.
    std::vector<ConnPtr> remaining;
    remaining.reserve(conns_.size());
    for (auto& [fd, conn] : conns_) remaining.push_back(conn);
    for (auto& conn : remaining) CloseConn(conn);
    conns_.clear();
    if (listen_fd_ >= 0) {
      net::CloseFd(listen_fd_);
      listen_fd_ = -1;
    }
  }

  // Graceful shutdown step 1 (loop thread): stop accepting, dispatch any
  // complete frames already buffered, stop reading, and close the queue:
  // the request stream is now complete.
  void QuiesceReads() {
    if (listen_fd_ >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      net::CloseFd(listen_fd_);
      listen_fd_ = -1;
    }
    std::vector<ConnPtr> snapshot;
    snapshot.reserve(conns_.size());
    for (auto& [fd, conn] : conns_) snapshot.push_back(conn);
    for (auto& conn : snapshot) {
      ParseFrames(conn);
      if (conn->reading) {
        conn->reading = false;
        EpollMod(conn->fd, conn->want_write ? EPOLLOUT : 0u);
      }
    }
    {
      std::lock_guard<std::mutex> l(queue_mu_);
      queue_closed_ = true;
    }
    work_cv_.notify_all();
  }

  void AcceptNew() {
    for (;;) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN or transient error; epoll will retry
      if (opts_.max_connections > 0 &&
          conns_.size() >= static_cast<size_t>(opts_.max_connections)) {
        RejectConnection(fd);
        continue;
      }
      (void)net::SetNonBlocking(fd);
      (void)net::SetNoDelay(fd);
      auto conn = std::make_shared<Connection>(fd);
      conns_.emplace(fd, conn);
      EpollAdd(fd, EPOLLIN);
      c_conns_accepted_->Inc();
      g_conns_active_->Add(1.0);
    }
  }

  // Over the connection cap: answer with one typed kBusy error frame (so
  // the peer can back off and retry) and close. The fd is still blocking
  // here; the single send either lands in the socket buffer immediately or
  // the peer was never going to read it.
  void RejectConnection(int fd) {
    std::string payload;
    net::EncodeStatusRecord(
        &payload, Status::Busy("too many connections; retry later"));
    std::string frame;
    net::EncodeFrame(&frame, net::kOpError | net::kResponseBit,
                     /*request_id=*/0, payload);
    // Counted before the client can see the rejection, so a client that
    // got the Busy frame also finds it in the server's metrics.
    c_rej_conns_->Inc();
    (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    net::CloseFd(fd);
  }

  void ReadAndDispatch(const ConnPtr& conn) {
    char scratch[64 * 1024];
    for (;;) {
      ssize_t r = ::recv(conn->fd, scratch, sizeof(scratch), 0);
      if (r > 0) {
        conn->rbuf.append(scratch, static_cast<size_t>(r));
        AdjustBuffered(r);
        c_bytes_in_->Add(static_cast<uint64_t>(r));
        if (static_cast<size_t>(r) < sizeof(scratch)) break;
        continue;
      }
      if (r == 0) {
        conn->peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn->peer_closed = true;
      break;
    }
    ParseFrames(conn);
  }

  void ParseFrames(const ConnPtr& conn) {
    Slice input(conn->rbuf);
    bool fatal = false;
    while (!fatal) {
      net::FrameHeader header;
      Slice payload;
      const net::DecodeResult res =
          net::DecodeFrame(&input, &header, &payload);
      if (res == net::DecodeResult::kNeedMore) break;
      if (res == net::DecodeResult::kOk) {
        Dispatch(conn, header, payload);
        continue;
      }
      c_protocol_errors_->Inc();
      fatal = true;
      if (res == net::DecodeResult::kBadMagic) {
        // Not our protocol; nothing sensible to answer on this stream.
        conn->peer_closed = true;
        break;
      }
      const char* what = res == net::DecodeResult::kBadVersion
                             ? "unsupported protocol version"
                         : res == net::DecodeResult::kBadCrc
                             ? "frame checksum mismatch"
                             : "frame exceeds size limit";
      std::string payload_out;
      net::EncodeStatusRecord(&payload_out, Status::Corruption(what));
      Respond(conn, net::kOpError | net::kResponseBit, header.request_id,
              payload_out, /*close_after=*/true);
    }
    // Drop the consumed prefix (on a fatal error, everything: the stream
    // cannot be re-synchronized).
    const size_t remaining = fatal ? 0 : input.size();
    const size_t consumed = conn->rbuf.size() - remaining;
    if (consumed > 0) {
      conn->rbuf.erase(0, consumed);
      AdjustBuffered(-static_cast<int64_t>(consumed));
    }
    if (fatal && conn->reading) {
      conn->reading = false;
      EpollMod(conn->fd, conn->want_write ? EPOLLOUT : 0u);
    }
  }

  void Dispatch(const ConnPtr& conn, const net::FrameHeader& header,
                const Slice& payload) {
    c_requests_->Inc();
    const net::Op op = static_cast<net::Op>(header.opcode);
    const bool is_write = IsWriteOp(header.opcode);
    const bool is_read = op == net::Op::kGet || op == net::Op::kScan ||
                         op == net::Op::kMetrics || op == net::Op::kPing;
    if (!is_write && !is_read) {
      c_protocol_errors_->Inc();
      std::string payload_out;
      net::EncodeStatusRecord(&payload_out,
                              Status::InvalidArgument("unknown opcode"));
      Respond(conn, net::kOpError | net::kResponseBit, header.request_id,
              payload_out, /*close_after=*/true);
      if (conn->reading) {
        conn->reading = false;
        EpollMod(conn->fd, conn->want_write ? EPOLLOUT : 0u);
      }
      return;
    }

    if (is_write) {
      c_writes_->Inc();
    } else if (op == net::Op::kGet) {
      c_gets_->Inc();
    } else if (op == net::Op::kScan) {
      c_scans_->Inc();
    }

    // ---- admission control: shed excess load with typed kBusy errors
    // before it consumes queue memory or a worker slot.
    if (opts_.max_inflight_per_conn > 0 &&
        conn->inflight.load(std::memory_order_relaxed) >=
            opts_.max_inflight_per_conn) {
      c_rej_inflight_->Inc();
      RejectBusy(conn, header,
                 Status::Busy("per-connection in-flight cap reached"));
      return;
    }
    if (is_write && opts_.reject_writes_on_stall) {
      // Per-shard admission: only a stall of the *target* engine sheds
      // this write. The key is hashed here, with no engine lock taken;
      // batches check the worst shard, and a malformed payload checks
      // shard 0 (its worker answers the typed decode error).
      int stall_level;
      if (op == net::Op::kWriteBatch) {
        stall_level = db_->WriteStallLevel();
      } else {
        Slice key, value;
        const bool decoded = op == net::Op::kPut
                                 ? net::DecodePutRequest(payload, &key, &value)
                                 : net::DecodeKeyRequest(payload, &key);
        stall_level = db_->WriteStallLevelOfShard(decoded ? db_->ShardOf(key)
                                                          : 0);
      }
      if (stall_level >= 2) {
        c_rej_stall_->Inc();
        RejectBusy(conn, header, Status::Busy("engine write stall"));
        return;
      }
    }

    Request req;
    req.conn = conn;
    req.opcode = header.opcode;
    req.request_id = header.request_id;
    req.trace_id = header.trace_id;
    if (Sampled(header.trace_id)) req.enqueue_micros = NowMicros();
    req.payload.assign(payload.data(), payload.size());
    const size_t write_bytes = is_write ? req.payload.size() : 0;
    conn->inflight.fetch_add(1, std::memory_order_relaxed);
    bool admitted;
    {
      std::lock_guard<std::mutex> l(queue_mu_);
      // The write byte budget: over it, reject at the door. A queue with
      // no write bytes always admits, so a single write larger than the
      // whole budget cannot livelock its retries.
      admitted = opts_.max_queued_write_bytes == 0 ||
                 queued_write_bytes_ == 0 ||
                 queued_write_bytes_ + write_bytes <=
                     opts_.max_queued_write_bytes;
      if (admitted) {
        queued_write_bytes_ += write_bytes;
        queue_.push_back(std::move(req));
      }
    }
    if (!admitted) {
      conn->inflight.fetch_sub(1, std::memory_order_relaxed);
      c_rej_queue_full_->Inc();
      RejectBusy(conn, header, Status::Busy("write queue over byte budget"));
      return;
    }
    work_cv_.notify_one();
  }

  // Answer a rejected request with an op-shaped payload carrying `busy`,
  // so clients decode it exactly like any other typed per-request error.
  void RejectBusy(const ConnPtr& conn, const net::FrameHeader& header,
                  const Status& busy) {
    std::string payload_out;
    switch (static_cast<net::Op>(header.opcode)) {
      case net::Op::kGet:
        net::EncodeGetResponse(&payload_out, busy, Slice());
        break;
      case net::Op::kScan:
        net::EncodeScanResponse(&payload_out, busy, {});
        break;
      case net::Op::kMetrics:
        net::EncodeMetricsResponse(&payload_out, busy, Slice());
        break;
      default:
        net::EncodeStatusRecord(&payload_out, busy);
        break;
    }
    Respond(conn, header.opcode | net::kResponseBit, header.request_id,
            payload_out);
  }

  // Append one framed response to the connection and schedule a flush.
  // Safe from any thread. `finish` marks this as the answer to a
  // dispatched request: the inflight count is decremented under the same
  // lock that publishes the response bytes, so the loop can never see
  // "no response buffered and nothing in flight" for an unanswered
  // request.
  void Respond(const ConnPtr& conn, uint8_t opcode, uint64_t request_id,
               const Slice& payload, bool close_after = false,
               bool finish = false) {
    std::string frame;
    net::EncodeFrame(&frame, opcode, request_id, payload);
    bool appended = false;
    int64_t evicted_bytes = 0;
    {
      std::lock_guard<std::mutex> l(conn->mu);
      if (finish) conn->inflight.fetch_sub(1, std::memory_order_relaxed);
      if (!conn->closed && !conn->evicted) {
        conn->wbuf.append(frame);
        if (close_after) conn->close_after_flush = true;
        appended = true;
        // Slow-client eviction: the peer is not draining its responses.
        // Discard the buffer (it will never be read at a useful rate) and
        // have the loop close the fd, bounding per-connection memory.
        if (opts_.max_response_buffer_bytes > 0 &&
            conn->wbuf.size() - conn->woff > opts_.max_response_buffer_bytes) {
          conn->evicted = true;
          evicted_bytes =
              static_cast<int64_t>(conn->wbuf.size() - conn->woff);
          conn->wbuf.clear();
          conn->woff = 0;
        }
      }
    }
    if (!appended) return;
    AdjustBuffered(static_cast<int64_t>(frame.size()));
    c_bytes_out_->Add(frame.size());
    if (evicted_bytes > 0) {
      // The eviction swallowed everything buffered, including this frame.
      AdjustBuffered(-evicted_bytes);
      c_evictions_->Inc();
    }
    {
      std::lock_guard<std::mutex> l(pending_mu_);
      pending_flush_.push_back(conn);
    }
    Wake();
  }

  void FlushPending() {
    std::vector<ConnPtr> pending;
    {
      std::lock_guard<std::mutex> l(pending_mu_);
      pending.swap(pending_flush_);
    }
    for (auto& conn : pending) {
      TryFlush(conn);
      MaybeClose(conn);
    }
  }

  // Write as much buffered output as the socket accepts (loop thread only).
  void TryFlush(const ConnPtr& conn) {
    std::lock_guard<std::mutex> l(conn->mu);
    if (conn->closed) return;
    while (conn->woff < conn->wbuf.size()) {
      ssize_t w = ::send(conn->fd, conn->wbuf.data() + conn->woff,
                         conn->wbuf.size() - conn->woff, MSG_NOSIGNAL);
      if (w > 0) {
        conn->woff += static_cast<size_t>(w);
        AdjustBuffered(-w);
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn->want_write) {
          conn->want_write = true;
          EpollMod(conn->fd, (conn->reading ? EPOLLIN : 0u) | EPOLLOUT);
        }
        return;  // keep the unflushed suffix buffered
      }
      if (w < 0 && errno == EINTR) continue;
      // Peer is gone; discard what it will never read.
      AdjustBuffered(-static_cast<int64_t>(conn->wbuf.size() - conn->woff));
      conn->woff = conn->wbuf.size();
      conn->peer_closed = true;
      break;
    }
    conn->wbuf.clear();
    conn->woff = 0;
    if (conn->want_write) {
      conn->want_write = false;
      EpollMod(conn->fd, conn->reading ? EPOLLIN : 0u);
    }
  }

  bool ReadyToClose(const ConnPtr& conn) {
    std::lock_guard<std::mutex> l(conn->mu);
    if (conn->closed) return false;
    // An evicted connection closes immediately: its buffer is already
    // discarded and in-flight responses are dropped on arrival.
    if (conn->evicted) return true;
    const bool buffered = conn->woff < conn->wbuf.size();
    if (conn->close_after_flush && !buffered &&
        conn->inflight.load(std::memory_order_relaxed) == 0) {
      return true;
    }
    return conn->peer_closed && !buffered &&
           conn->inflight.load(std::memory_order_relaxed) == 0;
  }

  void MaybeClose(const ConnPtr& conn) {
    if (ReadyToClose(conn)) CloseConn(conn);
  }

  // Loop thread only.
  void CloseConn(const ConnPtr& conn) {
    {
      std::lock_guard<std::mutex> l(conn->mu);
      if (conn->closed) return;
      conn->closed = true;
      const int64_t held =
          static_cast<int64_t>(conn->rbuf.size()) +
          static_cast<int64_t>(conn->wbuf.size() - conn->woff);
      if (held > 0) AdjustBuffered(-held);
      conn->rbuf.clear();
      conn->wbuf.clear();
      conn->woff = 0;
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    net::CloseFd(conn->fd);
    conns_.erase(conn->fd);
    g_conns_active_->Add(-1.0);
  }

  // -------------------------------------------------------------- tracing

  // Deterministic sampling in the client-minted trace id: a retried
  // request (same trace id on every attempt) is sampled consistently.
  bool Sampled(uint64_t trace_id) const {
    return trace_id != 0 && opts_.trace_sample_every != 0 &&
           trace_id % opts_.trace_sample_every == 0;
  }

  void RecordTrace(const TraceSpan& span) {
    h_queue_->Observe(static_cast<double>(span.queue_micros));
    h_commit_->Observe(static_cast<double>(span.commit_micros));
    h_engine_->Observe(static_cast<double>(span.engine_micros));
    h_total_->Observe(static_cast<double>(span.total_micros));
    {
      std::lock_guard<std::mutex> l(trace_mu_);
      traces_.push_back(span);
      if (traces_.size() > kTraceRing) traces_.pop_front();
    }
    if (opts_.log_sampled_traces) {
      std::fprintf(
          stderr,
          "[sealdb trace %016llx] op=%s id=%llu total=%lluus "
          "queue=%lluus commit=%lluus engine=%lluus\n",
          static_cast<unsigned long long>(span.trace_id),
          net::OpName(span.opcode),
          static_cast<unsigned long long>(span.request_id),
          static_cast<unsigned long long>(span.total_micros),
          static_cast<unsigned long long>(span.queue_micros),
          static_cast<unsigned long long>(span.commit_micros),
          static_cast<unsigned long long>(span.engine_micros));
    }
  }

  // -------------------------------------------------------------- workers

  void WorkerMain() {
    for (;;) {
      Request req;
      bool is_write;
      {
        std::unique_lock<std::mutex> l(queue_mu_);
        work_cv_.wait(l, [this] { return !queue_.empty() || queue_closed_; });
        if (queue_.empty()) return;  // closed, and nothing left to run
        req = std::move(queue_.front());
        queue_.pop_front();
        is_write = IsWriteOp(req.opcode);
        if (is_write) queued_write_bytes_ -= req.payload.size();
      }
      if (is_write) {
        RunWrite(req);
      } else {
        RunRead(req);
      }
    }
  }

  // Claims `request_id` for the calling worker's write. Returns false when
  // a copy of the request was applied already (the caller replays its OK).
  // A copy still in flight on another worker is waited for: if it commits
  // this one is a replay, and if it fails its claim is released and this
  // copy applies as a retry would.
  bool ClaimWrite(uint64_t request_id) {
    std::unique_lock<std::mutex> l(dedup_mu_);
    dedup_cv_.wait(l, [&] { return !claimed_write_ids_.contains(request_id); });
    if (applied_write_ids_.contains(request_id)) return false;
    claimed_write_ids_.insert(request_id);
    return true;
  }

  // Releases a ClaimWrite claim, recording the id in the dedup window when
  // the write was applied.
  void SettleWrite(uint64_t request_id, bool applied) {
    {
      std::lock_guard<std::mutex> l(dedup_mu_);
      claimed_write_ids_.erase(request_id);
      if (applied && applied_write_ids_.insert(request_id).second) {
        applied_write_order_.push_back(request_id);
        if (applied_write_order_.size() > kWriteDedupWindow) {
          applied_write_ids_.erase(applied_write_order_.front());
          applied_write_order_.pop_front();
        }
      }
    }
    dedup_cv_.notify_all();
  }

  // One write request, one DB::Write, answered with its own status. The
  // shard engine's writer queue group-commits it with concurrent writers.
  void RunWrite(const Request& req) {
    const bool sampled = Sampled(req.trace_id);
    const uint64_t pickup = sampled ? NowMicros() : 0;
    uint64_t engine_micros = 0;

    WriteBatch batch;
    Slice key, value;
    bool decoded = false;
    switch (static_cast<net::Op>(req.opcode)) {
      case net::Op::kPut:
        decoded = net::DecodePutRequest(req.payload, &key, &value);
        if (decoded) batch.Put(key, value);
        break;
      case net::Op::kDelete:
        decoded = net::DecodeKeyRequest(req.payload, &key);
        if (decoded) batch.Delete(key);
        break;
      default:  // kWriteBatch
        decoded = net::DecodeWriteBatchRequest(req.payload, &batch);
        break;
    }
    Status s;
    if (!decoded) {
      s = Status::InvalidArgument("malformed write payload");
    } else if (!ClaimWrite(req.request_id)) {
      // Already applied; the client just never saw the ack. Replay OK
      // without touching the engine so the retry is exactly-once.
      c_dedup_replays_->Inc();
    } else {
      WriteOptions wo;
      wo.sync = opts_.sync_writes;
      const uint64_t engine_start = sampled ? NowMicros() : 0;
      s = db_->Write(wo, &batch);
      if (sampled) engine_micros = NowMicros() - engine_start;
      SettleWrite(req.request_id, s.ok());
    }
    std::string payload_out;
    net::EncodeStatusRecord(&payload_out, s);
    Finish(req, pickup, engine_micros, payload_out);
  }

  // SCAN limits above this are clamped.
  static constexpr uint32_t kMaxScanLimit = 10000;
  // Room kept in a SCAN answer for the frame header, the status record and
  // the entry count.
  static constexpr size_t kScanReserveBytes = 4096;

  // Encoded entry bytes a SCAN answer may carry: it must fit one frame
  // (net::kMaxPayloadBytes) and, when the slow-client cap is set, the
  // response buffer, or the client would be evicted for asking.
  size_t ScanByteBudget() const {
    size_t cap = net::kMaxPayloadBytes;
    if (opts_.max_response_buffer_bytes > 0) {
      cap = std::min(cap, opts_.max_response_buffer_bytes);
    }
    return cap > kScanReserveBytes ? cap - kScanReserveBytes : 0;
  }

  void RunRead(const Request& req) {
    const bool sampled = Sampled(req.trace_id);
    const uint64_t pickup = sampled ? NowMicros() : 0;
    uint64_t engine_micros = 0;

    std::string payload_out;
    switch (static_cast<net::Op>(req.opcode)) {
      case net::Op::kPing:
        net::EncodeStatusRecord(&payload_out, Status::OK());
        break;
      case net::Op::kGet: {
        Slice key;
        if (!net::DecodeKeyRequest(req.payload, &key)) {
          net::EncodeGetResponse(
              &payload_out, Status::InvalidArgument("malformed GET payload"),
              Slice());
          break;
        }
        std::string value;
        const uint64_t engine_start = sampled ? NowMicros() : 0;
        Status s = db_->Get(ReadOptions(), key, &value);
        if (sampled) engine_micros = NowMicros() - engine_start;
        net::EncodeGetResponse(&payload_out, s, value);
        break;
      }
      case net::Op::kScan: {
        Slice start;
        uint32_t limit = 0;
        std::vector<std::pair<std::string, std::string>> entries;
        if (!net::DecodeScanRequest(req.payload, &start, &limit)) {
          net::EncodeScanResponse(
              &payload_out, Status::InvalidArgument("malformed SCAN payload"),
              entries);
          break;
        }
        limit = std::min(limit, kMaxScanLimit);
        // The answer ends at `limit` entries or at the byte budget,
        // whichever comes first; the first entry is always sent so a
        // paging client makes progress.
        const size_t budget = ScanByteBudget();
        size_t bytes = 0;
        const uint64_t engine_start = sampled ? NowMicros() : 0;
        std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
        for (it->Seek(start); it->Valid() && entries.size() < limit;
             it->Next()) {
          const Slice key = it->key();
          const Slice value = it->value();
          const size_t entry_bytes = VarintLength(key.size()) + key.size() +
                                     VarintLength(value.size()) + value.size();
          if (!entries.empty() && bytes + entry_bytes > budget) break;
          bytes += entry_bytes;
          entries.emplace_back(key.ToString(), value.ToString());
        }
        if (sampled) engine_micros = NowMicros() - engine_start;
        net::EncodeScanResponse(&payload_out, it->status(), entries);
        break;
      }
      case net::Op::kMetrics:
        // Prometheus text exposition of the shared registry: engine,
        // device, allocator, and this server in one pass.
        net::EncodeMetricsResponse(&payload_out, Status::OK(),
                                   registry_->Render());
        break;
      default:
        net::EncodeStatusRecord(
            &payload_out, Status::InvalidArgument("unexpected opcode"));
        break;
    }

    Finish(req, pickup, engine_micros, payload_out);
  }

  // Records a sampled request's span (`pickup` and `engine_micros` are
  // read only when it is sampled) and answers it.
  void Finish(const Request& req, uint64_t pickup, uint64_t engine_micros,
              const std::string& payload_out) {
    if (Sampled(req.trace_id)) {
      const uint64_t done = NowMicros();
      TraceSpan span;
      span.trace_id = req.trace_id;
      span.request_id = req.request_id;
      span.opcode = req.opcode;
      span.queue_micros = pickup - req.enqueue_micros;
      span.commit_micros = done - pickup;
      span.engine_micros = engine_micros;
      span.total_micros = done - req.enqueue_micros;
      RecordTrace(span);
    }
    Respond(req.conn, req.opcode | net::kResponseBit, req.request_id,
            payload_out, /*close_after=*/false, /*finish=*/true);
  }

  // ----------------------------------------------------------------- stop

  void StopImpl() {
    std::lock_guard<std::mutex> stop_lock(stop_mu_);
    if (!started_.load() || stopped_) return;

    // 1. Stop accepting and reading. The loop dispatches any complete
    //    frames it already received, then closes the queue.
    stopping_.store(true, std::memory_order_release);
    Wake();

    // 2. Drain: the workers run the closed queue dry and return, so once
    //    they are joined the queue is empty, nothing is running, and every
    //    response is appended to its connection buffer.
    for (auto& w : workers_) w.join();
    workers_.clear();

    // 3. Flush the remaining output buffers, then let the loop exit and
    //    close every socket.
    flush_and_exit_.store(true, std::memory_order_release);
    Wake();
    loop_thread_.join();

    net::CloseFd(epoll_fd_);
    net::CloseFd(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    stopped_ = true;
  }
};

SealServer::SealServer(ShardedDb* db, baselines::Stack* stack,
                       const ServerOptions& options)
    : impl_(std::make_unique<Impl>(db, stack, options)) {}

SealServer::~SealServer() {
  if (impl_ != nullptr) impl_->StopImpl();
}

Status SealServer::Start() {
  Status s = impl_->Start();
  if (s.ok()) port_ = impl_->port_;
  return s;
}

void SealServer::Stop() { impl_->StopImpl(); }

uint64_t SealServer::connection_buffer_bytes() const {
  return impl_->buffer_bytes_.load(std::memory_order_relaxed);
}

const std::shared_ptr<obs::MetricsRegistry>& SealServer::metrics_registry()
    const {
  return impl_->registry_;
}

std::vector<TraceSpan> SealServer::sampled_traces() const {
  std::lock_guard<std::mutex> l(impl_->trace_mu_);
  return std::vector<TraceSpan>(impl_->traces_.begin(),
                                impl_->traces_.end());
}

}  // namespace sealdb::server
