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

namespace sealdb::server {

namespace {

// Work tokens for the worker pool: Release(n) adds n tokens and Acquire()
// blocks until it can take one. A mutex and condition variable rather than
// std::counting_semaphore: libstdc++ 12's futex-based semaphore can leave a
// released token with every waiter asleep, and Stop() then never returns.
class WorkTokens {
 public:
  void Release(size_t n = 1) {
    {
      std::lock_guard<std::mutex> l(mu_);
      count_ += n;
    }
    if (n == 1) {
      cv_.notify_one();
    } else {
      cv_.notify_all();
    }
  }

  void Acquire() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [this] { return count_ > 0; });
    count_--;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t count_ = 0;  // guarded by mu_
};

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

struct Request {
  ConnPtr conn;
  uint8_t opcode = 0;
  int shard = 0;               // write queue this was routed to
  uint64_t request_id = 0;
  uint64_t trace_id = 0;       // 0 = untraced
  uint64_t enqueue_micros = 0; // when Dispatch() queued it (tracing)
  std::string payload;
};

}  // namespace

struct SealServer::Impl {
  Impl(ShardedDb* db, baselines::Stack* stack, const ServerOptions& options)
      : db_(db),
        stack_(stack),
        opts_(options),
        external_memory_(stack->external_memory_bytes()),
        registry_(stack->metrics_registry()) {
    // One commit queue per shard: the hash routing happens at dispatch (no
    // engine locks taken), and each shard runs its own group-commit leader
    // so independent shards commit concurrently.
    const int nq = db_->num_shards();
    write_queues_.reserve(static_cast<size_t>(nq));
    for (int i = 0; i < nq; i++) {
      write_queues_.push_back(std::make_unique<WriteQueue>());
    }
    RegisterMetrics();
  }

  ~Impl() {
    StopImpl();
    // The registry (stack-owned) outlives this Impl; the hook
    // reads our queues, so it must not.
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
    c_write_groups_ = r.RegisterCounter(
        "sealdb_server_write_groups_total",
        "DB::Write calls issued by group commit");
    c_batched_writes_ = r.RegisterCounter(
        "sealdb_server_batched_writes_total",
        "Write requests folded into those groups");
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

    obs::Gauge* g_read_q = r.RegisterGauge("sealdb_server_read_queue_depth",
                                           "Read requests awaiting a worker");
    obs::Gauge* g_write_q = r.RegisterGauge(
        "sealdb_server_write_queue_depth",
        "Write requests awaiting the group-commit leader");
    obs::Gauge* g_queued_bytes = r.RegisterGauge(
        "sealdb_server_queued_write_bytes",
        "Write payload bytes held by the group-commit queue");
    obs::Gauge* g_buffer = r.RegisterGauge(
        "sealdb_server_connection_buffer_bytes",
        "Bytes across per-connection read and response buffers");
    // With a sharded engine each commit queue also gets its own depth
    // series ({shard=i}); the unlabeled gauge stays the total, so existing
    // dashboards keep working at any shard count.
    std::vector<obs::Gauge*> g_shard_q;
    if (write_queues_.size() > 1) {
      for (size_t i = 0; i < write_queues_.size(); i++) {
        g_shard_q.push_back(r.RegisterGauge(
            "sealdb_server_shard_write_queue_depth",
            "Write requests awaiting a shard's group-commit leader",
            {{"shard", std::to_string(i)}}));
      }
    }
    depth_hook_id_ = r.AddCollectHook([this, g_read_q, g_write_q,
                                       g_queued_bytes, g_buffer, g_shard_q] {
      size_t rq, wq = 0, qb;
      std::vector<size_t> per_shard(g_shard_q.size(), 0);
      {
        std::lock_guard<std::mutex> l(read_mu_);
        rq = read_tasks_.size();
      }
      for (size_t i = 0; i < write_queues_.size(); i++) {
        std::lock_guard<std::mutex> l(write_queues_[i]->mu);
        wq += write_queues_[i]->tasks.size();
        if (i < per_shard.size()) per_shard[i] = write_queues_[i]->tasks.size();
      }
      qb = queued_write_bytes_.load(std::memory_order_relaxed);
      g_read_q->Set(static_cast<double>(rq));
      g_write_q->Set(static_cast<double>(wq));
      for (size_t i = 0; i < g_shard_q.size(); i++) {
        g_shard_q[i]->Set(static_cast<double>(per_shard[i]));
      }
      g_queued_bytes->Set(static_cast<double>(qb));
      g_buffer->Set(static_cast<double>(
          buffer_bytes_.load(std::memory_order_relaxed)));
    });
  }

  // ---- configuration / collaborators ----
  ShardedDb* const db_;
  baselines::Stack* const stack_;
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

  // ---- request queues ----
  // One write queue per engine shard (exactly one for a one-shard store).
  // Each queue elects its own group-commit leader and carries its OWN
  // mutex, so two shards never contend on enqueue or leader election; a
  // separate read_mu_ covers the shared read queue. Work tokens travel
  // through work_tokens_: Dispatch releases one per enqueued
  // request, a worker acquires one and scans the write queues from a
  // rotating start before falling back to the read queue. A finishing
  // leader re-releases one token when its queue still holds tasks (their
  // tokens may have been consumed by workers that found the queue
  // leader-locked); a surplus token only costs a wake-scan-sleep cycle.
  struct alignas(64) WriteQueue {
    std::mutex mu;
    std::deque<Request> tasks;
    size_t queued_bytes = 0;    // payload bytes sitting in `tasks`
    bool leader_active = false; // a worker is committing this queue's group
  };
  // unique_ptr elements: WriteQueue holds a mutex and cannot move.
  std::vector<std::unique_ptr<WriteQueue>> write_queues_;
  std::mutex read_mu_;
  std::deque<Request> read_tasks_;  // guarded by read_mu_
  WorkTokens work_tokens_;
  // Total write payload bytes across every queue. Admission does a
  // fetch_add and undoes it on reject; leaders subtract exactly the bytes
  // they drained, so the counter never underflows.
  std::atomic<size_t> queued_write_bytes_{0};
  std::atomic<uint64_t> next_write_shard_{0};  // rotating scan start
  std::atomic<int> executing_{0};
  std::atomic<bool> workers_exit_{false};
  // Coordinates only the cold drain/quiesce handshake; the hot enqueue
  // and worker paths never touch it.
  std::mutex sched_mu_;
  std::condition_variable drain_cv_;
  // Spreads cross-shard kWriteBatch requests over the queues.
  std::atomic<uint64_t> batch_rr_{0};

  // Either tasks waiting for a leader or a leader still committing; the
  // leader clears leader_active only after the group's executing_ count
  // has dropped, so drain cannot slip between the two.
  bool AnyWritesQueued() {
    for (auto& q : write_queues_) {
      std::lock_guard<std::mutex> l(q->mu);
      if (!q->tasks.empty() || q->leader_active) return true;
    }
    return false;
  }

  bool ReadsDrained() {
    std::lock_guard<std::mutex> l(read_mu_);
    return read_tasks_.empty();
  }

  // Taking sched_mu_ between the queue-state change and the notify pairs
  // with the drain predicate being evaluated under sched_mu_, so the
  // wakeup cannot be lost even though the state lives outside this mutex.
  void NotifyDrain() {
    { std::lock_guard<std::mutex> l(sched_mu_); }
    drain_cv_.notify_all();
  }

  // Recently applied write request ids, newest at the back. A retried
  // write whose ack was lost replays its OK instead of re-applying.
  std::mutex dedup_mu_;
  std::unordered_set<uint64_t> applied_write_ids_;
  std::deque<uint64_t> applied_write_order_;

  // ---- lifecycle ----
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  // Loop acknowledged stopping_: reads are off and every already-received
  // complete frame has been dispatched. Guarded by sched_mu_.
  bool reads_quiesced_ = false;
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
  obs::Counter* c_write_groups_;
  obs::Counter* c_batched_writes_;
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
          force_close_at =
              std::chrono::steady_clock::now() +
              std::chrono::milliseconds(opts_.drain_deadline_millis);
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
  // complete frames already buffered, stop reading, and tell Stop() the
  // request stream is now complete.
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
      std::lock_guard<std::mutex> l(sched_mu_);
      reads_quiesced_ = true;
    }
    drain_cv_.notify_all();
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
          net::DecodeFrame(&input, &header, &payload, opts_.max_frame_bytes);
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
    const bool is_write = op == net::Op::kPut || op == net::Op::kDelete ||
                          op == net::Op::kWriteBatch;
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
    // Route the write to its shard's commit queue by hashing the decoded
    // key — pure computation, no engine locks. Multi-key batches may span
    // shards; they ride any queue round-robin and ShardedDb::Write splits
    // them. Malformed payloads route to queue 0 where the group leader
    // produces the typed decode error exactly as before.
    int shard = 0;
    if (is_write) {
      Slice key, value;
      if (op == net::Op::kPut) {
        if (net::DecodePutRequest(payload, &key, &value)) {
          shard = db_->ShardOf(key);
        }
      } else if (op == net::Op::kDelete) {
        if (net::DecodeKeyRequest(payload, &key)) {
          shard = db_->ShardOf(key);
        }
      } else {  // kWriteBatch
        shard = static_cast<int>(batch_rr_.fetch_add(
                    1, std::memory_order_relaxed) %
                                 write_queues_.size());
      }
    }
    if (is_write && opts_.reject_writes_on_stall) {
      // Per-shard admission: only a stall of the *target* engine sheds
      // this write (cross-shard batches check the worst shard).
      const int stall_level = op != net::Op::kWriteBatch
                                  ? db_->WriteStallLevelOfShard(shard)
                                  : db_->WriteStallLevel();
      if (stall_level >= 2) {
        c_rej_stall_->Inc();
        RejectBusy(conn, header, Status::Busy("engine write stall"));
        return;
      }
    }

    Request req;
    req.conn = conn;
    req.opcode = header.opcode;
    req.shard = shard;
    req.request_id = header.request_id;
    req.trace_id = header.trace_id;
    if (Sampled(header.trace_id)) req.enqueue_micros = NowMicros();
    req.payload.assign(payload.data(), payload.size());
    conn->inflight.fetch_add(1, std::memory_order_relaxed);
    bool queue_full = false;
    if (is_write) {
      const size_t sz = req.payload.size();
      const size_t prev =
          queued_write_bytes_.fetch_add(sz, std::memory_order_relaxed);
      if (opts_.max_queued_write_bytes > 0 && prev > 0 &&
          prev + sz > opts_.max_queued_write_bytes) {
        // Byte-budgeted write queues: over the shared budget, reject at
        // the door. Empty queues always admit, so a single write larger
        // than the whole budget cannot livelock its retries.
        queued_write_bytes_.fetch_sub(sz, std::memory_order_relaxed);
        queue_full = true;
      } else {
        WriteQueue& q = *write_queues_[shard];
        std::lock_guard<std::mutex> l(q.mu);
        q.queued_bytes += sz;
        q.tasks.push_back(std::move(req));
      }
    } else {
      std::lock_guard<std::mutex> l(read_mu_);
      read_tasks_.push_back(std::move(req));
    }
    if (queue_full) {
      conn->inflight.fetch_sub(1, std::memory_order_relaxed);
      c_rej_queue_full_->Inc();
      RejectBusy(conn, header, Status::Busy("write queue over byte budget"));
      return;
    }
    work_tokens_.Release();
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

  // Simulated device busy time, read only around sampled requests: a
  // sharded counter read is cheap, but not free on every request.
  double DeviceBusySeconds() const {
    return stack_->drive()->metrics().busy->Seconds();
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
          "queue=%lluus commit=%lluus engine=%lluus device=%.3fms\n",
          static_cast<unsigned long long>(span.trace_id),
          net::OpName(span.opcode),
          static_cast<unsigned long long>(span.request_id),
          static_cast<unsigned long long>(span.total_micros),
          static_cast<unsigned long long>(span.queue_micros),
          static_cast<unsigned long long>(span.commit_micros),
          static_cast<unsigned long long>(span.engine_micros),
          span.device_seconds * 1e3);
    }
  }

  // -------------------------------------------------------------- workers

  void WorkerMain() {
    const uint64_t n = write_queues_.size();
    for (;;) {
      work_tokens_.Acquire();
      if (workers_exit_.load(std::memory_order_acquire)) return;
      // Writes first (the same priority as the old single-lock scheduler):
      // scan the queues from a rotating start so a busy shard cannot
      // starve the others.
      bool led_group = false;
      const uint64_t start =
          next_write_shard_.fetch_add(1, std::memory_order_relaxed);
      for (uint64_t k = 0; k < n && !led_group; k++) {
        WriteQueue& q = *write_queues_[(start + k) % n];
        std::vector<Request> group;
        size_t group_bytes = 0;
        {
          std::lock_guard<std::mutex> l(q.mu);
          if (q.tasks.empty() || q.leader_active) continue;
          // Become this queue's write leader: drain a group of its queued
          // writes and commit them as one WriteBatch. Other shards' queues
          // stay runnable — their leaders commit concurrently.
          q.leader_active = true;
          while (!q.tasks.empty() &&
                 group.size() < opts_.max_batch_requests &&
                 group_bytes < opts_.max_batch_bytes) {
            const size_t sz = q.tasks.front().payload.size();
            group_bytes += sz;
            q.queued_bytes -= std::min(q.queued_bytes, sz);
            group.push_back(std::move(q.tasks.front()));
            q.tasks.pop_front();
          }
          // Counted while still inside q.mu: the drain predicate must
          // never observe an empty leaderless queue with this group still
          // uncounted.
          executing_.fetch_add(static_cast<int>(group.size()),
                               std::memory_order_relaxed);
        }
        queued_write_bytes_.fetch_sub(group_bytes, std::memory_order_relaxed);
        RunWriteGroup(group);
        bool more;
        {
          std::lock_guard<std::mutex> l(q.mu);
          executing_.fetch_sub(static_cast<int>(group.size()),
                               std::memory_order_relaxed);
          q.leader_active = false;
          more = !q.tasks.empty();
        }
        if (more) work_tokens_.Release();
        NotifyDrain();
        led_group = true;
      }
      if (led_group) continue;
      // No runnable write queue: serve a read if one is pending. Otherwise
      // the token was surplus (its task went to another worker, or a
      // leader re-released while its queue drained) — drop it and sleep.
      Request req;
      bool have_read = false;
      {
        std::lock_guard<std::mutex> l(read_mu_);
        if (!read_tasks_.empty()) {
          req = std::move(read_tasks_.front());
          read_tasks_.pop_front();
          executing_.fetch_add(1, std::memory_order_relaxed);
          have_read = true;
        }
      }
      if (have_read) {
        RunRead(req);
        executing_.fetch_sub(1, std::memory_order_relaxed);
        NotifyDrain();
      }
    }
  }

  // True if this write request id was applied recently enough to still be
  // in the dedup window — the retry of a write whose ack got lost.
  bool IsDuplicateWrite(uint64_t request_id) {
    if (opts_.write_dedup_window == 0) return false;
    std::lock_guard<std::mutex> l(dedup_mu_);
    return applied_write_ids_.find(request_id) != applied_write_ids_.end();
  }

  void RecordAppliedWrites(const std::vector<Request>& group,
                           const std::vector<bool>& included) {
    if (opts_.write_dedup_window == 0) return;
    std::lock_guard<std::mutex> l(dedup_mu_);
    for (size_t i = 0; i < group.size(); i++) {
      if (!included[i]) continue;
      if (applied_write_ids_.insert(group[i].request_id).second) {
        applied_write_order_.push_back(group[i].request_id);
      }
    }
    while (applied_write_order_.size() > opts_.write_dedup_window) {
      applied_write_ids_.erase(applied_write_order_.front());
      applied_write_order_.pop_front();
    }
  }

  void RunWriteGroup(std::vector<Request>& group) {
    bool any_sampled = false;
    for (const Request& req : group) {
      if (Sampled(req.trace_id)) {
        any_sampled = true;
        break;
      }
    }
    const uint64_t pickup = any_sampled ? NowMicros() : 0;
    const double busy0 = any_sampled ? DeviceBusySeconds() : 0.0;

    WriteBatch combined;
    std::vector<bool> included(group.size(), false);
    int included_count = 0;
    for (size_t i = 0; i < group.size(); i++) {
      const Request& req = group[i];
      if (IsDuplicateWrite(req.request_id)) {
        // Already applied; the client just never saw the ack. Replay OK
        // without touching the engine so the retry is exactly-once.
        c_dedup_replays_->Inc();
        std::string payload_out;
        net::EncodeStatusRecord(&payload_out, Status::OK());
        Respond(req.conn, req.opcode | net::kResponseBit, req.request_id,
                payload_out, /*close_after=*/false, /*finish=*/true);
        continue;
      }
      Slice key, value;
      bool ok = false;
      switch (static_cast<net::Op>(req.opcode)) {
        case net::Op::kPut:
          ok = net::DecodePutRequest(req.payload, &key, &value);
          if (ok) combined.Put(key, value);
          break;
        case net::Op::kDelete:
          ok = net::DecodeKeyRequest(req.payload, &key);
          if (ok) combined.Delete(key);
          break;
        case net::Op::kWriteBatch: {
          WriteBatch one;
          ok = net::DecodeWriteBatchRequest(req.payload, &one);
          if (ok) combined.Append(one);
          break;
        }
        default:
          break;
      }
      if (ok) {
        included[i] = true;
        included_count++;
      } else {
        std::string payload_out;
        net::EncodeStatusRecord(
            &payload_out, Status::InvalidArgument("malformed write payload"));
        Respond(req.conn, req.opcode | net::kResponseBit, req.request_id,
                payload_out, /*close_after=*/false, /*finish=*/true);
      }
    }

    Status s;
    uint64_t engine_micros = 0;
    if (included_count > 0) {
      WriteOptions wo;
      wo.sync = opts_.sync_writes;
      const uint64_t engine_start = any_sampled ? NowMicros() : 0;
      s = db_->Write(wo, &combined);
      if (any_sampled) engine_micros = NowMicros() - engine_start;
      c_write_groups_->Inc();
      c_batched_writes_->Add(static_cast<uint64_t>(included_count));
      if (s.ok()) RecordAppliedWrites(group, included);
    }
    if (any_sampled) {
      // Every sampled member shares the group's commit/engine/device
      // spans — its latency really was the whole group commit.
      const uint64_t done = NowMicros();
      const double device_delta = DeviceBusySeconds() - busy0;
      for (const Request& req : group) {
        if (!Sampled(req.trace_id)) continue;
        TraceSpan span;
        span.trace_id = req.trace_id;
        span.request_id = req.request_id;
        span.opcode = req.opcode;
        span.queue_micros = pickup - req.enqueue_micros;
        span.commit_micros = done - pickup;
        span.engine_micros = engine_micros;
        span.device_seconds = device_delta;
        span.total_micros = done - req.enqueue_micros;
        RecordTrace(span);
      }
    }
    // Group commit is all-or-nothing: every member shares the outcome.
    std::string payload_out;
    net::EncodeStatusRecord(&payload_out, s);
    for (size_t i = 0; i < group.size(); i++) {
      if (!included[i]) continue;
      Respond(group[i].conn, group[i].opcode | net::kResponseBit,
              group[i].request_id, payload_out, /*close_after=*/false,
              /*finish=*/true);
    }
  }

  void RunRead(const Request& req) {
    const bool sampled = Sampled(req.trace_id);
    const uint64_t pickup = sampled ? NowMicros() : 0;
    const double busy0 = sampled ? DeviceBusySeconds() : 0.0;
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
        limit = std::min(limit, opts_.max_scan_limit);
        const uint64_t engine_start = sampled ? NowMicros() : 0;
        std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
        for (it->Seek(start); it->Valid() && entries.size() < limit;
             it->Next()) {
          entries.emplace_back(it->key().ToString(), it->value().ToString());
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

    if (sampled) {
      const uint64_t done = NowMicros();
      TraceSpan span;
      span.trace_id = req.trace_id;
      span.request_id = req.request_id;
      span.opcode = req.opcode;
      span.queue_micros = pickup - req.enqueue_micros;
      span.commit_micros = done - pickup;
      span.engine_micros = engine_micros;
      span.device_seconds = DeviceBusySeconds() - busy0;
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
    //    frames it already received, then acknowledges via
    //    reads_quiesced_.
    stopping_.store(true, std::memory_order_release);
    Wake();

    // 2. Drain: every dispatched request executed and its response
    //    appended to its connection buffer.
    {
      std::unique_lock<std::mutex> l(sched_mu_);
      drain_cv_.wait(l, [this] {
        return reads_quiesced_ && ReadsDrained() && !AnyWritesQueued() &&
               executing_.load(std::memory_order_relaxed) == 0;
      });
    }
    // Everything drained: release one token per worker so each wakes,
    // observes the exit flag, and returns.
    workers_exit_.store(true, std::memory_order_release);
    if (!workers_.empty()) {
      work_tokens_.Release(workers_.size());
    }
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
