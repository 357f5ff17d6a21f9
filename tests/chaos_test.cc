// Chaos tests for the served stack (DESIGN.md §11): retrying clients drive
// a SealServer through a deterministic ChaosTransport (dropped, delayed,
// duplicated, truncated frames and killed connections) over a
// FaultInjectionDrive, and the run is audited against three invariants:
//
//   1. every acknowledged write is durable — readable live, and still
//      there after a crash + recovery of the stack (sync_writes on);
//   2. no operation outlives its retry deadline by more than the
//      worst-case tail of one in-flight attempt;
//   3. server memory stays bounded under overload (connection buffers and
//      the write queue never exceed their configured caps).
//
// The fault schedule is a pure function of the seed, so each seed replays
// the same per-connection chaos; the suite runs three fixed seeds. Also
// here: admission-control tests (burst overload sees typed Busy
// rejections and admission metrics; an underloaded run sees none) and the
// dedup window absorbing duplicated write frames. Runs under TSan via the
// "stress" ctest label.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/presets.h"
#include "core/shard_layout.h"
#include "lsm/db.h"
#include "lsm/sharded_db.h"
#include "net/chaos.h"
#include "net/seal_client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "server/seal_server.h"
#include "smr/fault_injection_drive.h"
#include "util/coding.h"
#include "ycsb/runner.h"
#include "ycsb/workload.h"

namespace sealdb {

namespace {

using baselines::BuildStack;
using baselines::Stack;
using baselines::StackConfig;
using baselines::SystemKind;

StackConfig SmallConfig() {
  StackConfig config;
  config.kind = SystemKind::kSEALDB;
  config.capacity_bytes = 256ull << 20;
  config.band_bytes = 640 << 10;
  config.sstable_bytes = 64 << 10;
  config.write_buffer_bytes = 64 << 10;
  config.track_bytes = 16 << 10;
  config.conventional_bytes = 8 << 20;
  config.inline_compactions = false;
  config.fault_injection = true;
  return config;
}

std::string Key(int client, int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "c%02d-key%08d", client, i);
  return buf;
}

std::string Value(int client, int i) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "value-%02d-%08d", client, i);
  return buf;
}

uint64_t NowMillis() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// Chaos proxy end-to-end, one test instantiation per fixed seed.

class ChaosTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void Start(const server::ServerOptions& server_opts,
             const net::ChaosOptions& chaos_opts) {
    Start(server_opts, chaos_opts, SmallConfig());
  }

  void Start(const server::ServerOptions& server_opts,
             const net::ChaosOptions& chaos_opts, const StackConfig& config) {
    ASSERT_TRUE(BuildStack(config, "/chaos", &stack_).ok());
    server::ServerOptions opts = server_opts;
    server_ = std::make_unique<server::SealServer>(stack_->db(), stack_.get(),
                                                   opts);
    ASSERT_TRUE(server_->Start().ok());
    proxy_ = std::make_unique<net::ChaosTransport>("127.0.0.1",
                                                   server_->port(),
                                                   chaos_opts);
    ASSERT_TRUE(proxy_->Start().ok());
  }

  void TearDown() override {
    if (proxy_ != nullptr) proxy_->Stop();
    if (server_ != nullptr) server_->Stop();
    if (stack_ != nullptr) stack_->db()->WaitForIdle();
  }

  std::unique_ptr<Stack> stack_;
  std::unique_ptr<server::SealServer> server_;
  std::unique_ptr<net::ChaosTransport> proxy_;
};

TEST_P(ChaosTest, AckedWritesSurviveChaosAndRecovery) {
  const uint32_t seed = GetParam();

  server::ServerOptions sopts;
  sopts.sync_writes = true;  // an ack must mean durable
  net::ChaosOptions copts;
  copts.seed = seed;
  copts.drop_per_mille = 25;
  copts.delay_per_mille = 25;
  copts.duplicate_per_mille = 25;
  copts.truncate_per_mille = 10;
  copts.close_per_mille = 10;
  copts.delay_millis = 5;
  Start(sopts, copts);

  // Drive-level faults run concurrently with the network faults: every
  // read op transiently fails 2% of the time (the FileStore retry path
  // absorbs most of these; the rest surface as retryable IOErrors), and
  // writes carry a small device delay so the write queue actually fills.
  stack_->fault_drive()->SetReadErrorProbability(0.02, seed);
  stack_->fault_drive()->SetWriteDelayMicros(200);

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 50;
  constexpr int kDeadlineMillis = 4000;
  // Worst case an op can take beyond its deadline: the deadline check
  // happens between attempts, so one tail attempt (a recv timeout plus a
  // connect timeout) can still be in flight when the budget runs out.
  constexpr int kRecvTimeoutMillis = 500;
  constexpr int kConnectTimeoutMillis = 1000;
  constexpr uint64_t kMaxOpMillis =
      kDeadlineMillis + kRecvTimeoutMillis + kConnectTimeoutMillis + 500;

  struct ClientOutcome {
    std::vector<std::pair<std::string, std::string>> acked;
    uint64_t worst_op_millis = 0;
    net::ClientStats stats;
  };
  std::vector<ClientOutcome> outcomes(kClients);

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; c++) {
    threads.emplace_back([this, c, seed, &outcomes] {
      net::SealClient client;
      net::RetryPolicy policy;
      policy.enabled = true;
      policy.max_attempts = 8;
      policy.base_backoff_millis = 2;
      policy.max_backoff_millis = 100;
      policy.deadline_millis = kDeadlineMillis;
      policy.jitter_seed = seed * 31 + c + 1;
      client.set_retry_policy(policy);
      if (!client
               .Connect("127.0.0.1", proxy_->port(), kRecvTimeoutMillis,
                        kConnectTimeoutMillis)
               .ok()) {
        return;  // proxy may have killed the very first connection attempt
      }
      for (int i = 0; i < kOpsPerClient; i++) {
        const std::string key = Key(c, i);
        const std::string value = Value(c, i);
        const uint64_t start = NowMillis();
        const Status put = client.Put(key, value);
        const uint64_t took = NowMillis() - start;
        if (took > outcomes[c].worst_op_millis) {
          outcomes[c].worst_op_millis = took;
        }
        if (put.ok()) outcomes[c].acked.emplace_back(key, value);

        // Interleave a read of our own acked data; when it succeeds it
        // must observe the write (read-your-writes through retries).
        if (!outcomes[c].acked.empty() && (i % 7) == 0) {
          const auto& back = outcomes[c].acked.back();
          std::string got;
          const uint64_t rstart = NowMillis();
          const Status rs = client.Get(back.first, &got);
          const uint64_t rtook = NowMillis() - rstart;
          if (rtook > outcomes[c].worst_op_millis) {
            outcomes[c].worst_op_millis = rtook;
          }
          if (rs.ok()) {
            EXPECT_EQ(got, back.second) << back.first;
          }
        }
      }
      outcomes[c].stats = client.stats();
    });
  }
  for (auto& t : threads) t.join();

  // Invariant 2: no op outlived its deadline by more than one attempt's
  // worst-case tail.
  size_t total_acked = 0;
  uint64_t total_retries = 0;
  for (const ClientOutcome& o : outcomes) {
    EXPECT_LE(o.worst_op_millis, kMaxOpMillis);
    total_acked += o.acked.size();
    total_retries += o.stats.retries;
  }
  // Chaos actually happened, and clients still made forward progress.
  EXPECT_GT(proxy_->stats().faults(), 0u) << "seed " << seed;
  EXPECT_GT(total_acked, 0u) << "seed " << seed;

  // Invariant 3: server memory stayed bounded.
  EXPECT_LE(server_->connection_buffer_bytes(),
            2 * sopts.max_response_buffer_bytes +
                static_cast<uint64_t>(kClients) * sopts.max_frame_bytes);

  // Heal the drive before the audits: the invariants below are about what
  // chaos left behind, not about the audit reads themselves being faulted.
  stack_->fault_drive()->SetReadErrorProbability(0.0);
  stack_->fault_drive()->SetWriteDelayMicros(0);

  // Invariant 1a: every acked write is readable live, through a clean
  // connection.
  {
    net::SealClient direct;
    ASSERT_TRUE(direct.Connect("127.0.0.1", server_->port()).ok());
    for (const ClientOutcome& o : outcomes) {
      for (const auto& [key, value] : o.acked) {
        std::string got;
        ASSERT_TRUE(direct.Get(key, &got).ok()) << key;
        EXPECT_EQ(got, value) << key;
      }
    }
  }

  // Invariant 1b: acked writes survive a crash + recovery. Stop serving,
  // tear the stack down (unsynced state is lost), and reopen.
  proxy_->Stop();
  server_->Stop();
  server_.reset();
  ASSERT_TRUE(stack_->Reopen().ok());
  for (const ClientOutcome& o : outcomes) {
    for (const auto& [key, value] : o.acked) {
      std::string got;
      ASSERT_TRUE(stack_->db()->Get(ReadOptions(), key, &got).ok()) << key;
      EXPECT_EQ(got, value) << key;
    }
  }

  // Determinism probe: the fault schedule is seed-derived; record that this
  // seed induced retries when any faults hit the request path (duplicates
  // alone don't force one). Not an assertion — drop/close/truncate rates
  // make retries overwhelmingly likely, and the invariants above are what
  // the test is for.
  (void)total_retries;
}

// The acked⇒durable audit against a 4-shard server with one shard
// force-degraded mid-run: the degraded column answers its keys with the
// typed ShardDegraded status while the healthy columns keep acking — and
// every ack, on any shard and from before or after the degrade, survives
// crash + recovery.
TEST_P(ChaosTest, AckedWritesSurviveWithOneShardDegraded) {
  const uint32_t seed = GetParam();
  static constexpr int kShards = 4;
  static constexpr int kVictim = 2;

  server::ServerOptions sopts;
  sopts.sync_writes = true;
  net::ChaosOptions copts;
  copts.seed = seed;
  copts.drop_per_mille = 25;
  copts.delay_per_mille = 25;
  copts.duplicate_per_mille = 25;
  copts.close_per_mille = 10;
  copts.delay_millis = 5;
  StackConfig config = SmallConfig();
  config.num_shards = kShards;
  Start(sopts, copts, config);
  ASSERT_EQ(stack_->num_shards(), kShards);

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 50;
  std::atomic<int> ops_done{0};
  std::atomic<bool> degraded{false};

  struct ClientOutcome {
    std::vector<std::pair<std::string, std::string>> acked;
    int acked_healthy_after_degrade = 0;
    int degraded_answers = 0;
  };
  std::vector<ClientOutcome> outcomes(kClients);

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; c++) {
    threads.emplace_back([this, c, seed, &outcomes, &ops_done, &degraded] {
      net::SealClient client;
      net::RetryPolicy policy;
      policy.enabled = true;
      policy.max_attempts = 8;
      policy.base_backoff_millis = 2;
      policy.max_backoff_millis = 100;
      policy.deadline_millis = 4000;
      policy.jitter_seed = seed * 37 + c + 1;
      client.set_retry_policy(policy);
      if (!client.Connect("127.0.0.1", proxy_->port(), 500, 1000).ok()) {
        return;
      }
      for (int i = 0; i < kOpsPerClient; i++) {
        const std::string key = Key(c, i);
        const std::string value = Value(c, i);
        const bool was_degraded = degraded.load(std::memory_order_acquire);
        const Status put = client.Put(key, value);
        if (put.ok()) {
          outcomes[c].acked.emplace_back(key, value);
          if (was_degraded &&
              core::ShardLayout::ShardOfKey(key, kShards) != kVictim) {
            outcomes[c].acked_healthy_after_degrade++;
          }
        } else if (put.IsShardDegraded()) {
          outcomes[c].degraded_answers++;
          // The typed status must only ever name the victim's keys.
          EXPECT_EQ(core::ShardLayout::ShardOfKey(key, kShards), kVictim)
              << key << ": " << put.ToString();
        }
        ops_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // A third of the way through, one shard's engine goes down.
  while (ops_done.load(std::memory_order_relaxed) <
         kClients * kOpsPerClient / 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stack_->db()->DegradeShard(kVictim, "chaos: forced");
  degraded.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  // Healthy shards kept committing after the degrade.
  size_t total_acked = 0;
  int healthy_after = 0;
  for (const ClientOutcome& o : outcomes) {
    total_acked += o.acked.size();
    healthy_after += o.acked_healthy_after_degrade;
  }
  EXPECT_GT(total_acked, 0u) << "seed " << seed;
  EXPECT_GT(healthy_after, 0) << "seed " << seed;

  // Deterministic typed-error probe through a clean connection: a key on
  // the victim shard answers ShardDegraded, one on a healthy shard acks.
  {
    net::SealClient direct;
    ASSERT_TRUE(direct.Connect("127.0.0.1", server_->port()).ok());
    std::string victim_key, healthy_key;
    for (int i = 0; victim_key.empty() || healthy_key.empty(); i++) {
      const std::string k = "probe-" + std::to_string(i);
      if (core::ShardLayout::ShardOfKey(k, kShards) == kVictim) {
        if (victim_key.empty()) victim_key = k;
      } else if (healthy_key.empty()) {
        healthy_key = k;
      }
    }
    Status vs = direct.Put(victim_key, "x");
    EXPECT_TRUE(vs.IsShardDegraded()) << vs.ToString();
    ASSERT_TRUE(direct.Put(healthy_key, "x").ok());
  }

  // Acked ⇒ durable on every shard: the forced degrade wounded no media,
  // so after crash + recovery every acknowledged write is back — including
  // the victim shard's pre-degrade acks.
  proxy_->Stop();
  server_->Stop();
  server_.reset();
  ASSERT_TRUE(stack_->Reopen().ok());
  for (const ClientOutcome& o : outcomes) {
    for (const auto& [key, value] : o.acked) {
      std::string got;
      ASSERT_TRUE(stack_->db()->Get(ReadOptions(), key, &got).ok()) << key;
      EXPECT_EQ(got, value) << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(101u, 202u, 303u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Admission control (no proxy needed).

class AdmissionTest : public ::testing::Test {
 protected:
  void Start(const server::ServerOptions& opts) { Start(opts, SmallConfig()); }

  void Start(const server::ServerOptions& opts, const StackConfig& config) {
    ASSERT_TRUE(BuildStack(config, "/admission", &stack_).ok());
    server_ = std::make_unique<server::SealServer>(stack_->db(), stack_.get(),
                                                   opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    if (stack_ != nullptr) stack_->db()->WaitForIdle();
  }

  uint64_t ServerCount(const std::string& name,
                       const obs::Labels& labels = {}) const {
    return server_->metrics_registry()->counter_value(name, labels);
  }

  // Requests answered Busy by admission control (connection-cap
  // rejections excluded: they refuse a connection, not a request).
  uint64_t BusyRejections() const {
    uint64_t n = 0;
    for (const char* reason : {"queue_full", "inflight_cap", "stall"}) {
      n += ServerCount("sealdb_server_admission_rejected_total",
                       {{"reason", reason}});
    }
    return n;
  }

  std::unique_ptr<Stack> stack_;
  std::unique_ptr<server::SealServer> server_;
};

TEST_F(AdmissionTest, BurstOverloadSeesTypedBusyRejections) {
  server::ServerOptions opts;
  opts.sync_writes = true;
  opts.max_inflight_per_conn = 8;
  opts.max_queued_write_bytes = 8 << 10;
  Start(opts);
  // A congested device keeps the group-commit leader busy so the burst
  // cannot drain between dispatches.
  stack_->fault_drive()->SetWriteDelayMicros(2000);

  std::string prop;
  ASSERT_TRUE(
      stack_->db()->GetProperty("sealdb.approximate-memory-usage", &prop));
  const uint64_t mem_before = std::stoull(prop);

  net::SealClient client;  // no retry policy: rejections must surface
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  constexpr int kBurst = 64;
  for (int i = 0; i < kBurst; i++) {
    client.QueuePut(Key(0, i), std::string(512, 'x'));
  }
  std::vector<net::SealClient::Result> results;
  ASSERT_TRUE(client.Flush(&results).ok());
  ASSERT_EQ(results.size(), static_cast<size_t>(kBurst));

  int ok = 0, busy = 0;
  for (const auto& r : results) {
    if (r.status.ok()) {
      ok++;
    } else {
      EXPECT_TRUE(r.status.IsBusy()) << r.status.ToString();
      busy++;
    }
  }
  // The whole burst was answered — nothing hung — and the cap both
  // admitted work and shed load.
  EXPECT_GT(ok, 0);
  EXPECT_GT(busy, 0);

  // The rejected work never landed anywhere: memory (memtables + block
  // cache + connection buffers) grew by at most the admitted bytes plus
  // the admission budget itself, not by the full burst.
  ASSERT_TRUE(
      stack_->db()->GetProperty("sealdb.approximate-memory-usage", &prop));
  const uint64_t mem_after = std::stoull(prop);
  EXPECT_LE(mem_after, mem_before + opts.max_queued_write_bytes +
                           static_cast<uint64_t>(kBurst) * 1024 + (256 << 10));

  EXPECT_EQ(BusyRejections(), static_cast<uint64_t>(busy));

  // The rejections are METRICS-visible to remote operators too.
  stack_->fault_drive()->SetWriteDelayMicros(0);
  std::string text;
  ASSERT_TRUE(client.Metrics(&text).ok());
  for (const char* reason : {"queue_full", "inflight_cap", "stall"}) {
    const std::string line =
        std::string("\nsealdb_server_admission_rejected_total{reason=\"") +
        reason + "\"} " +
        std::to_string(ServerCount("sealdb_server_admission_rejected_total",
                                   {{"reason", reason}})) +
        "\n";
    EXPECT_NE(text.find(line), std::string::npos) << line << text;
  }
}

TEST_F(AdmissionTest, ConnectionCapRejectsWithTypedError) {
  server::ServerOptions opts;
  opts.max_connections = 2;
  Start(opts);

  net::SealClient a, b;
  ASSERT_TRUE(a.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(a.Ping().ok());
  ASSERT_TRUE(b.Ping().ok());

  // The third connection is answered with one Busy error frame and closed.
  net::SealClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
  Status s = c.Ping();
  EXPECT_TRUE(s.IsBusy() || s.IsIOError()) << s.ToString();
  EXPECT_GE(ServerCount("sealdb_server_admission_rejected_total",
                        {{"reason", "connections"}}),
            1u);

  // Established connections are unaffected, and capacity freed by a
  // departing connection is reusable.
  ASSERT_TRUE(a.Ping().ok());
  a.Close();
  net::SealClient d;
  Status admitted;
  // The server learns of the disconnect asynchronously; poll briefly.
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(d.Connect("127.0.0.1", server_->port()).ok());
    admitted = d.Ping();
    if (admitted.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(admitted.ok()) << admitted.ToString();
}

TEST_F(AdmissionTest, SlowClientIsEvictedNotBuffered) {
  server::ServerOptions opts;
  opts.max_response_buffer_bytes = 64 << 10;
  Start(opts);

  // Seed data so scans return real bytes.
  {
    net::SealClient loader;
    ASSERT_TRUE(loader.Connect("127.0.0.1", server_->port()).ok());
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(loader.Put(Key(0, i), std::string(2048, 'v')).ok());
    }
  }

  // A peer that requests ~40 MB of scan responses and never reads them:
  // once the kernel socket buffers fill, the connection's response buffer
  // crosses the cap and the server evicts it instead of buffering on.
  int fd = -1;
  ASSERT_TRUE(net::ConnectTcp("127.0.0.1", server_->port(), &fd, 2000).ok());
  std::string req, frames;
  net::EncodeScanRequest(&req, "", 50);
  for (uint64_t id = 1; id <= 400; id++) {
    net::EncodeFrame(&frames, static_cast<uint8_t>(net::Op::kScan), id, req);
  }
  ASSERT_TRUE(net::WriteFully(fd, frames.data(), frames.size()).ok());

  uint64_t evictions = 0;
  for (int i = 0; i < 500 && evictions == 0; i++) {
    evictions = ServerCount("sealdb_server_slow_client_evictions_total");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  net::CloseFd(fd);
  EXPECT_GE(evictions, 1u);

  // The server remains fully usable and its buffer accounting recovered.
  net::SealClient healthy;
  ASSERT_TRUE(healthy.Connect("127.0.0.1", server_->port()).ok());
  EXPECT_TRUE(healthy.Ping().ok());
  EXPECT_LT(server_->connection_buffer_bytes(), 1u << 20);
}

TEST_F(AdmissionTest, DuplicateWriteResubmissionIsNotReapplied) {
  server::ServerOptions opts;
  Start(opts);

  // Speak the wire protocol by hand so the same PUT frame — same request
  // id — can be resubmitted, like a client retrying a write whose ack was
  // lost in flight.
  int fd = -1;
  ASSERT_TRUE(net::ConnectTcp("127.0.0.1", server_->port(), &fd, 2000).ok());
  ASSERT_TRUE(net::SetRecvTimeout(fd, 5000).ok());

  auto read_response_status = [&fd]() {
    char header[net::kFrameHeaderBytes];
    Status io = net::ReadFully(fd, header, sizeof(header));
    if (!io.ok()) return io;
    const uint32_t payload_len =
        DecodeFixed32(header + net::kPayloadLenOffset);
    std::string payload(payload_len, '\0');
    if (payload_len > 0) {
      io = net::ReadFully(fd, payload.data(), payload_len);
      if (!io.ok()) return io;
    }
    Slice in(payload);
    Status remote;
    if (!net::DecodeStatusRecord(&in, &remote)) {
      return Status::Corruption("malformed status record");
    }
    return remote;
  };

  std::string req, frame;
  net::EncodePutRequest(&req, "dup-key", "v1");
  net::EncodeFrame(&frame, static_cast<uint8_t>(net::Op::kPut), 777, req);

  // First submission applies.
  ASSERT_TRUE(net::WriteFully(fd, frame.data(), frame.size()).ok());
  ASSERT_TRUE(read_response_status().ok());
  EXPECT_EQ(ServerCount("sealdb_server_dedup_replays_total"), 0u);

  // Exact resubmission is acked OK from the dedup window, not re-applied.
  ASSERT_TRUE(net::WriteFully(fd, frame.data(), frame.size()).ok());
  ASSERT_TRUE(read_response_status().ok());
  EXPECT_EQ(ServerCount("sealdb_server_dedup_replays_total"), 1u);
  net::CloseFd(fd);

  std::string got;
  net::SealClient reader;
  ASSERT_TRUE(reader.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(reader.Get("dup-key", &got).ok());
  EXPECT_EQ(got, "v1");
}

// ---------------------------------------------------------------------------
// YCSB-A under and over the admission budget (acceptance criterion: the
// overloaded run completes with zero hung clients and nonzero rejections;
// the underloaded run never trips the backpressure path).

class YcsbAdmissionTest : public AdmissionTest {
 protected:
  // Runs `kClients` retrying YCSB-A clients; returns true if every client
  // completed its run (no hangs, no failures). Failures land in
  // failures_ for the test's assertion message.
  bool RunYcsbA(int deadline_millis) {
    constexpr int kClients = 4;
    constexpr uint64_t kRecords = 200;
    constexpr uint64_t kOps = 100;
    std::atomic<int> completed{0};
    std::mutex failures_mu;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; c++) {
      threads.emplace_back([this, c, deadline_millis, &completed,
                            &failures_mu] {
        auto fail = [&](const std::string& what, const Status& s) {
          std::lock_guard<std::mutex> l(failures_mu);
          failures_ += "client " + std::to_string(c) + " " + what + ": " +
                       s.ToString() + "\n";
        };
        net::SealClient client;
        net::RetryPolicy policy;
        policy.enabled = true;
        policy.max_attempts = 1000;  // the deadline is the budget
        policy.deadline_millis = deadline_millis;
        policy.jitter_seed = 7u * (c + 1);
        client.set_retry_policy(policy);
        Status s = client.Connect("127.0.0.1", server_->port());
        if (!s.ok()) return fail("connect", s);
        ycsb::Runner runner(&client, /*key_bytes=*/16, /*value_bytes=*/2048,
                            /*seed=*/42 + c);
        ycsb::RunResult load_result, run_result;
        s = runner.Load(kRecords, &load_result);
        if (!s.ok()) return fail("load", s);
        s = runner.Run(ycsb::WorkloadSpec::A(), kRecords, kOps, &run_result);
        if (!s.ok()) return fail("run", s);
        completed.fetch_add(1);
      });
    }
    for (auto& t : threads) t.join();
    return completed.load() == kClients;
  }

  std::string failures_;
};

TEST_F(YcsbAdmissionTest, OverloadedRunCompletesWithRejections) {
  server::ServerOptions opts;
  opts.sync_writes = true;
  // The byte budget is half of what the 4 clients can have outstanding
  // (4 x ~2 KB values), i.e. the workload runs at ~2x the admission
  // budget once the device is congested.
  opts.max_queued_write_bytes = 4 << 10;
  Start(opts);
  stack_->fault_drive()->SetWriteDelayMicros(1500);

  EXPECT_TRUE(RunYcsbA(/*deadline_millis=*/20000)) << failures_;
  stack_->fault_drive()->SetWriteDelayMicros(0);
  EXPECT_GT(BusyRejections(), 0u);
}

TEST_F(YcsbAdmissionTest, UnderloadedRunSeesNoRejections) {
  server::ServerOptions opts;
  // Twice the clients' worst-case outstanding bytes: the backpressure
  // path must stay quiet.
  opts.max_queued_write_bytes = 16 << 10;
  // Keep engine write stalls out of the equation — this test isolates the
  // byte-budget door, so a transient L0 burst must not trip the stall
  // rejection instead.
  StackConfig config = SmallConfig();
  config.level0_slowdown_writes_trigger = 50;
  config.level0_stop_writes_trigger = 60;
  Start(opts, config);

  EXPECT_TRUE(RunYcsbA(/*deadline_millis=*/20000)) << failures_;
  EXPECT_EQ(BusyRejections(), 0u);
  EXPECT_EQ(ServerCount("sealdb_server_slow_client_evictions_total"), 0u);
}

}  // namespace sealdb
