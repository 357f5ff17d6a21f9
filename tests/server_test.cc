// Network service layer tests: wire-protocol round trips, malformed and
// truncated frames, pipelining, concurrent clients (including 8 YCSB-A
// clients over loopback with a lost/duplicate-ack audit), graceful
// shutdown with in-flight writes, and a FaultInjectionDrive behind the
// server (read-only degradation must surface as a typed error response,
// not a hang). Runs under TSan via the "stress" ctest label.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/presets.h"
#include "lsm/db.h"
#include "lsm/write_batch.h"
#include "net/seal_client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "server/seal_server.h"
#include "smr/fault_injection_drive.h"
#include "util/coding.h"
#include "ycsb/runner.h"

namespace sealdb {

namespace {

using baselines::BuildStack;
using baselines::Stack;
using baselines::StackConfig;
using baselines::SystemKind;

StackConfig SmallConfig(bool fault_injection = false) {
  StackConfig config;
  config.kind = SystemKind::kSEALDB;
  config.capacity_bytes = 256ull << 20;
  config.band_bytes = 640 << 10;
  config.sstable_bytes = 64 << 10;
  config.write_buffer_bytes = 64 << 10;
  config.track_bytes = 16 << 10;
  config.conventional_bytes = 8 << 20;
  config.inline_compactions = false;
  config.fault_injection = fault_injection;
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

}  // namespace

// ---------------------------------------------------------------------------
// Wire format unit tests (no sockets).

TEST(WireFormat, FrameRoundTrip) {
  std::string stream;
  net::EncodeFrame(&stream, static_cast<uint8_t>(net::Op::kPut), 42,
                   "payload-bytes");
  Slice input(stream);
  net::FrameHeader header;
  Slice payload;
  ASSERT_EQ(net::DecodeFrame(&input, &header, &payload),
            net::DecodeResult::kOk);
  EXPECT_EQ(header.opcode, static_cast<uint8_t>(net::Op::kPut));
  EXPECT_EQ(header.request_id, 42u);
  EXPECT_EQ(payload, Slice("payload-bytes"));
  EXPECT_TRUE(input.empty());
}

TEST(WireFormat, TruncatedFrameNeedsMore) {
  std::string stream;
  net::EncodeFrame(&stream, static_cast<uint8_t>(net::Op::kGet), 7, "key");
  for (size_t cut = 0; cut < stream.size(); cut++) {
    Slice input(stream.data(), cut);
    net::FrameHeader header;
    Slice payload;
    EXPECT_EQ(net::DecodeFrame(&input, &header, &payload),
              net::DecodeResult::kNeedMore)
        << "cut at " << cut;
  }
}

TEST(WireFormat, CorruptionDetected) {
  std::string good;
  net::EncodeFrame(&good, static_cast<uint8_t>(net::Op::kPut), 1, "abcdef");

  {
    std::string bad = good;
    bad[0] = 'x';  // magic
    Slice input(bad);
    net::FrameHeader h;
    Slice p;
    EXPECT_EQ(net::DecodeFrame(&input, &h, &p), net::DecodeResult::kBadMagic);
  }
  {
    std::string bad = good;
    bad[net::kVersionOffset] = 99;
    Slice input(bad);
    net::FrameHeader h;
    Slice p;
    EXPECT_EQ(net::DecodeFrame(&input, &h, &p),
              net::DecodeResult::kBadVersion);
  }
  {
    std::string bad = good;
    bad[net::kFrameHeaderBytes + 2] ^= 0x40;  // flip a payload bit
    Slice input(bad);
    net::FrameHeader h;
    Slice p;
    EXPECT_EQ(net::DecodeFrame(&input, &h, &p), net::DecodeResult::kBadCrc);
  }
  {
    std::string bad = good;
    EncodeFixed32(bad.data() + net::kPayloadLenOffset,
                  64 << 20);  // absurd payload length
    Slice input(bad);
    net::FrameHeader h;
    Slice p;
    EXPECT_EQ(net::DecodeFrame(&input, &h, &p, /*max_payload=*/1 << 20),
              net::DecodeResult::kTooLarge);
  }
}

TEST(WireFormat, StatusRecordRoundTrip) {
  for (const Status& s :
       {Status::OK(), Status::NotFound("missing key"),
        Status::IOError("drive", "degraded"), Status::NoSpace("full"),
        Status::InvalidArgument("bad"), Status::Corruption("crc")}) {
    std::string payload;
    net::EncodeStatusRecord(&payload, s);
    Slice input(payload);
    Status decoded;
    ASSERT_TRUE(net::DecodeStatusRecord(&input, &decoded));
    EXPECT_EQ(decoded.ok(), s.ok());
    EXPECT_EQ(decoded.IsNotFound(), s.IsNotFound());
    EXPECT_EQ(decoded.IsIOError(), s.IsIOError());
    EXPECT_EQ(decoded.IsNoSpace(), s.IsNoSpace());
    EXPECT_EQ(decoded.ToString(), s.ToString());
  }
}

TEST(WireFormat, WriteBatchRoundTrip) {
  WriteBatch batch;
  batch.Put("k1", "v1");
  batch.Delete("k2");
  batch.Put("k3", std::string(1000, 'x'));

  std::string payload;
  net::EncodeWriteBatchRequest(&payload, batch);
  WriteBatch decoded;
  ASSERT_TRUE(net::DecodeWriteBatchRequest(payload, &decoded));
  std::string a, b;
  ASSERT_TRUE(WriteBatchInternal::Contents(&batch) ==
              WriteBatchInternal::Contents(&decoded));
}

// ---------------------------------------------------------------------------
// End-to-end server tests.

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(bool fault_injection = false, int workers = 4) {
    ASSERT_TRUE(
        BuildStack(SmallConfig(fault_injection), "/served", &stack_).ok());
    server::ServerOptions opts;
    opts.num_workers = workers;
    server_ = std::make_unique<server::SealServer>(stack_->db(), stack_.get(),
                                                   opts);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    if (stack_ != nullptr) stack_->db()->WaitForIdle();
  }

  uint64_t ServerCount(const std::string& name,
                       const obs::Labels& labels = {}) const {
    return server_->metrics_registry()->counter_value(name, labels);
  }

  std::unique_ptr<Stack> stack_;
  std::unique_ptr<server::SealServer> server_;
};

TEST_F(ServerTest, ProtocolRoundTrips) {
  StartServer();
  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Put("apple", "red").ok());
  ASSERT_TRUE(client.Put("banana", "yellow").ok());
  ASSERT_TRUE(client.Put("cherry", "dark").ok());

  std::string value;
  ASSERT_TRUE(client.Get("banana", &value).ok());
  EXPECT_EQ(value, "yellow");
  EXPECT_TRUE(client.Get("durian", &value).IsNotFound());

  ASSERT_TRUE(client.Delete("banana").ok());
  EXPECT_TRUE(client.Get("banana", &value).IsNotFound());

  WriteBatch batch;
  batch.Put("date", "brown");
  batch.Put("elderberry", "purple");
  batch.Delete("apple");
  ASSERT_TRUE(client.Write(batch).ok());

  std::vector<std::pair<std::string, std::string>> entries;
  ASSERT_TRUE(client.Scan("", 100, &entries).ok());
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, "cherry");
  EXPECT_EQ(entries[1].first, "date");
  EXPECT_EQ(entries[2].first, "elderberry");

  // METRICS carries every layer of the stack behind the server.
  std::string metrics;
  ASSERT_TRUE(client.Metrics(&metrics).ok());
  for (const char* family :
       {"sealdb_engine_user_bytes_total", "sealdb_engine_background_error",
        "sealdb_device_busy_seconds_total", "sealdb_device_ops_total",
        "sealdb_server_requests_total", "sealdb_server_ops_total",
        "sealdb_server_connection_buffer_bytes", "sealdb_buf_usage_bytes"}) {
    EXPECT_NE(metrics.find(std::string("# TYPE ") + family + " "),
              std::string::npos)
        << family;
  }
}

TEST_F(ServerTest, PipelinedBatchApi) {
  StartServer();
  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  constexpr int kOps = 200;
  for (int i = 0; i < kOps; i++) {
    client.QueuePut(Key(0, i), Value(0, i));
  }
  std::vector<net::SealClient::Result> results;
  ASSERT_TRUE(client.Flush(&results).ok());
  ASSERT_EQ(results.size(), static_cast<size_t>(kOps));
  for (const auto& r : results) EXPECT_TRUE(r.status.ok());

  // Mixed pipeline: interleave reads of existing and missing keys.
  for (int i = 0; i < kOps; i++) {
    client.QueueGet(Key(0, i));
    client.QueueGet("missing-" + std::to_string(i));
  }
  ASSERT_TRUE(client.Flush(&results).ok());
  ASSERT_EQ(results.size(), static_cast<size_t>(2 * kOps));
  for (int i = 0; i < kOps; i++) {
    EXPECT_TRUE(results[2 * i].status.ok());
    EXPECT_EQ(results[2 * i].value, Value(0, i));
    EXPECT_TRUE(results[2 * i + 1].status.IsNotFound());
  }

  // Pipelined writes must have hit the group-commit path.
  EXPECT_GE(ServerCount("sealdb_server_write_groups_total"), 1u);
  EXPECT_EQ(ServerCount("sealdb_server_batched_writes_total"),
            static_cast<uint64_t>(kOps));
}

TEST_F(ServerTest, MalformedFramesGetTypedErrorsOrClose) {
  StartServer();

  // Garbage magic: the server cannot trust the stream and just closes it.
  {
    int fd = -1;
    ASSERT_TRUE(net::ConnectTcp("127.0.0.1", server_->port(), &fd).ok());
    ASSERT_TRUE(net::SetRecvTimeout(fd, 5000).ok());
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(net::WriteFully(fd, garbage, sizeof(garbage) - 1).ok());
    char byte;
    EXPECT_TRUE(net::ReadFully(fd, &byte, 1).IsIOError());  // clean EOF
    net::CloseFd(fd);
  }

  // Corrupted payload: typed protocol error response, then close.
  {
    int fd = -1;
    ASSERT_TRUE(net::ConnectTcp("127.0.0.1", server_->port(), &fd).ok());
    ASSERT_TRUE(net::SetRecvTimeout(fd, 5000).ok());
    std::string req;
    net::EncodePutRequest(&req, "key", "value");
    std::string frame;
    net::EncodeFrame(&frame, static_cast<uint8_t>(net::Op::kPut), 9, req);
    frame[frame.size() - 1] ^= 0x20;  // corrupt the payload
    ASSERT_TRUE(net::WriteFully(fd, frame.data(), frame.size()).ok());

    char header[net::kFrameHeaderBytes];
    ASSERT_TRUE(net::ReadFully(fd, header, sizeof(header)).ok());
    EXPECT_EQ(static_cast<uint8_t>(header[net::kOpcodeOffset]),
              net::kOpError | net::kResponseBit);
    const uint32_t payload_len =
        DecodeFixed32(header + net::kPayloadLenOffset);
    std::string payload(payload_len, 0);
    ASSERT_TRUE(net::ReadFully(fd, payload.data(), payload_len).ok());
    Slice in(payload);
    Status err;
    ASSERT_TRUE(net::DecodeStatusRecord(&in, &err));
    EXPECT_TRUE(err.IsCorruption());
    // And then EOF.
    char byte;
    EXPECT_TRUE(net::ReadFully(fd, &byte, 1).IsIOError());
    net::CloseFd(fd);
  }

  // Well-formed frames with an opcode the server does not serve (7, the
  // retired STATS text opcode, and an unassigned value): typed
  // InvalidArgument error response, then close, counted as protocol errors.
  for (const uint8_t opcode : {uint8_t{7}, uint8_t{0x42}}) {
    const uint64_t errors_before =
        ServerCount("sealdb_server_protocol_errors_total");
    int fd = -1;
    ASSERT_TRUE(net::ConnectTcp("127.0.0.1", server_->port(), &fd).ok());
    ASSERT_TRUE(net::SetRecvTimeout(fd, 5000).ok());
    std::string frame;
    net::EncodeFrame(&frame, opcode, 13, Slice());
    ASSERT_TRUE(net::WriteFully(fd, frame.data(), frame.size()).ok());

    char header[net::kFrameHeaderBytes];
    ASSERT_TRUE(net::ReadFully(fd, header, sizeof(header)).ok());
    EXPECT_EQ(static_cast<uint8_t>(header[net::kOpcodeOffset]),
              net::kOpError | net::kResponseBit)
        << "opcode " << int{opcode};
    const uint32_t payload_len =
        DecodeFixed32(header + net::kPayloadLenOffset);
    std::string payload(payload_len, 0);
    ASSERT_TRUE(net::ReadFully(fd, payload.data(), payload_len).ok());
    Slice in(payload);
    Status err;
    ASSERT_TRUE(net::DecodeStatusRecord(&in, &err));
    EXPECT_TRUE(err.IsInvalidArgument()) << err.ToString();
    char byte;
    EXPECT_TRUE(net::ReadFully(fd, &byte, 1).IsIOError());  // EOF
    net::CloseFd(fd);
    EXPECT_EQ(ServerCount("sealdb_server_protocol_errors_total"),
              errors_before + 1)
        << "opcode " << int{opcode};
  }

  // A truncated frame followed by a client hangup must not wedge the
  // server.
  {
    int fd = -1;
    ASSERT_TRUE(net::ConnectTcp("127.0.0.1", server_->port(), &fd).ok());
    std::string frame;
    net::EncodeFrame(&frame, static_cast<uint8_t>(net::Op::kPut), 11,
                     "incomplete");
    ASSERT_TRUE(net::WriteFully(fd, frame.data(), frame.size() / 2).ok());
    net::CloseFd(fd);
  }

  // The server keeps serving fresh connections afterwards.
  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_GE(ServerCount("sealdb_server_protocol_errors_total"), 4u);
}

TEST_F(ServerTest, ConcurrentClientsNoLostOrDuplicatedAcks) {
  StartServer();
  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 300;

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; c++) {
    threads.emplace_back([this, c, &failures] {
      net::SealClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures++;
        return;
      }
      for (int i = 0; i < kOpsPerClient; i++) {
        if (!client.Put(Key(c, i), Value(c, i)).ok()) {
          failures++;
          return;
        }
      }
      // Read back our own writes through the same server.
      std::string value;
      for (int i = 0; i < kOpsPerClient; i++) {
        if (!client.Get(Key(c, i), &value).ok() || value != Value(c, i)) {
          failures++;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Audit: every acknowledged key exists exactly once (a full scan cannot
  // yield duplicates from a correct iterator, and must not miss any).
  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  std::vector<std::pair<std::string, std::string>> entries;
  ASSERT_TRUE(client.Scan("", kClients * kOpsPerClient + 10, &entries).ok());
  ASSERT_EQ(entries.size(),
            static_cast<size_t>(kClients * kOpsPerClient));
  std::set<std::string> seen;
  for (const auto& [key, value] : entries) {
    EXPECT_TRUE(seen.insert(key).second) << "duplicate key " << key;
  }
  for (int c = 0; c < kClients; c++) {
    for (int i = 0; i < kOpsPerClient; i++) {
      EXPECT_EQ(seen.count(Key(c, i)), 1u);
    }
  }

  EXPECT_GE(ServerCount("sealdb_server_connections_accepted_total"),
            static_cast<uint64_t>(kClients));
  EXPECT_GE(ServerCount("sealdb_server_requests_total"),
            static_cast<uint64_t>(2 * kClients * kOpsPerClient));
}

TEST_F(ServerTest, EightConcurrentYcsbAClients) {
  StartServer();
  constexpr int kClients = 8;
  constexpr uint64_t kRecords = 400;
  constexpr uint64_t kOps = 300;

  // Load through one remote client, then run YCSB-A from 8 concurrent
  // remote clients (disjoint seeds so the insert streams differ).
  {
    net::SealClient loader;
    ASSERT_TRUE(loader.Connect("127.0.0.1", server_->port()).ok());
    ycsb::Runner runner(&loader, 16, 128);
    ycsb::RunResult load;
    ASSERT_TRUE(runner.Load(kRecords, &load).ok());
    ASSERT_EQ(load.operations, kRecords);
    EXPECT_GT(load.wall_seconds, 0.0);
  }

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::atomic<uint64_t> total_ops{0};
  for (int c = 0; c < kClients; c++) {
    threads.emplace_back([this, c, &failures, &total_ops] {
      net::SealClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures++;
        return;
      }
      ycsb::Runner runner(&client, 16, 128, /*seed=*/1000 + c);
      ycsb::RunResult result;
      if (!runner.Run(ycsb::WorkloadSpec::A(), kRecords, kOps, &result)
               .ok()) {
        failures++;
        return;
      }
      if (result.operations != kOps) failures++;
      total_ops += result.operations;
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(total_ops.load(), kClients * kOps);
}

TEST_F(ServerTest, GracefulShutdownDrainsInflightWrites) {
  StartServer();
  constexpr int kWriters = 4;

  // Writers hammer the server; everything acknowledged OK before the
  // shutdown severs them must be durable in the DB.
  std::vector<std::set<std::string>> acked(kWriters);
  std::vector<std::thread> threads;
  std::atomic<bool> begin{false};
  for (int c = 0; c < kWriters; c++) {
    threads.emplace_back([this, c, &acked, &begin] {
      net::SealClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
      while (!begin.load()) std::this_thread::yield();
      for (int i = 0; i < 100000; i++) {
        const std::string key = Key(c, i);
        if (!client.Put(key, Value(c, i)).ok()) break;  // shutdown reached
        acked[c].insert(key);
      }
    });
  }

  begin.store(true);
  // Let the writers get going, then pull the plug mid-traffic.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server_->Stop();
  for (auto& t : threads) t.join();

  size_t total_acked = 0;
  std::string value;
  for (int c = 0; c < kWriters; c++) {
    total_acked += acked[c].size();
    for (const std::string& key : acked[c]) {
      EXPECT_TRUE(stack_->db()->Get(ReadOptions(), key, &value).ok())
          << "acknowledged write lost: " << key;
    }
  }
  // The writers must have been genuinely mid-flight when Stop() hit.
  EXPECT_GT(total_acked, 0u);
  server_.reset();
}

// Short request bursts, each followed by Stop(), on fresh servers over one
// store. A lost worker wake-up strands a request: its client times out and
// Stop() waits forever for the drain, which the watchdog turns into a
// failure instead of a hung test.
TEST_F(ServerTest, RepeatedBurstsThenStopNeverHang) {
  ASSERT_TRUE(BuildStack(SmallConfig(), "/served", &stack_).ok());
  constexpr int kCycles = 500;
  constexpr int kClients = 3;
  constexpr int kOps = 40;
  for (int cycle = 0; cycle < kCycles; cycle++) {
    server::ServerOptions opts;
    opts.num_workers = 4;
    server::SealServer server(stack_->db(), stack_.get(), opts);
    ASSERT_TRUE(server.Start().ok());
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; c++) {
      clients.emplace_back([&, c] {
        net::SealClient client;
        if (!client.Connect("127.0.0.1", server.port()).ok()) {
          failures++;
          return;
        }
        // Writes of this cycle interleaved with reads of the last one's.
        for (int i = 0; i < kOps; i++) {
          client.QueuePut(Key(c, cycle * kOps + i), Value(c, i));
          if (cycle > 0) client.QueueGet(Key(c, (cycle - 1) * kOps + i));
        }
        std::vector<net::SealClient::Result> results;
        const size_t expected = cycle > 0 ? 2 * kOps : kOps;
        if (!client.Flush(&results).ok() || results.size() != expected) {
          failures++;
          return;
        }
        for (const auto& r : results) {
          if (!r.status.ok()) failures++;
        }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0) << "cycle " << cycle;
    auto stopped =
        std::async(std::launch::async, [&server] { server.Stop(); });
    if (stopped.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
      std::fprintf(stderr, "SealServer::Stop() hung in cycle %d\n", cycle);
      std::abort();
    }
  }
  std::string value;
  ASSERT_TRUE(stack_->db()
                  ->Get(ReadOptions(), Key(0, kCycles * kOps - 1), &value)
                  .ok());
  EXPECT_EQ(value, Value(0, kOps - 1));
}

TEST_F(ServerTest, FaultInjectionSurfacesTypedErrorsNotHangs) {
  StartServer(/*fault_injection=*/true);
  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  // Healthy first: some writes land.
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(client.Put(Key(0, i), Value(0, i)).ok());
  }

  // Kill the whole drive for writes. The next write that reaches the drive
  // fails, and clients must see a typed error response (the 30 s client
  // recv timeout turns a hang into a failure).
  stack_->fault_drive()->SetWriteError(true);
  Status degraded;
  for (int i = 0; i < 20000; i++) {
    degraded = client.Put("poison-" + std::to_string(i), "x");
    if (!degraded.ok()) break;
  }
  ASSERT_FALSE(degraded.ok()) << "writes kept succeeding on a dead drive";
  EXPECT_TRUE(degraded.IsIOError() || degraded.IsNoSpace())
      << degraded.ToString();

  // Once degraded, every further write is refused promptly and reads keep
  // serving from memory/cache-resident state.
  Status again = client.Put("after-degradation", "x");
  EXPECT_FALSE(again.ok());
  std::string value;
  Status rs = client.Get(Key(0, 0), &value);
  EXPECT_TRUE(rs.ok() || rs.IsIOError()) << rs.ToString();

  // METRICS still answers and carries the engine's latch state: the
  // background-error gauge is 1 exactly when the property reports a latched
  // error. (Here the first failing write is usually the next WAL file's
  // creation, which fails the write without latching; DbFaultTest covers a
  // latch and its reset on reopen.)
  std::string metrics;
  ASSERT_TRUE(client.Metrics(&metrics).ok());
  std::string bg;
  ASSERT_TRUE(stack_->db()->shard(0)->GetProperty(
      "sealdb.background-error", &bg));
  const std::string gauge_line = std::string(
      "\nsealdb_engine_background_error ") + (bg == "OK" ? "0\n" : "1\n");
  EXPECT_NE(metrics.find(gauge_line), std::string::npos)
      << bg << "\n" << metrics;

  stack_->fault_drive()->SetWriteError(false);
}

// Connection buffer accounting flows into the DB memory property.
TEST_F(ServerTest, ApproximateMemoryUsageIncludesConnectionBuffers) {
  StartServer();
  std::string before_str;
  ASSERT_TRUE(stack_->db()->GetProperty("sealdb.approximate-memory-usage",
                                        &before_str));

  // Park a large unfinished frame in the server's read buffer.
  int fd = -1;
  ASSERT_TRUE(net::ConnectTcp("127.0.0.1", server_->port(), &fd).ok());
  const size_t kChunk = 1 << 20;
  std::string req;
  net::EncodePutRequest(&req, "big-key", std::string(2 * kChunk, 'x'));
  std::string frame;
  net::EncodeFrame(&frame, static_cast<uint8_t>(net::Op::kPut), 77, req);
  ASSERT_TRUE(net::WriteFully(fd, frame.data(), kChunk).ok());

  // Wait for the bytes to land in the connection buffer.
  uint64_t buffered = 0;
  for (int i = 0; i < 200 && buffered < kChunk; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    buffered = server_->connection_buffer_bytes();
  }
  EXPECT_GE(buffered, kChunk);

  std::string after_str;
  ASSERT_TRUE(stack_->db()->GetProperty("sealdb.approximate-memory-usage",
                                        &after_str));
  const uint64_t before = std::stoull(before_str);
  const uint64_t after = std::stoull(after_str);
  EXPECT_GE(after, before + kChunk);
  net::CloseFd(fd);
}

}  // namespace sealdb
