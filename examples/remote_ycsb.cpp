// remote_ycsb: YCSB-A against a SEALDB server over loopback TCP.
//
// Starts an in-process sealdb server on an ephemeral port, loads the
// table through one connection, then runs YCSB-A from N concurrent
// clients — each thread with its own SealClient and remote Runner — and
// prints client-observed latency percentiles from the merged histograms.
// This measures what the paper's embedded harness cannot: per-request
// latency as a network client sees it, including framing, the epoll
// loop, and cross-connection group commit.
//
//   ./remote_ycsb [clients] [records] [ops-per-client]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/presets.h"
#include "net/seal_client.h"
#include "server/seal_server.h"
#include "util/histogram.h"
#include "ycsb/runner.h"

using namespace sealdb;

int main(int argc, char** argv) {
  const int clients = argc > 1 ? std::atoi(argv[1]) : 8;
  const uint64_t records = argc > 2 ? strtoull(argv[2], nullptr, 10) : 20000;
  const uint64_t ops = argc > 3 ? strtoull(argv[3], nullptr, 10) : 5000;

  // Paper-ratio SEALDB stack scaled 1/16, background compactions on — a
  // server must not stall client acks on merge work.
  baselines::StackConfig config;
  config.kind = baselines::SystemKind::kSEALDB;
  config = config.Scaled(16);
  config.inline_compactions = false;

  std::unique_ptr<baselines::Stack> stack;
  Status s = baselines::BuildStack(config, "remote_ycsb", &stack);
  if (!s.ok()) {
    std::fprintf(stderr, "build stack: %s\n", s.ToString().c_str());
    return 1;
  }

  server::ServerOptions opts;
  opts.port = 0;  // ephemeral
  server::SealServer server(stack->db(), stack.get(), opts);
  s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "start server: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("serving sealdb on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));

  // Load phase: one client streams the table in.
  {
    net::SealClient loader;
    s = loader.Connect("127.0.0.1", server.port());
    if (!s.ok()) {
      std::fprintf(stderr, "connect: %s\n", s.ToString().c_str());
      return 1;
    }
    ycsb::Runner runner(&loader, /*key_bytes=*/16, /*value_bytes=*/256);
    ycsb::RunResult load;
    s = runner.Load(records, &load);
    if (!s.ok()) {
      std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("loaded %llu records in %.2f s (%.0f ops/s)\n",
                static_cast<unsigned long long>(load.operations),
                load.wall_seconds, load.ops_per_wall_second());
  }

  // Run phase: YCSB-A (50% read / 50% update) from `clients` threads.
  std::vector<std::thread> threads;
  std::mutex merge_mu;
  Histogram merged;
  double total_ops = 0, total_wall = 0;
  int failures = 0;
  for (int c = 0; c < clients; c++) {
    threads.emplace_back([&, c] {
      net::SealClient client;
      Status cs = client.Connect("127.0.0.1", server.port());
      if (!cs.ok()) {
        std::lock_guard<std::mutex> lock(merge_mu);
        failures++;
        return;
      }
      ycsb::Runner runner(&client, 16, 256, /*seed=*/7000 + c);
      ycsb::RunResult result;
      cs = runner.Run(ycsb::WorkloadSpec::A(), records, ops, &result);
      std::lock_guard<std::mutex> lock(merge_mu);
      if (!cs.ok()) {
        std::fprintf(stderr, "client %d: %s\n", c, cs.ToString().c_str());
        failures++;
        return;
      }
      merged.Merge(result.latency_micros);
      total_ops += static_cast<double>(result.operations);
      total_wall = std::max(total_wall, result.wall_seconds);
    });
  }
  for (auto& t : threads) t.join();
  if (failures > 0) {
    std::fprintf(stderr, "%d client(s) failed\n", failures);
    return 1;
  }

  std::printf(
      "\nYCSB-A, %d concurrent clients, %llu ops each\n"
      "  aggregate throughput: %.0f ops/s\n"
      "  client-observed latency (us): p50 %.1f  p95 %.1f  p99 %.1f  "
      "avg %.1f\n",
      clients, static_cast<unsigned long long>(ops),
      total_wall > 0 ? total_ops / total_wall : 0.0, merged.Median(),
      merged.Percentile(95), merged.Percentile(99), merged.Average());

  const obs::MetricsRegistry& reg = *server.metrics_registry();
  const uint64_t writes =
      reg.counter_value("sealdb_server_ops_total", {{"op", "write"}});
  const uint64_t groups =
      reg.counter_family_sum("sealdb_engine_write_groups_total");
  std::printf(
      "  server: %llu requests, %llu writes coalesced into %llu engine "
      "group commits (%.1f writes/commit)\n",
      static_cast<unsigned long long>(
          reg.counter_value("sealdb_server_requests_total")),
      static_cast<unsigned long long>(writes),
      static_cast<unsigned long long>(groups),
      groups > 0 ? static_cast<double>(writes) / groups : 0.0);

  server.Stop();
  stack->db()->WaitForIdle();
  return 0;
}
