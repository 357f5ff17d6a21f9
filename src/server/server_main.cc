// sealdb_server: serve a SEALDB stack (emulated SMR drive + set-aware LSM)
// over the binary wire protocol.
//
//   sealdb_server [--host H] [--port P] [--system sealdb|smrdb|leveldb]
//                 [--scale N] [--shards N] [--workers N] [--sync]
//                 [--fault-injection]
//                 [--max-connections N] [--max-inflight N]
//                 [--max-queued-write-bytes N] [--max-response-buffer-bytes N]
//                 [--no-stall-rejection]
//
// Runs until SIGINT/SIGTERM, then drains in-flight requests, flushes
// responses, and closes the DB cleanly.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "baselines/presets.h"
#include "server/seal_server.h"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleSignal(int) { g_stop_requested = 1; }

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host H] [--port P] [--system sealdb|smrdb|leveldb]\n"
      "          [--scale N] [--workers N] [--sync] [--fault-injection]\n"
      "  --host H            bind address (default 127.0.0.1)\n"
      "  --port P            TCP port (default 4790; 0 = ephemeral)\n"
      "  --system KIND       stack preset to serve (default sealdb)\n"
      "  --scale N           shrink all size constants by N (default 64)\n"
      "  --shards N          hash-partition the keyspace over N independent\n"
      "                      LSM shards (sealdb only; default 1)\n"
      "  --workers N         request worker threads (default 4)\n"
      "  --sync              fsync the WAL before acking writes\n"
      "  --fault-injection   wrap the drive in FaultInjectionDrive\n"
      "  --max-connections N   reject connections beyond N with Busy "
      "(default 0 = unlimited)\n"
      "  --max-inflight N      per-connection in-flight request cap "
      "(default 4096; 0 = unlimited)\n"
      "  --max-queued-write-bytes N    write-queue byte budget "
      "(default 4 MiB; 0 = unlimited)\n"
      "  --max-response-buffer-bytes N slow-client eviction threshold "
      "(default 16 MiB; 0 = unlimited)\n"
      "  --no-stall-rejection  queue writes during engine write stalls "
      "instead of rejecting with Busy\n"
      "  --trace-sample-every N  record a span breakdown for requests whose\n"
      "                        trace id is divisible by N (default 1024;\n"
      "                        0 disables tracing)\n"
      "  --log-traces          print each sampled span breakdown to stderr\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using sealdb::baselines::StackConfig;
  using sealdb::baselines::SystemKind;

  std::string host = "127.0.0.1";
  uint16_t port = 4790;
  SystemKind kind = SystemKind::kSEALDB;
  uint64_t scale = 64;
  int shards = 1;
  int workers = 4;
  bool sync_writes = false;
  bool fault_injection = false;
  sealdb::server::ServerOptions opts;  // admission-control defaults

  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = next("--host");
    } else if (arg == "--port") {
      port = static_cast<uint16_t>(std::atoi(next("--port")));
    } else if (arg == "--system") {
      const std::string v = next("--system");
      if (v == "sealdb") {
        kind = SystemKind::kSEALDB;
      } else if (v == "smrdb") {
        kind = SystemKind::kSMRDB;
      } else if (v == "leveldb") {
        kind = SystemKind::kLevelDB;
      } else {
        std::fprintf(stderr, "unknown --system: %s\n", v.c_str());
        return 2;
      }
    } else if (arg == "--scale") {
      scale = static_cast<uint64_t>(std::atoll(next("--scale")));
    } else if (arg == "--shards") {
      shards = std::atoi(next("--shards"));
      if (shards < 1) {
        std::fprintf(stderr, "--shards must be >= 1\n");
        return 2;
      }
    } else if (arg == "--workers") {
      workers = std::atoi(next("--workers"));
    } else if (arg == "--sync") {
      sync_writes = true;
    } else if (arg == "--fault-injection") {
      fault_injection = true;
    } else if (arg == "--max-connections") {
      opts.max_connections = std::atoi(next("--max-connections"));
    } else if (arg == "--max-inflight") {
      opts.max_inflight_per_conn =
          static_cast<uint32_t>(std::atoll(next("--max-inflight")));
    } else if (arg == "--max-queued-write-bytes") {
      opts.max_queued_write_bytes =
          static_cast<size_t>(std::atoll(next("--max-queued-write-bytes")));
    } else if (arg == "--max-response-buffer-bytes") {
      opts.max_response_buffer_bytes = static_cast<size_t>(
          std::atoll(next("--max-response-buffer-bytes")));
    } else if (arg == "--no-stall-rejection") {
      opts.reject_writes_on_stall = false;
    } else if (arg == "--trace-sample-every") {
      opts.trace_sample_every =
          static_cast<uint64_t>(std::atoll(next("--trace-sample-every")));
    } else if (arg == "--log-traces") {
      opts.log_sampled_traces = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  StackConfig config;
  config.kind = kind;
  config = config.Scaled(scale);
  // A server wants background compactions; the writing thread must not
  // stall on merge work while connections wait for acks.
  config.inline_compactions = false;
  config.fault_injection = fault_injection;
  config.num_shards = shards;

  std::unique_ptr<sealdb::baselines::Stack> stack;
  sealdb::Status s =
      sealdb::baselines::BuildStack(config, "served", &stack);
  if (!s.ok()) {
    std::fprintf(stderr, "failed to build stack: %s\n", s.ToString().c_str());
    return 1;
  }

  opts.host = host;
  opts.port = port;
  opts.num_workers = workers;
  opts.sync_writes = sync_writes;
  sealdb::server::SealServer server(stack->db(), stack.get(), opts);
  s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "failed to start: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("sealdb_server: serving %s on %s:%u (%d shards, %d workers)\n",
              sealdb::baselines::SystemName(kind), host.c_str(),
              static_cast<unsigned>(server.port()), shards, workers);
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop_requested) {
    ::pause();  // signals wake us
  }

  std::printf("sealdb_server: draining and shutting down...\n");
  std::fflush(stdout);
  server.Stop();
  const sealdb::obs::MetricsRegistry& reg = *server.metrics_registry();
  std::printf(
      "sealdb_server: served %llu requests (%llu writes in %llu groups), "
      "%llu connections, %llu admission rejections\n",
      static_cast<unsigned long long>(
          reg.counter_value("sealdb_server_requests_total")),
      static_cast<unsigned long long>(
          reg.counter_value("sealdb_server_batched_writes_total")),
      static_cast<unsigned long long>(
          reg.counter_value("sealdb_server_write_groups_total")),
      static_cast<unsigned long long>(
          reg.counter_value("sealdb_server_connections_accepted_total")),
      static_cast<unsigned long long>(
          reg.counter_family_sum("sealdb_server_admission_rejected_total")));
  stack->db()->WaitForIdle();
  stack.reset();  // closes the DB after the drain
  return 0;
}
