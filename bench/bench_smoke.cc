// Smoke benchmark for the set-parallel compaction executor and the sharded
// engine. Runs the SEALDB preset through a fill + random-read cycle in three
// configurations — the seed's single-threaded setup (1 worker, no block
// cache), the executor bundle (4 workers, shared LRU block cache), and a
// sharded stack (4 independent LSM shards, 4 client threads driving them
// concurrently) — and emits BENCH_smoke.json with wall-clock and
// device-time ops/s, p50/p99 operation latency, the device's seek/transfer
// time split, the compaction-parallelism high-water mark, and (for the
// sharded config) the per-shard compaction breakdown.
//
// Sustained ops/s follows the repo's performance currency (simulated device
// seconds; see smr/latency_model.h): the drive is the bottleneck the paper
// measures, so `device_ops_per_second` is the headline number and wall-clock
// figures ride along for the perf trajectory.
//
// The read phase defaults to a 95/5 hotspot mix (95% of point reads hit the
// hottest 1% of the key space) — the re-read pattern the shared block cache
// exists for; --uniform switches to uniformly random keys.
//
//   --mb=N      user data volume per config (default 24)
//   --scale=N   geometric scale divisor (default 16)
//   --uniform   uniformly random reads instead of the hotspot mix
//   --out=PATH  JSON output path (default BENCH_smoke.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "buf/buffer_pool.h"
#include "util/crc32c.h"
#include "ycsb/generator.h"

namespace sealdb::bench {
namespace {

using baselines::BuildStack;
using baselines::Stack;
using baselines::StackConfig;
using baselines::SystemKind;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PhaseResult {
  uint64_t ops = 0;
  double wall_seconds = 0.0;
  double drain_seconds = 0.0;  // share of wall spent in final WaitForIdle
  double device_seconds = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;

  double wall_ops_per_second() const {
    return wall_seconds > 0 ? ops / wall_seconds : 0.0;
  }
  double device_ops_per_second() const {
    return device_seconds > 0 ? ops / device_seconds : 0.0;
  }
};

void FillPercentiles(std::vector<uint32_t>& lat, PhaseResult* r) {
  if (lat.empty()) return;
  auto nth = [&](double q) {
    size_t idx = static_cast<size_t>(q * (lat.size() - 1));
    std::nth_element(lat.begin(), lat.begin() + idx, lat.end());
    return static_cast<double>(lat[idx]);
  };
  r->p50_us = nth(0.50);
  r->p99_us = nth(0.99);
}

struct ConfigResult {
  std::string label;
  int workers = 0;
  int shards = 1;
  int client_threads = 1;
  PhaseResult fill;
  PhaseResult read;
  double seek_seconds = 0.0;
  double transfer_seconds = 0.0;
  double busy_seconds = 0.0;
  uint64_t max_parallel_compactions = 0;
  uint64_t num_compactions = 0;
  std::vector<uint64_t> shard_compactions;  // per shard, when shards > 1
  double wa = 0.0;   // engine write amplification
  double awa = 0.0;  // device auxiliary write amplification
  uint64_t guard_violations = 0;
  // Buffer-pool figures (zero when the config disables the pool).
  bool has_pool = false;
  uint64_t pool_capacity_bytes = 0;
  uint64_t buf_hits = 0;
  uint64_t buf_misses = 0;
  uint64_t buf_optimistic_hits = 0;
  uint64_t buf_evictions = 0;
  double buf_hit_ratio = 0.0;
};

ConfigResult RunConfig(const BenchParams& params, const std::string& label,
                       int workers, bool block_cache,
                       bool uniform_reads, int num_shards,
                       int client_threads, uint64_t buffer_pool_bytes = 0,
                       bool zipfian_reads = false) {
  ConfigResult out;
  out.label = label;
  out.workers = workers;
  out.shards = num_shards;
  out.client_threads = client_threads;

  StackConfig config = params.MakeConfig(SystemKind::kSEALDB);
  config.inline_compactions = false;
  config.max_background_compactions = workers;
  if (buffer_pool_bytes > 0) config.buffer_pool_bytes = buffer_pool_bytes;
  if (!block_cache) config.buffer_pool_bytes = 0;
  config.num_shards = num_shards;

  std::unique_ptr<Stack> stack;
  Status s = BuildStack(config, "/bench_smoke", &stack);
  if (!s.ok()) {
    std::fprintf(stderr, "BuildStack failed: %s\n", s.ToString().c_str());
    return out;
  }
  DB* db = stack->db();
  const uint64_t entries = params.entries();
  const int nthreads = std::max(1, client_threads);

  // Fill: uniformly random key order, sustained (WaitForIdle counted, so a
  // backlog the single worker defers still shows up in its wall time).
  // With client_threads > 1 the key stream is split over that many driver
  // threads — writes to different shards contend on nothing above the
  // drive model, so concurrent drivers keep every shard's pipeline fed.
  {
    std::vector<std::vector<uint32_t>> lats(nthreads);
    std::vector<uint64_t> ops(nthreads, 0);
    std::atomic<bool> failed{false};
    const double wall0 = NowSeconds();
    const double dev0 = DeviceBusySeconds(stack.get());
    auto fill_worker = [&](int t) {
      Random rnd(301 + t);
      WriteOptions wo;
      const uint64_t n = entries / nthreads +
                         (static_cast<uint64_t>(t) < entries % nthreads ? 1
                                                                        : 0);
      lats[t].reserve(n);
      for (uint64_t i = 0; i < n; i++) {
        if (failed.load(std::memory_order_relaxed)) break;
        const uint64_t id = rnd.Next64() % entries;
        const std::string key = MakeKey(id, params.key_bytes);
        const std::string value = MakeValue(i, params.value_bytes());
        const double t0 = NowSeconds();
        const Status ps = db->Put(wo, key, value);
        lats[t].push_back(
            static_cast<uint32_t>((NowSeconds() - t0) * 1e6));
        if (!ps.ok()) {
          std::fprintf(stderr, "put failed: %s\n", ps.ToString().c_str());
          failed.store(true, std::memory_order_relaxed);
          break;
        }
        ops[t]++;
      }
    };
    if (nthreads == 1) {
      fill_worker(0);
    } else {
      std::vector<std::thread> threads;
      for (int t = 0; t < nthreads; t++) threads.emplace_back(fill_worker, t);
      for (auto& th : threads) th.join();
    }
    const double drain0 = NowSeconds();
    db->WaitForIdle();
    out.fill.drain_seconds = NowSeconds() - drain0;
    out.fill.wall_seconds = NowSeconds() - wall0;
    out.fill.device_seconds = DeviceBusySeconds(stack.get()) - dev0;
    std::vector<uint32_t> lat;
    for (int t = 0; t < nthreads; t++) {
      out.fill.ops += ops[t];
      lat.insert(lat.end(), lats[t].begin(), lats[t].end());
    }
    FillPercentiles(lat, &out.fill);
  }

  // Point reads over the loaded keys: hotspot mix by default (see header),
  // uniformly random with --uniform. Same driver-thread split as the fill.
  {
    std::vector<std::vector<uint32_t>> lats(nthreads);
    std::vector<uint64_t> ops(nthreads, 0);
    const uint64_t hot_span = std::max<uint64_t>(1, entries / 100);
    const double wall0 = NowSeconds();
    const double dev0 = DeviceBusySeconds(stack.get());
    auto read_worker = [&](int t) {
      Random rnd(401 + t);
      // Zipfian-read configs draw keys from YCSB's scrambled zipfian over
      // the whole key space (hot keys scattered, a long cold tail) — the
      // shape the pool's working set is sized against.
      ycsb::ScrambledZipfianGenerator zipf(entries,
                                           static_cast<uint32_t>(401 + t));
      ReadOptions ro;
      std::string value;
      const uint64_t n = params.read_ops / nthreads +
                         (static_cast<uint64_t>(t) < params.read_ops % nthreads
                              ? 1
                              : 0);
      lats[t].reserve(n);
      for (uint64_t i = 0; i < n; i++) {
        uint64_t id;
        if (zipfian_reads) {
          id = zipf.Next() % entries;
        } else if (uniform_reads || rnd.Uniform(100) >= 95) {
          id = rnd.Next64() % entries;
        } else {
          id = rnd.Next64() % hot_span;
        }
        const std::string key = MakeKey(id, params.key_bytes);
        const double t0 = NowSeconds();
        db->Get(ro, key, &value);
        lats[t].push_back(
            static_cast<uint32_t>((NowSeconds() - t0) * 1e6));
        ops[t]++;
      }
    };
    if (nthreads == 1) {
      read_worker(0);
    } else {
      std::vector<std::thread> threads;
      for (int t = 0; t < nthreads; t++) threads.emplace_back(read_worker, t);
      for (auto& th : threads) th.join();
    }
    out.read.wall_seconds = NowSeconds() - wall0;
    out.read.device_seconds = DeviceBusySeconds(stack.get()) - dev0;
    std::vector<uint32_t> lat;
    for (int t = 0; t < nthreads; t++) {
      out.read.ops += ops[t];
      lat.insert(lat.end(), lats[t].begin(), lats[t].end());
    }
    FillPercentiles(lat, &out.read);
  }

  // Final figures come straight from the stack's metrics registry — the
  // same counters the METRICS opcode renders, so the bench JSON cannot
  // drift from the live exposition. Family helpers
  // aggregate across label sets (per-level, and per-shard when sharded).
  const obs::MetricsRegistry& reg = *stack->metrics_registry();
  out.busy_seconds = reg.time_family_sum("sealdb_device_busy_seconds_total");
  out.seek_seconds =
      reg.time_family_sum("sealdb_device_position_seconds_total");
  out.transfer_seconds = out.busy_seconds - out.seek_seconds;
  // Shards peak independently; the stack-wide high-water mark is the
  // largest any one engine saw, not the sum of asynchronous peaks.
  out.max_parallel_compactions = static_cast<uint64_t>(
      reg.gauge_family_max("sealdb_engine_max_parallel_compactions"));
  // WA must be aggregated from byte totals, not averaged over per-shard
  // gauges; Stack::wa() takes the ratio of the family sums.
  out.wa = stack->wa();
  out.awa = reg.gauge_value("sealdb_device_aux_write_amplification");
  out.guard_violations =
      reg.counter_family_sum("sealdb_smr_guard_violations_total");
  out.num_compactions =
      reg.counter_family_sum("sealdb_engine_compactions_total");
  if (buf::BufferPool* pool = stack->buffer_pool()) {
    out.has_pool = true;
    out.pool_capacity_bytes = pool->capacity_bytes();
    out.buf_hits = pool->hits();
    out.buf_misses = pool->misses();
    out.buf_optimistic_hits = pool->optimistic_hits();
    out.buf_evictions = pool->evictions();
    const uint64_t total = out.buf_hits + out.buf_misses;
    out.buf_hit_ratio =
        total > 0 ? static_cast<double>(out.buf_hits) / total : 0.0;
  }
  if (num_shards > 1) {
    for (int i = 0; i < num_shards; i++) {
      out.shard_compactions.push_back(reg.counter_family_sum(
          "sealdb_engine_compactions_total", {{"shard", std::to_string(i)}}));
    }
  }
  return out;
}

// Scrub-impact probe (DESIGN.md §15). The online scrubber shares the drive
// with foreground traffic, so its byte-rate limiter carries a throughput
// budget: under a YCSB-A-style mix (50/50 zipfian point reads and updates
// over the loaded keys, the paper's update-heavy workload) the foreground
// wall throughput must not drop by more than kScrubImpactBudget with the
// scrubber walking the live extents at its default rate. The probe runs the
// same 4-shard stack twice — bare, then with config.scrub_enabled — and the
// bench FAILS (non-zero exit) when the budget is exceeded or the scrubber
// provably never ran, so `check.sh --bench` gates the regression.
constexpr double kScrubImpactBudget = 0.15;

struct ScrubImpactResult {
  PhaseResult bare;
  PhaseResult scrubbed;
  uint64_t scrub_bytes = 0;
  uint64_t scrub_errors = 0;
  uint64_t scrub_passes = 0;
  double wall_impact = 0.0;    // 1 - scrubbed/bare foreground wall ops/s
  double device_impact = 0.0;  // same in device currency (includes scrub IO)
  bool ok = false;
};

PhaseResult RunMixedPhase(Stack* stack, const BenchParams& params,
                          int nthreads) {
  DB* db = stack->db();
  const uint64_t entries = params.entries();
  PhaseResult out;
  std::vector<std::vector<uint32_t>> lats(nthreads);
  std::vector<uint64_t> ops(nthreads, 0);
  const double wall0 = NowSeconds();
  const double dev0 = DeviceBusySeconds(stack);
  auto worker = [&](int t) {
    Random rnd(501 + t);
    ycsb::ScrambledZipfianGenerator zipf(entries,
                                         static_cast<uint32_t>(501 + t));
    WriteOptions wo;
    ReadOptions ro;
    std::string value;
    const uint64_t n = entries / nthreads +
                       (static_cast<uint64_t>(t) < entries % nthreads ? 1 : 0);
    lats[t].reserve(n);
    for (uint64_t i = 0; i < n; i++) {
      const uint64_t id = zipf.Next() % entries;
      const std::string key = MakeKey(id, params.key_bytes);
      const double t0 = NowSeconds();
      if (rnd.Uniform(100) < 50) {
        db->Get(ro, key, &value);
      } else {
        db->Put(wo, key, MakeValue(i, params.value_bytes()));
      }
      lats[t].push_back(static_cast<uint32_t>((NowSeconds() - t0) * 1e6));
      ops[t]++;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < nthreads; t++) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();
  const double drain0 = NowSeconds();
  db->WaitForIdle();
  out.drain_seconds = NowSeconds() - drain0;
  out.wall_seconds = NowSeconds() - wall0;
  out.device_seconds = DeviceBusySeconds(stack) - dev0;
  std::vector<uint32_t> lat;
  for (int t = 0; t < nthreads; t++) {
    out.ops += ops[t];
    lat.insert(lat.end(), lats[t].begin(), lats[t].end());
  }
  FillPercentiles(lat, &out);
  return out;
}

ScrubImpactResult RunScrubImpact(const BenchParams& params) {
  ScrubImpactResult out;
  for (int pass = 0; pass < 2; pass++) {
    const bool scrub = pass == 1;
    StackConfig config = params.MakeConfig(SystemKind::kSEALDB);
    config.inline_compactions = false;
    config.max_background_compactions = 4;
    config.num_shards = 4;
    config.scrub_enabled = scrub;
    std::unique_ptr<Stack> stack;
    Status s = BuildStack(config, "/bench_scrub", &stack);
    if (!s.ok()) {
      std::fprintf(stderr, "BuildStack failed: %s\n", s.ToString().c_str());
      return out;
    }
    // Sequential load so every zipfian draw in the mixed phase hits an
    // existing key; the scrubber (when on) is already walking during the
    // load, but only the mixed phase below is the measured window.
    {
      WriteOptions wo;
      for (uint64_t i = 0; i < params.entries(); i++) {
        const Status ps = stack->db()->Put(wo, MakeKey(i, params.key_bytes),
                                           MakeValue(i, params.value_bytes()));
        if (!ps.ok()) {
          std::fprintf(stderr, "load failed: %s\n", ps.ToString().c_str());
          return out;
        }
      }
      stack->db()->WaitForIdle();
    }
    const PhaseResult r =
        RunMixedPhase(stack.get(), params, /*nthreads=*/4);
    if (scrub) {
      out.scrubbed = r;
      out.scrub_bytes = stack->scrub()->bytes_scrubbed();
      out.scrub_errors = stack->scrub()->errors_found();
      out.scrub_passes = stack->scrub()->passes_completed();
    } else {
      out.bare = r;
    }
  }
  if (out.bare.wall_ops_per_second() > 0) {
    out.wall_impact =
        1.0 - out.scrubbed.wall_ops_per_second() /
                  out.bare.wall_ops_per_second();
  }
  if (out.bare.device_ops_per_second() > 0) {
    out.device_impact =
        1.0 - out.scrubbed.device_ops_per_second() /
                  out.bare.device_ops_per_second();
  }
  out.ok = out.scrub_bytes > 0 && out.wall_impact < kScrubImpactBudget;
  return out;
}

void EmitPhase(std::FILE* f, const char* name, const PhaseResult& r,
               bool trailing_comma) {
  std::fprintf(f,
               "    \"%s\": {\"ops\": %llu, \"wall_seconds\": %.4f, "
               "\"drain_seconds\": %.4f, "
               "\"device_seconds\": %.4f, \"wall_ops_per_second\": %.1f, "
               "\"device_ops_per_second\": %.1f, \"p50_us\": %.1f, "
               "\"p99_us\": %.1f}%s\n",
               name, static_cast<unsigned long long>(r.ops), r.wall_seconds,
               r.drain_seconds,
               r.device_seconds, r.wall_ops_per_second(),
               r.device_ops_per_second(), r.p50_us, r.p99_us,
               trailing_comma ? "," : "");
}

void EmitConfig(std::FILE* f, const ConfigResult& r, bool trailing_comma) {
  std::fprintf(f,
               "  {\n    \"label\": \"%s\",\n    \"workers\": %d,\n"
               "    \"shards\": %d,\n    \"client_threads\": %d,\n",
               r.label.c_str(), r.workers, r.shards, r.client_threads);
  EmitPhase(f, "fill", r.fill, true);
  EmitPhase(f, "read", r.read, true);
  std::fprintf(f,
               "    \"device\": {\"busy_seconds\": %.4f, "
               "\"seek_seconds\": %.4f, \"transfer_seconds\": %.4f},\n"
               "    \"wa\": %.3f,\n    \"awa\": %.3f,\n"
               "    \"guard_violations\": %llu,\n"
               "    \"num_compactions\": %llu,\n",
               r.busy_seconds, r.seek_seconds, r.transfer_seconds, r.wa,
               r.awa, static_cast<unsigned long long>(r.guard_violations),
               static_cast<unsigned long long>(r.num_compactions));
  if (!r.shard_compactions.empty()) {
    std::fprintf(f, "    \"shard_compactions\": [");
    for (size_t i = 0; i < r.shard_compactions.size(); i++) {
      std::fprintf(f, "%s%llu", i > 0 ? ", " : "",
                   static_cast<unsigned long long>(r.shard_compactions[i]));
    }
    std::fprintf(f, "],\n");
  }
  if (r.has_pool) {
    std::fprintf(f,
                 "    \"buffer_pool\": {\"capacity_bytes\": %llu, "
                 "\"hits\": %llu, \"misses\": %llu, "
                 "\"optimistic_hits\": %llu, \"evictions\": %llu, "
                 "\"hit_ratio\": %.4f},\n",
                 static_cast<unsigned long long>(r.pool_capacity_bytes),
                 static_cast<unsigned long long>(r.buf_hits),
                 static_cast<unsigned long long>(r.buf_misses),
                 static_cast<unsigned long long>(r.buf_optimistic_hits),
                 static_cast<unsigned long long>(r.buf_evictions),
                 r.buf_hit_ratio);
  }
  std::fprintf(f, "    \"max_parallel_compactions\": %llu\n  }%s\n",
               static_cast<unsigned long long>(r.max_parallel_compactions),
               trailing_comma ? "," : "");
}

// What the wall-clock figures were measured on, so results from different
// hosts or builds are not compared as if they were alike.
struct HostStamp {
  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
#if defined(__clang__)
  std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  std::string compiler = std::string("gcc ") + __VERSION__;
#else
  std::string compiler = "unknown";
#endif
  std::string build_type = SEALDB_BUILD_TYPE;
  std::string crc32c = crc32c::internal::Implementation();
};

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchParams params = BenchParams::FromFlags(flags);
  params.load_mb = flags.GetInt("mb", 24);
  // Balanced fill+read cycle: as many point reads as fill puts, so neither
  // phase dominates the sustained figure.
  params.read_ops = flags.GetInt("read_ops", params.entries());
  const std::string out_path = flags.GetString("out", "BENCH_smoke.json");

  PrintHeader("smoke: parallel compaction executor (SEALDB)");
  PrintKV("data volume", FormatMB(params.load_mb << 20));
  PrintKV("entries", static_cast<double>(params.entries()), "");

  const bool uniform_reads = flags.GetBool("uniform", false);
  const HostStamp host;
  PrintKV("host", std::to_string(host.nproc) + " cpus, " + host.compiler +
                      ", " + host.build_type + ", crc32c " + host.crc32c);

  // Baseline: the seed's single-threaded configuration. Treatments: the
  // executor bundle with four workers, and the sharded engine (4 shards,
  // 4 driver threads) on the same simulated drive.
  const ConfigResult serial =
      RunConfig(params, "single-threaded-seed", 1, false, uniform_reads,
                /*num_shards=*/1, /*client_threads=*/1);
  const ConfigResult parallel =
      RunConfig(params, "executor-4w", 4, true, uniform_reads,
                /*num_shards=*/1, /*client_threads=*/1);
  const ConfigResult sharded =
      RunConfig(params, "sharded-4", 4, true, uniform_reads,
                /*num_shards=*/4, /*client_threads=*/4);

  // Read-heavy cache-pressure config: the buffer pool is sized to a
  // quarter of the loaded volume (working set ≈ 4× pool) and the read
  // phase draws zipfian keys over the whole key space with twice the
  // read volume, so hit ratio and eviction churn — not fill throughput —
  // dominate its sustained figure.
  BenchParams read_params = params;
  read_params.read_ops = 2 * params.entries();
  const ConfigResult read_heavy =
      RunConfig(read_params, "read-heavy-zipf", 4, true, uniform_reads,
                /*num_shards=*/1, /*client_threads=*/1,
                /*buffer_pool_bytes=*/(params.load_mb << 20) / 4,
                /*zipfian_reads=*/true);

  auto sustained = [](const ConfigResult& r) {
    const double dev = r.fill.device_seconds + r.read.device_seconds;
    return dev > 0 ? (r.fill.ops + r.read.ops) / dev : 0.0;
  };
  auto sustained_wall = [](const ConfigResult& r) {
    const double wall = r.fill.wall_seconds + r.read.wall_seconds;
    return wall > 0 ? (r.fill.ops + r.read.ops) / wall : 0.0;
  };
  const double speedup =
      sustained(serial) > 0 ? sustained(parallel) / sustained(serial) : 0.0;
  const double wall_speedup = sustained_wall(serial) > 0
                                  ? sustained_wall(parallel) /
                                        sustained_wall(serial)
                                  : 0.0;
  const double sharded_speedup =
      sustained(serial) > 0 ? sustained(sharded) / sustained(serial) : 0.0;
  const double sharded_wall_speedup =
      sustained_wall(serial) > 0
          ? sustained_wall(sharded) / sustained_wall(serial)
          : 0.0;
  const double sharded_fill_wall_speedup =
      serial.fill.wall_ops_per_second() > 0
          ? sharded.fill.wall_ops_per_second() /
                serial.fill.wall_ops_per_second()
          : 0.0;

  for (const ConfigResult* r : {&serial, &parallel, &sharded, &read_heavy}) {
    char title[96];
    std::snprintf(title, sizeof(title),
                  "%s (workers=%d, shards=%d, client_threads=%d)",
                  r->label.c_str(), r->workers, r->shards,
                  r->client_threads);
    PrintHeader(title);
    PrintKV("fill device ops/s", r->fill.device_ops_per_second(), "");
    PrintKV("read device ops/s", r->read.device_ops_per_second(), "");
    PrintKV("fill wall ops/s", r->fill.wall_ops_per_second(), "");
    PrintKV("fill wall / drain", r->fill.wall_seconds, "s");
    PrintKV("fill drain share", r->fill.drain_seconds, "s");
    PrintKV("fill p50/p99", r->fill.p50_us, "us p50");
    PrintKV("fill p99", r->fill.p99_us, "us");
    PrintKV("read wall ops/s", r->read.wall_ops_per_second(), "");
    PrintKV("device seek time", r->seek_seconds, "s");
    PrintKV("device transfer time", r->transfer_seconds, "s");
    PrintKV("compactions", static_cast<double>(r->num_compactions), "");
    PrintKV("max parallel compactions",
            static_cast<double>(r->max_parallel_compactions), "");
    if (r->has_pool) {
      PrintKV("buffer pool hit ratio", r->buf_hit_ratio, "");
      PrintKV("buffer pool optimistic hits",
              static_cast<double>(r->buf_optimistic_hits), "");
      PrintKV("buffer pool evictions",
              static_cast<double>(r->buf_evictions), "");
    }
  }
  const ScrubImpactResult scrub_impact = RunScrubImpact(params);
  PrintHeader("scrub impact (YCSB-A mix, 4 shards, scrubber on vs off)");
  PrintKV("bare wall ops/s", scrub_impact.bare.wall_ops_per_second(), "");
  PrintKV("scrubbed wall ops/s",
          scrub_impact.scrubbed.wall_ops_per_second(), "");
  PrintKV("wall impact", scrub_impact.wall_impact * 100.0, "%");
  PrintKV("device impact", scrub_impact.device_impact * 100.0, "%");
  PrintKV("scrub bytes", static_cast<double>(scrub_impact.scrub_bytes), "");
  PrintKV("scrub passes", static_cast<double>(scrub_impact.scrub_passes), "");
  PrintKV("budget", kScrubImpactBudget * 100.0, "%");

  PrintHeader("comparison (vs single-threaded-seed)");
  PrintKV("executor device ops/s speedup", speedup, "x");
  PrintKV("executor wall ops/s speedup", wall_speedup, "x");
  PrintKV("sharded device ops/s speedup", sharded_speedup, "x");
  PrintKV("sharded wall ops/s speedup", sharded_wall_speedup, "x");
  PrintKV("sharded fill wall ops/s speedup", sharded_fill_wall_speedup, "x");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n\"bench\": \"smoke\",\n\"system\": \"SEALDB\",\n"
               "\"scale\": %llu,\n\"load_mb\": %llu,\n"
               "\"host\": {\"nproc\": %ld, \"compiler\": \"%s\", "
               "\"build_type\": \"%s\", \"crc32c\": \"%s\"},\n"
               "\"configs\": [\n",
               static_cast<unsigned long long>(params.scale),
               static_cast<unsigned long long>(params.load_mb), host.nproc,
               host.compiler.c_str(), host.build_type.c_str(),
               host.crc32c.c_str());
  EmitConfig(f, serial, true);
  EmitConfig(f, parallel, true);
  EmitConfig(f, sharded, true);
  EmitConfig(f, read_heavy, false);
  std::fprintf(f, "],\n\"scrub_impact\": {\n");
  EmitPhase(f, "bare", scrub_impact.bare, true);
  EmitPhase(f, "scrubbed", scrub_impact.scrubbed, true);
  std::fprintf(f,
               "    \"scrub_bytes\": %llu,\n    \"scrub_errors\": %llu,\n"
               "    \"scrub_passes\": %llu,\n"
               "    \"wall_impact\": %.4f,\n    \"device_impact\": %.4f,\n"
               "    \"budget\": %.2f,\n    \"within_budget\": %s\n},\n",
               static_cast<unsigned long long>(scrub_impact.scrub_bytes),
               static_cast<unsigned long long>(scrub_impact.scrub_errors),
               static_cast<unsigned long long>(scrub_impact.scrub_passes),
               scrub_impact.wall_impact, scrub_impact.device_impact,
               kScrubImpactBudget, scrub_impact.ok ? "true" : "false");
  std::fprintf(f,
               "\"sustained_device_ops_speedup\": %.3f,\n"
               "\"sustained_wall_ops_speedup\": %.3f,\n"
               "\"sharded_device_ops_speedup\": %.3f,\n"
               "\"sharded_wall_ops_speedup\": %.3f,\n"
               "\"sharded_fill_wall_ops_speedup\": %.3f\n}\n",
               speedup, wall_speedup, sharded_speedup, sharded_wall_speedup,
               sharded_fill_wall_speedup);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  if (!scrub_impact.ok) {
    std::fprintf(stderr,
                 "scrub impact budget exceeded: wall impact %.1f%% "
                 "(budget %.0f%%, scrub bytes %llu)\n",
                 scrub_impact.wall_impact * 100.0,
                 kScrubImpactBudget * 100.0,
                 static_cast<unsigned long long>(scrub_impact.scrub_bytes));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sealdb::bench

int main(int argc, char** argv) { return sealdb::bench::Run(argc, argv); }
