#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "baselines/presets.h"
#include "core/dynamic_band_allocator.h"
#include "core/shard_layout.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "lsm/sharded_db.h"
#include "net/seal_client.h"
#include "server/seal_server.h"
#include "util/random.h"
#include "ycsb/generator.h"

namespace perfbench {
namespace {

using sealdb::CompactionEvent;
using sealdb::DB;
using sealdb::Iterator;
using sealdb::LiveFileMeta;
using sealdb::Random;
using sealdb::ReadOptions;
using sealdb::Slice;
using sealdb::Status;
using sealdb::WriteOptions;
using sealdb::baselines::Stack;
using sealdb::baselines::StackConfig;
using sealdb::baselines::SystemKind;
using sealdb::obs::MetricsRegistry;

// Paper ratios at 1/16 scale: 256 KB SSTables and write buffer, 2.5 MB
// bands, 64 KB tracks, 16 B keys and 256 B values.
constexpr uint64_t kScale = 16;
constexpr uint64_t kMiB = 1ull << 20;
const char* const kDbName = "/perfbench";

// Sizes. The ingest volume runs several compaction rounds into L3, where WA
// has levelled off; the read workloads' pool is a quarter of their data.
constexpr uint64_t kIngestBytes = 64 * kMiB;
constexpr uint64_t kReadLoadBytes = 32 * kMiB;
constexpr uint64_t kServedLoadBytes = 8 * kMiB;
constexpr uint64_t kPointReadWarmup = 50000;
constexpr uint64_t kPointReadOps = 1000000;
constexpr uint64_t kScanWarmup = 5000;
constexpr uint64_t kScanOps = 100000;
constexpr int kScanMaxEntries = 100;
constexpr int kServedShards = 4;
constexpr int kServedClients = 3;
constexpr uint64_t kVerifySample = 2000;
// A run stops starting rounds after this much wall time, whatever --seconds
// asks, so it always ends well inside its time limit.
constexpr double kMaxRunWallSeconds = 120;
// Latency percentiles are taken over windows of this many consecutive
// operations of one driver thread, and only over the quietest share of a
// run's windows (see QuietLatency).
constexpr size_t kWindowOps = 2048;
constexpr double kQuietShare = 0.25;

enum class Kind { kIngest, kPointRead, kRangeScan, kServed };

// A run is a fixed number of rounds, --seconds / round_seconds, each on a
// fresh stack with its own inputs, so a run's figures depend only on the
// seed and --seconds, never on how fast the host ran. round_seconds is the
// measured time of one round on a 4-vCPU x86 VM; the served workload's
// rounds are windows of exactly --seconds / rounds.
struct WorkloadDef {
  const char* name;
  Kind kind;
  uint64_t load_bytes;
  double round_seconds;
};

const WorkloadDef kWorkloads[] = {
    {"ingest", Kind::kIngest, kIngestBytes, 1.0},
    {"point-read", Kind::kPointRead, kReadLoadBytes, 1.25},
    {"range-scan", Kind::kRangeScan, kReadLoadBytes, 1.4},
    {"served-ycsb-a", Kind::kServed, kServedLoadBytes, 0.5},
};

// Round r of a run draws every input from RoundSeed(seed, r), and each
// generator of the round from its own stream of that.
uint64_t RoundSeed(uint64_t seed, int round) {
  return Mix64(seed ^ Mix64(static_cast<uint64_t>(round) + 1));
}

uint32_t SubSeed(uint64_t seed, uint64_t stream) {
  return static_cast<uint32_t>(Mix64(Mix64(seed) ^ stream));
}

uint32_t Clamp32(uint64_t ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Appends the starts of the whole windows in `n` samples of one driver
// thread, stored from index `offset` of a round's latency_ns; a last partial
// window is left out.
void AddWindows(size_t offset, size_t n, std::vector<size_t>* starts) {
  for (size_t i = 0; i + kWindowOps <= n; i += kWindowOps) {
    starts->push_back(offset + i);
  }
}

// Everything one round measured. A round builds a fresh stack, sets it up,
// runs the measured phase and verifies the result.
struct Round {
  bool ok = false;
  double setup_s = 0;
  double measure_s = 0;
  uint64_t ops = 0;
  std::vector<uint32_t> latency_ns;
  std::vector<size_t> window_starts;  // into latency_ns, see AddWindows
  Counters phase;  // registry delta over the measured phase
  Counters whole;  // registry delta over the round, set-up included
  double space_amp = 0;
  // Traced rounds only.
  double extents_per_table = 0;
  double freelist_regions = 0;
  double guard_bytes = 0;
  double max_parallel_compactions = 0;
  std::vector<CompactionEvent> events;
  std::vector<std::unique_ptr<SpanLog>> logs;
  std::vector<MetricValue> extra;  // workload-specific ledger entries
};

StackConfig MakeConfig(uint64_t load_bytes) {
  StackConfig config;
  config.kind = SystemKind::kSEALDB;
  config = config.Scaled(kScale);
  config.capacity_bytes = std::max(config.capacity_bytes, load_bytes * 4);
  return config;
}

std::unique_ptr<Stack> Build(const StackConfig& config, bool traced,
                             Checker* checker) {
  std::unique_ptr<Stack> stack;
  const Status s = sealdb::baselines::BuildStack(config, kDbName, &stack);
  checker->Record(s.ok(), "BuildStack");
  if (!s.ok()) {
    std::fprintf(stderr, "BuildStack: %s\n", s.ToString().c_str());
    return nullptr;
  }
  if (traced) stack->db()->SetRecordCompactionEvents(true);
  return stack;
}

// Puts every record of the dataset in order; a put's version is its index.
bool Load(DB* db, const Dataset& ds, Checker* checker) {
  WriteOptions wo;
  std::string value;
  for (size_t i = 0; i < ds.order.size(); i++) {
    const uint64_t id = ds.order[i];
    ValueOf(id, i, &value);
    const Status s = db->Put(wo, KeyOf(id), value);
    checker->Record(s.ok(), "load put");
    if (!s.ok()) {
      std::fprintf(stderr, "load put: %s\n", s.ToString().c_str());
      return false;
    }
  }
  db->WaitForIdle();
  return true;
}

// Gets a sample of loaded ids and checks each against `value_ok`.
template <typename ValueOk>
void VerifySample(DB* db, const Dataset& ds, uint64_t seed, Checker* checker,
                  ValueOk value_ok) {
  Random rnd(SubSeed(seed, 3));
  ReadOptions ro;
  std::string got;
  for (uint64_t i = 0; i < kVerifySample; i++) {
    const size_t idx = rnd.Next64() % ds.loaded.size();
    const uint64_t id = ds.loaded[idx];
    const Status s = db->Get(ro, KeyOf(id), &got);
    if (s.ok()) checker->MaybeCorrupt(&got);
    checker->Record(s.ok() && value_ok(idx, id, got), "verify get");
  }
}

// Full scan: keys ascending, exactly the loaded ids, each with its final
// value.
void VerifyScan(DB* db, const Dataset& ds, Checker* checker) {
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  size_t j = 0;
  std::string value;
  for (it->SeekToFirst(); it->Valid(); it->Next(), j++) {
    value.assign(it->value().data(), it->value().size());
    checker->MaybeCorrupt(&value);
    uint64_t id = 0;
    const bool ok = j < ds.loaded.size() && ParseKey(it->key(), &id) &&
                    id == ds.loaded[j] &&
                    Checker::ValueIs(id, ds.last[id], value);
    checker->Record(ok, "verify scan entry");
  }
  checker->Record(it->status().ok() && j == ds.loaded.size(),
                  "verify scan count");
}

// Shingled bytes in use (band frontier minus free list) per live user byte.
double SpaceAmp(Stack* stack, const Dataset& ds) {
  uint64_t used = 0;
  for (int i = 0; i < stack->num_shards(); i++) {
    auto* dyn = dynamic_cast<sealdb::core::DynamicBandAllocator*>(
        stack->shard_store(i)->allocator());
    if (dyn == nullptr) return 0;
    used += dyn->frontier() - dyn->base() - dyn->free_list_bytes();
  }
  return Ratio(static_cast<double>(used),
               static_cast<double>(ds.live_user_bytes()));
}

DB* ShardDb(Stack* stack, int i) {
  return stack->sharded_db() != nullptr ? stack->sharded_db()->shard(i)
                                        : stack->db();
}

double ExtentsPerTable(Stack* stack) {
  uint64_t tables = 0, extents = 0;
  for (int i = 0; i < stack->num_shards(); i++) {
    for (const LiveFileMeta& f : ShardDb(stack, i)->GetLiveFilesMetadata()) {
      std::vector<sealdb::fs::Extent> ext;
      if (stack->shard_store(i)
              ->GetFileExtents(sealdb::TableFileName(kDbName, f.number), &ext)
              .ok()) {
        tables++;
        extents += ext.size();
      }
    }
  }
  return Ratio(static_cast<double>(extents), static_cast<double>(tables));
}

// Closes a round: waits out background work, takes the round's registry
// delta and layout figures, and checks that no write shingled over valid
// data.
void FinishRound(Stack* stack, const Dataset& ds, const Counters& start,
                 bool traced, Checker* checker, Round* r) {
  stack->db()->WaitForIdle();
  const MetricsRegistry& reg = *stack->metrics_registry();
  r->whole = Delta(start, TakeCounters(reg));
  checker->Record(Get(r->whole, "smr.guard_violations") == 0,
                  "smr.guard_violations must be 0");
  r->space_amp = SpaceAmp(stack, ds);
  if (traced) {
    r->extents_per_table = ExtentsPerTable(stack);
    r->freelist_regions = reg.gauge_family_sum("sealdb_band_freelist_regions");
    r->guard_bytes = reg.gauge_family_sum("sealdb_band_guard_bytes");
    r->max_parallel_compactions =
        reg.gauge_family_max("sealdb_engine_max_parallel_compactions");
    r->events = stack->db()->TakeCompactionEvents();
  }
  r->ok = true;
}

SpanLog* NewLog(Round* r) {
  r->logs.push_back(std::make_unique<SpanLog>());
  return r->logs.back().get();
}

// ---------------------------------------------------------------------------
// ingest: random-order puts into an empty single-shard stack with inline
// compactions, one driver thread.

Round IngestRound(const Dataset& ds, uint64_t seed, bool traced,
                  bool full_verify, Checker* checker) {
  Round r;
  const uint64_t t0 = NowNs();
  auto stack = Build(MakeConfig(kIngestBytes), traced, checker);
  if (stack == nullptr) return r;
  DB* db = stack->db();
  const Counters start = TakeCounters(*stack->metrics_registry());
  r.setup_s = (NowNs() - t0) / 1e9;

  SpanLog* log = traced ? NewLog(&r) : nullptr;
  if (log != nullptr) log->Reserve(ds.order.size() * 3);
  r.latency_ns.reserve(ds.order.size());
  WriteOptions wo;
  std::string key, value;
  const uint64_t begin = NowNs();
  for (size_t i = 0; i < ds.order.size(); i++) {
    const uint64_t g0 = log != nullptr ? NowNs() : 0;
    const uint64_t id = ds.order[i];
    key = KeyOf(id);
    ValueOf(id, i, &value);
    const uint64_t t1 = NowNs();
    const Status s = db->Put(wo, key, value);
    const uint64_t t2 = NowNs();
    r.latency_ns.push_back(Clamp32(t2 - t1));
    checker->Record(s.ok(), "put");
    if (log != nullptr) {
      const uint32_t op = log->Add(kSpanOp, g0, NowNs(), i);
      log->Add(kSpanGen, g0, t1, i, op);
      log->Add(kSpanLsmPut, t1, t2, i, op);
    }
  }
  db->WaitForIdle();
  r.measure_s = (NowNs() - begin) / 1e9;
  r.ops = ds.order.size();
  AddWindows(0, r.latency_ns.size(), &r.window_starts);
  r.phase = Delta(start, TakeCounters(*stack->metrics_registry()));

  VerifySample(db, ds, seed, checker,
               [&](size_t, uint64_t id, const std::string& got) {
                 return Checker::ValueIs(id, ds.last[id], got);
               });
  if (full_verify) VerifyScan(db, ds, checker);
  FinishRound(stack.get(), ds, start, traced, checker, &r);
  return r;
}

// Set-up shared by point-read and range-scan: the ingest load into a stack
// whose buffer pool holds a quarter of the data.
std::unique_ptr<Stack> LoadedReadStack(const Dataset& ds, bool traced,
                                       Checker* checker, Counters* start,
                                       Round* r) {
  const uint64_t t0 = NowNs();
  StackConfig config = MakeConfig(kReadLoadBytes);
  config.buffer_pool_bytes = kReadLoadBytes / 4;
  auto stack = Build(config, traced, checker);
  if (stack == nullptr) return nullptr;
  *start = TakeCounters(*stack->metrics_registry());
  if (!Load(stack->db(), ds, checker)) return nullptr;
  r->setup_s = (NowNs() - t0) / 1e9;
  return stack;
}

// ---------------------------------------------------------------------------
// point-read: scrambled-zipfian gets over loaded keys, data 4x the pool.

Round PointReadRound(const Dataset& ds, uint64_t seed, bool traced,
                     Checker* checker) {
  Round r;
  Counters start;
  auto stack = LoadedReadStack(ds, traced, checker, &start, &r);
  if (stack == nullptr) return r;
  DB* db = stack->db();
  sealdb::ycsb::ScrambledZipfianGenerator zipf(ds.loaded.size(),
                                               SubSeed(seed, 2));
  ReadOptions ro;
  std::string key, got;
  SpanLog* log = nullptr;
  auto get = [&](uint64_t i) {
    const uint64_t g0 = log != nullptr ? NowNs() : 0;
    const uint64_t id = ds.loaded[zipf.Next() % ds.loaded.size()];
    key = KeyOf(id);
    const uint64_t t1 = NowNs();
    const Status s = db->Get(ro, key, &got);
    const uint64_t t2 = NowNs();
    if (s.ok()) checker->MaybeCorrupt(&got);
    checker->Record(s.ok() && Checker::ValueIs(id, ds.last[id], got), "get");
    if (log != nullptr) {
      const uint32_t op = log->Add(kSpanOp, g0, NowNs(), i);
      log->Add(kSpanGen, g0, t1, i, op);
      log->Add(kSpanLsmGet, t1, t2, i, op);
    }
    return Clamp32(t2 - t1);
  };
  for (uint64_t i = 0; i < kPointReadWarmup; i++) get(i);

  if (traced) {
    log = NewLog(&r);
    log->Reserve(kPointReadOps * 3);
  }
  r.latency_ns.reserve(kPointReadOps);
  const Counters before = TakeCounters(*stack->metrics_registry());
  const uint64_t begin = NowNs();
  for (uint64_t i = 0; i < kPointReadOps; i++) {
    r.latency_ns.push_back(get(i));
  }
  r.measure_s = (NowNs() - begin) / 1e9;
  r.ops = kPointReadOps;
  AddWindows(0, r.latency_ns.size(), &r.window_starts);
  r.phase = Delta(before, TakeCounters(*stack->metrics_registry()));
  FinishRound(stack.get(), ds, start, traced, checker, &r);
  return r;
}

// ---------------------------------------------------------------------------
// range-scan: an iterator Seek at a zipfian start, then a uniform 1-100
// entries, each checked against the loaded ids that follow the start.

Round RangeScanRound(const Dataset& ds, uint64_t seed, bool traced,
                     Checker* checker) {
  Round r;
  Counters start;
  auto stack = LoadedReadStack(ds, traced, checker, &start, &r);
  if (stack == nullptr) return r;
  DB* db = stack->db();
  const size_t n = ds.loaded.size();
  sealdb::ycsb::ScrambledZipfianGenerator zipf(n, SubSeed(seed, 4));
  Random rnd(SubSeed(seed, 5));
  ReadOptions ro;
  std::string key;
  std::vector<std::string> keys(kScanMaxEntries), values(kScanMaxEntries);
  SpanLog* log = nullptr;
  auto scan = [&](uint64_t i) {
    const uint64_t g0 = log != nullptr ? NowNs() : 0;
    const size_t idx = zipf.Next() % n;
    const int want = 1 + static_cast<int>(rnd.Uniform(kScanMaxEntries));
    key = KeyOf(ds.loaded[idx]);
    const uint64_t t1 = NowNs();
    std::unique_ptr<Iterator> it(db->NewIterator(ro));
    it->Seek(key);
    const uint64_t t2 = NowNs();
    int got = 0;
    for (; got < want && it->Valid(); got++, it->Next()) {
      keys[got].assign(it->key().data(), it->key().size());
      values[got].assign(it->value().data(), it->value().size());
    }
    const bool status_ok = it->status().ok();
    const uint64_t t3 = NowNs();
    it.reset();
    const uint64_t t4 = NowNs();
    const size_t expect = std::min<size_t>(want, n - idx);
    bool ok = status_ok && static_cast<size_t>(got) == expect;
    for (int j = 0; ok && j < got; j++) {
      uint64_t id = 0;
      checker->MaybeCorrupt(&values[j]);
      ok = ParseKey(keys[j], &id) && id == ds.loaded[idx + j] &&
           Checker::ValueIs(id, ds.last[id], values[j]);
    }
    checker->Record(ok, "scan");
    if (log != nullptr) {
      const uint32_t op = log->Add(kSpanOp, g0, NowNs(), i);
      log->Add(kSpanGen, g0, t1, i, op);
      log->Add(kSpanLsmSeek, t1, t2, i, op);
      log->Add(kSpanLsmNext, t2, t3, i, op);
    }
    return Clamp32(t4 - t1);
  };
  for (uint64_t i = 0; i < kScanWarmup; i++) scan(i);

  if (traced) {
    log = NewLog(&r);
    log->Reserve(kScanOps * 4);
  }
  r.latency_ns.reserve(kScanOps);
  const Counters before = TakeCounters(*stack->metrics_registry());
  const uint64_t begin = NowNs();
  for (uint64_t i = 0; i < kScanOps; i++) r.latency_ns.push_back(scan(i));
  r.measure_s = (NowNs() - begin) / 1e9;
  r.ops = kScanOps;
  AddWindows(0, r.latency_ns.size(), &r.window_starts);
  r.phase = Delta(before, TakeCounters(*stack->metrics_registry()));
  FinishRound(stack.get(), ds, start, traced, checker, &r);
  return r;
}

// ---------------------------------------------------------------------------
// served-ycsb-a: an in-process SealServer over a 4-shard stack with the
// background compaction executor; 3 closed-loop SealClient connections, each
// waiting for its reply, 50% reads and 50% updates over zipfian keys.

void FetchMax(std::atomic<uint64_t>* a, uint64_t v) {
  uint64_t cur = a->load(std::memory_order_relaxed);
  while (cur < v && !a->compare_exchange_weak(cur, v)) {
  }
}

struct ServedDriver {
  std::vector<uint32_t> latency_ns;
  SpanLog* log = nullptr;
  uint64_t ops = 0;
  uint64_t passed = 0;
  uint64_t end_ns = 0;
  uint64_t shard_ops[kServedShards] = {};
  // Trace ids of recent requests and their net span, to attach the
  // server's sampled spans.
  static constexpr size_t kRing = 512;
  std::vector<std::pair<uint64_t, uint32_t>> ring =
      std::vector<std::pair<uint64_t, uint32_t>>(kRing);
};

Round ServedRound(const Dataset& ds, uint64_t seed, bool traced,
                  double window_s, Checker* checker) {
  using sealdb::net::SealClient;
  using sealdb::server::SealServer;
  Round r;
  const uint64_t t0 = NowNs();
  StackConfig config = MakeConfig(kServedLoadBytes);
  config.num_shards = kServedShards;
  config.inline_compactions = false;
  config.buffer_pool_bytes = 2 * kServedLoadBytes;  // the data set fits
  auto stack = Build(config, traced, checker);
  if (stack == nullptr) return r;
  const MetricsRegistry& reg = *stack->metrics_registry();
  const Counters start = TakeCounters(reg);
  if (!Load(stack->db(), ds, checker)) return r;

  sealdb::server::ServerOptions so;
  so.trace_sample_every = traced ? 1 : 0;
  SealServer server(stack->db(), stack.get(), so);
  Status s = server.Start();
  checker->Record(s.ok(), "server start");
  if (!s.ok()) return r;
  std::vector<std::unique_ptr<SealClient>> clients;
  for (int c = 0; c < kServedClients; c++) {
    clients.push_back(std::make_unique<SealClient>());
    s = clients.back()->Connect("127.0.0.1", server.port());
    checker->Record(s.ok(), "client connect");
    if (!s.ok()) return r;
  }
  r.setup_s = (NowNs() - t0) / 1e9;

  // An update's version comes from one counter above every load version;
  // `issued` holds the newest version sent per key, so a read may return
  // the key's load version or any update version issued before it ended.
  const uint64_t first_update = ds.order.size();
  std::atomic<uint64_t> next_version{first_update};
  std::vector<std::atomic<uint64_t>> issued(ds.loaded.size());
  for (size_t i = 0; i < ds.loaded.size(); i++) {
    issued[i].store(ds.last[ds.loaded[i]]);
  }
  auto value_ok = [&](size_t idx, uint64_t id, const std::string& got) {
    uint64_t got_id = 0, version = 0;
    return ParseValue(got, &got_id, &version) && got_id == id &&
           (version == ds.last[id] ||
            (version >= first_update && version <= issued[idx].load()));
  };

  static const sealdb::obs::Labels kStages[] = {
      {{"stage", "queue"}}, {{"stage", "commit"}}, {{"stage", "engine"}}};
  std::vector<sealdb::obs::FixedHistogram::Snapshot> hist_base;
  for (const auto& labels : kStages) {
    hist_base.push_back(
        HistogramSnapshot(reg, "sealdb_server_span_micros", labels));
  }
  std::vector<ServedDriver> drivers(kServedClients);
  for (auto& d : drivers) {
    if (traced) d.log = NewLog(&r);
  }
  const Counters before = TakeCounters(reg);
  const uint64_t begin = NowNs();
  const uint64_t deadline = begin + static_cast<uint64_t>(window_s * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kServedClients; c++) {
    threads.emplace_back([&, c] {
      ServedDriver& d = drivers[c];
      SealClient& client = *clients[c];
      const size_t n = ds.loaded.size();
      sealdb::ycsb::ScrambledZipfianGenerator zipf(n, SubSeed(seed, 10 + c));
      Random rnd(SubSeed(seed, 20 + c));
      std::string key, value, got;
      for (uint64_t i = 0;; i++) {
        const uint64_t g0 = NowNs();
        if (g0 >= deadline) break;
        const size_t idx = zipf.Next() % n;
        const uint64_t id = ds.loaded[idx];
        const bool read = rnd.Uniform(2) == 0;
        key = KeyOf(id);
        if (!read) {
          const uint64_t version = next_version.fetch_add(1);
          FetchMax(&issued[idx], version);
          ValueOf(id, version, &value);
        }
        const uint64_t t1 = NowNs();
        const Status st = read ? client.Get(key, &got) : client.Put(key, value);
        const uint64_t t2 = NowNs();
        d.latency_ns.push_back(Clamp32(t2 - t1));
        bool ok = st.ok();
        if (ok && read) {
          checker->MaybeCorrupt(&got);
          ok = value_ok(idx, id, got);
        }
        // Passes are counted per thread; a shared counter would put a
        // contended cache line on every client's path.
        if (ok) {
          d.passed++;
        } else {
          checker->Record(false, read ? "served get" : "served put");
          if (checker->failed() <= 5) {
            std::fprintf(stderr, "  %s %s: %s\n", read ? "get" : "put",
                         key.c_str(),
                         st.ok() ? "wrong value" : st.ToString().c_str());
          }
        }
        d.ops++;
        if (d.log != nullptr) {
          d.shard_ops[sealdb::core::ShardLayout::ShardOfKey(key,
                                                            kServedShards)]++;
          const uint64_t request = (static_cast<uint64_t>(c) << 40) | i;
          const uint32_t op = d.log->Add(kSpanOp, g0, NowNs(), request);
          d.log->Add(kSpanGen, g0, t1, request, op);
          const uint32_t rtt = d.log->Add(kSpanNetRtt, t1, t2, request, op);
          d.ring[i % ServedDriver::kRing] = {client.last_trace_id(), rtt};
        }
      }
      d.end_ns = NowNs();
    });
  }
  for (auto& t : threads) t.join();
  uint64_t end = begin;
  for (auto& d : drivers) {
    end = std::max(end, d.end_ns);
    checker->Passed(d.passed);
    r.ops += d.ops;
    AddWindows(r.latency_ns.size(), d.latency_ns.size(), &r.window_starts);
    r.latency_ns.insert(r.latency_ns.end(), d.latency_ns.begin(),
                        d.latency_ns.end());
  }
  r.measure_s = (end - begin) / 1e9;
  r.phase = Delta(before, TakeCounters(reg));

  if (traced) {
    auto extra = [&r](const std::string& name, double v, const char* unit,
                      uint64_t samples = 0) {
      r.extra.push_back({name, v, unit, samples});
    };
    // The server's span ring holds its most recent sampled requests; each
    // one whose trace id a client still remembers becomes a child of that
    // client's net span. Only durations are known, so the children are
    // laid out from the start of the net span.
    std::unordered_map<uint64_t, std::pair<int, uint32_t>> by_trace;
    for (int c = 0; c < kServedClients; c++) {
      for (const auto& [trace_id, span] : drivers[c].ring) {
        if (trace_id != 0) by_trace[trace_id] = {c, span};
      }
    }
    double net_self_ns = 0;
    uint64_t matched = 0;
    for (const auto& t : server.sampled_traces()) {
      auto it = by_trace.find(t.trace_id);
      if (it == by_trace.end()) continue;
      SpanLog* log = drivers[it->second.first].log;
      const uint32_t rtt = it->second.second;
      const Span net = log->spans()[rtt];
      const uint64_t s0 = net.start_ns;
      const uint64_t q = t.queue_micros * 1000, c = t.commit_micros * 1000;
      const uint32_t total = log->Add(
          kSpanServerTotal, s0, s0 + t.total_micros * 1000, net.request, rtt);
      log->Add(kSpanServerQueue, s0, s0 + q, net.request, total);
      const uint32_t commit =
          log->Add(kSpanServerCommit, s0 + q, s0 + q + c, net.request, total);
      log->Add(kSpanServerEngine, s0 + q, s0 + q + t.engine_micros * 1000,
               net.request, commit);
      const double rtt_ns = static_cast<double>(net.end_ns - net.start_ns);
      net_self_ns += std::max(0.0, rtt_ns - t.total_micros * 1000.0);
      matched++;
    }
    extra("net.self_ns.mean", Ratio(net_self_ns, matched), "ns", matched);
    const char* stage_names[] = {"server.queue_us", "server.commit_us",
                                 "server.engine_us"};
    for (size_t i = 0; i < 3; i++) {
      const HistogramStats h = HistogramDelta(reg, "sealdb_server_span_micros",
                                              kStages[i], hist_base[i]);
      extra(std::string(stage_names[i]) + ".mean", h.mean, "us", h.count);
      extra(std::string(stage_names[i]) + ".p99_bucket", h.p99_bound, "us",
            h.count);
    }
    extra("server.writes_per_group",
          Ratio(Get(r.phase, "server.batched_writes"),
                Get(r.phase, "server.write_groups")),
          "ratio");
    for (const char* reason :
         {"connections", "queue_full", "inflight_cap", "stall"}) {
      const std::string k = std::string("server.admission_rejected.") + reason;
      extra(k, Get(r.phase, k), "count");
    }
    extra("net.bytes_per_op", Ratio(Get(r.phase, "server.bytes"), r.ops), "B");
    uint64_t retries = 0, busy = 0;
    for (const auto& client : clients) {
      retries += client->stats().retries;
      busy += client->stats().busy_responses;
    }
    extra("net.retries", static_cast<double>(retries), "count");
    extra("net.busy_responses", static_cast<double>(busy), "count");
    uint64_t per_shard[kServedShards] = {};
    for (const auto& d : drivers) {
      for (int i = 0; i < kServedShards; i++) per_shard[i] += d.shard_ops[i];
    }
    const uint64_t max_ops = *std::max_element(per_shard, per_shard + kServedShards);
    extra("lsm.shard_op_skew",
          Ratio(static_cast<double>(max_ops),
                static_cast<double>(r.ops) / kServedShards),
          "ratio");
  }

  for (auto& client : clients) client->Close();
  server.Stop();
  VerifySample(stack->db(), ds, seed, checker, value_ok);
  FinishRound(stack.get(), ds, start, traced, checker, &r);
  return r;
}

// ---------------------------------------------------------------------------
// Reporting

Round RunRound(const WorkloadDef& w, const Dataset& ds, uint64_t round_seed,
               double window_s, bool traced, bool first, Checker* checker) {
  switch (w.kind) {
    case Kind::kIngest:
      return IngestRound(ds, round_seed, traced, first, checker);
    case Kind::kPointRead:
      return PointReadRound(ds, round_seed, traced, checker);
    case Kind::kRangeScan:
      return RangeScanRound(ds, round_seed, traced, checker);
    case Kind::kServed:
      return ServedRound(ds, round_seed, traced, window_s, checker);
  }
  return Round();
}

double EngineWa(const Counters& c) {
  return Ratio(Get(c, "lsm.flush_bytes") + Get(c, "lsm.compaction_bytes_written"),
               Get(c, "lsm.user_bytes"));
}

// The untraced run's figures, pooled over its rounds (the latency
// percentiles over its quietest windows, see QuietLatency).
struct Totals {
  struct WallRound {
    std::vector<uint32_t> latency_ns;
    std::vector<size_t> window_starts;
  };
  std::vector<WallRound> wall;
  std::vector<double> setup_s;
  std::vector<double> space_amp;
  uint64_t ops = 0;
  double measure_s = 0;
  double busy_s = 0;
  double physical_bytes = 0;
  double user_bytes = 0;

  void Add(Round* r) {
    wall.push_back({std::move(r->latency_ns), std::move(r->window_starts)});
    setup_s.push_back(r->setup_s);
    space_amp.push_back(r->space_amp);
    ops += r->ops;
    measure_s += r->measure_s;
    busy_s += Get(r->phase, "smr.busy_s");
    physical_bytes += Get(r->whole, "smr.physical_bytes_written");
    user_bytes += Get(r->whole, "lsm.user_bytes");
  }
};

// The latency percentiles, over the kQuietShare of the run's windows with
// the lowest median latency. The host slows everything the benchmark does for
// seconds at a time, by up to 2x, for reasons outside the program (see
// README, Noise); percentiles pooled over every window would measure how
// much of a run fell into such spells. What the program itself costs is in
// every window, so a slowdown it causes moves the quietest windows too.
// ops_per_s stays over whole rounds: on ingest a window's length is mostly
// the inline compactions it happened to run, not the host.
LatencySummary QuietLatency(const Totals& t, size_t* kept, size_t* windows) {
  struct Ranked {
    uint32_t p50_ns;
    size_t round;
    size_t first;
  };
  std::vector<Ranked> ranked;
  std::vector<uint32_t> scratch;
  for (size_t i = 0; i < t.wall.size(); i++) {
    const auto& w = t.wall[i];
    for (size_t first : w.window_starts) {
      const auto from = w.latency_ns.begin() + first;
      scratch.assign(from, from + kWindowOps);
      ranked.push_back({PercentileNs(&scratch, 50), i, first});
    }
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    return std::tie(a.p50_ns, a.round, a.first) <
           std::tie(b.p50_ns, b.round, b.first);
  });
  *windows = ranked.size();
  *kept = static_cast<size_t>(
      std::ceil(kQuietShare * static_cast<double>(*windows)));
  std::vector<uint32_t> latency;
  latency.reserve(*kept * kWindowOps);
  for (size_t k = 0; k < *kept; k++) {
    const auto from =
        t.wall[ranked[k].round].latency_ns.begin() + ranked[k].first;
    latency.insert(latency.end(), from, from + kWindowOps);
  }
  return Summarize(&latency);
}

void EmitEndToEnd(const Totals& t, Checker* checker, Report* report) {
  size_t kept = 0, windows = 0;
  const LatencySummary lat = QuietLatency(t, &kept, &windows);
  checker->Record(PercentileSupported(lat.count, 99.9),
                  "p999 needs at least 10 samples beyond it");
  report->Metric("setup_s", Median(t.setup_s), "s", t.setup_s.size());
  report->Metric("ops_per_s", Ratio(t.ops, t.measure_s), "1/s");
  report->Metric("p50_us", lat.p50_us, "us", lat.count);
  report->Metric("p99_us", lat.p99_us, "us", lat.count);
  report->Metric("p999_us", lat.p999_us, "us", lat.count);
  report->Metric("device_ops_per_s", Ratio(t.ops, t.busy_s), "1/s");
  report->Metric("mwa", Ratio(t.physical_bytes, t.user_bytes), "ratio");
  report->Metric("space_amp", Median(t.space_amp), "ratio",
                 t.space_amp.size());
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  report->Info("latency.windows_kept",
               std::to_string(kept) + " of " + std::to_string(windows));
  char top[64];
  std::snprintf(top, sizeof(top), "p%g = %.3f us", lat.top_pct, lat.top_us);
  report->Info("latency.top_supported", top);
}

double SetContiguity(const std::vector<CompactionEvent>& events,
                     double* mean_extent_bytes) {
  uint64_t merges = 0, contiguous = 0, bytes = 0;
  for (const CompactionEvent& ev : events) {
    if (ev.trivial_move || ev.output_placement.empty()) continue;
    bool one_extent = true;
    uint64_t prev_end = 0;
    for (const auto& [offset, length] : ev.output_placement) {
      if (prev_end != 0 && offset != prev_end) one_extent = false;
      prev_end = offset + length;
      bytes += length;
    }
    merges++;
    if (one_extent) contiguous++;
  }
  *mean_extent_bytes = Ratio(static_cast<double>(bytes), merges);
  return Ratio(static_cast<double>(contiguous), merges);
}

// The traced run: `base` is an untraced round of the same work, for the
// tracing overhead.
void EmitLayers(const Round& base, const Round& r, const RunOptions& opt,
                Report* report) {
  std::vector<const SpanLog*> logs;
  for (const auto& log : r.logs) logs.push_back(log.get());
  const std::vector<SpanStats> spans = DeriveSpanStats(logs);
  if (!opt.spans_path.empty() && !WriteSpans(opt.spans_path, logs)) {
    std::fprintf(stderr, "cannot write %s\n", opt.spans_path.c_str());
  }
  const Counters& p = r.phase;
  const double ops = static_cast<double>(r.ops);
  double extent_bytes = 0;
  const double contiguity = SetContiguity(r.events, &extent_bytes);
  const double overhead =
      Ratio(Ratio(base.ops, base.measure_s), Ratio(r.ops, r.measure_s));

  // Headline per-layer metrics: defined on every workload.
  report->Metric("ycsb.gen_ns_per_op",
                 Ratio(spans[kSpanGen].total_ns, spans[kSpanGen].count), "ns",
                 spans[kSpanGen].count);
  report->Metric("lsm.wa", EngineWa(r.whole), "ratio");
  report->Metric("core.set_contiguity", contiguity, "ratio");
  report->Metric("fs.extents_per_table", r.extents_per_table, "ratio");
  report->Metric("fs.read_bytes_per_op",
                 Ratio(Get(p, "smr.logical_bytes_read"), ops), "B");
  report->Metric("smr.busy_s", Get(p, "smr.busy_s"), "s");
  report->Metric("smr.position_s", Get(p, "smr.position_s"), "s");
  report->Metric("smr.seeks", Get(p, "smr.seeks"), "count");
  report->Metric("obs.trace_overhead", overhead, "ratio");

  // Ledger: every per-layer figure of the traced round. Counters are
  // deltas over the measured phase unless named round.*.
  auto L = [report](const std::string& name, double v, const char* unit,
                    uint64_t samples = 0) {
    report->Ledger(name, v, unit, samples);
  };
  L("ycsb.gen_ns_per_op",
    Ratio(spans[kSpanGen].total_ns, spans[kSpanGen].count), "ns");
  for (uint16_t n : {kSpanLsmPut, kSpanLsmGet, kSpanLsmSeek, kSpanLsmNext,
                     kSpanNetRtt}) {
    if (spans[n].count == 0) continue;
    const std::string base_name =
        std::string(SpanNameString(n)) + "_ns";
    L(base_name + ".p50", spans[n].p50_ns, "ns", spans[n].count);
    L(base_name + ".p99", spans[n].p99_ns, "ns", spans[n].count);
  }
  for (uint16_t n = 0; n < kNumSpanNames; n++) {
    if (spans[n].count == 0) continue;
    L(std::string("self_ns_per_op.") + SpanNameString(n),
      Ratio(spans[n].self_ns, ops), "ns", spans[n].count);
  }
  for (const char* k :
       {"lsm.flushes", "lsm.compactions", "lsm.compaction_bytes_read",
        "lsm.compaction_bytes_written", "lsm.write_stall_events"}) {
    L(k, Get(p, k), std::string(k).find("bytes") != std::string::npos
                        ? "B"
                        : "count");
  }
  L("lsm.wa", EngineWa(p), "ratio");
  L("round.lsm.wa", EngineWa(r.whole), "ratio");
  for (const char* stage : {"pick", "read", "merge", "write", "install"}) {
    const std::string k = std::string("lsm.compaction_stage_s.") + stage;
    L(k, Get(p, k), "s");
  }
  L("lsm.write_stall_s", Get(p, "lsm.write_stall_s"), "s");
  L("lsm.max_parallel_compactions", r.max_parallel_compactions, "count");
  L("round.core.set_contiguity", contiguity, "ratio");
  L("round.core.compaction_extent_bytes", extent_bytes, "B");
  L("core.band_allocs", Get(p, "core.band_allocs"), "count");
  L("core.freelist_regions", r.freelist_regions, "count");
  L("core.guard_bytes", r.guard_bytes, "B");
  const double hits = Get(p, "buf.hits"), misses = Get(p, "buf.misses");
  L("buf.hits", hits, "count");
  L("buf.misses", misses, "count");
  L("buf.hit_ratio", Ratio(hits, hits + misses), "ratio");
  L("buf.optimistic_hit_share", Ratio(Get(p, "buf.optimistic_hits"), hits),
    "ratio");
  L("buf.evictions", Get(p, "buf.evictions"), "count");
  L("fs.extents_per_table", r.extents_per_table, "ratio");
  L("fs.read_bytes_per_op", Ratio(Get(p, "smr.logical_bytes_read"), ops), "B");
  const double busy = Get(p, "smr.busy_s"), pos = Get(p, "smr.position_s");
  L("smr.busy_s", busy, "s");
  L("smr.position_s", pos, "s");
  L("smr.transfer_s", busy - pos, "s");
  L("smr.seeks", Get(p, "smr.seeks"), "count");
  L("smr.ops.read", Get(p, "smr.ops.read"), "count");
  L("smr.ops.write", Get(p, "smr.ops.write"), "count");
  L("smr.physical_bytes_written", Get(p, "smr.physical_bytes_written"), "B");
  L("round.smr.awa",
    Ratio(Get(r.whole, "smr.physical_bytes_written"),
          Get(r.whole, "smr.logical_bytes_written")),
    "ratio");
  L("round.smr.guard_violations", Get(r.whole, "smr.guard_violations"),
    "count");
  for (const MetricValue& m : r.extra) L(m.name, m.value, m.unit.c_str(), m.samples);
  L("obs.trace_overhead", overhead, "ratio");
  size_t span_count = 0;
  for (const SpanLog* log : logs) span_count += log->spans().size();
  L("obs.spans", static_cast<double>(span_count), "count");
}

}  // namespace

Dataset Dataset::Make(uint64_t load_bytes, uint64_t seed) {
  Dataset ds;
  ds.entries = load_bytes / (kKeyBytes + kValueBytes);
  Random rnd(SubSeed(seed, 1));
  ds.order.resize(ds.entries);
  ds.last.assign(ds.entries, kAbsent);
  for (uint64_t i = 0; i < ds.entries; i++) {
    const uint32_t id = static_cast<uint32_t>(rnd.Next64() % ds.entries);
    ds.order[i] = id;
    ds.last[id] = static_cast<uint32_t>(i);
  }
  for (uint64_t id = 0; id < ds.entries; id++) {
    if (ds.last[id] != kAbsent) ds.loaded.push_back(static_cast<uint32_t>(id));
  }
  return ds;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const WorkloadDef& w : kWorkloads) v.push_back(w.name);
    return v;
  }();
  return names;
}

bool RunWorkload(const RunOptions& opt, Checker* checker, Report* report) {
  const WorkloadDef* w = nullptr;
  for (const WorkloadDef& d : kWorkloads) {
    if (opt.workload == d.name) w = &d;
  }
  if (w == nullptr) return false;
  const int rounds = std::max(
      1, static_cast<int>(std::lround(opt.seconds / w->round_seconds)));
  const double window_s = opt.seconds / rounds;
  report->Info("rounds", opt.trace ? "2" : std::to_string(rounds));

  if (opt.trace) {
    // One untraced and one traced round of the same inputs; the untraced
    // one is the baseline of the tracing overhead.
    const uint64_t round_seed = RoundSeed(opt.seed, 0);
    const Dataset ds = Dataset::Make(w->load_bytes, round_seed);
    Round base = RunRound(*w, ds, round_seed, window_s, false, true, checker);
    if (!base.ok) return false;
    Round traced = RunRound(*w, ds, round_seed, window_s, true, false, checker);
    if (!traced.ok) return false;
    EmitLayers(base, traced, opt, report);
    RunLayerTimings(ds, round_seed, report);
    return true;
  }
  Totals totals;
  const uint64_t start = NowNs();
  for (int i = 0; i < rounds; i++) {
    if ((NowNs() - start) / 1e9 > kMaxRunWallSeconds) {
      std::fprintf(stderr, "stopping after %d of %d rounds: over %.0f s\n", i,
                   rounds, kMaxRunWallSeconds);
      checker->Record(false, "run did not finish its rounds in time");
      break;
    }
    const uint64_t round_seed = RoundSeed(opt.seed, i);
    const Dataset ds = Dataset::Make(w->load_bytes, round_seed);
    Round r = RunRound(*w, ds, round_seed, window_s, false, i == 0, checker);
    if (!r.ok) return false;
    // Hand the dead stack's free pages back, so peak_rss_mb measures one
    // round's stack rather than how the allocator fragmented over rounds.
    malloc_trim(0);
    // On a copy: the windows index the samples in the order they were taken.
    std::vector<uint32_t> sorted = r.latency_ns;
    const LatencySummary lat = Summarize(&sorted);
    std::vector<uint32_t>().swap(sorted);
    std::fprintf(stderr,
                 "round %d/%d: set-up %.3f s, %llu ops in %.3f s, %.0f ops/s, "
                 "p50 %.3f p99 %.3f p999 %.3f us, %.4f device-s\n",
                 i + 1, rounds, r.setup_s,
                 static_cast<unsigned long long>(r.ops), r.measure_s,
                 Ratio(r.ops, r.measure_s), lat.p50_us, lat.p99_us,
                 lat.p999_us, Get(r.phase, "smr.busy_s"));
    totals.Add(&r);
  }
  EmitEndToEnd(totals, checker, report);
  return true;
}

}  // namespace perfbench
