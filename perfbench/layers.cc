// Traced mode only: ns per call of single public functions, one per layer,
// on inputs drawn from the running workload's dataset. Each result lands in
// the report under its layer's name.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baselines/presets.h"
#include "buf/buffer_pool.h"
#include "core/dynamic_band_allocator.h"
#include "core/shard_layout.h"
#include "lsm/dbformat.h"
#include "lsm/memtable.h"
#include "net/seal_client.h"
#include "net/wire.h"
#include "server/seal_server.h"
#include "smr/latency_model.h"
#include "util/comparator.h"
#include "util/crc32c.h"
#include "util/filter_policy.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sealdb::Slice;

constexpr double kMinTimeSeconds = 0.05;
constexpr size_t kInputs = 4096;  // distinct inputs cycled per benchmark
constexpr uint64_t kScale = 16;

class CaptureReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context&) override { return true; }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      results.emplace_back(run.run_name.function_name,
                           run.GetAdjustedRealTime());
    }
  }
  std::vector<std::pair<std::string, double>> results;
};

void DeleteString(void* p) { delete static_cast<std::string*>(p); }

}  // namespace

void RunLayerTimings(const Dataset& ds, uint64_t seed, Report* report) {
  // Inputs: the workload's first puts, as keys, values and records.
  std::vector<uint64_t> ids;
  std::vector<std::string> keys, values;
  for (size_t i = 0; i < kInputs && i < ds.order.size(); i++) {
    ids.push_back(ds.order[i]);
    keys.push_back(KeyOf(ds.order[i]));
    values.emplace_back();
    ValueOf(ds.order[i], i, &values.back());
  }
  const size_t n = ids.size();
  auto reg = [](const char* name, auto&& fn) {
    benchmark::RegisterBenchmark(name, fn)->MinTime(kMinTimeSeconds);
  };

  // lsm: one skiplist insert per call into a memtable that is replaced
  // every kInputs inserts.
  reg("lsm.memtable_add_ns", [&](benchmark::State& st) {
    const sealdb::InternalKeyComparator cmp(sealdb::BytewiseComparator());
    sealdb::MemTable* mem = nullptr;
    uint64_t seq = 0;
    for (auto _ : st) {
      if (seq % n == 0) {
        st.PauseTiming();
        if (mem != nullptr) mem->Unref();
        mem = new sealdb::MemTable(cmp);
        mem->Ref();
        st.ResumeTiming();
      }
      const size_t i = seq % n;
      mem->Add(++seq, sealdb::kTypeValue, keys[i], values[i]);
    }
    if (mem != nullptr) mem->Unref();
  });

  // lsm: a bloom probe; half the probe keys are in the filter.
  reg("lsm.bloom_probe_ns", [&](benchmark::State& st) {
    std::unique_ptr<const sealdb::FilterPolicy> policy(
        sealdb::NewBloomFilterPolicy(10));
    std::vector<Slice> in(keys.begin(), keys.begin() + n / 2);
    std::string filter;
    policy->CreateFilter(in.data(), static_cast<int>(in.size()), &filter);
    size_t i = 0;
    for (auto _ : st) {
      benchmark::DoNotOptimize(policy->KeyMayMatch(keys[i], filter));
      i = i + 1 == n ? 0 : i + 1;
    }
  });

  // lsm: crc32c of one 4 KiB block of workload values (the WAL and block
  // trailer checksum).
  reg("lsm.crc32c_4k_ns", [&](benchmark::State& st) {
    std::vector<std::string> blocks;
    for (size_t b = 0; b + 16 <= n; b += 16) {
      std::string block;
      for (size_t j = b; j < b + 16; j++) block += values[j];
      blocks.push_back(std::move(block));
    }
    size_t i = 0;
    for (auto _ : st) {
      benchmark::DoNotOptimize(
          sealdb::crc32c::Value(blocks[i].data(), blocks[i].size()));
      i = i + 1 == blocks.size() ? 0 : i + 1;
    }
  });

  // lsm: shard routing of a workload key over 4 shards.
  reg("lsm.shard_of_key_ns", [&](benchmark::State& st) {
    size_t i = 0;
    for (auto _ : st) {
      benchmark::DoNotOptimize(
          sealdb::core::ShardLayout::ShardOfKey(keys[i], 4));
      i = i + 1 == n ? 0 : i + 1;
    }
  });

  // buf: a Lookup that hits, pinning and unpinning a resident page.
  reg("buf.lookup_hit_ns", [&](benchmark::State& st) {
    sealdb::buf::BufferPool::Config config;
    config.capacity_bytes = 64u << 20;
    sealdb::buf::BufferPool pool(config);
    const sealdb::buf::BufferClient client = pool.RegisterClient("");
    constexpr uint64_t kPages = 1024;
    for (uint64_t p = 0; p < kPages; p++) {
      sealdb::buf::BufferPool::PageRef ref;
      pool.Insert(client, 1 + p % 8, (p / 8) * 4096,
                  sealdb::buf::BlockKind::kData, new std::string(values[p % n]),
                  4096, &DeleteString, &ref);
    }
    size_t i = 0;
    for (auto _ : st) {
      const uint64_t p = ids[i] % kPages;
      sealdb::buf::BufferPool::PageRef ref;
      benchmark::DoNotOptimize(pool.Lookup(client, 1 + p % 8, (p / 8) * 4096,
                                           sealdb::buf::BlockKind::kData,
                                           &ref));
      i = i + 1 == n ? 0 : i + 1;
    }
    pool.UnregisterClient(client);
  });

  // net: encode one PUT frame; decode one from a stream of them.
  std::vector<std::string> payloads(n);
  for (size_t i = 0; i < n; i++) {
    sealdb::net::EncodePutRequest(&payloads[i], keys[i], values[i]);
  }
  const auto kPut = static_cast<uint8_t>(sealdb::net::Op::kPut);
  reg("net.encode_frame_ns", [&](benchmark::State& st) {
    std::string frame;
    size_t i = 0;
    for (auto _ : st) {
      frame.clear();
      sealdb::net::EncodeFrame(&frame, kPut, i + 1, payloads[i], i + 1);
      benchmark::DoNotOptimize(frame.data());
      benchmark::ClobberMemory();
      i = i + 1 == n ? 0 : i + 1;
    }
  });
  reg("net.decode_frame_ns", [&](benchmark::State& st) {
    std::string stream;
    for (size_t i = 0; i < n; i++) {
      sealdb::net::EncodeFrame(&stream, kPut, i + 1, payloads[i], i + 1);
    }
    Slice input(stream);
    for (auto _ : st) {
      if (input.empty()) input = Slice(stream);
      sealdb::net::FrameHeader header;
      Slice payload;
      benchmark::DoNotOptimize(
          sealdb::net::DecodeFrame(&input, &header, &payload));
    }
  });

  // server: one Get round trip from a SealClient through a loopback
  // SealServer (wire, event loop, worker pool, engine) for a key held in
  // the memtable.
  reg("server.get_rtt_ns", [&](benchmark::State& st) {
    sealdb::baselines::StackConfig config;
    config = config.Scaled(kScale);
    std::unique_ptr<sealdb::baselines::Stack> stack;
    if (!sealdb::baselines::BuildStack(config, "/layers", &stack).ok()) {
      st.SkipWithError("BuildStack failed");
      return;
    }
    const size_t resident = std::min<size_t>(n, 256);
    for (size_t i = 0; i < resident; i++) {
      (void)stack->db()->Put(sealdb::WriteOptions(), keys[i], values[i]);
    }
    sealdb::server::ServerOptions options;
    options.trace_sample_every = 0;
    sealdb::server::SealServer server(stack->db(), stack.get(), options);
    sealdb::net::SealClient client;
    if (!server.Start().ok() ||
        !client.Connect("127.0.0.1", server.port()).ok()) {
      st.SkipWithError("loopback server failed");
      return;
    }
    std::string got;
    size_t i = 0;
    for (auto _ : st) {
      benchmark::DoNotOptimize(client.Get(keys[i], &got));
      i = i + 1 == resident ? 0 : i + 1;
    }
    client.Close();
    server.Stop();
  });

  // smr: the drive timing model for 4 KiB accesses at offsets spread by
  // the workload's ids, alternating reads and writes.
  reg("smr.access_ns", [&](benchmark::State& st) {
    const uint64_t capacity = 512ull << 20;
    sealdb::smr::LatencyModel model(
        sealdb::smr::LatencyParams::Smr().TimeScaled(kScale), capacity);
    size_t i = 0;
    for (auto _ : st) {
      const uint64_t offset = (ids[i] * 4096 * 37) % capacity;
      benchmark::DoNotOptimize(model.Access(offset, 4096, i & 1));
      i = i + 1 == n ? 0 : i + 1;
    }
  });

  // core: dynamic band allocation and release of SSTable-sized extents
  // (256 KiB plus 0-3 tracks), freed in an order drawn from the seed.
  sealdb::core::DynamicBandOptions band;
  band.base = 4ull << 20;
  band.limit = 1ull << 30;
  band.track_bytes = 64 << 10;
  band.guard_bytes = 4 * band.track_bytes;
  band.class_unit = 256 << 10;
  constexpr size_t kLive = 1024;
  auto extent_size = [&](size_t i) {
    return band.class_unit + (ids[i % n] % 4) * band.track_bytes;
  };
  auto shuffle = [&](std::vector<sealdb::fs::Extent>* v) {
    uint64_t state = Mix64(seed);
    for (size_t i = v->size(); i > 1; i--) {
      state = Mix64(state);
      std::swap((*v)[i - 1], (*v)[state % i]);
    }
  };
  reg("core.band_alloc_ns", [&](benchmark::State& st) {
    sealdb::core::DynamicBandAllocator alloc(band);
    std::vector<sealdb::fs::Extent> live;
    size_t i = 0;
    for (auto _ : st) {
      if (live.size() == kLive) {
        st.PauseTiming();
        shuffle(&live);
        for (const auto& e : live) (void)alloc.Free(e);
        live.clear();
        st.ResumeTiming();
      }
      sealdb::fs::Extent e;
      benchmark::DoNotOptimize(alloc.Allocate(extent_size(i++), &e));
      live.push_back(e);
    }
  });
  reg("core.band_free_ns", [&](benchmark::State& st) {
    sealdb::core::DynamicBandAllocator alloc(band);
    std::vector<sealdb::fs::Extent> live;
    size_t i = 0;
    for (auto _ : st) {
      if (live.empty()) {
        st.PauseTiming();
        for (size_t k = 0; k < kLive; k++) {
          sealdb::fs::Extent e;
          if (alloc.Allocate(extent_size(i++), &e).ok()) live.push_back(e);
        }
        shuffle(&live);
        st.ResumeTiming();
      }
      benchmark::DoNotOptimize(alloc.Free(live.back()));
      live.pop_back();
    }
  });

  CaptureReporter capture;
  benchmark::RunSpecifiedBenchmarks(&capture);
  benchmark::ClearRegisteredBenchmarks();
  for (const auto& [name, ns] : capture.results) {
    report->Metric(name, ns, "ns");
    report->Ledger(name, ns, "ns");
  }
}

}  // namespace perfbench
