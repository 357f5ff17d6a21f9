// Table II — raw device performance of the emulated drives, reproduced
// with google-benchmark. Each benchmark drives the latency model directly
// and reports throughput in *simulated* device time (manual timing), which
// is the quantity the paper's table reports:
//
//                         HDD     SMR
//   Sequence read (MB/s)  169     165
//   Sequence write (MB/s) 155     148
//   Random read 4KB IOPS   64      70
//   Random write 4KB IOPS 143    5-140
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "smr/drive.h"

using namespace sealdb::smr;

namespace {

constexpr uint64_t kSpan = 1ull << 40;  // 1 TB address space

LatencyParams ParamsFor(const std::string& which) {
  return which == "HDD" ? LatencyParams::Hdd() : LatencyParams::Smr();
}

void SequentialTransfer(benchmark::State& state, const std::string& device,
                        bool is_write) {
  LatencyModel model(ParamsFor(device), kSpan);
  const uint64_t chunk = 1 << 20;
  uint64_t offset = 0;
  for (auto _ : state) {
    const double seconds = model.Access(offset, chunk, is_write).total;
    offset += chunk;
    if (offset + chunk > kSpan) offset = 0;
    state.SetIterationTime(seconds);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * chunk);
}

void RandomAccess4K(benchmark::State& state, const std::string& device,
                    bool is_write) {
  LatencyModel model(ParamsFor(device), kSpan);
  uint64_t pos = 88172645463325252ull;
  for (auto _ : state) {
    // xorshift over the whole span, 4 KB aligned
    pos ^= pos << 13;
    pos ^= pos >> 7;
    pos ^= pos << 17;
    const uint64_t offset = (pos % (kSpan - 4096)) / 4096 * 4096;
    const double seconds = model.Access(offset, 4096, is_write).total;
    state.SetIterationTime(seconds);
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

BENCHMARK_CAPTURE(SequentialTransfer, HDD_seq_read, "HDD", false)
    ->UseManualTime()->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(SequentialTransfer, HDD_seq_write, "HDD", true)
    ->UseManualTime()->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(SequentialTransfer, SMR_seq_read, "SMR", false)
    ->UseManualTime()->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(SequentialTransfer, SMR_seq_write, "SMR", true)
    ->UseManualTime()->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(RandomAccess4K, HDD_rand_read_4K, "HDD", false)
    ->UseManualTime()->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(RandomAccess4K, HDD_rand_write_4K, "HDD", true)
    ->UseManualTime()->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(RandomAccess4K, SMR_rand_read_4K, "SMR", false)
    ->UseManualTime()->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(RandomAccess4K, SMR_rand_write_4K, "SMR", true)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Also print the table in the paper's format for quick comparison.
  std::printf("\n=== Table II: raw device performance (simulated) ===\n");
  std::printf("%-28s %10s %10s   %s\n", "metric", "HDD", "SMR", "paper");
  // Sequential: stream 256 MB.
  for (bool is_write : {false, true}) {
    double vals[2];
    int i = 0;
    for (const char* dev : {"HDD", "SMR"}) {
      LatencyModel m(ParamsFor(dev), kSpan);
      double t = 0;
      for (uint64_t off = 0; off < (256ull << 20); off += 1 << 20) {
        t += m.Access(off, 1 << 20, is_write).total;
      }
      vals[i++] = 256.0 * 1048576.0 / 1e6 / t;  // decimal MB/s
    }
    std::printf("%-28s %10.0f %10.0f   %s\n",
                is_write ? "Sequence write (MB/s)" : "Sequence read (MB/s)",
                vals[0], vals[1], is_write ? "155 / 148" : "169 / 165");
  }
  // Random 4K IOPS.
  for (bool is_write : {false, true}) {
    double vals[2];
    int i = 0;
    for (const char* dev : {"HDD", "SMR"}) {
      LatencyModel m(ParamsFor(dev), kSpan);
      double t = 0;
      uint64_t pos = 12345;
      const int kOps = 3000;
      for (int op = 0; op < kOps; op++) {
        pos = pos * 6364136223846793005ull + 1442695040888963407ull;
        const uint64_t offset = (pos % (kSpan - 4096)) / 4096 * 4096;
        t += m.Access(offset, 4096, is_write).total;
      }
      vals[i++] = kOps / t;
    }
    std::printf("%-28s %10.0f %10.0f   %s\n",
                is_write ? "Random write 4KB (IOPS)"
                         : "Random read 4KB (IOPS)",
                vals[0], vals[1], is_write ? "143 / 5-140" : "64 / 70");
  }
  benchmark::Shutdown();
  return 0;
}
