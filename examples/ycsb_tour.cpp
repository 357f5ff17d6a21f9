// ycsb_tour: run the YCSB core workloads against any of the three systems
// from the paper and print a small report — a minimal version of the
// Fig. 9 harness meant for interactive exploration.
//
//   ./ycsb_tour [sealdb|leveldb|smrdb] [records] [ops]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "baselines/presets.h"
#include "ycsb/runner.h"

using namespace sealdb;

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "sealdb";
  const uint64_t records = argc > 2 ? strtoull(argv[2], nullptr, 10) : 50000;
  const uint64_t ops = argc > 3 ? strtoull(argv[3], nullptr, 10) : 10000;

  baselines::SystemKind kind;
  if (which == "leveldb") {
    kind = baselines::SystemKind::kLevelDB;
  } else if (which == "smrdb") {
    kind = baselines::SystemKind::kSMRDB;
  } else if (which == "sealdb") {
    kind = baselines::SystemKind::kSEALDB;
  } else {
    std::fprintf(stderr, "usage: %s [sealdb|leveldb|smrdb] [records] [ops]\n",
                 argv[0]);
    return 2;
  }

  // Paper-ratio stack scaled 1/16 (256 KB SSTables, 2.5 MB bands, 256 B
  // values) so the tour runs in seconds.
  baselines::StackConfig config;
  config.kind = kind;
  config = config.Scaled(16);
  config.capacity_bytes =
      std::max<uint64_t>(config.capacity_bytes, records * 280 * 4);

  std::unique_ptr<baselines::Stack> stack;
  Status s = baselines::BuildStack(config, "/ycsb", &stack);
  if (!s.ok()) {
    std::fprintf(stderr, "build: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("system: %s, %llu records, %llu ops per workload\n",
              baselines::SystemName(kind), (unsigned long long)records,
              (unsigned long long)ops);

  constexpr size_t kValueBytes = 4096 / 16;
  ycsb::Runner runner(stack.get(), 16, kValueBytes);
  ycsb::RunResult load;
  s = runner.Load(records, &load);
  if (!s.ok()) {
    std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("%-8s %12.0f ops/s (device time %.2f s)\n", "Load",
              load.ops_per_second(), load.device_seconds);

  for (const char* name : {"A", "B", "C", "D", "E", "F"}) {
    ycsb::RunResult r;
    const uint64_t n = std::strcmp(name, "E") == 0 ? ops / 10 : ops;
    s = runner.Run(ycsb::WorkloadSpec::ByName(name), records, n, &r);
    if (!s.ok()) {
      std::fprintf(stderr, "workload %s: %s\n", name, s.ToString().c_str());
      return 1;
    }
    std::printf("%-8s %12.0f ops/s (reads %llu, updates %llu, inserts %llu, "
                "scans %llu, rmw %llu)\n",
                name, r.ops_per_second(), (unsigned long long)r.reads,
                (unsigned long long)r.updates, (unsigned long long)r.inserts,
                (unsigned long long)r.scans, (unsigned long long)r.rmws);
  }

  std::printf("\nWA %.2f x AWA %.2f = MWA %.2f\n", stack->wa(), stack->awa(),
              stack->mwa());
  return 0;
}
