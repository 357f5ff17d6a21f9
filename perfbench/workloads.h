// The benchmark's workloads (see README.md for why each exists) and the
// per-layer micro-timings of the traced mode.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  // traced mode: where the span log is written
};

// The inputs one seed generates: `order` lists the ids put by a load, in
// put order, and a put's version is its index in `order`. A random-order
// load repeats some ids and misses others, so reads draw only from `loaded`.
struct Dataset {
  static constexpr uint32_t kAbsent = 0xFFFFFFFFu;

  uint64_t entries = 0;         // id space [0, entries)
  std::vector<uint32_t> order;  // ids in put order
  std::vector<uint32_t> last;   // final version per id, kAbsent if never put
  std::vector<uint32_t> loaded; // ids put at least once, ascending

  static Dataset Make(uint64_t load_bytes, uint64_t seed);
  uint64_t live_user_bytes() const {
    return loaded.size() * (kKeyBytes + kValueBytes);
  }
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload and fills `report` with its metrics (end-to-end
// untraced, per-layer traced). Every checked outcome goes to `checker`.
// Returns false when the workload is unknown or could not be set up.
bool RunWorkload(const RunOptions& options, Checker* checker, Report* report);

// ns per call of single public functions of each layer, on inputs drawn
// from `dataset` (google-benchmark).
void RunLayerTimings(const Dataset& dataset, uint64_t seed, Report* report);

}  // namespace perfbench
