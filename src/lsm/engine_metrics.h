// EngineMetrics: the LSM engine's accounting, as registry metrics.
//
// The counters live in a MetricsRegistry (Options::metrics_registry, or a
// DB-private one) as the sealdb_engine_* family. They are the engine's only
// books: readers query the registry (family sums across shards), and the
// METRICS opcode renders it.
#pragma once

#include <algorithm>
#include <memory>
#include <string>

#include "obs/metrics.h"

namespace sealdb {

class EngineMetrics {
 public:
  // A non-empty `shard_label` stamps {shard=<label>} on every
  // sealdb_engine_* series this instance registers, so N shard engines
  // sharing one registry publish disjoint per-shard series (sum or max over
  // the family with MetricsRegistry::*_family_* for totals). Empty keeps
  // the one-shard, label-free exposition.
  explicit EngineMetrics(std::shared_ptr<obs::MetricsRegistry> registry,
                         const std::string& shard_label = "");
  ~EngineMetrics();

  obs::Counter* user_bytes;   // key+value payload from the client
  obs::Counter* wal_bytes;
  obs::Counter* flush_bytes;  // memtable -> L0 table bytes
  obs::Counter* flushes;
  obs::Counter* compaction_read_bytes;
  obs::Counter* compaction_write_bytes;
  obs::TimeCounter* compaction_device;  // simulated drive time

  // Per-stage compaction wall time, totalled across levels.
  obs::TimeCounter* pick_micros;
  obs::TimeCounter* read_micros;
  obs::TimeCounter* merge_micros;
  obs::TimeCounter* write_micros;
  obs::TimeCounter* install_micros;

  obs::Counter* stall_slowdowns;
  obs::Counter* stall_stops;
  obs::TimeCounter* stall_micros;

  obs::Gauge* max_parallel;  // HWM, via SetMax
  obs::Gauge* stall_level;   // live 0/1/2 (mirror of DB::WriteStallLevel)
  // 1 once a background error has latched the engine read-only (the
  // "sealdb.background-error" property has the message); 0 after open.
  obs::Gauge* background_error;

  // Per-output-level breakdown; levels >= kLevelSlots - 1 share the last
  // slot ("7+"). The unlabelled totals above are authoritative.
  obs::Counter* compactions_at(int level) {
    return compactions_[Slot(level)];
  }
  obs::TimeCounter* compaction_micros_at(int level) {
    return level_micros_[Slot(level)];
  }

  // The paper's WA over byte totals; 1.0 before any user write.
  static double Wa(uint64_t user, uint64_t flush, uint64_t compaction_write);

  const std::shared_ptr<obs::MetricsRegistry>& registry() const {
    return registry_;
  }

 private:
  static constexpr int kLevelSlots = 8;
  static int Slot(int level) {
    return std::clamp(level, 0, kLevelSlots - 1);
  }

  std::shared_ptr<obs::MetricsRegistry> registry_;
  obs::Counter* compactions_[kLevelSlots];
  obs::TimeCounter* level_micros_[kLevelSlots];
  size_t wa_hook_id_ = 0;
};

}  // namespace sealdb
