#include "lsm/engine_metrics.h"

namespace sealdb {

EngineMetrics::EngineMetrics(std::shared_ptr<obs::MetricsRegistry> registry,
                             const std::string& shard_label)
    : registry_(registry != nullptr
                    ? std::move(registry)
                    : std::make_shared<obs::MetricsRegistry>()) {
  obs::MetricsRegistry& r = *registry_;
  // Stamp the shard label (if any) on every label set so shard engines
  // sharing one registry never alias each other's series.
  auto L = [&shard_label](obs::Labels labels = {}) {
    if (!shard_label.empty()) labels.emplace_back("shard", shard_label);
    return labels;
  };
  user_bytes = r.RegisterCounter("sealdb_engine_user_bytes_total",
                                 "Key+value payload accepted from clients",
                                 L());
  wal_bytes = r.RegisterCounter("sealdb_engine_wal_bytes_total",
                                "Bytes appended to the write-ahead log", L());
  write_groups = r.RegisterCounter(
      "sealdb_engine_write_groups_total",
      "Write groups committed: one WAL record per group of writers", L());
  flush_bytes = r.RegisterCounter("sealdb_engine_flush_bytes_total",
                                  "Memtable flush output (L0 table bytes)",
                                  L());
  flushes = r.RegisterCounter("sealdb_engine_flushes_total",
                              "Memtable flushes completed", L());
  compaction_read_bytes = r.RegisterCounter(
      "sealdb_engine_compaction_bytes_total", "Compaction traffic by direction",
      L({{"dir", "read"}}));
  compaction_write_bytes = r.RegisterCounter(
      "sealdb_engine_compaction_bytes_total", "Compaction traffic by direction",
      L({{"dir", "write"}}));

  const char* stage_help = "Compaction wall time by stage";
  pick_time = r.RegisterTimeCounter(
      "sealdb_engine_compaction_stage_seconds_total", stage_help,
      L({{"stage", "pick"}}));
  read_time = r.RegisterTimeCounter(
      "sealdb_engine_compaction_stage_seconds_total", stage_help,
      L({{"stage", "read"}}));
  merge_time = r.RegisterTimeCounter(
      "sealdb_engine_compaction_stage_seconds_total", stage_help,
      L({{"stage", "merge"}}));
  write_time = r.RegisterTimeCounter(
      "sealdb_engine_compaction_stage_seconds_total", stage_help,
      L({{"stage", "write"}}));
  install_time = r.RegisterTimeCounter(
      "sealdb_engine_compaction_stage_seconds_total", stage_help,
      L({{"stage", "install"}}));

  stall_slowdowns = r.RegisterCounter(
      "sealdb_engine_write_stall_events_total",
      "Writes that hit the L0 slowdown/stop triggers",
      L({{"kind", "slowdown"}}));
  stall_stops = r.RegisterCounter(
      "sealdb_engine_write_stall_events_total",
      "Writes that hit the L0 slowdown/stop triggers", L({{"kind", "stop"}}));
  stall_time = r.RegisterTimeCounter(
      "sealdb_engine_write_stall_seconds_total",
      "Wall time writers spent parked in MakeRoomForWrite", L());

  max_parallel = r.RegisterGauge(
      "sealdb_engine_max_parallel_compactions",
      "High-water mark of concurrently executing compactions", L());
  stall_level = r.RegisterGauge(
      "sealdb_engine_stall_level",
      "Live write-stall state: 0 none, 1 slowdown, 2 stop", L());
  background_error = r.RegisterGauge(
      "sealdb_engine_background_error",
      "1 once a background error has latched the engine read-only", L());
  background_error->Set(0);  // a reopened engine starts healthy

  for (int slot = 0; slot < kLevelSlots; slot++) {
    std::string level = std::to_string(slot);
    if (slot == kLevelSlots - 1) level += "+";
    compactions_[slot] = r.RegisterCounter(
        "sealdb_engine_compactions_total",
        "Compactions by output level (trivial moves included)",
        L({{"level", level}}));
    level_time_[slot] = r.RegisterTimeCounter(
        "sealdb_engine_compaction_seconds_total",
        "Compaction wall time by output level", L({{"level", level}}));
  }

  // WA is derived; refresh on snapshot. The hook captures only
  // registry-owned counters, so it may outlive this EngineMetrics — but
  // remove it anyway in the destructor to keep hook growth bounded when
  // a DB inside one stack is closed and reopened many times.
  obs::Gauge* wa = r.RegisterGauge(
      "sealdb_engine_write_amplification",
      "(flush + compaction write bytes) / user bytes (the paper's WA)", L());
  obs::Counter* u = user_bytes;
  obs::Counter* f = flush_bytes;
  obs::Counter* c = compaction_write_bytes;
  wa_hook_id_ = r.AddCollectHook(
      [wa, u, f, c] { wa->Set(Wa(u->Value(), f->Value(), c->Value())); });
}

EngineMetrics::~EngineMetrics() {
  registry_->RemoveCollectHook(wa_hook_id_);
}

double EngineMetrics::Wa(uint64_t user, uint64_t flush,
                         uint64_t compaction_write) {
  return user == 0 ? 1.0
                   : static_cast<double>(flush + compaction_write) /
                         static_cast<double>(user);
}

}  // namespace sealdb
