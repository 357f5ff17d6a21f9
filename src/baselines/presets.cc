#include "baselines/presets.h"

#include <algorithm>

#include "core/shard_layout.h"
#include "lsm/engine_metrics.h"
#include "lsm/sharded_db.h"

namespace sealdb::baselines {

const char* SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kLevelDB:
      return "LevelDB";
    case SystemKind::kLevelDBOnHdd:
      return "LevelDB-HDD";
    case SystemKind::kLevelDBWithSets:
      return "LevelDB+sets";
    case SystemKind::kSMRDB:
      return "SMRDB";
    case SystemKind::kSEALDB:
      return "SEALDB";
  }
  return "unknown";
}

StackConfig StackConfig::Scaled(uint64_t factor) const {
  StackConfig c = *this;
  if (factor <= 1) return c;
  c.capacity_bytes /= factor;
  c.band_bytes /= factor;
  c.sstable_bytes /= factor;
  c.write_buffer_bytes /= factor;
  if (buffer_pool_bytes > 0) {
    c.buffer_pool_bytes = std::max<uint64_t>(256 << 10,
                                             buffer_pool_bytes / factor);
  }
  c.track_bytes = static_cast<uint32_t>(
      std::max<uint64_t>(4096, track_bytes / factor));
  c.conventional_bytes = std::max<uint64_t>(4ull << 20,
                                            conventional_bytes / factor);
  c.time_scale = time_scale * factor;
  return c;
}

namespace {

// Bloom filter bits per key, for every system (the paper's LevelDB default).
constexpr int kBloomBitsPerKey = 10;

smr::Geometry MakeGeometry(const StackConfig& config) {
  smr::Geometry geo;
  geo.capacity_bytes = config.capacity_bytes;
  geo.block_bytes = 4096;
  geo.track_bytes = config.track_bytes;
  geo.shingle_overlap_tracks = config.shingle_overlap_tracks;
  geo.conventional_bytes = config.conventional_bytes;
  return geo;
}

Options MakeOptions(const StackConfig& config, const FilterPolicy* filter,
                    std::shared_ptr<obs::MetricsRegistry> registry) {
  Options opt;
  // Always allocate the external-memory counter so a serving layer built
  // on top of the stack (src/server) can account its connection buffers
  // into "sealdb.approximate-memory-usage" without reopening the DB.
  opt.external_memory_bytes = std::make_shared<std::atomic<uint64_t>>(0);
  // One registry for the whole stack: engine, drive, allocator, and any
  // server in front all publish into it, and Reopen() reuses it so the
  // counters keep accumulating across restarts.
  opt.metrics_registry = std::move(registry);
  opt.write_buffer_size = config.write_buffer_bytes;
  opt.max_file_size = config.sstable_bytes;
  opt.filter_policy = filter;
  // Per-system executor width: set/band designs have naturally disjoint
  // compaction units, so they profit most from extra workers. Inline
  // compactions are the zero-worker case.
  if (config.inline_compactions) {
    opt.max_background_compactions = 0;
  } else if (config.max_background_compactions > 0) {
    opt.max_background_compactions = config.max_background_compactions;
  } else {
    opt.max_background_compactions =
        (config.kind == SystemKind::kSEALDB ||
         config.kind == SystemKind::kSMRDB)
            ? 4
            : 2;
  }
  opt.max_bytes_for_level_base = 10 * config.sstable_bytes;
  if (config.level0_slowdown_writes_trigger > 0) {
    opt.level0_slowdown_writes_trigger = config.level0_slowdown_writes_trigger;
  }
  if (config.level0_stop_writes_trigger > 0) {
    opt.level0_stop_writes_trigger = config.level0_stop_writes_trigger;
  }

  switch (config.kind) {
    case SystemKind::kLevelDB:
    case SystemKind::kLevelDBOnHdd:
      break;  // stock configuration
    case SystemKind::kLevelDBWithSets:
    case SystemKind::kSEALDB:
      opt.compaction_unit = CompactionUnit::kSet;
      break;
    case SystemKind::kSMRDB:
      opt.num_levels = 2;
      opt.allow_overlap_last_level = true;
      // SMRDB enlarges SSTables to the band size (40 MB at full scale),
      // with headroom so a finished table (builders overshoot by a block
      // or two) still fits one band exactly.
      opt.max_file_size = config.band_bytes - config.band_bytes / 16;
      opt.max_bytes_for_level_base = 10 * config.band_bytes;
      break;
  }
  return opt;
}

std::unique_ptr<smr::Drive> MakeDrive(
    const StackConfig& config,
    const std::shared_ptr<obs::MetricsRegistry>& registry) {
  const smr::Geometry geo = MakeGeometry(config);
  const smr::LatencyParams hdd =
      smr::LatencyParams::Hdd().TimeScaled(config.time_scale);
  const smr::LatencyParams smr_params =
      smr::LatencyParams::Smr().TimeScaled(config.time_scale);
  switch (config.kind) {
    case SystemKind::kLevelDBOnHdd:
      return smr::NewHddDrive(geo, hdd, registry);
    case SystemKind::kLevelDB:
    case SystemKind::kLevelDBWithSets:
    case SystemKind::kSMRDB: {
      smr::FixedBandOptions fb;
      fb.band_bytes = config.band_bytes;
      return smr::NewFixedBandDrive(geo, smr_params, fb, registry);
    }
    case SystemKind::kSEALDB:
      return smr::NewShingledDisk(geo, smr_params, registry);
  }
  return nullptr;
}

// `base`/`limit` bound the managed shingled space (a shard's slice; for one
// shard, the whole post-conventional span of the seed layout);
// `shard_label` stamps the allocator's metric series when non-empty.
std::unique_ptr<fs::ExtentAllocator> MakeAllocator(
    const StackConfig& config, const smr::Geometry& geo,
    core::DynamicBandAllocator** dyn_out,
    const std::shared_ptr<obs::MetricsRegistry>& registry, uint64_t base,
    uint64_t limit, const std::string& shard_label) {
  *dyn_out = nullptr;
  const uint64_t size = limit - base;
  switch (config.kind) {
    case SystemKind::kLevelDB:
    case SystemKind::kLevelDBOnHdd:
    case SystemKind::kLevelDBWithSets: {
      fs::Ext4Options opt;
      // Keep roughly 64 block groups at any scale so placement scatters
      // like ext4 on a large partition.
      opt.block_group_bytes = std::max<uint64_t>(
          8ull << 20, config.capacity_bytes / 64);
      return fs::NewExt4Allocator(base, size, geo.block_bytes, opt);
    }
    case SystemKind::kSMRDB:
      return fs::NewBandAlignedAllocator(base, size, config.band_bytes);
    case SystemKind::kSEALDB: {
      core::DynamicBandOptions opt;
      opt.base = base;
      opt.limit = limit;
      opt.track_bytes = geo.track_bytes;
      opt.guard_bytes = geo.guard_bytes();
      opt.class_unit = config.sstable_bytes;
      opt.metrics_registry = registry;
      opt.metrics_shard_label = shard_label;
      auto alloc = std::make_unique<core::DynamicBandAllocator>(opt);
      *dyn_out = alloc.get();
      return alloc;
    }
  }
  return nullptr;
}

}  // namespace

Stack::~Stack() {
  // The scrub thread reads through the DB and stores, so it stops first;
  // then DB closes before the stores, the stores before the drive. Member
  // declaration order already guarantees this (unique_ptrs destroyed in
  // reverse order), the explicit resets just make it obvious.
  scrub_.reset();
  db_.reset();
  stores_.clear();
}

double Stack::wa() const {
  const obs::MetricsRegistry& r = *metrics_registry();
  return EngineMetrics::Wa(
      r.counter_family_sum("sealdb_engine_user_bytes_total"),
      r.counter_family_sum("sealdb_engine_flush_bytes_total"),
      r.counter_family_sum("sealdb_engine_compaction_bytes_total",
                           {{"dir", "write"}}));
}

double Stack::awa() const {
  const obs::MetricsRegistry& r = *metrics_registry();
  return smr::DeviceMetrics::Awa(
      r.counter_family_sum("sealdb_device_logical_bytes_total",
                           {{"dir", "write"}}),
      r.counter_family_sum("sealdb_device_physical_bytes_total",
                           {{"dir", "write"}}));
}

Status Stack::OpenEngines(bool format) {
  const smr::Geometry geo = MakeGeometry(config_);
  const int shards = std::max(1, config_.num_shards);
  if (shards > 1 && config_.kind != SystemKind::kSEALDB) {
    return Status::InvalidArgument(
        "num_shards > 1 is only supported by the SEALDB stack");
  }
  const core::ShardLayout layout(geo, shards, geo.track_bytes);
  Status s = format ? layout.WriteSuperblock(drive_.get())
                    : layout.VerifySuperblock(drive_.get());
  if (!s.ok()) return s;

  // ONE buffer pool for the whole stack: every shard column caches into
  // the same frames, so the read-cache budget is a process-wide resource
  // and an idle shard's share isn't stranded. Created once; Reopen()
  // reuses it (each engine's pool client purges its pages when the engine
  // closes, so a reopened engine's file numbers never alias them).
  if (buffer_pool_ == nullptr && config_.buffer_pool_bytes > 0) {
    buf::BufferPool::Config pool_config;
    pool_config.capacity_bytes = config_.buffer_pool_bytes;
    pool_config.metrics_registry = options_.metrics_registry;
    buffer_pool_ = std::make_unique<buf::BufferPool>(pool_config);
  }
  options_.buffer_pool = buffer_pool_.get();

  dyn_alloc_ = nullptr;
  std::vector<std::unique_ptr<DB>> dbs;
  for (int i = 0; i < shards; i++) {
    const core::ShardRegion& rg = layout.region(i);
    const std::string label = layout.label(i);
    core::DynamicBandAllocator* dyn = nullptr;
    auto alloc =
        MakeAllocator(config_, geo, &dyn, options_.metrics_registry,
                      rg.data_base, rg.data_limit, label);
    if (i == 0) dyn_alloc_ = dyn;
    auto store = std::make_unique<fs::FileStore>(drive_.get(), alloc.get(),
                                                 rg.conv_base, rg.conv_len);
    store->SetMetrics(options_.metrics_registry, label);
    s = format ? store->Format() : store->Recover();
    if (!s.ok()) return s;

    Options shard_opt = options_;
    shard_opt.metrics_shard_label = label;
    // The read cache is NOT split: every shard uses the one shared pool
    // above. The executor stays a per-engine resource, so N full-size
    // copies would change the stack's footprint, not just its
    // partitioning. Inline stacks stay inline.
    if (options_.max_background_compactions > 0) {
      shard_opt.max_background_compactions =
          std::max(1, options_.max_background_compactions / shards);
    }
    // Only shard 0 folds the shared external counter into its memory
    // property; ShardedDb sums the shards, and N copies would count the
    // server's buffers N times.
    if (i != 0) shard_opt.external_memory_bytes = nullptr;
    DB* db = nullptr;
    s = DB::Open(shard_opt, dbname_, store.get(), &db);
    if (!s.ok()) return s;
    dbs.emplace_back(db);
    allocators_.push_back(std::move(alloc));
    stores_.push_back(std::move(store));
  }
  db_ = std::make_unique<ShardedDb>(std::move(dbs), options_.comparator,
                                    options_.metrics_registry);

  if (config_.scrub_enabled) {
    std::vector<fs::ScrubScheduler::Target> targets;
    for (int i = 0; i < shards; i++) {
      fs::ScrubScheduler::Target t;
      t.store = stores_[i].get();
      // Quarantine dispatch goes to the column whose table numbers the
      // damaged file names decode to.
      t.db = db_->shard(i);
      t.shard = i;
      t.label = layout.label(i);
      targets.push_back(std::move(t));
    }
    fs::ScrubOptions sopt;
    sopt.rate_bytes_per_sec = config_.scrub_rate_bytes_per_sec;
    sopt.degrade_bad_blocks = config_.scrub_degrade_bad_blocks;
    scrub_ = std::make_unique<fs::ScrubScheduler>(
        std::move(targets), sopt, options_.metrics_registry,
        [this](int shard, const std::string& reason) {
          db_->DegradeShard(shard, reason);
        });
    scrub_->Start();
  }
  return Status::OK();
}

Status Stack::Reopen(int num_shards) {
  scrub_.reset();  // joins the scrub thread before its stores/DB die
  db_.reset();
  stores_.clear();
  allocators_.clear();

  // Power is restored only after the old stack is fully torn down, so any
  // destructor-time flushes above hit the dead drive and fail — exactly the
  // crash semantics the recovery tests rely on.
  if (fault_ != nullptr) fault_->ClearCrash();

  if (num_shards != 0) config_.num_shards = num_shards;
  return OpenEngines(/*format=*/false);
}

Status BuildStack(const StackConfig& config, const std::string& name,
                  std::unique_ptr<Stack>* out) {
  auto stack = std::make_unique<Stack>();
  stack->config_ = config;
  stack->dbname_ = name;
  stack->filter_.reset(NewBloomFilterPolicy(kBloomBitsPerKey));
  auto registry = std::make_shared<obs::MetricsRegistry>();
  stack->options_ = MakeOptions(config, stack->filter_.get(), registry);

  stack->drive_ = MakeDrive(config, registry);
  if (stack->drive_ == nullptr) {
    return Status::InvalidArgument("unknown system kind");
  }
  if (config.fault_injection) {
    auto fault =
        std::make_unique<smr::FaultInjectionDrive>(std::move(stack->drive_));
    stack->fault_ = fault.get();
    stack->drive_ = std::move(fault);
  }
  Status s = stack->OpenEngines(/*format=*/true);
  if (!s.ok()) return s;
  *out = std::move(stack);
  return Status::OK();
}

}  // namespace sealdb::baselines
