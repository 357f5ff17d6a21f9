#include "lsm/sharded_db.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/shard_layout.h"
#include "lsm/merger.h"
#include "lsm/write_batch.h"

namespace sealdb {

// Composite of one per-shard snapshot; reads through it are consistent
// within each shard (cross-shard, the snapshots are taken in shard order).
struct ShardedDb::ShardedSnapshot : public Snapshot {
  ~ShardedSnapshot() override = default;
  std::vector<const Snapshot*> snaps;
};

namespace {

// Splits a batch's operations into one sub-batch per owning shard.
struct ShardSplitter : public WriteBatch::Handler {
  ShardSplitter(std::vector<WriteBatch>* batches, int n)
      : batches_(batches), n_(n) {}
  void Put(const Slice& key, const Slice& value) override {
    (*batches_)[core::ShardLayout::ShardOfKey(key, n_)].Put(key, value);
  }
  void Delete(const Slice& key) override {
    (*batches_)[core::ShardLayout::ShardOfKey(key, n_)].Delete(key);
  }
  std::vector<WriteBatch>* batches_;
  int n_;
};

}  // namespace

ShardedDb::ShardedDb(std::vector<std::unique_ptr<DB>> shards,
                     const Comparator* comparator,
                     std::shared_ptr<obs::MetricsRegistry> registry)
    : shards_(std::move(shards)),
      comparator_(comparator),
      registry_(std::move(registry)) {
  health_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); i++) {
    auto h = std::make_unique<ShardHealth>();
    h->gauge = registry_->RegisterGauge(
        "sealdb_shard_degraded",
        "1 when the shard has latched a persistent fault and returns "
        "kShardDegraded; other shards keep serving",
        {{"shard", std::to_string(i)}});
    h->gauge->Set(0);
    health_.push_back(std::move(h));
  }
}

ShardedDb::~ShardedDb() = default;

int ShardedDb::ShardOf(const Slice& user_key) const {
  return core::ShardLayout::ShardOfKey(user_key, num_shards());
}

void ShardedDb::DegradeShard(int shard, const std::string& reason) {
  ShardHealth* h = health_[shard].get();
  {
    std::lock_guard<std::mutex> l(h->mu);
    if (h->reason.empty()) h->reason = reason.empty() ? "forced" : reason;
  }
  bool was = false;
  if (h->degraded.compare_exchange_strong(was, true,
                                          std::memory_order_acq_rel)) {
    h->gauge->Set(1);
  }
}

int ShardedDb::DegradedShardCount() const {
  int n = 0;
  for (int i = 0; i < num_shards(); i++) n += IsShardDegraded(i) ? 1 : 0;
  return n;
}

Status ShardedDb::DegradedStatus(int shard) {
  ShardHealth* h = health_[shard].get();
  std::lock_guard<std::mutex> l(h->mu);
  return Status::ShardDegraded("shard " + std::to_string(shard), h->reason);
}

Status ShardedDb::MapShardStatus(int shard, Status s) {
  if (s.ok() || s.IsNotFound()) return s;
  ShardHealth* h = health_[shard].get();
  if (!h->degraded.load(std::memory_order_acquire)) {
    // The op failed: ask the engine whether it latched a background error
    // (the property renders the literal "OK" while healthy). Only a latched
    // engine fault degrades the shard — a one-off read error does not.
    std::string bg;
    if (shards_[shard]->GetProperty("sealdb.background-error", &bg) &&
        bg != "OK") {
      DegradeShard(shard, bg);
    }
  }
  if (h->degraded.load(std::memory_order_acquire) &&
      (s.IsIOError() || s.IsCorruption() || s.IsNoSpace())) {
    return DegradedStatus(shard);
  }
  return s;
}

Status ShardedDb::Put(const WriteOptions& options, const Slice& key,
                      const Slice& value) {
  const int shard = ShardOf(key);
  if (IsShardDegraded(shard)) return DegradedStatus(shard);
  return MapShardStatus(shard, shards_[shard]->Put(options, key, value));
}

Status ShardedDb::Delete(const WriteOptions& options, const Slice& key) {
  const int shard = ShardOf(key);
  if (IsShardDegraded(shard)) return DegradedStatus(shard);
  return MapShardStatus(shard, shards_[shard]->Delete(options, key));
}

Status ShardedDb::Write(const WriteOptions& options, WriteBatch* updates) {
  std::vector<WriteBatch> per_shard(num_shards());
  ShardSplitter splitter(&per_shard, num_shards());
  if (Status s = updates->Iterate(&splitter); !s.ok()) return s;
  // Each sub-batch is atomic within its shard. Degraded shards are skipped
  // (their sub-batches are NOT applied) while healthy shards keep
  // committing — the shard, not the DB, is the failure domain — and the
  // caller gets kShardDegraded naming the first down shard. Any other
  // failure stops the remaining shards, so for those the caller sees
  // at-most-prefix application (single-shard batches keep full atomicity).
  int first_degraded = -1;
  for (int i = 0; i < num_shards(); i++) {
    if (WriteBatchInternal::Count(&per_shard[i]) == 0) continue;
    if (IsShardDegraded(i)) {
      if (first_degraded < 0) first_degraded = i;
      continue;
    }
    Status s = MapShardStatus(i, shards_[i]->Write(options, &per_shard[i]));
    if (s.IsShardDegraded()) {
      if (first_degraded < 0) first_degraded = i;
      continue;
    }
    if (!s.ok()) return s;
  }
  if (first_degraded >= 0) return DegradedStatus(first_degraded);
  return Status::OK();
}

Status ShardedDb::Get(const ReadOptions& options, const Slice& key,
                      std::string* value) {
  const int shard = ShardOf(key);
  // Reads on a degraded shard are still attempted — the engine serves
  // whatever is readable — so only a failing read gets the typed wrap.
  Status s;
  if (options.snapshot != nullptr) {
    ReadOptions ro = options;
    ro.snapshot =
        static_cast<const ShardedSnapshot*>(options.snapshot)->snaps[shard];
    s = shards_[shard]->Get(ro, key, value);
  } else {
    s = shards_[shard]->Get(options, key, value);
  }
  return MapShardStatus(shard, std::move(s));
}

Iterator* ShardedDb::NewIterator(const ReadOptions& options) {
  std::vector<Iterator*> children(num_shards());
  for (int i = 0; i < num_shards(); i++) {
    ReadOptions ro = options;
    if (options.snapshot != nullptr) {
      ro.snapshot =
          static_cast<const ShardedSnapshot*>(options.snapshot)->snaps[i];
    }
    children[i] = shards_[i]->NewIterator(ro);
  }
  return NewMergingIterator(comparator_, children.data(), num_shards());
}

const Snapshot* ShardedDb::GetSnapshot() {
  auto* snap = new ShardedSnapshot;
  snap->snaps.resize(num_shards());
  for (int i = 0; i < num_shards(); i++) {
    snap->snaps[i] = shards_[i]->GetSnapshot();
  }
  return snap;
}

void ShardedDb::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) return;
  const auto* snap = static_cast<const ShardedSnapshot*>(snapshot);
  for (int i = 0; i < num_shards(); i++) {
    shards_[i]->ReleaseSnapshot(snap->snaps[i]);
  }
  delete snap;
}

bool ShardedDb::GetProperty(const Slice& property, std::string* value) {
  value->clear();
  Slice in = property;
  const Slice prefix("sealdb.");
  if (!in.starts_with(prefix)) return false;
  in.remove_prefix(prefix.size());

  if (in == "shard-health") {
    // One line per shard: "shard N: ok" or "shard N: degraded (<reason>)".
    for (int i = 0; i < num_shards(); i++) {
      value->append("shard " + std::to_string(i) + ": ");
      if (IsShardDegraded(i)) {
        std::lock_guard<std::mutex> l(health_[i]->mu);
        value->append("degraded (" + health_[i]->reason + ")\n");
      } else {
        value->append("ok\n");
      }
    }
    return true;
  }

  if (in.starts_with("num-files-at-level") ||
      in == "approximate-memory-usage") {
    // Numeric properties: sum across shards.
    uint64_t total = 0;
    for (auto& shard : shards_) {
      std::string v;
      if (!shard->GetProperty(property, &v)) return false;
      total += strtoull(v.c_str(), nullptr, 10);
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, total);
    *value = buf;
    return true;
  }

  // Everything else (sstables, background-error, future properties):
  // concatenate the per-shard values with shard headers.
  for (int i = 0; i < num_shards(); i++) {
    std::string v;
    if (!shards_[i]->GetProperty(property, &v)) return false;
    value->append("--- shard " + std::to_string(i) + " ---\n");
    value->append(v);
    if (!value->empty() && value->back() != '\n') value->push_back('\n');
  }
  return true;
}

void ShardedDb::CompactRange(const Slice* begin, const Slice* end) {
  for (auto& shard : shards_) shard->CompactRange(begin, end);
}

void ShardedDb::CompactLevelRange(int level, const Slice* begin,
                                  const Slice* end) {
  for (auto& shard : shards_) shard->CompactLevelRange(level, begin, end);
}

void ShardedDb::WaitForIdle() {
  for (auto& shard : shards_) shard->WaitForIdle();
}

int ShardedDb::WriteStallLevel() {
  int level = 0;
  for (auto& shard : shards_) level = std::max(level, shard->WriteStallLevel());
  return level;
}

int ShardedDb::WriteStallLevelOfShard(int shard) {
  return shards_[shard]->WriteStallLevel();
}

std::vector<LiveFileMeta> ShardedDb::GetLiveFilesMetadata() {
  std::vector<LiveFileMeta> all;
  for (auto& shard : shards_) {
    auto files = shard->GetLiveFilesMetadata();
    all.insert(all.end(), files.begin(), files.end());
  }
  return all;
}

void ShardedDb::SetRecordCompactionEvents(bool enable) {
  for (auto& shard : shards_) shard->SetRecordCompactionEvents(enable);
}

std::vector<CompactionEvent> ShardedDb::TakeCompactionEvents() {
  std::vector<CompactionEvent> all;
  for (auto& shard : shards_) {
    auto events = shard->TakeCompactionEvents();
    all.insert(all.end(), events.begin(), events.end());
  }
  return all;
}

}  // namespace sealdb
