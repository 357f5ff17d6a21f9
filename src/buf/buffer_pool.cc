#include "buf/buffer_pool.h"

#include <cstdlib>
#include <set>

namespace sealdb::buf {

namespace {

// Admission bias (DESIGN.md §14): data pages enter cold so a one-touch
// scan can't flush the pool; a re-reference promotes them. Index and
// filter pages enter with — and are refreshed to — multiple chances so
// point-lookup metadata survives data-block churn.
constexpr uint32_t kInsertChances[3] = {0, 2, 2};   // data, index, filter
constexpr uint32_t kRefreshChances[3] = {1, 3, 3};

const char* const kKindNames[3] = {"data", "index", "filter"};

}  // namespace

struct BufferPool::Frame {
  // Identity: read by lock-free probers before pinning, so atomic.
  std::atomic<uint64_t> owner{0};
  std::atomic<uint64_t> file_number{0};
  std::atomic<uint64_t> offset{0};
  std::atomic<uint32_t> next{kInvalidFrame};
  // kMappedBit | kDoomedBit | pin count. The release-store that sets
  // kMappedBit publishes the plain payload fields below.
  std::atomic<uint32_t> state{0};
  std::atomic<uint32_t> chances{0};
  uint8_t kind = 0;
  // Payload: read only after a pin (acquire CAS on state) or under the
  // partition mutex.
  void* value = nullptr;
  size_t charge = 0;
  void (*deleter)(void*) = nullptr;
};

struct BufferPool::Client {
  uint64_t owner = 0;
  obs::Counter* hit_opt[3] = {};
  obs::Counter* hit_locked[3] = {};
  obs::Counter* miss[3] = {};
  obs::Counter* pin[3] = {};
  obs::Counter* evict_clock[3] = {};
  obs::Counter* evict_drop[3] = {};
  // Quarantined files whose pages must not re-enter the pool. ban_count
  // mirrors banned.size() so the Insert hot path can skip the mutex while
  // the set is empty (the overwhelmingly common case).
  std::atomic<size_t> ban_count{0};
  std::mutex ban_mu;
  std::set<uint64_t> banned;  // guarded by ban_mu

  bool IsBanned(uint64_t file_number) {
    if (ban_count.load(std::memory_order_acquire) == 0) return false;
    std::lock_guard<std::mutex> l(ban_mu);
    return banned.count(file_number) != 0;
  }
};

BufferPool::PageRef& BufferPool::PageRef::operator=(PageRef&& o) noexcept {
  if (this != &o) {
    Reset();
    pool_ = o.pool_;
    frame_ = o.frame_;
    value_ = o.value_;
    o.pool_ = nullptr;
    o.value_ = nullptr;
  }
  return *this;
}

void BufferPool::PageRef::Reset() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    value_ = nullptr;
  }
}

void* BufferPool::PageRef::ReleaseToken() {
  void* token = reinterpret_cast<void*>(static_cast<uintptr_t>(frame_));
  pool_ = nullptr;
  value_ = nullptr;
  return token;
}

void BufferPool::UnpinToken(void* pool, void* token) {
  static_cast<BufferPool*>(pool)->Unpin(
      static_cast<uint32_t>(reinterpret_cast<uintptr_t>(token)));
}

BufferPool::BufferPool(const Config& config)
    : capacity_(config.capacity_bytes),
      registry_(config.metrics_registry
                    ? config.metrics_registry
                    : std::make_shared<obs::MetricsRegistry>()) {
  // ~1 bucket per 4KB of capacity keeps chains around one block each.
  size_t buckets = 256;
  while (buckets < capacity_ / 4096 && buckets < (size_t{1} << 20)) {
    buckets <<= 1;
  }
  bucket_mask_ = buckets - 1;
  buckets_ = std::make_unique<std::atomic<uint32_t>[]>(buckets);
  for (size_t i = 0; i < buckets; ++i) {
    buckets_[i].store(kInvalidFrame, std::memory_order_relaxed);
  }
  size_t parts = 1;
  while (parts < config.partitions && parts < buckets) parts <<= 1;
  partition_mask_ = parts - 1;
  partitions_ = std::make_unique<Partition[]>(parts);

  g_usage_ = registry_->RegisterGauge("sealdb_buf_usage_bytes",
                                      "Bytes resident in the buffer pool");
  g_capacity_ = registry_->RegisterGauge("sealdb_buf_capacity_bytes",
                                         "Buffer pool capacity");
  g_frames_ = registry_->RegisterGauge("sealdb_buf_frames",
                                       "Frames ever allocated by the pool");
  g_hit_ratio_ = registry_->RegisterGauge(
      "sealdb_buf_hit_ratio", "Pool-wide hit ratio over all lookups");
  g_capacity_->Set(static_cast<double>(capacity_));
  collect_hook_id_ = registry_->AddCollectHook([this] {
    g_usage_->Set(static_cast<double>(usage_.load(std::memory_order_relaxed)));
    g_frames_->Set(
        static_cast<double>(frame_count_.load(std::memory_order_relaxed)));
    const uint64_t h = hits_.load(std::memory_order_relaxed);
    const uint64_t m = misses_.load(std::memory_order_relaxed);
    g_hit_ratio_->Set(h + m > 0 ? static_cast<double>(h) / (h + m) : 0.0);
  });
}

BufferPool::~BufferPool() {
  registry_->RemoveCollectHook(collect_hook_id_);
  const uint32_t n = frame_count_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < n; ++i) {
    Frame* f = FrameAt(i);
    // Free-list frames have a nulled payload; anything else (mapped, or
    // doomed with a leaked pin) still owns its value.
    if (f->value != nullptr && f->deleter != nullptr) f->deleter(f->value);
  }
  for (auto& chunk : chunks_) {
    delete[] chunk.load(std::memory_order_relaxed);
  }
}

BufferPool::Frame* BufferPool::FrameAt(uint32_t idx) const {
  Frame* chunk =
      chunks_[idx >> kFrameChunkBits].load(std::memory_order_acquire);
  return &chunk[idx & (kFrameChunkSize - 1)];
}

uint32_t BufferPool::AllocFrame() {
  std::lock_guard<std::mutex> l(free_mu_);
  if (!free_frames_.empty()) {
    uint32_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  const uint32_t idx = frame_count_.load(std::memory_order_relaxed);
  const size_t chunk = idx >> kFrameChunkBits;
  if (chunk >= kMaxFrameChunks) std::abort();  // > 4M live frames
  if (chunks_[chunk].load(std::memory_order_relaxed) == nullptr) {
    chunks_[chunk].store(new Frame[kFrameChunkSize],
                         std::memory_order_release);
  }
  frame_count_.store(idx + 1, std::memory_order_release);
  return idx;
}

void BufferPool::FreeFrameSlot(uint32_t idx) {
  Frame* f = FrameAt(idx);
  // The frame is private here: not in any chain, not in the free list.
  f->value = nullptr;
  f->deleter = nullptr;
  f->charge = 0;
  f->chances.store(0, std::memory_order_relaxed);
  f->next.store(kInvalidFrame, std::memory_order_relaxed);
  std::lock_guard<std::mutex> l(free_mu_);
  free_frames_.push_back(idx);
}

size_t BufferPool::BucketFor(uint64_t owner, uint64_t file_number,
                             uint64_t offset) const {
  uint64_t x = owner * 0x9E3779B97F4A7C15ull;
  x ^= file_number + 0x9E3779B97F4A7C15ull + (x << 6) + (x >> 2);
  x ^= offset + 0x9E3779B97F4A7C15ull + (x << 6) + (x >> 2);
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  return static_cast<size_t>(x) & bucket_mask_;
}

bool BufferPool::TryPin(Frame* f, int attempts) {
  uint32_t s = f->state.load(std::memory_order_acquire);
  for (int i = 0; i < attempts; ++i) {
    if (!(s & kMappedBit) || (s & kDoomedBit)) return false;
    if ((s & kPinMask) == kPinMask) return false;  // pin count saturated
    if (f->state.compare_exchange_weak(s, s + 1, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return true;
    }
  }
  return false;
}

void BufferPool::Unpin(uint32_t idx) {
  Frame* f = FrameAt(idx);
  const uint32_t after =
      f->state.fetch_sub(1, std::memory_order_acq_rel) - 1;
  if ((after & kPinMask) == 0 && (after & kDoomedBit)) {
    // Last pin on a doomed (file-dropped) frame: exactly one unpinner
    // wins this CAS and frees the payload.
    uint32_t expected = after;
    if (f->state.compare_exchange_strong(expected, 0,
                                         std::memory_order_acq_rel)) {
      usage_.fetch_sub(f->charge, std::memory_order_relaxed);
      void* value = f->value;
      auto deleter = f->deleter;
      if (deleter != nullptr) deleter(value);
      FreeFrameSlot(idx);
    }
  }
}

void BufferPool::RefreshChances(Frame* f, BlockKind kind) {
  f->chances.store(kRefreshChances[static_cast<int>(kind)],
                   std::memory_order_relaxed);
}

void BufferPool::UnlinkLocked(size_t b, uint32_t idx) {
  uint32_t cur = buckets_[b].load(std::memory_order_relaxed);
  const uint32_t next = FrameAt(idx)->next.load(std::memory_order_relaxed);
  if (cur == idx) {
    buckets_[b].store(next, std::memory_order_release);
    return;
  }
  while (cur != kInvalidFrame) {
    Frame* g = FrameAt(cur);
    const uint32_t n = g->next.load(std::memory_order_relaxed);
    if (n == idx) {
      g->next.store(next, std::memory_order_release);
      return;
    }
    cur = n;
  }
}

bool BufferPool::Lookup(const BufferClient& client, uint64_t file_number,
                        uint64_t offset, BlockKind kind, PageRef* out) {
  const uint64_t owner = client.owner;
  const size_t b = BucketFor(owner, file_number, offset);
  Partition& p = PartitionFor(b);

  // Fast path: no lock. Walk the chain reading atomic identity fields,
  // pin with a CAS, then re-verify identity under the pin. A frame that
  // got recycled mid-walk fails the re-check (or the pin) and we fall
  // back to the mutex. A stale walk can at worst report a spurious miss
  // (the caller re-reads the block and Insert dedups), never a wrong hit.
  const uint64_t v = p.version.load(std::memory_order_acquire);
  if ((v & 1) == 0) {
    uint32_t idx = buckets_[b].load(std::memory_order_acquire);
    int steps = 0;
    bool fallback = false;
    while (idx != kInvalidFrame && steps++ < kMaxOptimisticSteps) {
      Frame* f = FrameAt(idx);
      if (f->owner.load(std::memory_order_relaxed) == owner &&
          f->file_number.load(std::memory_order_relaxed) == file_number &&
          f->offset.load(std::memory_order_relaxed) == offset) {
        if (TryPin(f, kMaxPinAttempts)) {
          if (f->owner.load(std::memory_order_relaxed) == owner &&
              f->file_number.load(std::memory_order_relaxed) ==
                  file_number &&
              f->offset.load(std::memory_order_relaxed) == offset) {
            RefreshChances(f, kind);
            *out = PageRef(this, idx, f->value);
            CountHit(client, kind, /*optimistic=*/true);
            return true;
          }
          Unpin(idx);
        }
        fallback = true;  // contended or recycled: take the lock
        break;
      }
      idx = f->next.load(std::memory_order_acquire);
    }
    if (!fallback && idx == kInvalidFrame &&
        p.version.load(std::memory_order_acquire) == v) {
      CountMiss(client, kind);
      return false;
    }
  }

  if (LookupLocked(client, file_number, offset, kind, b, out)) {
    CountHit(client, kind, /*optimistic=*/false);
    return true;
  }
  CountMiss(client, kind);
  return false;
}

bool BufferPool::LookupLocked(const BufferClient& client,
                              uint64_t file_number, uint64_t offset,
                              BlockKind kind, size_t b, PageRef* out) {
  const uint64_t owner = client.owner;
  Partition& p = PartitionFor(b);
  std::lock_guard<std::mutex> l(p.mu);
  uint32_t idx = buckets_[b].load(std::memory_order_relaxed);
  while (idx != kInvalidFrame) {
    Frame* f = FrameAt(idx);
    if (f->owner.load(std::memory_order_relaxed) == owner &&
        f->file_number.load(std::memory_order_relaxed) == file_number &&
        f->offset.load(std::memory_order_relaxed) == offset) {
      // Reclaim and doom both need this partition's mutex, so the pin can
      // only lose its CAS transiently to other pinners.
      if (TryPin(f, 1 << 20)) {
        RefreshChances(f, kind);
        *out = PageRef(this, idx, f->value);
        return true;
      }
      return false;
    }
    idx = f->next.load(std::memory_order_relaxed);
  }
  return false;
}

void BufferPool::Insert(const BufferClient& client, uint64_t file_number,
                        uint64_t offset, BlockKind kind, void* value,
                        size_t charge, void (*deleter)(void*),
                        PageRef* out) {
  EnsureRoom(charge);
  const uint64_t owner = client.owner;
  const size_t b = BucketFor(owner, file_number, offset);
  Partition& p = PartitionFor(b);
  const uint32_t idx = AllocFrame();
  Frame* f = FrameAt(idx);
  f->owner.store(owner, std::memory_order_relaxed);
  f->file_number.store(file_number, std::memory_order_relaxed);
  f->offset.store(offset, std::memory_order_relaxed);
  f->kind = static_cast<uint8_t>(kind);
  f->value = value;
  f->charge = charge;
  f->deleter = deleter;
  f->chances.store(kInsertChances[static_cast<int>(kind)],
                   std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> l(p.mu);
    // Quarantine ban check, under the same mutex EvictFile's purge takes:
    // any insert that links before the purge visits this partition is
    // removed by the purge, and any insert serialized after the ban sees
    // it here — so once EvictFile(ban) returns, no page of the banned
    // file can (re-)enter the table. The caller still gets its block born
    // doomed: pinned and readable through the ref, freed by the last
    // unpin, never linked, never served to anyone else.
    auto* bc = static_cast<Client*>(client.stats);
    if (bc != nullptr && bc->IsBanned(file_number)) {
      l.unlock();
      usage_.fetch_add(charge, std::memory_order_relaxed);
      f->state.store(kMappedBit | kDoomedBit | 1, std::memory_order_release);
      *out = PageRef(this, idx, value);
      return;
    }
    // Lost an insert race? The resident copy wins.
    uint32_t cur = buckets_[b].load(std::memory_order_relaxed);
    while (cur != kInvalidFrame) {
      Frame* g = FrameAt(cur);
      if (g->owner.load(std::memory_order_relaxed) == owner &&
          g->file_number.load(std::memory_order_relaxed) == file_number &&
          g->offset.load(std::memory_order_relaxed) == offset &&
          TryPin(g, 1 << 20)) {
        RefreshChances(g, kind);
        *out = PageRef(this, cur, g->value);
        l.unlock();
        FreeFrameSlot(idx);
        if (deleter != nullptr) deleter(value);
        CountHit(client, kind, /*optimistic=*/false);
        return;
      }
      cur = g->next.load(std::memory_order_relaxed);
    }
    f->next.store(buckets_[b].load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    // Born pinned; this release-store publishes the payload fields.
    f->state.store(kMappedBit | 1, std::memory_order_release);
    buckets_[b].store(idx, std::memory_order_release);
  }
  usage_.fetch_add(charge, std::memory_order_relaxed);
  auto* c = static_cast<Client*>(client.stats);
  if (c != nullptr) c->pin[static_cast<int>(kind)]->Inc();
  *out = PageRef(this, idx, value);
}

void BufferPool::EnsureRoom(size_t charge) {
  if (capacity_ == 0) return;
  const uint32_t n = frame_count_.load(std::memory_order_acquire);
  if (n == 0) return;
  // Bound the sweep: two full revolutions is enough to spend every
  // second chance once and then reclaim; if everything is pinned we give
  // up and let usage transiently exceed capacity.
  uint64_t budget = 2ull * n + kSweepChunk;
  while (usage_.load(std::memory_order_relaxed) + charge > capacity_ &&
         budget > 0) {
    const uint64_t start =
        clock_hand_.fetch_add(kSweepChunk, std::memory_order_relaxed);
    for (uint32_t i = 0; i < kSweepChunk && budget > 0; ++i) {
      --budget;
      const uint32_t idx = static_cast<uint32_t>((start + i) % n);
      Frame* f = FrameAt(idx);
      const uint32_t s = f->state.load(std::memory_order_acquire);
      if (!(s & kMappedBit) || (s & (kPinMask | kDoomedBit))) continue;
      uint32_t c = f->chances.load(std::memory_order_relaxed);
      bool spent = false;
      while (c > 0) {
        if (f->chances.compare_exchange_weak(c, c - 1,
                                             std::memory_order_relaxed)) {
          spent = true;
          break;
        }
      }
      if (spent) continue;
      TryReclaim(idx);
      if (usage_.load(std::memory_order_relaxed) + charge <= capacity_) {
        return;
      }
    }
  }
}

bool BufferPool::TryReclaim(uint32_t idx) {
  Frame* f = FrameAt(idx);
  // Pin before sampling the identity: a pinned frame cannot be freed and
  // recycled, so its identity, and the bucket it is linked in, hold still.
  // An unpinned sample could go stale between the check and the claim
  // below — the frame recycled into another partition's bucket, then
  // claimed under the wrong lock and freed while still linked there.
  if (!TryPin(f, kMaxPinAttempts)) return false;
  const uint64_t owner = f->owner.load(std::memory_order_relaxed);
  const uint64_t file = f->file_number.load(std::memory_order_relaxed);
  const uint64_t off = f->offset.load(std::memory_order_relaxed);
  const size_t b = BucketFor(owner, file, off);
  Partition& p = PartitionFor(b);
  void* value;
  void (*deleter)(void*);
  size_t charge;
  BlockKind kind;
  {
    std::unique_lock<std::mutex> l(p.mu);
    uint32_t expected = kMappedBit | 1;  // mapped, only our pin, not doomed
    if (!f->state.compare_exchange_strong(expected, 0,
                                          std::memory_order_acq_rel)) {
      l.unlock();
      Unpin(idx);  // frees the frame if a file drop doomed it meanwhile
      return false;
    }
    p.version.fetch_add(1, std::memory_order_release);  // odd: unstable
    UnlinkLocked(b, idx);
    p.version.fetch_add(1, std::memory_order_release);
    value = f->value;
    deleter = f->deleter;
    charge = f->charge;
    kind = static_cast<BlockKind>(f->kind);
  }
  usage_.fetch_sub(charge, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  CountEviction(owner, kind, /*file_drop=*/false);
  if (deleter != nullptr) deleter(value);
  FreeFrameSlot(idx);
  return true;
}

void BufferPool::EvictFile(const BufferClient& client, uint64_t file_number,
                           bool ban) {
  if (client.pool != this) return;
  // Ban strictly before the purge: once PurgeMatching returns there must be
  // no window in which a racing Insert can link a page of this file. A dead
  // file has no reader left to race, so its ban goes before the purge too.
  auto* c = static_cast<Client*>(client.stats);
  if (c != nullptr && (ban || c->ban_count.load(std::memory_order_acquire))) {
    std::lock_guard<std::mutex> l(c->ban_mu);
    if (ban) {
      c->banned.insert(file_number);
    } else {
      c->banned.erase(file_number);
    }
    c->ban_count.store(c->banned.size(), std::memory_order_release);
  }
  PurgeMatching(client.owner, file_number, /*match_file=*/true);
}

size_t BufferPool::FilePages(uint64_t file_number) {
  size_t pages = 0;
  const size_t nparts = partition_mask_ + 1;
  for (size_t pi = 0; pi < nparts; ++pi) {
    std::lock_guard<std::mutex> l(partitions_[pi].mu);
    for (size_t b = pi; b <= bucket_mask_; b += nparts) {
      for (uint32_t idx = buckets_[b].load(std::memory_order_relaxed);
           idx != kInvalidFrame;
           idx = FrameAt(idx)->next.load(std::memory_order_relaxed)) {
        if (FrameAt(idx)->file_number.load(std::memory_order_relaxed) ==
            file_number) {
          pages++;
        }
      }
    }
  }
  return pages;
}

size_t BufferPool::banned_files() {
  std::lock_guard<std::mutex> l(clients_mu_);
  size_t banned = 0;
  for (const auto& c : clients_) {
    banned += c->ban_count.load(std::memory_order_acquire);
  }
  return banned;
}

void BufferPool::PurgeMatching(uint64_t owner, uint64_t file_number,
                               bool match_file) {
  struct Dead {
    void* value;
    void (*deleter)(void*);
    uint32_t idx;
  };
  const size_t nparts = partition_mask_ + 1;
  for (size_t pi = 0; pi < nparts; ++pi) {
    std::vector<Dead> dead;
    Partition& p = partitions_[pi];
    {
      std::lock_guard<std::mutex> l(p.mu);
      p.version.fetch_add(1, std::memory_order_release);
      // Buckets of partition pi are exactly b ≡ pi (mod nparts).
      for (size_t b = pi; b <= bucket_mask_; b += nparts) {
        uint32_t idx = buckets_[b].load(std::memory_order_relaxed);
        while (idx != kInvalidFrame) {
          Frame* f = FrameAt(idx);
          const uint32_t nxt = f->next.load(std::memory_order_relaxed);
          if (f->owner.load(std::memory_order_relaxed) == owner &&
              (!match_file || f->file_number.load(
                                  std::memory_order_relaxed) == file_number)) {
            const BlockKind kind = static_cast<BlockKind>(f->kind);
            bool claimed = false;
            uint32_t s = f->state.load(std::memory_order_acquire);
            for (;;) {
              if ((s & kPinMask) != 0) {
                // Pinned: doom it; the last unpin frees it. Lock-free
                // pinners may race this CAS, hence the loop.
                if (f->state.compare_exchange_weak(
                        s, s | kDoomedBit, std::memory_order_acq_rel)) {
                  break;
                }
              } else if (f->state.compare_exchange_weak(
                             s, 0, std::memory_order_acq_rel)) {
                claimed = true;
                break;
              }
            }
            UnlinkLocked(b, idx);
            if (claimed) {
              usage_.fetch_sub(f->charge, std::memory_order_relaxed);
              dead.push_back({f->value, f->deleter, idx});
            }
            evictions_.fetch_add(1, std::memory_order_relaxed);
            CountEviction(owner, kind, /*file_drop=*/true);
          }
          idx = nxt;
        }
      }
      p.version.fetch_add(1, std::memory_order_release);
    }
    for (const Dead& d : dead) {
      if (d.deleter != nullptr) d.deleter(d.value);
      FreeFrameSlot(d.idx);
    }
  }
}

BufferClient BufferPool::RegisterClient(const std::string& shard_label) {
  std::lock_guard<std::mutex> l(clients_mu_);
  auto client = std::make_unique<Client>();
  client->owner = next_owner_++;
  obs::Labels base;
  if (!shard_label.empty()) base.push_back({"shard", shard_label});
  for (int k = 0; k < 3; ++k) {
    obs::Labels kl = base;
    kl.push_back({"kind", kKindNames[k]});
    auto with = [&kl](const char* key, const char* val) {
      obs::Labels l2 = kl;
      l2.push_back({key, val});
      return l2;
    };
    const char* hit_help = "Buffer pool hits by fast-path outcome";
    client->hit_opt[k] = registry_->RegisterCounter(
        "sealdb_buf_hits_total", hit_help, with("path", "optimistic"));
    client->hit_locked[k] = registry_->RegisterCounter(
        "sealdb_buf_hits_total", hit_help, with("path", "locked"));
    client->miss[k] = registry_->RegisterCounter(
        "sealdb_buf_misses_total", "Buffer pool misses", kl);
    client->pin[k] = registry_->RegisterCounter(
        "sealdb_buf_pins_total", "Page pins handed out", kl);
    const char* ev_help = "Pages evicted, by cause (clock sweep vs "
                          "dead-file drop)";
    client->evict_clock[k] = registry_->RegisterCounter(
        "sealdb_buf_evictions_total", ev_help, with("cause", "clock"));
    client->evict_drop[k] = registry_->RegisterCounter(
        "sealdb_buf_evictions_total", ev_help, with("cause", "drop"));
  }
  Client* raw = client.get();
  clients_.push_back(std::move(client));
  return BufferClient{this, raw->owner, raw};
}

void BufferPool::UnregisterClient(const BufferClient& client) {
  if (client.pool != this || client.owner == 0) return;
  // The Client metric entry stays alive (counters must outlive renders;
  // a reopened engine with the same shard label reuses the same series).
  PurgeMatching(client.owner, 0, /*match_file=*/false);
}

void BufferPool::CountHit(const BufferClient& client, BlockKind kind,
                          bool optimistic) {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (optimistic) optimistic_hits_.fetch_add(1, std::memory_order_relaxed);
  auto* c = static_cast<Client*>(client.stats);
  if (c == nullptr) return;
  const int k = static_cast<int>(kind);
  (optimistic ? c->hit_opt : c->hit_locked)[k]->Inc();
  c->pin[k]->Inc();
}

void BufferPool::CountMiss(const BufferClient& client, BlockKind kind) {
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto* c = static_cast<Client*>(client.stats);
  if (c != nullptr) c->miss[static_cast<int>(kind)]->Inc();
}

void BufferPool::CountEviction(uint64_t owner, BlockKind kind,
                               bool file_drop) {
  std::lock_guard<std::mutex> l(clients_mu_);
  if (owner == 0 || owner > clients_.size()) return;
  Client* c = clients_[owner - 1].get();
  const int k = static_cast<int>(kind);
  (file_drop ? c->evict_drop : c->evict_clock)[k]->Inc();
}

}  // namespace sealdb::buf
