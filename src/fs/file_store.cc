#include "fs/file_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/coding.h"
#include "util/crc32c.h"

namespace sealdb::fs {

namespace {

// Adaptive readahead: sequential access streams this much per media read.
constexpr uint64_t kReadaheadBytes = 256 * 1024;
// Writable files push data to the media in chunks of this size.
constexpr uint64_t kFlushChunkBytes = 256 * 1024;
// Total read attempts per drive request before an IOError is classified as
// permanent and the failing blocks are quarantined.
constexpr int kReadAttempts = 3;

uint64_t RoundUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }
uint64_t RoundDown(uint64_t v, uint64_t a) { return v / a * a; }

std::string ExtentToString(const Extent& e) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "[%llu, +%llu, guard %llu]",
                static_cast<unsigned long long>(e.offset),
                static_cast<unsigned long long>(e.length),
                static_cast<unsigned long long>(e.guard));
  return buf;
}

}  // namespace

std::string Extent::ToString() const { return ExtentToString(*this); }

// ---------------------------------------------------------------------
// File handle implementations
// ---------------------------------------------------------------------

class StoreWritableFile final : public WritableFile {
 public:
  StoreWritableFile(FileStore* store, std::string name, uint64_t size_hint)
      : store_(store), name_(std::move(name)), size_hint_(size_hint) {
    // Room for a chunk plus the table block that crosses into it (a block
    // can pass its nominal size by its last entry), so the buffer is
    // allocated once instead of grown by doubling for every table.
    buffer_.reserve(kFlushChunkBytes +
                    2 * store_->drive()->geometry().block_bytes);
  }

  ~StoreWritableFile() override {
    if (!closed_) Close();
  }

  Status Append(const Slice& data) override {
    buffer_.append(data.data(), data.size());
    if (buffer_.size() >= kFlushChunkBytes) return Flush();
    return Status::OK();
  }

  // Write the buffered complete blocks.
  Status Flush() {
    const uint64_t block = store_->drive()->geometry().block_bytes;
    const uint64_t complete = RoundDown(buffer_.size(), block);
    if (complete == 0) return Status::OK();
    std::lock_guard<std::mutex> l(store_->mu_);
    auto it = store_->files_.find(name_);
    if (it == store_->files_.end()) {
      return Status::IOError("file removed while open", name_);
    }
    Status s = store_->WriteAt(&it->second, flushed_,
                               Slice(buffer_.data(), complete), size_hint_);
    if (!s.ok()) return s;
    flushed_ += complete;
    buffer_.erase(0, complete);
    it->second.size = std::max(it->second.size, flushed_);
    return Status::OK();
  }

  Status Sync() override {
    Status s = Flush();
    if (!s.ok()) return s;
    std::lock_guard<std::mutex> l(store_->mu_);
    auto it = store_->files_.find(name_);
    if (it == store_->files_.end()) {
      return Status::IOError("file removed while open", name_);
    }
    return store_->PersistFileMeta(kUpdateFile, name_, it->second);
  }

  Status Close() override {
    if (closed_) return Status::OK();
    closed_ = true;
    const uint64_t block = store_->drive()->geometry().block_bytes;
    const uint64_t logical = flushed_ + buffer_.size();
    // Pad the final partial block; the logical size below keeps readers
    // from seeing the padding.
    if (buffer_.size() % block != 0) {
      buffer_.resize(RoundUp(buffer_.size(), block), '\0');
    }
    if (!buffer_.empty()) {
      std::lock_guard<std::mutex> l(store_->mu_);
      auto it = store_->files_.find(name_);
      if (it == store_->files_.end()) {
        return Status::IOError("file removed while open", name_);
      }
      Status s = store_->WriteAt(&it->second, flushed_, Slice(buffer_),
                                 size_hint_);
      if (!s.ok()) return s;
      flushed_ += buffer_.size();
      buffer_.clear();
      it->second.size = logical;
      store_->ShrinkToFit(&it->second);
      return store_->PersistFileMeta(kUpdateFile, name_,
                                     it->second);
    }
    std::lock_guard<std::mutex> l(store_->mu_);
    auto it = store_->files_.find(name_);
    if (it == store_->files_.end()) {
      return Status::IOError("file removed while open", name_);
    }
    it->second.size = logical;
    store_->ShrinkToFit(&it->second);
    return store_->PersistFileMeta(kUpdateFile, name_, it->second);
  }

 private:
  FileStore* store_;
  std::string name_;
  uint64_t size_hint_;
  std::string buffer_;
  uint64_t flushed_ = 0;  // durable, block-aligned prefix
  bool closed_ = false;
};

class StoreRandomAccessFile final : public RandomAccessFile {
 public:
  StoreRandomAccessFile(FileStore* store, std::string name)
      : store_(store), name_(std::move(name)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    std::lock_guard<std::mutex> l(store_->mu_);
    auto it = store_->files_.find(name_);
    if (it == store_->files_.end()) {
      return Status::IOError("file not found", name_);
    }
    const FileStore::FileMeta& meta = it->second;
    if (offset >= meta.size) {
      *result = Slice(scratch, 0);
      return Status::OK();
    }
    n = std::min<uint64_t>(n, meta.size - offset);
    // A read that starts where the previous one ended is sequential, hit or
    // miss: a front-to-back reader keeps streaming across buffer refills.
    const bool sequential = offset == last_end_;
    last_end_ = offset + n;

    // Serve from the readahead buffer when possible.
    if (offset >= buf_offset_ && offset + n <= buf_offset_ + buf_.size()) {
      std::memcpy(scratch, buf_.data() + (offset - buf_offset_), n);
      *result = Slice(scratch, n);
      return Status::OK();
    }

    // Choose fetch size: stream ahead on sequential access patterns, fetch
    // tightly on random ones.
    uint64_t fetch_len = sequential ? std::max<uint64_t>(n, kReadaheadBytes)
                                    : n;
    const uint64_t block = store_->drive()->geometry().block_bytes;
    const uint64_t fetch_begin = RoundDown(offset, block);
    fetch_len = RoundUp(offset + fetch_len, block) - fetch_begin;
    fetch_len = std::min(fetch_len,
                         RoundUp(meta.size, block) - fetch_begin);

    buf_.resize(fetch_len);
    buf_offset_ = fetch_begin;
    Status s = store_->ReadExtents(meta, fetch_begin, fetch_len, buf_.data());
    if (!s.ok()) {
      buf_.clear();
      return s;
    }
    std::memcpy(scratch, buf_.data() + (offset - buf_offset_), n);
    *result = Slice(scratch, n);
    return Status::OK();
  }

 private:
  FileStore* store_;
  std::string name_;
  mutable std::string buf_;
  mutable uint64_t buf_offset_ = 0;
  mutable uint64_t last_end_ = UINT64_MAX;
};

class StoreSequentialFile final : public SequentialFile {
 public:
  StoreSequentialFile(FileStore* store, std::string name)
      : file_(store, std::move(name)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status s = file_.Read(pos_, n, result, scratch);
    if (s.ok()) pos_ += result->size();
    return s;
  }

  Status Skip(uint64_t n) override {
    pos_ += n;
    return Status::OK();
  }

 private:
  StoreRandomAccessFile file_;
  uint64_t pos_ = 0;
};

// ---------------------------------------------------------------------
// FileStore
// ---------------------------------------------------------------------

namespace {

core::ShardRegion WholeDriveIfUnset(const core::ShardRegion& region,
                                    const smr::Geometry& geo) {
  if (region.conv_len != 0) return region;
  return {0, geo.conventional_bytes, geo.conventional_bytes,
          geo.capacity_bytes};
}

}  // namespace

FileStore::FileStore(smr::Drive* drive, ExtentAllocator* allocator,
                     const core::ShardRegion& region)
    : drive_(drive),
      allocator_(allocator),
      region_(WholeDriveIfUnset(region, drive->geometry())) {
  log_head_ = LogBegin(active_slot_);
  conv_files_free_.Reset(ConvFilesBegin(), ConvFilesEnd() - ConvFilesBegin());
}

FileStore::~FileStore() = default;

uint64_t FileStore::SlotBytes() const {
  // Block-aligned so every slot and log starts on a writable boundary even
  // when region_.conv_len is an odd shard slice.
  const uint64_t block = drive_->geometry().block_bytes;
  return region_.conv_len / 16 / block * block;
}
uint64_t FileStore::SlotOffset(int slot) const {
  return region_.conv_base + static_cast<uint64_t>(slot) * SlotBytes();
}
uint64_t FileStore::LogBytes() const {
  const uint64_t block = drive_->geometry().block_bytes;
  return region_.conv_len / 4 / block * block;
}
uint64_t FileStore::LogBegin(int slot) const {
  return SlotOffset(2) + static_cast<uint64_t>(slot) * LogBytes();
}
uint64_t FileStore::LogEnd(int slot) const {
  return LogBegin(slot) + LogBytes();
}
uint64_t FileStore::ConvFilesBegin() const { return LogEnd(1); }
uint64_t FileStore::ConvFilesEnd() const {
  return region_.conv_base + region_.conv_len;
}

Status FileStore::Format() {
  std::lock_guard<std::mutex> l(mu_);
  files_.clear();
  regions_.clear();
  next_region_id_ = 1;
  engine_state_.clear();
  journal_seq_ = 0;
  active_slot_ = 1;  // WriteCheckpoint flips to slot 0
  conv_files_free_.Reset(ConvFilesBegin(), ConvFilesEnd() - ConvFilesBegin());
  recovered_ = true;
  // Seed both checkpoint slots so a single damaged slot never loses the
  // store, even before the first natural checkpoint rollover.
  Status s = WriteCheckpoint();
  if (s.ok()) s = WriteCheckpoint();
  return s;
}

Status FileStore::JournalAppend(const std::string& payload) {
  const uint64_t block = drive_->geometry().block_bytes;
  const uint64_t total = RoundUp(kRecordHeader + payload.size(), block);
  if (log_head_ + total > LogEnd(active_slot_)) {
    Status s = WriteCheckpoint();
    if (!s.ok()) return s;
    if (log_head_ + total > LogEnd(active_slot_)) {
      return Status::NoSpace("journal record larger than log area");
    }
  }
  journal_seq_++;
  std::string rec;
  rec.reserve(total);
  PutFixed32(&rec, kJournalMagic);
  PutFixed64(&rec, journal_seq_);
  PutFixed32(&rec, static_cast<uint32_t>(payload.size()));
  PutFixed32(&rec, crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  rec.append(payload);
  rec.resize(total, '\0');
  Status s = DriveWrite(log_head_, rec);
  if (!s.ok()) return s;
  log_head_ += total;
  journal_records_++;
  return Status::OK();
}

std::string FileStore::EncodeState() const {
  std::string out;
  PutVarint64(&out, next_region_id_);
  PutLengthPrefixedSlice(&out, engine_state_);
  PutVarint64(&out, regions_.size());
  for (const auto& [id, r] : regions_) {
    PutVarint64(&out, id);
    PutVarint64(&out, r.extent.offset);
    PutVarint64(&out, r.extent.length);
    PutVarint64(&out, r.extent.guard);
    out.push_back(r.sealed ? 1 : 0);
  }
  PutVarint64(&out, files_.size());
  for (const auto& [name, meta] : files_) {
    EncodeFileMeta(&out, name, meta);
    PutLengthPrefixedSlice(&out, meta.tag);
  }
  return out;
}

Status FileStore::DecodeState(Slice in) {
  files_.clear();
  regions_.clear();
  uint64_t nregions, nfiles;
  Slice engine_state;
  if (!GetVarint64(&in, &next_region_id_) ||
      !GetLengthPrefixedSlice(&in, &engine_state) ||
      !GetVarint64(&in, &nregions)) {
    return Status::Corruption("bad filestore checkpoint");
  }
  engine_state_ = engine_state.ToString();
  for (uint64_t i = 0; i < nregions; i++) {
    uint64_t id;
    RegionMeta r;
    if (!GetVarint64(&in, &id) || !GetVarint64(&in, &r.extent.offset) ||
        !GetVarint64(&in, &r.extent.length) ||
        !GetVarint64(&in, &r.extent.guard) || in.size() < 1) {
      return Status::Corruption("bad region record");
    }
    r.sealed = in[0] != 0;
    in.remove_prefix(1);
    regions_[id] = r;
  }
  if (!GetVarint64(&in, &nfiles)) {
    return Status::Corruption("bad filestore checkpoint");
  }
  for (uint64_t i = 0; i < nfiles; i++) {
    std::string name;
    FileMeta meta;
    Slice tag;
    if (!DecodeFileMeta(&in, &name, &meta) ||
        !GetLengthPrefixedSlice(&in, &tag)) {
      return Status::Corruption("bad file record");
    }
    meta.tag = tag.ToString();
    ReplayPutFile(name, std::move(meta));
  }
  return Status::OK();
}

void FileStore::EncodeFileMeta(std::string* dst, const std::string& name,
                               const FileMeta& meta) {
  PutLengthPrefixedSlice(dst, name);
  PutVarint64(dst, meta.region_id);
  PutVarint64(dst, meta.size);
  PutVarint32(dst, static_cast<uint32_t>(meta.extents.size()));
  for (const Extent& e : meta.extents) {
    PutVarint64(dst, e.offset);
    PutVarint64(dst, e.length);
    PutVarint64(dst, e.guard);
  }
}

bool FileStore::DecodeFileMeta(Slice* in, std::string* name, FileMeta* meta) {
  Slice name_slice;
  uint32_t nextents;
  if (!GetLengthPrefixedSlice(in, &name_slice) ||
      !GetVarint64(in, &meta->region_id) || !GetVarint64(in, &meta->size) ||
      !GetVarint32(in, &nextents)) {
    return false;
  }
  *name = name_slice.ToString();
  meta->extents.clear();
  for (uint32_t i = 0; i < nextents; i++) {
    Extent e;
    if (!GetVarint64(in, &e.offset) || !GetVarint64(in, &e.length) ||
        !GetVarint64(in, &e.guard)) {
      return false;
    }
    meta->extents.push_back(e);
  }
  return true;
}

// A checkpoint goes to the older slot and restarts that slot's log; the
// newer slot's log, which led up to this checkpoint, stays intact until the
// next checkpoint replaces it.
Status FileStore::WriteCheckpoint() {
  const int slot = 1 - active_slot_;
  journal_seq_++;
  const std::string payload = EncodeState();
  std::string rec;
  PutFixed32(&rec, kCkptMagic);
  PutFixed64(&rec, journal_seq_);
  PutFixed32(&rec, static_cast<uint32_t>(payload.size()));
  PutFixed32(&rec, crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  rec.append(payload);
  const uint64_t block = drive_->geometry().block_bytes;
  if (rec.size() > SlotBytes()) {
    return Status::NoSpace("filestore checkpoint exceeds slot size");
  }
  rec.resize(RoundUp(rec.size(), block), '\0');
  Status s = DriveWrite(SlotOffset(slot), rec);
  if (!s.ok()) return s;
  active_slot_ = slot;
  log_head_ = LogBegin(slot);
  return Status::OK();
}

Status FileStore::Recover() {
  std::lock_guard<std::mutex> l(mu_);
  const uint64_t block = drive_->geometry().block_bytes;

  // 1. Load the freshest valid checkpoint.
  uint64_t best_seq = 0;
  int best_slot = -1;
  int valid_slots = 0;
  std::string best_payload;
  std::string scratch;
  for (int slot = 0; slot < 2; slot++) {
    scratch.resize(block);
    if (!DriveRead(SlotOffset(slot), block, scratch.data()).ok()) continue;
    Slice header(scratch);
    uint32_t magic, len, crc;
    uint64_t seq;
    if (!GetFixed32(&header, &magic) || magic != kCkptMagic) continue;
    if (!GetFixed64(&header, &seq) || !GetFixed32(&header, &len) ||
        !GetFixed32(&header, &crc)) {
      continue;
    }
    if (kRecordHeader + len > SlotBytes()) continue;
    const uint64_t total = RoundUp(kRecordHeader + len, block);
    scratch.resize(total);
    if (!DriveRead(SlotOffset(slot), total, scratch.data()).ok()) continue;
    const char* payload = scratch.data() + kRecordHeader;
    if (crc32c::Unmask(crc) != crc32c::Value(payload, len)) continue;
    valid_slots++;
    if (seq > best_seq) {
      best_seq = seq;
      best_slot = slot;
      best_payload.assign(payload, len);
    }
  }
  if (best_slot < 0) {
    return Status::NotFound("no valid filestore checkpoint");
  }
  const bool slot_damaged = valid_slots < 2;
  Status s = DecodeState(Slice(best_payload));
  if (!s.ok()) return s;
  journal_seq_ = best_seq;
  active_slot_ = best_slot;

  // 2. Replay the journal: the checkpoint's own log, then, if the other
  // slot is damaged, its log too. A damaged slot may have held the newer
  // checkpoint, the one this log led up to; its log then continues one
  // sequence number past that lost checkpoint's.
  s = ReplayLog(best_slot, best_seq + 1, &log_head_);
  if (!s.ok()) return s;
  if (slot_damaged) {
    // The journal goes on from the reseed in step 6, not from this log.
    uint64_t end;
    s = ReplayLog(1 - best_slot, journal_seq_ + 2, &end);
    if (!s.ok()) return s;
  }

  // 3. Rebuild region occupancy from the surviving files.
  for (auto& [id, region] : regions_) {
    region.live_files = 0;
    region.cursor = 0;
  }
  for (const auto& [name, meta] : files_) {
    if (meta.region_id != 0) {
      auto it = regions_.find(meta.region_id);
      if (it == regions_.end()) {
        return Status::Corruption("file references unknown region", name);
      }
      it->second.live_files++;
      for (const Extent& e : meta.extents) {
        if (e.offset >= it->second.extent.offset &&
            e.end() <= it->second.extent.end()) {
          it->second.cursor = std::max(
              it->second.cursor, e.end() - it->second.extent.offset);
        }
      }
    }
  }
  // Drop regions that no longer hold files; their space stays free.
  for (auto it = regions_.begin(); it != regions_.end();) {
    if (it->second.live_files == 0) {
      it = regions_.erase(it);
    } else {
      ++it;
    }
  }

  // 4. Seed the allocators with everything still in use.
  conv_files_free_.Reset(ConvFilesBegin(), ConvFilesEnd() - ConvFilesBegin());
  std::vector<Extent> referenced;
  for (const auto& [name, meta] : files_) {
    if (meta.region_id != 0) {
      // Region files are covered by their region extent below, but their
      // data blocks still count as referenced.
      for (const Extent& e : meta.extents) referenced.push_back(e);
      continue;
    }
    for (const Extent& e : meta.extents) {
      referenced.push_back(e);
      if (e.end_with_guard() <= drive_->geometry().conventional_bytes) {
        s = conv_files_free_.Carve(e.offset, e.length + e.guard);
      } else {
        s = allocator_->Reserve(e);
      }
      if (!s.ok()) return s;
    }
  }
  for (const auto& [id, region] : regions_) {
    referenced.push_back(region.extent);
    s = allocator_->Reserve(region.extent);
    if (!s.ok()) return s;
  }

  // 5. Scrub: a crash may have left data on the media that no recovered
  // metadata references (writes whose journal update never landed). Those
  // blocks must be trimmed, or the space they sit in — which the
  // allocators consider free — could never be safely rewritten.
  // Only this store's own slices are scrubbed: on a shared drive the rest
  // belongs to other shards' stores (their journals, WALs and tables).
  std::sort(referenced.begin(), referenced.end(),
            [](const Extent& a, const Extent& b) {
              return a.offset < b.offset;
            });
  s = TrimUnreferenced(ConvFilesBegin(), ConvFilesEnd(), referenced);
  if (s.ok()) {
    s = TrimUnreferenced(region_.data_base, region_.data_limit, referenced);
  }
  if (!s.ok()) return s;

  // 6. Reseed both checkpoint slots, as Format does, so the damaged slot
  // holds the recovered state again. The damaged slot is written first
  // (active_slot_ is still best_slot): the valid one is overwritten only
  // once the other holds the recovered state, so a power cut during the
  // reseed still leaves one valid checkpoint.
  if (slot_damaged) {
    s = WriteCheckpoint();
    if (s.ok()) s = WriteCheckpoint();
    if (!s.ok()) return s;
  }

  recovered_ = true;
  return Status::OK();
}

Status FileStore::ReplayLog(int slot, uint64_t expect_seq, uint64_t* end) {
  const uint64_t block = drive_->geometry().block_bytes;
  std::string scratch;
  uint64_t pos = LogBegin(slot);
  while (pos + block <= LogEnd(slot)) {
    scratch.resize(block);
    if (!DriveRead(pos, block, scratch.data()).ok()) break;
    Slice header(scratch);
    uint32_t magic, len, crc;
    uint64_t seq;
    if (!GetFixed32(&header, &magic) || magic != kJournalMagic) break;
    if (!GetFixed64(&header, &seq) || !GetFixed32(&header, &len) ||
        !GetFixed32(&header, &crc)) {
      break;
    }
    if (seq != expect_seq) break;  // stale or out-of-order record
    const uint64_t total = RoundUp(kRecordHeader + len, block);
    if (pos + total > LogEnd(slot)) break;
    scratch.resize(total);
    if (!DriveRead(pos, total, scratch.data()).ok()) break;
    const char* payload = scratch.data() + kRecordHeader;
    if (crc32c::Unmask(crc) != crc32c::Value(payload, len)) break;
    Status s = ApplyRecord(Slice(payload, len));
    if (!s.ok()) return s;
    pos += total;
    journal_seq_ = seq;
    expect_seq = seq + 1;
  }
  *end = pos;
  return Status::OK();
}

Status FileStore::TrimUnreferenced(uint64_t begin, uint64_t end,
                                   const std::vector<Extent>& referenced) {
  uint64_t cursor = begin;
  for (const Extent& e : referenced) {
    if (e.end_with_guard() <= cursor) continue;
    if (e.offset >= end) break;
    if (e.offset > cursor) {
      Status s = drive_->Trim(cursor, e.offset - cursor);
      if (!s.ok()) return s;
    }
    cursor = e.end_with_guard();
  }
  return cursor < end ? drive_->Trim(cursor, end - cursor) : Status::OK();
}

void FileStore::ReplayPutFile(const std::string& name, FileMeta meta) {
  // Count the new incarnation before dropping the old one, so a region
  // whose only file is being updated is never released in between.
  if (meta.region_id != 0) {
    auto rit = regions_.find(meta.region_id);
    if (rit != regions_.end()) rit->second.live_files++;
  }
  auto it = files_.find(name);
  if (it != files_.end()) EraseFile(it, /*free_space=*/false);
  files_[name] = std::move(meta);
}

Status FileStore::ApplyRecord(Slice payload) {
  if (payload.empty()) return Status::Corruption("empty journal record");
  const uint8_t tag = static_cast<uint8_t>(payload[0]);
  payload.remove_prefix(1);
  switch (tag) {
    case kCreateFile:
    case kUpdateFile: {
      std::string name;
      FileMeta meta;
      if (!DecodeFileMeta(&payload, &name, &meta)) {
        return Status::Corruption("bad file journal record");
      }
      auto it = files_.find(name);
      if (tag == kUpdateFile && it != files_.end()) meta.tag = it->second.tag;
      ReplayPutFile(name, std::move(meta));
      return Status::OK();
    }
    case kRemoveFileTag: {
      Slice name;
      if (!GetLengthPrefixedSlice(&payload, &name)) {
        return Status::Corruption("bad remove record");
      }
      auto it = files_.find(name.ToString());
      if (it != files_.end()) EraseFile(it, /*free_space=*/false);
      return Status::OK();
    }
    case kCreateRegion: {
      uint64_t id;
      RegionMeta r;
      if (!GetVarint64(&payload, &id) ||
          !GetVarint64(&payload, &r.extent.offset) ||
          !GetVarint64(&payload, &r.extent.length) ||
          !GetVarint64(&payload, &r.extent.guard)) {
        return Status::Corruption("bad region record");
      }
      regions_[id] = r;
      next_region_id_ = std::max(next_region_id_, id + 1);
      return Status::OK();
    }
    case kSealRegionTag: {
      uint64_t id;
      Extent e;
      if (!GetVarint64(&payload, &id) || !GetVarint64(&payload, &e.offset) ||
          !GetVarint64(&payload, &e.length) ||
          !GetVarint64(&payload, &e.guard)) {
        return Status::Corruption("bad seal record");
      }
      auto it = regions_.find(id);
      if (it != regions_.end()) {
        it->second.extent = e;
        it->second.sealed = true;
      }
      return Status::OK();
    }
    case kReleaseRegionTag: {
      uint64_t id;
      if (!GetVarint64(&payload, &id)) {
        return Status::Corruption("bad release record");
      }
      regions_.erase(id);
      return Status::OK();
    }
    case kCommitTag: {
      FileCommit commit;
      if (!DecodeCommit(payload, &commit)) {
        return Status::Corruption("bad commit record");
      }
      for (const auto& [name, file_tag] : commit.tags) {
        auto it = files_.find(name);
        if (it != files_.end()) it->second.tag = file_tag;
      }
      for (const std::string& name : commit.removes) {
        auto it = files_.find(name);
        if (it != files_.end()) EraseFile(it, /*free_space=*/false);
      }
      engine_state_ = std::move(commit.engine_state);
      return Status::OK();
    }
    default:
      return Status::Corruption("unknown journal record tag");
  }
}

Status FileStore::PersistFileMeta(RecordTag tag, const std::string& name,
                                  const FileMeta& meta) {
  std::string payload;
  payload.push_back(static_cast<char>(tag));
  EncodeFileMeta(&payload, name, meta);
  return JournalAppend(payload);
}

// ---------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------

Status FileStore::DriveRead(uint64_t offset, uint64_t n, char* scratch) {
  const uint64_t block = drive_->geometry().block_bytes;

  // Fail fast over quarantined blocks: one probe, no retry storm. A probe
  // that succeeds (e.g. the sector was rewritten) lifts the quarantine.
  if (!bad_blocks_.empty()) {
    auto it = bad_blocks_.lower_bound(RoundDown(offset, block));
    if (it != bad_blocks_.end() && *it < offset + n) {
      Status s = drive_->Read(offset, n, scratch);
      if (!s.ok()) {
        return Status::IOError("read overlaps quarantined bad block");
      }
      while (it != bad_blocks_.end() && *it < offset + n) {
        it = bad_blocks_.erase(it);
      }
      return s;
    }
  }

  Status s;
  for (int attempt = 0; attempt < kReadAttempts; attempt++) {
    s = drive_->Read(offset, n, scratch);
    if (s.ok() || !s.IsIOError()) return s;  // only I/O errors are retried
  }

  // Persistent failure: probe block-by-block to locate and quarantine the
  // bad blocks, salvaging whatever still reads.
  uint64_t bad = 0;
  for (uint64_t off = RoundDown(offset, block); off < offset + n;
       off += block) {
    const uint64_t lo = std::max(off, offset);
    const uint64_t hi = std::min(off + block, offset + n);
    Status bs;
    for (int attempt = 0; attempt < kReadAttempts; attempt++) {
      bs = drive_->Read(lo, hi - lo, scratch + (lo - offset));
      if (bs.ok() || !bs.IsIOError()) break;
    }
    if (!bs.ok()) {
      bad_blocks_.insert(off);
      bad++;
    }
  }
  if (bad == 0) return Status::OK();  // every block salvaged on the probe
  return Status::IOError("permanent read error",
                         std::to_string(bad) + " blocks quarantined");
}

Status FileStore::DriveWrite(uint64_t offset, const Slice& data) {
  Status s = drive_->Write(offset, data);
  if (s.ok() && !bad_blocks_.empty()) {
    // The rewrite remapped the sectors; their quarantine no longer applies.
    const uint64_t block = drive_->geometry().block_bytes;
    auto it = bad_blocks_.lower_bound(RoundDown(offset, block));
    while (it != bad_blocks_.end() && *it < offset + data.size()) {
      it = bad_blocks_.erase(it);
    }
  }
  return s;
}

std::vector<uint64_t> FileStore::QuarantinedBlocks() const {
  std::lock_guard<std::mutex> l(mu_);
  return {bad_blocks_.begin(), bad_blocks_.end()};
}

Status FileStore::ScrubStep(ScrubCursor* cursor, uint64_t max_bytes,
                            ScrubStepResult* out) {
  std::lock_guard<std::mutex> l(mu_);
  *out = ScrubStepResult();
  if (max_bytes == 0) return Status::OK();
  const uint64_t block = drive_->geometry().block_bytes;
  std::vector<char> buf(kReadaheadBytes);

  auto it = files_.lower_bound(cursor->file);
  if (it == files_.end() || it->first != cursor->file) {
    // The cursor's file was removed (or this is a fresh pass): its stored
    // offset belongs to a different file, start its successor from 0.
    cursor->offset = 0;
  }
  while (out->bytes_scanned < max_bytes) {
    if (it == files_.end()) {
      *cursor = ScrubCursor();
      out->wrapped = true;
      return Status::OK();
    }
    const FileMeta& meta = it->second;
    const uint64_t scan_end = RoundUp(meta.size, block);
    bool damaged = false;
    // Logical walk from cursor->offset through the extent chain:
    // over-allocated tail space beyond the file size never held data and
    // is not scanned.
    uint64_t extent_begin = 0;
    for (const Extent& e : meta.extents) {
      const uint64_t extent_end = std::min(extent_begin + e.length, scan_end);
      while (cursor->offset < extent_end &&
             out->bytes_scanned < max_bytes) {
        if (cursor->offset < extent_begin) break;  // shouldn't happen
        const uint64_t in_extent = cursor->offset - extent_begin;
        const uint64_t m =
            std::min({static_cast<uint64_t>(buf.size()),
                      extent_end - cursor->offset,
                      max_bytes - out->bytes_scanned});
        const uint64_t phys = e.offset + in_extent;
        // Diff the quarantine set over this physical range around the read:
        // new entries are blocks this step condemned, vanished entries are
        // blocks whose probe (or an interleaved rewrite) came back clean.
        const uint64_t before = CountBadBlocks(phys, m);
        Status s = DriveRead(phys, m, buf.data());
        const uint64_t after = CountBadBlocks(phys, m);
        if (after > before) out->bad_blocks += after - before;
        if (before > after) out->repaired_blocks += before - after;
        if (!s.ok()) damaged = true;
        out->bytes_scanned += m;
        cursor->offset += m;
      }
      extent_begin += e.length;
      if (extent_begin >= scan_end || out->bytes_scanned >= max_bytes) break;
    }
    if (damaged) out->damaged_files.push_back(it->first);
    if (cursor->offset >= scan_end) {
      ++it;
      cursor->file = (it == files_.end()) ? std::string() : it->first;
      cursor->offset = 0;
      if (it == files_.end()) {
        *cursor = ScrubCursor();
        out->wrapped = true;
        return Status::OK();
      }
    } else {
      cursor->file = it->first;  // budget ran out mid-file
    }
  }
  return Status::OK();
}

uint64_t FileStore::CountBadBlocks(uint64_t offset, uint64_t n) const {
  if (bad_blocks_.empty() || n == 0) return 0;
  const uint64_t block = drive_->geometry().block_bytes;
  uint64_t count = 0;
  for (auto it = bad_blocks_.lower_bound(RoundDown(offset, block));
       it != bad_blocks_.end() && *it < offset + n; ++it) {
    count++;
  }
  return count;
}

Status FileStore::ReadExtents(const FileMeta& meta, uint64_t offset, size_t n,
                              char* scratch) {
  uint64_t remaining = n;
  uint64_t pos = offset;
  char* dst = scratch;
  uint64_t extent_begin = 0;  // logical offset where the extent starts
  for (const Extent& e : meta.extents) {
    if (remaining == 0) break;
    const uint64_t extent_end = extent_begin + e.length;
    if (pos < extent_end) {
      const uint64_t in_extent = pos - extent_begin;
      const uint64_t m = std::min(remaining, e.length - in_extent);
      Status s = DriveRead(e.offset + in_extent, m, dst);
      if (!s.ok()) return s;
      dst += m;
      pos += m;
      remaining -= m;
    }
    extent_begin = extent_end;
  }
  if (remaining != 0) {
    return Status::IOError("read past end of file extents");
  }
  return Status::OK();
}

Status FileStore::GrowFile(const std::string& name, FileMeta* meta,
                           uint64_t min_bytes, uint64_t size_hint) {
  const uint64_t block = drive_->geometry().block_bytes;
  if (meta->region_id != 0) {
    // Carve contiguously from the owning region.
    auto rit = regions_.find(meta->region_id);
    if (rit == regions_.end()) {
      return Status::Corruption("file references unknown region", name);
    }
    RegionMeta& region = rit->second;
    const uint64_t avail = region.extent.length - region.cursor;
    if (avail >= min_bytes) {
      // Carve exactly what this write needs (block-rounded) so consecutive
      // files of the set stay back-to-back on disk.
      Extent piece{region.extent.offset + region.cursor,
                   std::min(avail, RoundUp(min_bytes, block)), 0};
      region.cursor += piece.length;
      // Merge with a contiguous previous carve.
      if (!meta->extents.empty() &&
          meta->extents.back().end() == piece.offset &&
          meta->extents.back().guard == 0) {
        meta->extents.back().length += piece.length;
      } else {
        meta->extents.push_back(piece);
      }
      return Status::OK();
    }
    // The set reservation ran out (outputs slightly exceeded the input
    // estimate); overflow into a standalone extent.
  }
  Extent e;
  Status s;
  if (meta->appendable) {
    // Long-lived append-mode file (the WAL): placed in the
    // conventional-region pool, like the conventional zones real zoned
    // deployments reserve for logs. Falls back to a guarded allocation in
    // the shingled space when the pool is full.
    const uint64_t want = RoundUp(
        meta->extents.empty() ? std::max(min_bytes, size_hint)
                              : std::max(min_bytes, kFlushChunkBytes),
        block);
    uint64_t offset;
    if (conv_files_free_.Allocate(want, &offset)) {
      e = Extent{offset, want, 0};
      s = Status::OK();
    } else if (conv_files_free_.Allocate(RoundUp(min_bytes, block),
                                         &offset)) {
      e = Extent{offset, RoundUp(min_bytes, block), 0};
      s = Status::OK();
    } else {
      s = allocator_->AllocateGuarded(want, &e);
      if (s.IsNoSpace() && want > min_bytes) {
        s = allocator_->AllocateGuarded(RoundUp(min_bytes, block), &e);
      }
    }
  } else if (meta->extents.empty()) {
    // While the file is open its tail tracks keep being written, so on
    // shingled media the allocation must hold a trailing guard; ShrinkToFit
    // returns it at close. Allocators without the constraint ignore this.
    const uint64_t want = std::max(min_bytes, size_hint);
    s = allocator_->AllocateGuarded(RoundUp(want, block), &e);
    if (s.IsNoSpace() && want > min_bytes) {
      s = allocator_->AllocateGuarded(RoundUp(min_bytes, block), &e);
    }
  } else {
    // Grow near the file's current tail (ext4 goal-block behaviour).
    const uint64_t goal = meta->extents.back().end();
    const uint64_t want = std::max(min_bytes, kFlushChunkBytes);
    s = allocator_->AllocateNear(RoundUp(want, block), goal, &e);
    if (s.IsNoSpace() && want > min_bytes) {
      s = allocator_->AllocateNear(RoundUp(min_bytes, block), goal, &e);
    }
  }
  if (!s.ok()) return s;
  if (!meta->extents.empty() && meta->extents.back().end() == e.offset &&
      meta->extents.back().guard == 0 && e.guard == 0) {
    meta->extents.back().length += e.length;
  } else {
    meta->extents.push_back(e);
  }
  return Status::OK();
}

void FileStore::ShrinkToFit(FileMeta* meta) {
  if (meta->region_id != 0) return;  // region cursor is already exact
  const uint64_t block = drive_->geometry().block_bytes;
  const uint64_t used = RoundUp(meta->size, block);
  uint64_t covered = 0;
  size_t keep = 0;
  for (; keep < meta->extents.size(); keep++) {
    Extent& e = meta->extents[keep];
    if (covered >= used) break;
    if (covered + e.length > used) {
      const uint64_t keep_len = used - covered;
      if (e.end_with_guard() <= drive_->geometry().conventional_bytes) {
        const uint64_t keep_rounded = RoundUp(keep_len, block);
        if (keep_rounded < e.length) {
          Status fs = conv_files_free_.Free(e.offset + keep_rounded,
                                            e.length - keep_rounded + e.guard);
          if (fs.ok()) {
            e.length = keep_rounded;
            e.guard = 0;
          } else {
            CountFreeError(fs);
          }
        }
      } else {
        allocator_->Shrink(&e, keep_len);
      }
    } else if (e.guard > 0 &&
               e.end_with_guard() > drive_->geometry().conventional_bytes) {
      // Exactly-full extent: the file is closing, so its trailing shingle
      // guard (held while the tail tracks were still being written) can
      // return to the free pool.
      allocator_->Shrink(&e, e.length);
    }
    covered += e.length;
  }
  for (size_t i = keep; i < meta->extents.size(); i++) {
    FreeExtent(meta->extents[i]);
  }
  meta->extents.resize(keep);
}

Status FileStore::WriteAt(FileMeta* meta, uint64_t file_offset,
                          const Slice& data, uint64_t size_hint) {
  // Writers only append: file_offset always equals the flushed prefix.
  uint64_t capacity = 0;
  for (const Extent& e : meta->extents) capacity += e.length;
  uint64_t pos = file_offset;
  const char* src = data.data();
  uint64_t remaining = data.size();

  while (remaining > 0) {
    if (pos >= capacity) {
      // Locate the file's name for diagnostics lazily; GrowFile only uses
      // it in error messages.
      Status s = GrowFile("", meta, remaining, size_hint);
      if (!s.ok()) return s;
      capacity = 0;
      for (const Extent& e : meta->extents) capacity += e.length;
    }
    // Find the extent containing `pos`.
    uint64_t extent_begin = 0;
    for (const Extent& e : meta->extents) {
      const uint64_t extent_end = extent_begin + e.length;
      if (pos < extent_end) {
        const uint64_t in_extent = pos - extent_begin;
        const uint64_t m = std::min(remaining, e.length - in_extent);
        Status s = DriveWrite(e.offset + in_extent, Slice(src, m));
        if (!s.ok()) return s;
        src += m;
        pos += m;
        remaining -= m;
        break;
      }
      extent_begin = extent_end;
    }
  }
  return Status::OK();
}

void FileStore::FreeExtent(const Extent& e) {
  if (e.end_with_guard() <= drive_->geometry().conventional_bytes) {
    Status s = conv_files_free_.Free(e.offset, e.length + e.guard);
    if (!s.ok()) CountFreeError(s);
  } else {
    FreeAllocatorExtent(e);
  }
}

void FileStore::FreeAllocatorExtent(const Extent& e) {
  Status s = allocator_->Free(e);
  if (!s.ok()) CountFreeError(s);
}

void FileStore::CountFreeError(const Status& s) {
  (void)s;
  free_errors_++;
  if (c_free_errors_ != nullptr) c_free_errors_->Inc();
}

void FileStore::SetMetrics(
    const std::shared_ptr<obs::MetricsRegistry>& registry,
    const std::string& shard_label) {
  if (registry == nullptr) return;
  obs::Labels labels;
  if (!shard_label.empty()) labels.push_back({"shard", shard_label});
  std::lock_guard<std::mutex> l(mu_);
  c_free_errors_ = registry->RegisterCounter(
      "sealdb_fs_free_errors_total",
      "extent releases the allocator or free map refused as double-free "
      "or out-of-range",
      labels);
  if (c_free_errors_ != nullptr && free_errors_ > 0) {
    c_free_errors_->Add(free_errors_);
  }
}

uint64_t FileStore::free_errors() const {
  std::lock_guard<std::mutex> l(mu_);
  return free_errors_;
}

void FileStore::DropFileData(const FileMeta& meta) {
  for (const Extent& e : meta.extents) {
    drive_->Trim(e.offset, e.length);
  }
}

// ---------------------------------------------------------------------
// Public file API
// ---------------------------------------------------------------------

Status FileStore::NewWritableFile(const std::string& name, uint64_t size_hint,
                                  std::unique_ptr<WritableFile>* result,
                                  bool appendable) {
  {
    std::lock_guard<std::mutex> l(mu_);
    auto it = files_.find(name);
    if (it != files_.end()) {
      // Truncate semantics: drop the old incarnation.
      EraseFile(it, /*free_space=*/true);
    }
    FileMeta meta;
    meta.appendable = appendable;
    files_[name] = meta;
    Status s = PersistFileMeta(kCreateFile, name, meta);
    if (!s.ok()) return s;
  }
  *result = std::make_unique<StoreWritableFile>(this, name, size_hint);
  return Status::OK();
}

Status FileStore::NewRandomAccessFile(
    const std::string& name, std::unique_ptr<RandomAccessFile>* result) {
  {
    std::lock_guard<std::mutex> l(mu_);
    if (files_.find(name) == files_.end()) {
      return Status::NotFound("file not found", name);
    }
  }
  *result = std::make_unique<StoreRandomAccessFile>(this, name);
  return Status::OK();
}

Status FileStore::ReadFileRange(const std::string& name, uint64_t offset,
                                uint64_t n, char* scratch) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::IOError("file removed while open", name);
  }
  return ReadExtents(it->second, offset, n, scratch);
}

Status FileStore::NewSequentialFile(const std::string& name,
                                    std::unique_ptr<SequentialFile>* result) {
  {
    std::lock_guard<std::mutex> l(mu_);
    if (files_.find(name) == files_.end()) {
      return Status::NotFound("file not found", name);
    }
  }
  *result = std::make_unique<StoreSequentialFile>(this, name);
  return Status::OK();
}

Status FileStore::RemoveFile(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("file not found", name);
  }
  std::string payload;
  payload.push_back(static_cast<char>(kRemoveFileTag));
  PutLengthPrefixedSlice(&payload, name);
  Status s = JournalAppend(payload);
  if (!s.ok()) return s;
  EraseFile(it, /*free_space=*/true);
  return Status::OK();
}

void FileStore::EraseFile(std::map<std::string, FileMeta>::iterator it,
                          bool free_space) {
  const FileMeta& meta = it->second;
  if (free_space) {
    DropFileData(meta);
    if (meta.region_id == 0) {
      for (const Extent& e : meta.extents) FreeExtent(e);
    }
  }
  if (meta.region_id != 0) {
    // Set-granular reclamation: the region's space is recycled only when
    // its last SSTable dies (paper Sec. III-C "Delete").
    auto rit = regions_.find(meta.region_id);
    if (rit != regions_.end()) {
      if (--rit->second.live_files == 0) {
        if (free_space) FreeAllocatorExtent(rit->second.extent);
        regions_.erase(rit);
      }
    }
  }
  files_.erase(it);
}

void EncodeCommit(std::string* dst, const FileCommit& commit) {
  PutVarint32(dst, static_cast<uint32_t>(commit.tags.size()));
  for (const auto& [name, tag] : commit.tags) {
    PutLengthPrefixedSlice(dst, name);
    PutLengthPrefixedSlice(dst, tag);
  }
  PutVarint32(dst, static_cast<uint32_t>(commit.removes.size()));
  for (const std::string& name : commit.removes) {
    PutLengthPrefixedSlice(dst, name);
  }
  PutLengthPrefixedSlice(dst, commit.engine_state);
}

bool DecodeCommit(Slice in, FileCommit* commit) {
  *commit = FileCommit();
  uint32_t ntags, nremoves;
  if (!GetVarint32(&in, &ntags)) return false;
  for (uint32_t i = 0; i < ntags; i++) {
    Slice name, tag;
    if (!GetLengthPrefixedSlice(&in, &name) ||
        !GetLengthPrefixedSlice(&in, &tag)) {
      return false;
    }
    commit->tags[name.ToString()] = tag.ToString();
  }
  if (!GetVarint32(&in, &nremoves)) return false;
  for (uint32_t i = 0; i < nremoves; i++) {
    Slice name;
    if (!GetLengthPrefixedSlice(&in, &name)) return false;
    commit->removes.push_back(name.ToString());
  }
  Slice state;
  if (!GetLengthPrefixedSlice(&in, &state) || !in.empty()) return false;
  commit->engine_state = state.ToString();
  return true;
}

Status FileStore::Commit(const FileCommit& commit) {
  std::lock_guard<std::mutex> l(mu_);
  for (const auto& [name, tag] : commit.tags) {
    if (files_.find(name) == files_.end()) {
      return Status::NotFound("commit tags a missing file", name);
    }
  }
  std::string payload(1, static_cast<char>(kCommitTag));
  EncodeCommit(&payload, commit);
  Status s = JournalAppend(payload);
  if (!s.ok()) return s;
  for (const auto& [name, tag] : commit.tags) files_[name].tag = tag;
  for (const std::string& name : commit.removes) {
    auto it = files_.find(name);
    if (it != files_.end()) EraseFile(it, /*free_space=*/true);
  }
  engine_state_ = commit.engine_state;
  return Status::OK();
}

std::vector<FileInfo> FileStore::ListFiles() {
  std::lock_guard<std::mutex> l(mu_);
  std::vector<FileInfo> out;
  out.reserve(files_.size());
  for (const auto& [name, meta] : files_) {
    out.push_back({name, meta.size, meta.region_id, meta.tag});
  }
  return out;
}

std::string FileStore::engine_state() {
  std::lock_guard<std::mutex> l(mu_);
  return engine_state_;
}

bool FileStore::FileExists(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  return files_.find(name) != files_.end();
}

Status FileStore::GetFileSize(const std::string& name, uint64_t* size) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("file not found", name);
  }
  *size = it->second.size;
  return Status::OK();
}

std::vector<std::string> FileStore::GetChildren() {
  std::lock_guard<std::mutex> l(mu_);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, meta] : files_) names.push_back(name);
  return names;
}

// ---------------------------------------------------------------------
// Set-region API
// ---------------------------------------------------------------------

Status FileStore::AllocateRegion(uint64_t size, uint64_t* region_id,
                                 bool guarded) {
  std::lock_guard<std::mutex> l(mu_);
  RegionMeta region;
  Status s = guarded ? allocator_->AllocateGuarded(size, &region.extent)
                     : allocator_->Allocate(size, &region.extent);
  if (!s.ok()) return s;
  const uint64_t id = next_region_id_++;
  regions_[id] = region;
  *region_id = id;
  std::string payload;
  payload.push_back(static_cast<char>(kCreateRegion));
  PutVarint64(&payload, id);
  PutVarint64(&payload, region.extent.offset);
  PutVarint64(&payload, region.extent.length);
  PutVarint64(&payload, region.extent.guard);
  s = JournalAppend(payload);
  if (!s.ok()) return s;
  return Status::OK();
}

Status FileStore::NewWritableFileInRegion(
    uint64_t region_id, const std::string& name,
    std::unique_ptr<WritableFile>* result) {
  {
    std::lock_guard<std::mutex> l(mu_);
    auto rit = regions_.find(region_id);
    if (rit == regions_.end()) {
      return Status::NotFound("unknown region");
    }
    if (files_.find(name) != files_.end()) {
      return Status::InvalidArgument("file already exists", name);
    }
    FileMeta meta;
    meta.region_id = region_id;
    files_[name] = meta;
    rit->second.live_files++;
    Status s = PersistFileMeta(kCreateFile, name, meta);
    if (!s.ok()) return s;
  }
  *result = std::make_unique<StoreWritableFile>(this, name, 0);
  return Status::OK();
}

Status FileStore::SealRegion(uint64_t region_id) {
  std::lock_guard<std::mutex> l(mu_);
  auto rit = regions_.find(region_id);
  if (rit == regions_.end()) {
    return Status::NotFound("unknown region");
  }
  RegionMeta& region = rit->second;
  if (region.live_files == 0) {
    // Nothing was written into the region; drop it entirely.
    std::string payload;
    payload.push_back(static_cast<char>(kReleaseRegionTag));
    PutVarint64(&payload, region_id);
    Status s = JournalAppend(payload);
    if (!s.ok()) return s;
    FreeAllocatorExtent(region.extent);
    regions_.erase(rit);
    return Status::OK();
  }
  allocator_->Shrink(&region.extent, region.cursor);
  region.sealed = true;
  std::string payload;
  payload.push_back(static_cast<char>(kSealRegionTag));
  PutVarint64(&payload, region_id);
  PutVarint64(&payload, region.extent.offset);
  PutVarint64(&payload, region.extent.length);
  PutVarint64(&payload, region.extent.guard);
  return JournalAppend(payload);
}

Status FileStore::GetRegionExtent(uint64_t region_id, Extent* extent) {
  std::lock_guard<std::mutex> l(mu_);
  auto rit = regions_.find(region_id);
  if (rit == regions_.end()) {
    return Status::NotFound("unknown region");
  }
  *extent = rit->second.extent;
  return Status::OK();
}

Status FileStore::GetFileExtents(const std::string& name,
                                 std::vector<Extent>* out) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("file not found", name);
  }
  *out = it->second.extents;
  return Status::OK();
}

}  // namespace sealdb::fs
