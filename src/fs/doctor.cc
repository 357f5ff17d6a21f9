#include "fs/doctor.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "core/shard_layout.h"
#include "fs/extent.h"
#include "fs/file_store.h"
#include "fs/free_map.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace sealdb::fs {

namespace {

uint64_t RoundUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }

// The doctor's own copy of the recovered metadata. Deliberately parsed by
// this file, not by FileStore: an independent reader cannot inherit a
// recovery-path bug.
struct DocFile {
  uint64_t size = 0;
  uint64_t region_id = 0;
  std::vector<Extent> extents;
  std::string tag;  // engine tag (set by commit records)
};

struct DocRegion {
  Extent extent;
  bool sealed = false;
  uint64_t live_files = 0;
};

struct DocState {
  uint64_t next_region_id = 1;
  std::string engine_state;
  std::map<uint64_t, DocRegion> regions;
  std::map<std::string, DocFile> files;

  // Replay keeps region occupancy current: the record that removes a
  // region's last file releases the region, as the live store does.
  void EraseFile(std::map<std::string, DocFile>::iterator it) {
    auto rit = regions.find(it->second.region_id);
    if (rit != regions.end() && --rit->second.live_files == 0) {
      regions.erase(rit);
    }
    files.erase(it);
  }
  void PutFile(const std::string& name, DocFile f) {
    auto rit = regions.find(f.region_id);
    if (rit != regions.end()) rit->second.live_files++;
    auto it = files.find(name);
    if (it != files.end()) EraseFile(it);
    files[name] = std::move(f);
  }
};

// Mirror of FileStore's conventional-slice geometry (file_store.cc):
// two checkpoint slots, then each slot's append log, then the WAL pool.
struct ConvGeometry {
  uint64_t conv_base, conv_len, block;
  uint64_t SlotBytes() const { return conv_len / 16 / block * block; }
  uint64_t SlotOffset(int slot) const {
    return conv_base + static_cast<uint64_t>(slot) * SlotBytes();
  }
  uint64_t LogBytes() const { return conv_len / 4 / block * block; }
  uint64_t LogBegin(int slot) const {
    return SlotOffset(2) + static_cast<uint64_t>(slot) * LogBytes();
  }
  uint64_t LogEnd(int slot) const { return LogBegin(slot) + LogBytes(); }
  uint64_t ConvFilesBegin() const { return LogEnd(1); }
  uint64_t ConvFilesEnd() const { return conv_base + conv_len; }
};

bool DecodeDocFileMeta(Slice* in, std::string* name, DocFile* f) {
  Slice name_slice;
  uint32_t nextents;
  if (!GetLengthPrefixedSlice(in, &name_slice) ||
      !GetVarint64(in, &f->region_id) || !GetVarint64(in, &f->size) ||
      !GetVarint32(in, &nextents)) {
    return false;
  }
  *name = name_slice.ToString();
  f->extents.clear();
  for (uint32_t i = 0; i < nextents; i++) {
    Extent e;
    if (!GetVarint64(in, &e.offset) || !GetVarint64(in, &e.length) ||
        !GetVarint64(in, &e.guard)) {
      return false;
    }
    f->extents.push_back(e);
  }
  return true;
}

bool DecodeDocState(Slice in, DocState* st) {
  st->files.clear();
  st->regions.clear();
  uint64_t nregions, nfiles;
  Slice engine_state;
  if (!GetVarint64(&in, &st->next_region_id) ||
      !GetLengthPrefixedSlice(&in, &engine_state) ||
      !GetVarint64(&in, &nregions)) {
    return false;
  }
  st->engine_state = engine_state.ToString();
  for (uint64_t i = 0; i < nregions; i++) {
    uint64_t id;
    DocRegion r;
    if (!GetVarint64(&in, &id) || !GetVarint64(&in, &r.extent.offset) ||
        !GetVarint64(&in, &r.extent.length) ||
        !GetVarint64(&in, &r.extent.guard) || in.size() < 1) {
      return false;
    }
    r.sealed = in[0] != 0;
    in.remove_prefix(1);
    st->regions[id] = r;
  }
  if (!GetVarint64(&in, &nfiles)) return false;
  for (uint64_t i = 0; i < nfiles; i++) {
    std::string name;
    DocFile f;
    Slice tag;
    if (!DecodeDocFileMeta(&in, &name, &f) ||
        !GetLengthPrefixedSlice(&in, &tag)) {
      return false;
    }
    f.tag = tag.ToString();
    st->PutFile(name, std::move(f));
  }
  return true;
}

bool ApplyDocRecord(Slice payload, DocState* st) {
  if (payload.empty()) return false;
  const uint8_t tag = static_cast<uint8_t>(payload[0]);
  payload.remove_prefix(1);
  switch (tag) {
    case kCreateFile:
    case kUpdateFile: {
      std::string name;
      DocFile f;
      if (!DecodeDocFileMeta(&payload, &name, &f)) return false;
      auto it = st->files.find(name);
      if (tag == kUpdateFile && it != st->files.end()) f.tag = it->second.tag;
      st->PutFile(name, std::move(f));
      return true;
    }
    case kRemoveFileTag: {
      Slice name;
      if (!GetLengthPrefixedSlice(&payload, &name)) return false;
      auto it = st->files.find(name.ToString());
      if (it != st->files.end()) st->EraseFile(it);
      return true;
    }
    case kCreateRegion: {
      uint64_t id;
      DocRegion r;
      if (!GetVarint64(&payload, &id) ||
          !GetVarint64(&payload, &r.extent.offset) ||
          !GetVarint64(&payload, &r.extent.length) ||
          !GetVarint64(&payload, &r.extent.guard)) {
        return false;
      }
      st->regions[id] = r;
      st->next_region_id = std::max(st->next_region_id, id + 1);
      return true;
    }
    case kSealRegionTag: {
      uint64_t id;
      Extent e;
      if (!GetVarint64(&payload, &id) || !GetVarint64(&payload, &e.offset) ||
          !GetVarint64(&payload, &e.length) || !GetVarint64(&payload, &e.guard)) {
        return false;
      }
      auto it = st->regions.find(id);
      if (it != st->regions.end()) {
        it->second.extent = e;
        it->second.sealed = true;
      }
      return true;
    }
    case kReleaseRegionTag: {
      uint64_t id;
      if (!GetVarint64(&payload, &id)) return false;
      st->regions.erase(id);
      return true;
    }
    case kCommitTag: {
      // Tag changes, removals, then the engine's state blob.
      uint32_t ntags, nremoves;
      if (!GetVarint32(&payload, &ntags)) return false;
      std::vector<std::pair<std::string, std::string>> tags;
      for (uint32_t i = 0; i < ntags; i++) {
        Slice name, file_tag;
        if (!GetLengthPrefixedSlice(&payload, &name) ||
            !GetLengthPrefixedSlice(&payload, &file_tag)) {
          return false;
        }
        tags.emplace_back(name.ToString(), file_tag.ToString());
      }
      if (!GetVarint32(&payload, &nremoves)) return false;
      std::vector<std::string> removes;
      for (uint32_t i = 0; i < nremoves; i++) {
        Slice name;
        if (!GetLengthPrefixedSlice(&payload, &name)) return false;
        removes.push_back(name.ToString());
      }
      Slice engine_state;
      if (!GetLengthPrefixedSlice(&payload, &engine_state) ||
          !payload.empty()) {
        return false;
      }
      for (auto& [name, file_tag] : tags) {
        auto it = st->files.find(name);
        if (it != st->files.end()) it->second.tag = std::move(file_tag);
      }
      for (const std::string& name : removes) {
        auto it = st->files.find(name);
        if (it != st->files.end()) st->EraseFile(it);
      }
      st->engine_state = engine_state.ToString();
      return true;
    }
    default:
      return false;
  }
}

std::string EncodeDocState(const DocState& st) {
  std::string out;
  PutVarint64(&out, st.next_region_id);
  PutLengthPrefixedSlice(&out, st.engine_state);
  PutVarint64(&out, st.regions.size());
  for (const auto& [id, r] : st.regions) {
    PutVarint64(&out, id);
    PutVarint64(&out, r.extent.offset);
    PutVarint64(&out, r.extent.length);
    PutVarint64(&out, r.extent.guard);
    out.push_back(r.sealed ? 1 : 0);
  }
  PutVarint64(&out, st.files.size());
  for (const auto& [name, f] : st.files) {
    PutLengthPrefixedSlice(&out, name);
    PutVarint64(&out, f.region_id);
    PutVarint64(&out, f.size);
    PutVarint32(&out, static_cast<uint32_t>(f.extents.size()));
    for (const Extent& e : f.extents) {
      PutVarint64(&out, e.offset);
      PutVarint64(&out, e.length);
      PutVarint64(&out, e.guard);
    }
    PutLengthPrefixedSlice(&out, f.tag);
  }
  return out;
}

// Read the freshest valid checkpoint slot; damaged slot count and the max
// sequence number seen anywhere (checkpoints + journal) feed the repair.
bool LoadCheckpoint(smr::Drive* drive, const ConvGeometry& cg, DocState* st,
                    uint64_t* ckpt_seq, int* active_slot, int* damaged_slots) {
  uint64_t best_seq = 0;
  int best_slot = -1;
  std::string best_payload;
  std::string scratch;
  *damaged_slots = 0;
  for (int slot = 0; slot < 2; slot++) {
    scratch.resize(cg.block);
    if (!drive->Read(cg.SlotOffset(slot), cg.block, scratch.data()).ok()) {
      (*damaged_slots)++;
      continue;
    }
    Slice header(scratch);
    uint32_t magic, len, crc;
    uint64_t seq;
    bool good = GetFixed32(&header, &magic) && magic == kCkptMagic &&
                GetFixed64(&header, &seq) && GetFixed32(&header, &len) &&
                GetFixed32(&header, &crc) &&
                kRecordHeader + len <= cg.SlotBytes();
    if (good) {
      const uint64_t total = RoundUp(kRecordHeader + len, cg.block);
      scratch.resize(total);
      good = drive->Read(cg.SlotOffset(slot), total, scratch.data()).ok() &&
             crc32c::Unmask(crc) ==
                 crc32c::Value(scratch.data() + kRecordHeader, len);
    }
    if (!good) {
      (*damaged_slots)++;
      continue;
    }
    if (seq > best_seq) {
      best_seq = seq;
      best_slot = slot;
      best_payload.assign(scratch.data() + kRecordHeader, len);
    }
  }
  if (best_slot < 0) return false;
  if (!DecodeDocState(Slice(best_payload), st)) return false;
  *ckpt_seq = best_seq;
  *active_slot = best_slot;
  return true;
}

// Replay the records of log `slot` that chain from `expect`; returns
// records applied and tracks the last applied sequence in *last_seq.
uint64_t ReplayLog(smr::Drive* drive, const ConvGeometry& cg, int slot,
                   uint64_t expect, DocState* st, uint64_t* last_seq,
                   std::vector<std::string>* errors) {
  uint64_t pos = cg.LogBegin(slot);
  uint64_t applied = 0;
  std::string scratch;
  while (pos + cg.block <= cg.LogEnd(slot)) {
    scratch.resize(cg.block);
    if (!drive->Read(pos, cg.block, scratch.data()).ok()) break;
    Slice header(scratch);
    uint32_t magic, len, crc;
    uint64_t seq;
    if (!GetFixed32(&header, &magic) || magic != kJournalMagic) break;
    if (!GetFixed64(&header, &seq) || !GetFixed32(&header, &len) ||
        !GetFixed32(&header, &crc)) {
      break;
    }
    if (seq != expect) break;  // stale or out-of-order tail
    const uint64_t total = RoundUp(kRecordHeader + len, cg.block);
    if (pos + total > cg.LogEnd(slot)) break;
    scratch.resize(total);
    if (!drive->Read(pos, total, scratch.data()).ok()) break;
    const char* payload = scratch.data() + kRecordHeader;
    if (crc32c::Unmask(crc) != crc32c::Value(payload, len)) break;
    if (!ApplyDocRecord(Slice(payload, len), st)) {
      errors->push_back("journal record seq " + std::to_string(seq) +
                        " is well-framed but undecodable");
      break;
    }
    applied++;
    *last_seq = seq;
    expect = seq + 1;
    pos += total;
  }
  return applied;
}

std::string Describe(const std::string& what, const std::string& name,
                     const Extent& e) {
  return what + ": " + name + " " + e.ToString();
}

// One live allocation for the overlap sweep. Region carves are checked
// against their region, not here; standalone extents and region extents
// must be pairwise disjoint including guards.
struct Alloc {
  uint64_t begin, end;
  std::string owner;
};

// Every block of each live file's written prefix (its size rounded up to
// blocks, walked over its extents) must be valid on the drive: a live
// table or log whose blocks were trimmed reads back as zeros.
void CheckLiveBlocks(smr::Drive* drive, const DocState& st, uint64_t block,
                     ShardDoctorReport* sr) {
  for (const auto& [name, f] : st.files) {
    uint64_t remaining = RoundUp(f.size, block);
    uint64_t invalid = 0, first_invalid = 0;
    for (const Extent& e : f.extents) {
      if (remaining == 0) break;
      const uint64_t n = std::min(remaining, e.length);
      remaining -= n;
      // An extent past the drive's end is reported by the range check.
      if (e.offset + n > drive->capacity()) continue;
      if (drive->IsValid(e.offset, n)) continue;
      for (uint64_t off = e.offset; off < e.offset + n; off += block) {
        if (drive->IsValid(off, block)) continue;
        if (invalid++ == 0) first_invalid = off;
      }
    }
    if (invalid > 0) {
      sr->errors.push_back(
          "live file " + name + ": " + std::to_string(invalid) +
          " block(s) of its written prefix not valid on the drive, first at " +
          std::to_string(first_invalid));
    }
  }
}

}  // namespace

std::string DoctorReport::ToString() const {
  std::string out;
  char buf[256];
  for (const auto& e : errors) out += "ERROR: " + e + "\n";
  for (const auto& s : shards) {
    std::snprintf(buf, sizeof(buf),
                  "shard %d: %llu files, %llu regions, %llu journal records, "
                  "%llu live bytes, %llu free bytes",
                  s.shard, static_cast<unsigned long long>(s.files),
                  static_cast<unsigned long long>(s.regions),
                  static_cast<unsigned long long>(s.journal_records),
                  static_cast<unsigned long long>(s.live_bytes),
                  static_cast<unsigned long long>(s.free_bytes));
    out += buf;
    if (s.damaged_checkpoint_slots > 0) {
      out += ", " + std::to_string(s.damaged_checkpoint_slots) +
             " damaged checkpoint slot(s)";
    }
    if (s.rewrote_checkpoints) {
      out += " [repaired: dropped " + std::to_string(s.dropped_files) +
             " file(s), " + std::to_string(s.dropped_regions) +
             " region(s), checkpoints rewritten]";
    }
    out += "\n";
    for (const auto& e : s.errors) {
      out += "  ERROR: " + e + "\n";
    }
    for (const auto& w : s.warnings) {
      out += "  note: " + w + "\n";
    }
  }
  out += ok() ? "doctor: clean\n" : "doctor: corruption found\n";
  return out;
}

Status RunDoctor(smr::Drive* drive, const DoctorOptions& options,
                 DoctorReport* report) {
  *report = DoctorReport();
  const smr::Geometry& geo = drive->geometry();
  const uint64_t alignment =
      options.alignment != 0 ? options.alignment : geo.track_bytes;
  const core::ShardLayout layout(geo, options.num_shards, alignment);

  if (Status s = layout.VerifySuperblock(drive); !s.ok()) {
    report->errors.push_back(s.ToString());
    return Status::OK();  // nothing below the superblock can be trusted
  }

  for (int shard = 0; shard < layout.num_shards(); shard++) {
    const core::ShardRegion& rg = layout.region(shard);
    ShardDoctorReport sr;
    sr.shard = shard;
    ConvGeometry cg{rg.conv_base, rg.conv_len, geo.block_bytes};

    // 1. Checkpoint + journal -> the doctor's independent state copy.
    DocState st;
    uint64_t ckpt_seq = 0, last_seq = 0;
    int active_slot = -1;
    if (!LoadCheckpoint(drive, cg, &st, &ckpt_seq, &active_slot,
                        &sr.damaged_checkpoint_slots)) {
      sr.errors.push_back("no valid filestore checkpoint in either slot");
      report->shards.push_back(std::move(sr));
      continue;
    }
    if (sr.damaged_checkpoint_slots > 0) {
      sr.warnings.push_back(
          std::to_string(sr.damaged_checkpoint_slots) +
          " checkpoint slot(s) damaged (recovery survives on the other)");
    }
    // The checkpoint's own log, then the other slot's if that slot is
    // damaged: it may have held the newer checkpoint, whose log continues
    // one sequence number past it (FileStore::Recover).
    last_seq = ckpt_seq;
    sr.journal_records = ReplayLog(drive, cg, active_slot, ckpt_seq + 1, &st,
                                   &last_seq, &sr.errors);
    if (sr.damaged_checkpoint_slots > 0) {
      sr.journal_records += ReplayLog(drive, cg, 1 - active_slot,
                                      last_seq + 2, &st, &last_seq,
                                      &sr.errors);
    }

    // 2. Extent cross-consistency. Files with provably-wrong extents are
    // collected for repair; regions they sit in stay.
    std::vector<Alloc> allocs;
    std::vector<std::string> doomed;  // files repair would drop
    for (auto& [id, r] : st.regions) r.live_files = 0;
    for (const auto& [name, f] : st.files) {
      bool bad = false;
      if (f.region_id != 0) {
        auto rit = st.regions.find(f.region_id);
        if (rit == st.regions.end()) {
          sr.errors.push_back("file " + name + " references unknown region " +
                              std::to_string(f.region_id));
          doomed.push_back(name);
          continue;
        }
        rit->second.live_files++;
        const Extent& reg = rit->second.extent;
        for (const Extent& e : f.extents) {
          // A region file may overflow into standalone extents when the
          // set reservation ran short; those join the overlap sweep.
          if (e.offset >= reg.offset && e.end() <= reg.end()) continue;
          if (e.offset >= reg.offset && e.offset < reg.end()) {
            sr.errors.push_back(
                Describe("extent straddles its region boundary", name, e));
            bad = true;
          } else {
            allocs.push_back({e.offset, e.end_with_guard(), name});
          }
        }
      } else {
        for (const Extent& e : f.extents) {
          allocs.push_back({e.offset, e.end_with_guard(), name});
        }
      }
      // Range check: every extent lives in this shard's conventional pool
      // or its shingled data slice.
      for (const Extent& e : f.extents) {
        const bool in_conv = e.offset >= cg.ConvFilesBegin() &&
                             e.end_with_guard() <= cg.ConvFilesEnd();
        const bool in_data =
            e.offset >= rg.data_base && e.end_with_guard() <= rg.data_limit;
        if (!in_conv && !in_data && e.length + e.guard > 0) {
          sr.errors.push_back(
              Describe("extent outside the shard's storage ranges", name, e));
          bad = true;
        }
      }
      if (bad) doomed.push_back(name);
    }
    for (const auto& [id, r] : st.regions) {
      const std::string rname = "region " + std::to_string(id);
      if (r.live_files == 0) {
        sr.orphaned_regions++;
        sr.warnings.push_back(rname +
                              " holds no live files (reclaimed on recovery)");
        continue;  // recovery frees it; it does not claim space
      }
      if (!(r.extent.offset >= rg.data_base &&
            r.extent.end_with_guard() <= rg.data_limit)) {
        sr.errors.push_back(
            Describe("extent outside the shard's storage ranges", rname,
                     r.extent));
        continue;
      }
      allocs.push_back({r.extent.offset, r.extent.end_with_guard(), rname});
    }

    // 3. Overlap sweep over the live allocations: the free map recovery
    // derives (slice minus these) is only sound when they are disjoint.
    std::sort(allocs.begin(), allocs.end(),
              [](const Alloc& a, const Alloc& b) {
                return a.begin != b.begin ? a.begin < b.begin : a.end < b.end;
              });
    for (size_t i = 1; i < allocs.size(); i++) {
      const Alloc& prev = allocs[i - 1];
      const Alloc& cur = allocs[i];
      if (cur.begin < prev.end) {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "double-allocated range: %s [%llu, %llu) overlaps %s "
                      "[%llu, %llu)",
                      cur.owner.c_str(),
                      static_cast<unsigned long long>(cur.begin),
                      static_cast<unsigned long long>(cur.end),
                      prev.owner.c_str(),
                      static_cast<unsigned long long>(prev.begin),
                      static_cast<unsigned long long>(prev.end));
        sr.errors.push_back(buf);
        // Repair keeps the lower-offset claimant (it owned the range
        // first in allocation order); a region always wins over a file.
        if (cur.owner.rfind("region ", 0) != 0) {
          doomed.push_back(cur.owner);
        } else if (prev.owner.rfind("region ", 0) != 0) {
          doomed.push_back(prev.owner);
        }
      }
    }

    // 4. Re-derive the data-slice free map from the surviving extents —
    // what the allocator will compute on the next Recover().
    {
      FreeMap fm;
      fm.Reset(rg.data_base, rg.data_limit - rg.data_base);
      uint64_t live = 0;
      for (const Alloc& a : allocs) {
        if (a.begin >= rg.data_base && a.end <= rg.data_limit) {
          if (fm.Carve(a.begin, a.end - a.begin).ok()) live += a.end - a.begin;
        }
      }
      sr.live_bytes = live;
      sr.free_bytes = fm.free_bytes();
    }

    sr.files = st.files.size();
    sr.regions = st.regions.size();

    // 5. Repair: drop the doomed files, release orphaned regions, rewrite
    // both checkpoint slots past every surviving sequence number so stale
    // journal records cannot resurrect the dropped state.
    if (options.repair &&
        (!doomed.empty() || sr.orphaned_regions > 0 ||
         sr.damaged_checkpoint_slots > 0 || !sr.errors.empty())) {
      std::sort(doomed.begin(), doomed.end());
      doomed.erase(std::unique(doomed.begin(), doomed.end()), doomed.end());
      for (const std::string& name : doomed) {
        if (st.files.erase(name) > 0) sr.dropped_files++;
      }
      for (auto& [id, r] : st.regions) r.live_files = 0;
      for (const auto& [name, f] : st.files) {
        auto rit = st.regions.find(f.region_id);
        if (rit != st.regions.end()) rit->second.live_files++;
      }
      for (auto it = st.regions.begin(); it != st.regions.end();) {
        if (it->second.live_files == 0) {
          sr.dropped_regions++;
          it = st.regions.erase(it);
        } else {
          ++it;
        }
      }
      const std::string payload = EncodeDocState(st);
      if (kRecordHeader + payload.size() > cg.SlotBytes()) {
        return Status::NoSpace("repaired checkpoint exceeds slot size");
      }
      uint64_t seq = std::max(ckpt_seq, last_seq) + 1;
      // The slot recovery would not load goes first, so a power cut
      // during the rewrite still leaves one valid checkpoint.
      for (const int slot : {1 - active_slot, active_slot}) {
        std::string rec;
        PutFixed32(&rec, kCkptMagic);
        PutFixed64(&rec, seq + slot);  // slot 1 freshest, like a new store
        PutFixed32(&rec, static_cast<uint32_t>(payload.size()));
        PutFixed32(&rec,
                   crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
        rec.append(payload);
        rec.resize(RoundUp(rec.size(), cg.block), '\0');
        Status s = drive->Write(cg.SlotOffset(slot), rec);
        if (!s.ok()) return s;
      }
      sr.rewrote_checkpoints = true;
      // With both slots past last_seq, neither log (<= last_seq) chains
      // any more: both are dead; re-check on the caller's next
      // RunDoctor shows the clean state.
      sr.errors.clear();
    }

    // 6. Live data on the media. After the repair, so only surviving files
    // are checked and the finding is never cleared: no rewrite of the
    // metadata brings trimmed blocks back.
    CheckLiveBlocks(drive, st, geo.block_bytes, &sr);

    report->shards.push_back(std::move(sr));
  }
  return Status::OK();
}

}  // namespace sealdb::fs
