#include "lsm/version_set.h"

#include <algorithm>
#include <cstdio>

#include "fs/file_store.h"
#include "lsm/filename.h"
#include "lsm/merger.h"
#include "lsm/table.h"
#include "lsm/table_cache.h"
#include "lsm/two_level_iterator.h"
#include "util/coding.h"
#include "util/logging.h"

namespace sealdb {

// Push a fresh memtable output past empty low levels, up to this level.
static const int kMaxMemCompactLevel = 2;

// Amplification factor |L_{i+1}| / |L_i| (paper: 10).
static const double kLevelSizeMultiplier = 10.0;

// Level-0 files that make level 0 the most urgent compaction.
static const int kL0CompactionTrigger = 4;

// Overlapping last level (SMRDB mode): merge once this many runs mutually
// overlap. SMRDB merges eagerly and pays with large, frequent whole-range
// merges (paper Fig. 10: ~900 MB on average).
static const int kMaxOverlapRuns = 2;

// Set-aware picking (kSet): a set qualifies for priority compaction once
// this many of its members are invalidated. Lower values override the
// fair rotation too often and inflate write amplification by
// re-compacting the same range.
static const uint64_t kInvalidSetPriorityThreshold = 5;

static size_t TargetFileSize(const Options* options) {
  return options->max_file_size;
}

// Maximum bytes of overlaps in grandparent (i.e., level+2) before we
// stop building a single file in a level->level+1 compaction.
static int64_t MaxGrandParentOverlapBytesFor(const Options* options) {
  return 10 * TargetFileSize(options);
}

// Maximum number of bytes in all compacted files.  We avoid expanding
// the lower level file set of a compaction if it would make the
// total compaction cover more than this many bytes.
static int64_t ExpandedCompactionByteSizeLimit(const Options* options) {
  return 25 * TargetFileSize(options);
}

static double MaxBytesForLevelImpl(const Options* options, int level) {
  if (options->allow_overlap_last_level &&
      level == options->num_levels - 1) {
    return 1e18;  // the overlapping last level is bounded by depth, not size
  }
  double result = static_cast<double>(options->max_bytes_for_level_base);
  for (int l = 1; l < level; l++) {
    result *= kLevelSizeMultiplier;
  }
  return result;
}

static uint64_t MaxFileSizeForLevelImpl(const Options* options,
                                        int level) {
  (void)level;
  return TargetFileSize(options);
}

static int64_t TotalFileSize(const std::vector<FileMetaData*>& files) {
  int64_t sum = 0;
  for (size_t i = 0; i < files.size(); i++) {
    sum += files[i]->file_size;
  }
  return sum;
}

Version::~Version() {
  assert(refs_ == 0);

  // Remove from linked list
  prev_->next_ = next_;
  next_->prev_ = prev_;

  // Drop references to files. A table no version references any more is
  // dead: the commit that dropped it from the current version has landed.
  for (size_t level = 0; level < files_.size(); level++) {
    for (size_t i = 0; i < files_[level].size(); i++) {
      FileMetaData* f = files_[level][i];
      assert(f->refs > 0);
      f->refs--;
      if (f->refs <= 0) {
        vset_->obsolete_files_.push_back(f->number);
        delete f;
      }
    }
  }
}

Version::Version(VersionSet* vset)
    : vset_(vset),
      next_(this),
      prev_(this),
      refs_(0),
      files_(vset->NumLevels()),
      file_to_compact_(nullptr),
      file_to_compact_level_(-1),
      compaction_score_(-1),
      compaction_level_(-1) {}

bool Version::LevelIsOverlapping(int level) const {
  if (level == 0) return true;
  return vset_->options()->allow_overlap_last_level &&
         level == vset_->NumLevels() - 1;
}

int Version::MaxOverlapDepth(int level) const {
  // Sweep over file endpoints; depth is the running count of open ranges.
  const InternalKeyComparator& icmp = vset_->icmp_;
  struct Event {
    InternalKey key;
    int delta;
  };
  std::vector<Event> events;
  events.reserve(files_[level].size() * 2);
  for (FileMetaData* f : files_[level]) {
    events.push_back({f->smallest, +1});
    events.push_back({f->largest, -1});
  }
  std::sort(events.begin(), events.end(),
            [&icmp](const Event& a, const Event& b) {
              int c = icmp.Compare(a.key, b.key);
              if (c != 0) return c < 0;
              // Opens sort before closes at the same key so touching
              // ranges count as overlapping.
              return a.delta > b.delta;
            });
  int depth = 0, max_depth = 0;
  for (const Event& e : events) {
    depth += e.delta;
    max_depth = std::max(max_depth, depth);
  }
  return max_depth;
}

int FindFile(const InternalKeyComparator& icmp,
             const std::vector<FileMetaData*>& files, const Slice& key) {
  uint32_t left = 0;
  uint32_t right = files.size();
  while (left < right) {
    uint32_t mid = (left + right) / 2;
    const FileMetaData* f = files[mid];
    if (icmp.Compare(f->largest.Encode(), key) < 0) {
      // Key at "mid.largest" is < "target".  Therefore all
      // files at or before "mid" are uninteresting.
      left = mid + 1;
    } else {
      // Key at "mid.largest" is >= "target".  Therefore all files
      // after "mid" are uninteresting.
      right = mid;
    }
  }
  return right;
}

static bool AfterFile(const Comparator* ucmp, const Slice* user_key,
                      const FileMetaData* f) {
  // null user_key occurs before all keys and is therefore never after *f
  return (user_key != nullptr &&
          ucmp->Compare(*user_key, f->largest.user_key()) > 0);
}

static bool BeforeFile(const Comparator* ucmp, const Slice* user_key,
                       const FileMetaData* f) {
  // null user_key occurs after all keys and is therefore never before *f
  return (user_key != nullptr &&
          ucmp->Compare(*user_key, f->smallest.user_key()) < 0);
}

bool SomeFileOverlapsRange(const InternalKeyComparator& icmp,
                           bool disjoint_sorted_files,
                           const std::vector<FileMetaData*>& files,
                           const Slice* smallest_user_key,
                           const Slice* largest_user_key) {
  const Comparator* ucmp = icmp.user_comparator();
  if (!disjoint_sorted_files) {
    // Need to check against all files
    for (size_t i = 0; i < files.size(); i++) {
      const FileMetaData* f = files[i];
      if (AfterFile(ucmp, smallest_user_key, f) ||
          BeforeFile(ucmp, largest_user_key, f)) {
        // No overlap
      } else {
        return true;  // Overlap
      }
    }
    return false;
  }

  // Binary search over file list
  uint32_t index = 0;
  if (smallest_user_key != nullptr) {
    // Find the earliest possible internal key for smallest_user_key
    InternalKey small_key(*smallest_user_key, kMaxSequenceNumber,
                          kValueTypeForSeek);
    index = FindFile(icmp, files, small_key.Encode());
  }

  if (index >= files.size()) {
    // beginning of range is after all files, so no overlap.
    return false;
  }

  return !BeforeFile(ucmp, largest_user_key, files[index]);
}

// An internal iterator.  For a given version/level pair, yields
// information about the files in the level.  For a given entry, key()
// is the largest key that occurs in the file, and value() is an
// 16-byte value containing the file number and file size, both
// encoded using EncodeFixed64.
class Version::LevelFileNumIterator : public Iterator {
 public:
  LevelFileNumIterator(const InternalKeyComparator& icmp,
                       const std::vector<FileMetaData*>* flist)
      : icmp_(icmp), flist_(flist), index_(flist->size()) {  // Marks as invalid
  }
  bool Valid() const override { return index_ < flist_->size(); }
  void Seek(const Slice& target) override {
    index_ = FindFile(icmp_, *flist_, target);
  }
  void SeekToFirst() override { index_ = 0; }
  void SeekToLast() override {
    index_ = flist_->empty() ? 0 : flist_->size() - 1;
  }
  void Next() override {
    assert(Valid());
    index_++;
  }
  void Prev() override {
    assert(Valid());
    if (index_ == 0) {
      index_ = flist_->size();  // Marks as invalid
    } else {
      index_--;
    }
  }
  Slice key() const override {
    assert(Valid());
    return (*flist_)[index_]->largest.Encode();
  }
  Slice value() const override {
    assert(Valid());
    EncodeFixed64(value_buf_, (*flist_)[index_]->number);
    EncodeFixed64(value_buf_ + 8, (*flist_)[index_]->file_size);
    return Slice(value_buf_, sizeof(value_buf_));
  }
  Status status() const override { return Status::OK(); }

 private:
  const InternalKeyComparator icmp_;
  const std::vector<FileMetaData*>* const flist_;
  uint32_t index_;

  // Backing store for value().  Holds the file number and size.
  mutable char value_buf_[16];
};

static Iterator* GetFileIterator(void* arg, const ReadOptions& options,
                                 const Slice& file_value) {
  TableCache* cache = reinterpret_cast<TableCache*>(arg);
  if (file_value.size() != 16) {
    return NewErrorIterator(
        Status::Corruption("FileReader invoked with unexpected value"));
  } else {
    return cache->NewIterator(options, DecodeFixed64(file_value.data()),
                              DecodeFixed64(file_value.data() + 8));
  }
}

Iterator* Version::NewConcatenatingIterator(const ReadOptions& options,
                                            int level) const {
  return NewTwoLevelIterator(
      new LevelFileNumIterator(vset_->icmp_, &files_[level]), &GetFileIterator,
      vset_->table_cache_, options);
}

void Version::AddIterators(const ReadOptions& options,
                           std::vector<Iterator*>* iters) {
  for (int level = 0; level < vset_->NumLevels(); level++) {
    if (files_[level].empty()) continue;
    if (LevelIsOverlapping(level)) {
      // Files may overlap each other: one iterator per file.
      for (size_t i = 0; i < files_[level].size(); i++) {
        iters->push_back(vset_->table_cache_->NewIterator(
            options, files_[level][i]->number, files_[level][i]->file_size));
      }
    } else {
      // For sorted levels, use a concatenating iterator that sequentially
      // walks through the non-overlapping files, opening them lazily.
      iters->push_back(NewConcatenatingIterator(options, level));
    }
  }
}

// Callback from TableCache::Get()
namespace {
enum SaverState {
  kNotFound,
  kFound,
  kDeleted,
  kCorrupt,
};
struct Saver {
  SaverState state;
  const Comparator* ucmp;
  Slice user_key;
  std::string* value;
};
}  // namespace
static void SaveValue(void* arg, const Slice& ikey, const Slice& v) {
  Saver* s = reinterpret_cast<Saver*>(arg);
  ParsedInternalKey parsed_key;
  if (!ParseInternalKey(ikey, &parsed_key)) {
    s->state = kCorrupt;
  } else {
    if (s->ucmp->Compare(parsed_key.user_key, s->user_key) == 0) {
      s->state = (parsed_key.type == kTypeValue) ? kFound : kDeleted;
      if (s->state == kFound) {
        s->value->assign(v.data(), v.size());
      }
    }
  }
}

static bool NewestFirst(FileMetaData* a, FileMetaData* b) {
  return a->number > b->number;
}

void Version::ForEachOverlapping(Slice user_key, Slice internal_key, void* arg,
                                 bool (*func)(void*, int, FileMetaData*)) {
  const Comparator* ucmp = vset_->icmp_.user_comparator();

  std::vector<FileMetaData*> tmp;
  for (int level = 0; level < vset_->NumLevels(); level++) {
    size_t num_files = files_[level].size();
    if (num_files == 0) continue;

    if (LevelIsOverlapping(level)) {
      // Search all candidate files in order from newest to oldest.
      tmp.clear();
      tmp.reserve(num_files);
      for (uint32_t i = 0; i < num_files; i++) {
        FileMetaData* f = files_[level][i];
        if (ucmp->Compare(user_key, f->smallest.user_key()) >= 0 &&
            ucmp->Compare(user_key, f->largest.user_key()) <= 0) {
          tmp.push_back(f);
        }
      }
      if (tmp.empty()) continue;
      std::sort(tmp.begin(), tmp.end(), NewestFirst);
      for (uint32_t i = 0; i < tmp.size(); i++) {
        if (!(*func)(arg, level, tmp[i])) {
          return;
        }
      }
    } else {
      // Binary search to find earliest index whose largest key >= ikey.
      uint32_t index = FindFile(vset_->icmp_, files_[level], internal_key);
      if (index < num_files) {
        FileMetaData* f = files_[level][index];
        if (ucmp->Compare(user_key, f->smallest.user_key()) < 0) {
          // All of "f" is past any data for user_key
        } else {
          if (!(*func)(arg, level, f)) {
            return;
          }
        }
      }
    }
  }
}

Status Version::Get(const ReadOptions& options, const LookupKey& k,
                    std::string* value, GetStats* stats) {
  stats->seek_file = nullptr;
  stats->seek_file_level = -1;

  struct State {
    Saver saver;
    GetStats* stats;
    const ReadOptions* options;
    Slice ikey;
    FileMetaData* last_file_read;
    int last_file_read_level;

    VersionSet* vset;
    Status s;
    bool found;

    static bool Match(void* arg, int level, FileMetaData* f) {
      State* state = reinterpret_cast<State*>(arg);

      if (state->stats->seek_file == nullptr &&
          state->last_file_read != nullptr) {
        // We have had more than one seek for this read.  Charge the 1st file.
        state->stats->seek_file = state->last_file_read;
        state->stats->seek_file_level = state->last_file_read_level;
      }

      state->last_file_read = f;
      state->last_file_read_level = level;

      state->s = state->vset->table_cache_->Get(*state->options, f->number,
                                                f->file_size, state->ikey,
                                                &state->saver, SaveValue);
      if (!state->s.ok()) {
        state->found = true;
        return false;
      }
      switch (state->saver.state) {
        case kNotFound:
          return true;  // Keep searching in other files
        case kFound:
          state->found = true;
          return false;
        case kDeleted:
          return false;
        case kCorrupt:
          state->s =
              Status::Corruption("corrupted key for ", state->saver.user_key);
          state->found = true;
          return false;
      }

      // Not reached. Added to avoid false compilation warnings of
      // "control reaches end of non-void function".
      return false;
    }
  };

  State state;
  state.found = false;
  state.stats = stats;
  state.last_file_read = nullptr;
  state.last_file_read_level = -1;

  state.options = &options;
  state.ikey = k.internal_key();
  state.vset = vset_;

  state.saver.state = kNotFound;
  state.saver.ucmp = vset_->icmp_.user_comparator();
  state.saver.user_key = k.user_key();
  state.saver.value = value;

  ForEachOverlapping(state.saver.user_key, state.ikey, &state, &State::Match);

  if (!state.found && state.s.ok()) {
    return Status::NotFound(Slice());
  }
  return state.s;
}

bool Version::UpdateStats(const GetStats& stats) {
  FileMetaData* f = stats.seek_file;
  if (f != nullptr) {
    f->allowed_seeks--;
    if (f->allowed_seeks <= 0 && file_to_compact_ == nullptr) {
      file_to_compact_ = f;
      file_to_compact_level_ = stats.seek_file_level;
      return true;
    }
  }
  return false;
}

void Version::Ref() { ++refs_; }

void Version::Unref() {
  assert(this != &vset_->dummy_versions_);
  assert(refs_ >= 1);
  --refs_;
  if (refs_ == 0) {
    delete this;
  }
}

bool Version::OverlapInLevel(int level, const Slice* smallest_user_key,
                             const Slice* largest_user_key) {
  return SomeFileOverlapsRange(vset_->icmp_, !LevelIsOverlapping(level),
                               files_[level], smallest_user_key,
                               largest_user_key);
}

int Version::PickLevelForMemTableOutput(const Slice& smallest_user_key,
                                        const Slice& largest_user_key) {
  int level = 0;
  const int max_level =
      std::min(kMaxMemCompactLevel, vset_->NumLevels() - 2);
  if (!OverlapInLevel(0, &smallest_user_key, &largest_user_key)) {
    // Push to next level if there is no overlap in next level,
    // and the #bytes overlapping in the level after that are limited.
    InternalKey start(smallest_user_key, kMaxSequenceNumber, kValueTypeForSeek);
    InternalKey limit(largest_user_key, 0, static_cast<ValueType>(0));
    std::vector<FileMetaData*> overlaps;
    while (level < max_level) {
      if (OverlapInLevel(level + 1, &smallest_user_key, &largest_user_key)) {
        break;
      }
      if (level + 2 < vset_->NumLevels()) {
        // Check that file does not overlap too many grandparent bytes.
        GetOverlappingInputs(level + 2, &start, &limit, &overlaps);
        const int64_t sum = TotalFileSize(overlaps);
        if (sum > MaxGrandParentOverlapBytesFor(vset_->options_)) {
          break;
        }
      }
      level++;
    }
  }
  return level;
}

// Store in "*inputs" all files in "level" that overlap [begin,end]
void Version::GetOverlappingInputs(int level, const InternalKey* begin,
                                   const InternalKey* end,
                                   std::vector<FileMetaData*>* inputs) {
  assert(level >= 0);
  assert(level < vset_->NumLevels());
  inputs->clear();
  Slice user_begin, user_end;
  if (begin != nullptr) {
    user_begin = begin->user_key();
  }
  if (end != nullptr) {
    user_end = end->user_key();
  }
  const Comparator* user_cmp = vset_->icmp_.user_comparator();
  for (size_t i = 0; i < files_[level].size();) {
    FileMetaData* f = files_[level][i++];
    const Slice file_start = f->smallest.user_key();
    const Slice file_limit = f->largest.user_key();
    if (begin != nullptr && user_cmp->Compare(file_limit, user_begin) < 0) {
      // "f" is completely before specified range; skip it
    } else if (end != nullptr && user_cmp->Compare(file_start, user_end) > 0) {
      // "f" is completely after specified range; skip it
    } else {
      inputs->push_back(f);
      if (LevelIsOverlapping(level)) {
        // Files may overlap each other: check if the newly added file
        // expands the range, and restart the search if so.
        if (begin != nullptr && user_cmp->Compare(file_start, user_begin) < 0) {
          user_begin = file_start;
          inputs->clear();
          i = 0;
        } else if (end != nullptr &&
                   user_cmp->Compare(file_limit, user_end) > 0) {
          user_end = file_limit;
          inputs->clear();
          i = 0;
        }
      }
    }
  }
}

std::string Version::DebugString() const {
  std::string r;
  for (int level = 0; level < vset_->NumLevels(); level++) {
    // E.g.,
    //   --- level 1 ---
    //   17:123['a' .. 'd']
    //   20:43['e' .. 'g']
    r.append("--- level ");
    AppendNumberTo(&r, level);
    r.append(" ---\n");
    const std::vector<FileMetaData*>& files = files_[level];
    for (size_t i = 0; i < files.size(); i++) {
      r.push_back(' ');
      AppendNumberTo(&r, files[i]->number);
      r.push_back(':');
      AppendNumberTo(&r, files[i]->file_size);
      r.append("[");
      r.append(files[i]->smallest.DebugString());
      r.append(" .. ");
      r.append(files[i]->largest.DebugString());
      r.append("]");
      if (files[i]->set_id != 0) {
        r.append(" set=");
        AppendNumberTo(&r, files[i]->set_id);
      }
      r.append("\n");
    }
  }
  return r;
}

// A helper class so we can efficiently apply a whole sequence
// of edits to a particular state without creating intermediate
// Versions that contain full copies of the intermediate state.
class VersionSet::Builder {
 private:
  // Helper to sort by v->files_[file_number].smallest
  struct BySmallestKey {
    const InternalKeyComparator* internal_comparator;

    bool operator()(FileMetaData* f1, FileMetaData* f2) const {
      int r = internal_comparator->Compare(f1->smallest, f2->smallest);
      if (r != 0) {
        return (r < 0);
      } else {
        // Break ties by file number
        return (f1->number < f2->number);
      }
    }
  };

  typedef std::set<FileMetaData*, BySmallestKey> FileSet;
  struct LevelState {
    std::set<uint64_t> deleted_files;
    FileSet* added_files;
  };

  VersionSet* vset_;
  Version* base_;
  std::vector<LevelState> levels_;

 public:
  // Initialize a builder with the files from *base and other info from *vset
  Builder(VersionSet* vset, Version* base)
      : vset_(vset), base_(base), levels_(vset->NumLevels()) {
    base_->Ref();
    BySmallestKey cmp;
    cmp.internal_comparator = &vset_->icmp_;
    for (int level = 0; level < vset_->NumLevels(); level++) {
      levels_[level].added_files = new FileSet(cmp);
    }
  }

  ~Builder() {
    for (int level = 0; level < vset_->NumLevels(); level++) {
      const FileSet* added = levels_[level].added_files;
      std::vector<FileMetaData*> to_unref;
      to_unref.reserve(added->size());
      for (FileSet::const_iterator it = added->begin(); it != added->end();
           ++it) {
        to_unref.push_back(*it);
      }
      delete added;
      for (uint32_t i = 0; i < to_unref.size(); i++) {
        FileMetaData* f = to_unref[i];
        f->refs--;
        if (f->refs <= 0) {
          delete f;
        }
      }
    }
    base_->Unref();
  }

  // Apply all of the edits in *edit to the current state.
  void Apply(const VersionEdit* edit) {
    // Delete files
    for (const auto& deleted_file_set_kvp : edit->deleted_files_) {
      const int level = deleted_file_set_kvp.first;
      const uint64_t number = deleted_file_set_kvp.second;
      levels_[level].deleted_files.insert(number);
    }

    // Add new files
    for (size_t i = 0; i < edit->new_files_.size(); i++) {
      const int level = edit->new_files_[i].first;
      // A trivial move deletes a table from one level and adds it to
      // another: both versions share its FileMetaData, so its refcount
      // reaches 0 only when the table dies.
      FileMetaData* f = MovedFile(edit, edit->new_files_[i].second.number);
      if (f != nullptr) {
        f->refs++;
      } else {
        f = new FileMetaData(edit->new_files_[i].second);
        f->refs = 1;
      }

      // We arrange to automatically compact this file after
      // a certain number of seeks.  Let's assume:
      //   (1) One seek costs 10ms
      //   (2) Writing or reading 1MB costs 10ms (100MB/s)
      //   (3) A compaction of 1MB does 25MB of IO:
      //         1MB read from this level
      //         10-12MB read from next level (boundaries may be misaligned)
      //         10-12MB written to next level
      // This implies that 25 seeks cost the same as the compaction
      // of 1MB of data.  I.e., one seek costs approximately the
      // same as the compaction of 40KB of data.  We are a little
      // conservative and allow approximately one seek for every 16KB
      // of data before triggering a compaction.
      f->allowed_seeks = static_cast<int>((f->file_size / 16384U));
      if (f->allowed_seeks < 100) f->allowed_seeks = 100;

      levels_[level].deleted_files.erase(f->number);
      levels_[level].added_files->insert(f);
    }
  }

  // Save the current state in *v.
  void SaveTo(Version* v) {
    BySmallestKey cmp;
    cmp.internal_comparator = &vset_->icmp_;
    for (int level = 0; level < vset_->NumLevels(); level++) {
      // Merge the set of added files with the set of pre-existing files.
      // Drop any deleted files.  Store the result in *v.
      const std::vector<FileMetaData*>& base_files = base_->files_[level];
      std::vector<FileMetaData*>::const_iterator base_iter =
          base_files.begin();
      std::vector<FileMetaData*>::const_iterator base_end = base_files.end();
      const FileSet* added_files = levels_[level].added_files;
      v->files_[level].reserve(base_files.size() + added_files->size());
      for (const auto& added_file : *added_files) {
        // Add all smaller files listed in base_
        for (std::vector<FileMetaData*>::const_iterator bpos =
                 std::upper_bound(base_iter, base_end, added_file, cmp);
             base_iter != bpos; ++base_iter) {
          MaybeAddFile(v, level, *base_iter);
        }

        MaybeAddFile(v, level, added_file);
      }

      // Add remaining base files
      for (; base_iter != base_end; ++base_iter) {
        MaybeAddFile(v, level, *base_iter);
      }

#ifndef NDEBUG
      // Make sure there is no overlap in sorted, non-overlapping levels
      if (!v->LevelIsOverlapping(level)) {
        for (uint32_t i = 1; i < v->files_[level].size(); i++) {
          const InternalKey& prev_end = v->files_[level][i - 1]->largest;
          const InternalKey& this_begin = v->files_[level][i]->smallest;
          if (vset_->icmp_.Compare(prev_end, this_begin) >= 0) {
            std::fprintf(stderr, "overlapping ranges in same level %s vs. %s\n",
                         prev_end.DebugString().c_str(),
                         this_begin.DebugString().c_str());
            std::abort();
          }
        }
      }
#endif
    }
  }

  // The base version's metadata for `number` if *edit deletes it from
  // some level, else nullptr.
  FileMetaData* MovedFile(const VersionEdit* edit, uint64_t number) const {
    for (const auto& [level, deleted] : edit->deleted_files_) {
      if (deleted != number) continue;
      for (FileMetaData* f : base_->files_[level]) {
        if (f->number == number) return f;
      }
    }
    return nullptr;
  }

  void MaybeAddFile(Version* v, int level, FileMetaData* f) {
    if (levels_[level].deleted_files.count(f->number) > 0) {
      // File is deleted: do nothing
    } else {
      std::vector<FileMetaData*>* files = &v->files_[level];
      if (level > 0 && !files->empty() && !v->LevelIsOverlapping(level)) {
        // Must not overlap
        assert(vset_->icmp_.Compare((*files)[files->size() - 1]->largest,
                                    f->smallest) < 0);
      }
      f->refs++;
      files->push_back(f);
    }
  }
};

VersionSet::VersionSet(const std::string& dbname, const Options* options,
                       fs::FileStore* store, TableCache* table_cache,
                       const InternalKeyComparator* cmp)
    : dbname_(dbname),
      options_(options),
      store_(store),
      table_cache_(table_cache),
      icmp_(*cmp),
      dummy_versions_(this),
      current_(nullptr),
      compact_pointer_(options->num_levels) {
  AppendVersion(new Version(this));
}

VersionSet::~VersionSet() {
  current_->Unref();
  assert(dummy_versions_.next_ == &dummy_versions_);  // List must be empty
}

void VersionSet::AppendVersion(Version* v) {
  // Make "v" current
  assert(v->refs_ == 0);
  assert(v != current_);
  if (current_ != nullptr) {
    current_->Unref();
  }
  current_ = v;
  v->Ref();

  // Append to linked list
  v->prev_ = dummy_versions_.prev_;
  v->next_ = &dummy_versions_;
  v->prev_->next_ = v;
  v->next_->prev_ = v;
}

Status VersionSet::LogAndApply(VersionEdit* edit) {
  fs::FileCommit commit;
  for (const auto& [level, number] : edit->deleted_files_) {
    commit.tags[TableFileName(dbname_, number)].clear();
  }
  // After the deletions: a trivial move re-tags the table it deleted.
  for (const auto& [level, f] : edit->new_files_) {
    EncodeTableTag(&commit.tags[TableFileName(dbname_, f.number)], level, f);
  }
  for (uint64_t log : edit->removed_logs_) {
    commit.removes.push_back(LogFileName(dbname_, log));
  }
  PutVarint64(&commit.engine_state, last_sequence_);
  Status s = store_->Commit(commit);
  if (!s.ok()) return s;

  Version* v = new Version(this);
  {
    Builder builder(this, current_);
    builder.Apply(edit);
    builder.SaveTo(v);
  }
  Finalize(v);
  AppendVersion(v);
  return Status::OK();
}

Status VersionSet::Recover(std::vector<uint64_t>* logs) {
  const std::string state = store_->engine_state();
  Slice in(state);
  if (!state.empty() && (!GetVarint64(&in, &last_sequence_) || !in.empty())) {
    return Status::Corruption("bad engine state in the file store");
  }

  VersionEdit edit;
  std::vector<std::string> untagged;
  const std::string prefix = dbname_ + "/";
  for (const fs::FileInfo& info : store_->ListFiles()) {
    uint64_t number;
    FileType type;
    if (info.name.compare(0, prefix.size(), prefix) != 0 ||
        !ParseFileName(info.name, &number, &type)) {
      continue;
    }
    MarkFileNumberUsed(number);
    if (type == kLogFile) {
      logs->push_back(number);
    } else if (info.tag.empty()) {
      untagged.push_back(info.name);
    } else {
      int level;
      FileMetaData f;
      if (!DecodeTableTag(info.tag, &level, &f) || level >= NumLevels()) {
        return Status::Corruption("bad table tag", info.name);
      }
      edit.AddFile(level, number, info.size, f.smallest, f.largest,
                   info.region_id);
    }
  }
  for (const std::string& name : untagged) {
    Status s = store_->RemoveFile(name);
    if (!s.ok()) return s;
  }
  std::sort(logs->begin(), logs->end());

  Version* v = new Version(this);
  {
    Builder builder(this, current_);
    builder.Apply(&edit);
    builder.SaveTo(v);
  }
  Finalize(v);
  AppendVersion(v);
  return Status::OK();
}

void VersionSet::MarkFileNumberUsed(uint64_t number) {
  if (next_file_number_ <= number) {
    next_file_number_ = number + 1;
  }
}

void VersionSet::Finalize(Version* v) {
  // Precomputed best level for next compaction
  int best_level = -1;
  double best_score = -1;

  const int score_levels = std::max(1, NumLevels() - 1);
  for (int level = 0; level < score_levels; level++) {
    double score;
    if (level == 0) {
      // We treat level-0 specially by bounding the number of files
      // instead of number of bytes for two reasons:
      //
      // (1) With larger write-buffer sizes, it is nice not to do too
      // many level-0 compactions.
      //
      // (2) The files in level-0 are merged on every read and
      // therefore we wish to avoid too many files when the individual
      // file size is small (perhaps because of a small write-buffer
      // setting, or very high compression ratios, or lots of
      // overwrites/deletions).
      score = v->files_[0].size() /
              static_cast<double>(kL0CompactionTrigger);
    } else {
      // Compute the ratio of current size to size limit.
      const uint64_t level_bytes = TotalFileSize(v->files_[level]);
      score = static_cast<double>(level_bytes) /
              MaxBytesForLevelImpl(options_, level);
    }

    if (score > best_score) {
      best_level = level;
      best_score = score;
    }
  }

  // The overlapping last level (SMRDB mode) is scored by overlap depth.
  if (options_->allow_overlap_last_level && NumLevels() >= 2) {
    const int last = NumLevels() - 1;
    const double score = static_cast<double>(v->MaxOverlapDepth(last)) /
                         kMaxOverlapRuns;
    if (score > best_score) {
      best_level = last;
      best_score = score;
    }
  }

  v->compaction_level_ = best_level;
  v->compaction_score_ = best_score;
}

int VersionSet::NumLevelFiles(int level) const {
  assert(level >= 0);
  assert(level < NumLevels());
  return current_->files_[level].size();
}

int64_t VersionSet::NumLevelBytes(int level) const {
  assert(level >= 0);
  assert(level < NumLevels());
  return TotalFileSize(current_->files_[level]);
}

uint64_t VersionSet::ApproximateOffsetOf(Version* v, const InternalKey& ikey) {
  uint64_t result = 0;
  for (int level = 0; level < NumLevels(); level++) {
    const std::vector<FileMetaData*>& files = v->files_[level];
    for (size_t i = 0; i < files.size(); i++) {
      if (icmp_.Compare(files[i]->largest, ikey) <= 0) {
        // Entire file is before "ikey", so just add the file size
        result += files[i]->file_size;
      } else if (icmp_.Compare(files[i]->smallest, ikey) > 0) {
        // Entire file is after "ikey", so ignore
        if (!v->LevelIsOverlapping(level)) {
          // Files other than level 0 are sorted by meta->smallest, so
          // no further files in this level will contain data for
          // "ikey".
          break;
        }
      } else {
        // "ikey" falls in the range for this table.  Add the
        // approximate offset of "ikey" within the table.
        Table* tableptr;
        Iterator* iter = table_cache_->NewIterator(
            ReadOptions(), files[i]->number, files[i]->file_size, &tableptr);
        if (tableptr != nullptr) {
          result += tableptr->ApproximateOffsetOf(ikey.Encode());
        }
        delete iter;
      }
    }
  }
  return result;
}

int64_t VersionSet::MaxGrandParentOverlapBytes() const {
  return MaxGrandParentOverlapBytesFor(options_);
}

double VersionSet::MaxBytesForLevel(int level) const {
  return MaxBytesForLevelImpl(options_, level);
}

uint64_t VersionSet::MaxFileSizeForLevel(int level) const {
  return MaxFileSizeForLevelImpl(options_, level);
}

// Stores the minimal range that covers all entries in inputs in
// *smallest, *largest.
// REQUIRES: inputs is not empty
void VersionSet::GetRange(const std::vector<FileMetaData*>& inputs,
                          InternalKey* smallest, InternalKey* largest) {
  assert(!inputs.empty());
  smallest->Clear();
  largest->Clear();
  for (size_t i = 0; i < inputs.size(); i++) {
    FileMetaData* f = inputs[i];
    if (i == 0) {
      *smallest = f->smallest;
      *largest = f->largest;
    } else {
      if (icmp_.Compare(f->smallest, *smallest) < 0) {
        *smallest = f->smallest;
      }
      if (icmp_.Compare(f->largest, *largest) > 0) {
        *largest = f->largest;
      }
    }
  }
}

// Stores the minimal range that covers all entries in inputs1 and inputs2
// in *smallest, *largest.
// REQUIRES: inputs is not empty
void VersionSet::GetRange2(const std::vector<FileMetaData*>& inputs1,
                           const std::vector<FileMetaData*>& inputs2,
                           InternalKey* smallest, InternalKey* largest) {
  std::vector<FileMetaData*> all = inputs1;
  all.insert(all.end(), inputs2.begin(), inputs2.end());
  GetRange(all, smallest, largest);
}

static Iterator* ImageIterator(const TableImages& images,
                               const ReadOptions& options, uint64_t number) {
  auto it = images.find(number);
  if (it == images.end()) {
    return NewErrorIterator(
        Status::Corruption("compaction input was not read"));
  }
  return it->second.table->NewIterator(options);
}

static Iterator* GetImageIterator(void* arg, const ReadOptions& options,
                                  const Slice& file_value) {
  if (file_value.size() != 16) {
    return NewErrorIterator(
        Status::Corruption("FileReader invoked with unexpected value"));
  }
  return ImageIterator(*reinterpret_cast<const TableImages*>(arg), options,
                       DecodeFixed64(file_value.data()));
}

Iterator* VersionSet::MakeInputIterator(Compaction* c,
                                        const TableImages& images) {
  ReadOptions options;
  options.verify_checksums = options_->paranoid_checks;

  // Level-0 files (and files of an overlapping level) have to be merged
  // together; for other levels we can use a concatenating iterator that
  // sequentially walks through the non-overlapping files. Overlap depends
  // only on the level, so the input version answers without the mutex.
  const bool in0_overlapping =
      c->input_version_->LevelIsOverlapping(c->level());
  const int space =
      (in0_overlapping ? c->inputs_[0].size() + 1 : 2);
  Iterator** list = new Iterator*[space];
  int num = 0;
  for (int which = 0; which < 2; which++) {
    if (!c->inputs_[which].empty()) {
      if (which == 0 && in0_overlapping) {
        for (const FileMetaData* f : c->inputs_[which]) {
          list[num++] = ImageIterator(images, options, f->number);
        }
      } else {
        // Create concatenating iterator for the files from this level
        list[num++] = NewTwoLevelIterator(
            new Version::LevelFileNumIterator(icmp_, &c->inputs_[which]),
            &GetImageIterator, const_cast<TableImages*>(&images), options);
      }
    }
  }
  assert(num <= space);
  Iterator* result = NewMergingIterator(&icmp_, list, num);
  delete[] list;
  return result;
}

// ---------------------------------------------------------------------
// CompactionReservations
// ---------------------------------------------------------------------

uint64_t CompactionReservations::TryReserve(const Compaction* c) {
  assert(c->num_input_files(0) > 0);
  std::vector<uint64_t> files;
  Slice smallest, largest;
  bool first = true;
  for (int which = 0; which < 2; which++) {
    for (int i = 0; i < c->num_input_files(which); i++) {
      const FileMetaData* f = c->input(which, i);
      files.push_back(f->number);
      const Slice lo = f->smallest.user_key();
      const Slice hi = f->largest.user_key();
      if (first || user_cmp_->Compare(lo, smallest) < 0) smallest = lo;
      if (first || user_cmp_->Compare(hi, largest) > 0) largest = hi;
      first = false;
    }
  }
  return TryReserveRange(std::min(c->level(), c->output_level()),
                         std::max(c->level(), c->output_level()), smallest,
                         largest, files);
}

uint64_t CompactionReservations::TryReserveRange(
    int min_level, int max_level, const Slice& smallest, const Slice& largest,
    const std::vector<uint64_t>& files) {
  if (Conflicts(min_level, max_level, smallest, largest, files)) {
    return 0;
  }
  Reservation r;
  r.ticket = next_ticket_++;
  r.min_level = min_level;
  r.max_level = max_level;
  r.smallest = smallest.ToString();
  r.largest = largest.ToString();
  r.files = files;
  reservations_.push_back(std::move(r));
  return reservations_.back().ticket;
}

void CompactionReservations::Release(uint64_t ticket) {
  for (size_t i = 0; i < reservations_.size(); i++) {
    if (reservations_[i].ticket == ticket) {
      reservations_.erase(reservations_.begin() + i);
      return;
    }
  }
  assert(false && "releasing unknown reservation ticket");
}

bool CompactionReservations::Conflicts(
    int min_level, int max_level, const Slice& smallest, const Slice& largest,
    const std::vector<uint64_t>& files) const {
  for (const Reservation& r : reservations_) {
    for (uint64_t number : files) {
      for (uint64_t held : r.files) {
        if (number == held) return true;
      }
    }
    if (max_level < r.min_level || min_level > r.max_level) {
      continue;  // disjoint level spans cannot interact
    }
    const bool range_disjoint =
        user_cmp_->Compare(largest, Slice(r.smallest)) < 0 ||
        user_cmp_->Compare(smallest, Slice(r.largest)) > 0;
    if (!range_disjoint) return true;
  }
  return false;
}

bool CompactionReservations::RangeReserved(int level, const Slice& smallest,
                                           const Slice& largest) const {
  for (const Reservation& r : reservations_) {
    if (level < r.min_level || level > r.max_level) continue;
    if (user_cmp_->Compare(largest, Slice(r.smallest)) < 0 ||
        user_cmp_->Compare(smallest, Slice(r.largest)) > 0) {
      continue;
    }
    return true;
  }
  return false;
}

bool CompactionReservations::FileReserved(uint64_t number) const {
  for (const Reservation& r : reservations_) {
    for (uint64_t held : r.files) {
      if (held == number) return true;
    }
  }
  return false;
}

bool VersionSet::VictimReserved(const CompactionReservations* reserved,
                                int level, const FileMetaData* f) const {
  if (reserved == nullptr) return false;
  if (reserved->FileReserved(f->number)) return true;
  const Slice lo = f->smallest.user_key();
  const Slice hi = f->largest.user_key();
  if (reserved->RangeReserved(level, lo, hi)) return true;
  const bool intra = level > 0 && current_->LevelIsOverlapping(level);
  const int out_level = intra ? level : level + 1;
  return out_level < NumLevels() && reserved->RangeReserved(out_level, lo, hi);
}

Compaction* VersionSet::PickCompaction(const CompactionReservations* reserved) {
  Compaction* c;
  int level;

  // We prefer compactions triggered by too much data in a level over
  // the compactions triggered by seeks.
  const bool size_compaction = (current_->compaction_score_ >= 1);
  const bool seek_compaction = (current_->file_to_compact_ != nullptr);
  if (size_compaction) {
    level = current_->compaction_level_;
    assert(level >= 0);

    const bool intra_level =
        level > 0 && current_->LevelIsOverlapping(level);
    const int out_level = intra_level ? level : level + 1;
    assert(level + (intra_level ? 0 : 1) < NumLevels());
    c = new Compaction(options_, level, out_level);

    if (intra_level) {
      // Overlapping last level (SMRDB): merge the deepest overlap cluster.
      PickOverlapCluster(level, c);
    } else if (level > 0 &&
               options_->compaction_unit == CompactionUnit::kSet) {
      // SEALDB policy (Sec. III-C "Delete"): prefer a victim whose set has
      // accumulated many invalidated SSTables, so the remaining members
      // drain and the whole region is reclaimed — implicit fragment
      // recycling. A set is its FileStore region, which counts the dead
      // members. The threshold keeps the policy from overriding the
      // normal rotation on barely-fragmented sets, which would inflate WA
      // by hammering the same key range.
      FileMetaData* best = nullptr;
      uint64_t best_invalid = kInvalidSetPriorityThreshold - 1;
      for (FileMetaData* f : current_->files_[level]) {
        if (VictimReserved(reserved, level, f)) continue;
        const uint64_t invalid =
            f->set_id != 0 ? store_->RegionDeadFiles(f->set_id) : 0;
        if (invalid > best_invalid) {
          best_invalid = invalid;
          best = f;
        }
      }
      if (best != nullptr) {
        c->inputs_[0].push_back(best);
      }
    }

    if (c->inputs_[0].empty() && !intra_level) {
      // Pick the first unreserved file that comes after
      // compact_pointer_[level], wrapping to the beginning of the key space.
      // Reserved files (or files whose spans overlap a running compaction)
      // are skipped so concurrent workers pick disjoint victims.
      for (size_t i = 0; i < current_->files_[level].size(); i++) {
        FileMetaData* f = current_->files_[level][i];
        if (VictimReserved(reserved, level, f)) continue;
        if (compact_pointer_[level].empty() ||
            icmp_.Compare(f->largest.Encode(), compact_pointer_[level]) > 0) {
          c->inputs_[0].push_back(f);
          break;
        }
      }
      if (c->inputs_[0].empty()) {
        for (size_t i = 0; i < current_->files_[level].size(); i++) {
          FileMetaData* f = current_->files_[level][i];
          if (VictimReserved(reserved, level, f)) continue;
          c->inputs_[0].push_back(f);
          break;
        }
      }
      if (c->inputs_[0].empty()) {
        // Every candidate at this level conflicts with a running
        // compaction; the level will be revisited when one finishes.
        delete c;
        return nullptr;
      }
    }
  } else if (seek_compaction) {
    level = current_->file_to_compact_level_;
    const bool intra_level =
        level > 0 && current_->LevelIsOverlapping(level);
    if (level + 1 >= NumLevels() && !intra_level) {
      // Nowhere to push the seek-compacted file. Clear the trigger so
      // NeedsCompaction() does not report pending work forever.
      current_->file_to_compact_ = nullptr;
      current_->file_to_compact_level_ = -1;
      return nullptr;
    }
    if (VictimReserved(reserved, level, current_->file_to_compact_)) {
      return nullptr;  // retried once the conflicting compaction finishes
    }
    c = new Compaction(options_, level, intra_level ? level : level + 1);
    c->inputs_[0].push_back(current_->file_to_compact_);
  } else {
    return nullptr;
  }

  c->input_version_ = current_;
  c->input_version_->Ref();

  // Files in level 0 (or an overlapping level) may overlap each other, so
  // pick up all overlapping ones.
  if (current_->LevelIsOverlapping(level) && !c->inputs_[0].empty()) {
    InternalKey smallest, largest;
    GetRange(c->inputs_[0], &smallest, &largest);
    // Note that the next call will discard the file we placed in
    // c->inputs_[0] earlier and replace it with an overlapping set
    // which will include the picked file.
    current_->GetOverlappingInputs(level, &smallest, &largest, &c->inputs_[0]);
    assert(!c->inputs_[0].empty());
  }

  SetupOtherInputs(c);

  return c;
}

void VersionSet::PickOverlapCluster(int level, Compaction* c) {
  // Find a file participating in the deepest overlap; expansion to the
  // full cluster happens in PickCompaction's GetOverlappingInputs call.
  const Comparator* ucmp = icmp_.user_comparator();
  FileMetaData* best = nullptr;
  int best_depth = 0;
  const std::vector<FileMetaData*>& files = current_->files_[level];
  for (FileMetaData* f : files) {
    int depth = 0;
    for (FileMetaData* g : files) {
      if (ucmp->Compare(g->largest.user_key(), f->smallest.user_key()) >= 0 &&
          ucmp->Compare(g->smallest.user_key(), f->largest.user_key()) <= 0) {
        depth++;
      }
    }
    if (depth > best_depth) {
      best_depth = depth;
      best = f;
    }
  }
  if (best != nullptr && best_depth >= 2) {
    c->inputs_[0].push_back(best);
  } else if (!files.empty()) {
    c->inputs_[0].push_back(files[0]);
  }
}

void VersionSet::SetupOtherInputs(Compaction* c) {
  const int level = c->level();
  if (c->output_level() == level ||
      current_->LevelIsOverlapping(c->output_level())) {
    // Intra-level merge or promotion into an overlapping level: there are
    // no "other inputs" — outputs are allowed to overlap residents.
    InternalKey smallest, largest;
    GetRange(c->inputs_[0], &smallest, &largest);
    compact_pointer_[level] = largest.Encode().ToString();
    return;
  }

  InternalKey smallest, largest;
  GetRange(c->inputs_[0], &smallest, &largest);

  current_->GetOverlappingInputs(level + 1, &smallest, &largest,
                                 &c->inputs_[1]);

  // Get entire range covered by compaction
  InternalKey all_start, all_limit;
  GetRange2(c->inputs_[0], c->inputs_[1], &all_start, &all_limit);

  // See if we can grow the number of inputs in "level" without
  // changing the number of "level+1" files we pick up.
  if (!c->inputs_[1].empty()) {
    std::vector<FileMetaData*> expanded0;
    current_->GetOverlappingInputs(level, &all_start, &all_limit, &expanded0);
    const int64_t inputs1_size = TotalFileSize(c->inputs_[1]);
    const int64_t expanded0_size = TotalFileSize(expanded0);
    if (expanded0.size() > c->inputs_[0].size() &&
        inputs1_size + expanded0_size <
            ExpandedCompactionByteSizeLimit(options_)) {
      InternalKey new_start, new_limit;
      GetRange(expanded0, &new_start, &new_limit);
      std::vector<FileMetaData*> expanded1;
      current_->GetOverlappingInputs(level + 1, &new_start, &new_limit,
                                     &expanded1);
      if (expanded1.size() == c->inputs_[1].size()) {
        smallest = new_start;
        largest = new_limit;
        c->inputs_[0] = expanded0;
        c->inputs_[1] = expanded1;
        GetRange2(c->inputs_[0], c->inputs_[1], &all_start, &all_limit);
      }
    }
  }

  // Compute the set of grandparent files that overlap this compaction
  // (parent == level+1; grandparent == level+2)
  if (level + 2 < NumLevels()) {
    current_->GetOverlappingInputs(level + 2, &all_start, &all_limit,
                                   &c->grandparents_);
  }

  // Update the place where we will do the next compaction for this level,
  // at pick time, so that if the compaction fails, we will try a different
  // key range next time.
  compact_pointer_[level] = largest.Encode().ToString();
}

Compaction* VersionSet::CompactRange(int level, const InternalKey* begin,
                                     const InternalKey* end) {
  std::vector<FileMetaData*> inputs;
  current_->GetOverlappingInputs(level, begin, end, &inputs);
  if (inputs.empty()) {
    return nullptr;
  }

  // Avoid compacting too much in one shot in case the range is large.
  // But we cannot do this for level-0 since level-0 files can overlap
  // and we must not pick one file and drop another older file if the
  // two files overlap.
  if (!current_->LevelIsOverlapping(level)) {
    const uint64_t limit = MaxFileSizeForLevel(level);
    uint64_t total = 0;
    for (size_t i = 0; i < inputs.size(); i++) {
      uint64_t s = inputs[i]->file_size;
      total += s;
      if (total >= limit) {
        inputs.resize(i + 1);
        break;
      }
    }
  }

  const bool intra_level = level > 0 && current_->LevelIsOverlapping(level);
  if (level + 1 >= NumLevels() && !intra_level) {
    return nullptr;
  }
  Compaction* c =
      new Compaction(options_, level, intra_level ? level : level + 1);
  c->input_version_ = current_;
  c->input_version_->Ref();
  c->inputs_[0] = inputs;
  SetupOtherInputs(c);
  return c;
}

Compaction::Compaction(const Options* options, int level, int output_level)
    : level_(level),
      output_level_(output_level),
      max_output_file_size_(MaxFileSizeForLevelImpl(options, output_level)),
      input_version_(nullptr),
      grandparent_index_(0),
      seen_key_(false),
      overlapped_bytes_(0),
      level_ptrs_(options->num_levels) {
  for (int i = 0; i < options->num_levels; i++) {
    level_ptrs_[i] = 0;
  }
}

Compaction::~Compaction() {
  if (input_version_ != nullptr) {
    input_version_->Unref();
  }
}

uint64_t Compaction::TotalInputBytes() const {
  return TotalFileSize(inputs_[0]) + TotalFileSize(inputs_[1]);
}

bool Compaction::IsTrivialMove() const {
  const VersionSet* vset = input_version_->vset_;
  // A move into the same level is never useful.
  if (output_level_ == level_) return false;
  // Avoid a move if there is lots of overlapping grandparent data.
  // Otherwise, the move could create a parent file that will require
  // a very expensive merge later on.
  return (num_input_files(0) == 1 && num_input_files(1) == 0 &&
          TotalFileSize(grandparents_) <=
              MaxGrandParentOverlapBytesFor(vset->options_));
}

void Compaction::AddInputDeletions(VersionEdit* edit) {
  for (int which = 0; which < 2; which++) {
    for (size_t i = 0; i < inputs_[which].size(); i++) {
      edit->RemoveFile(which == 0 ? level_ : output_level_,
                       inputs_[which][i]->number);
    }
  }
}

bool Compaction::IsBaseLevelForKey(const Slice& user_key) {
  // Maybe use binary search to find right entry instead of linear search?
  const Comparator* user_cmp =
      input_version_->vset_->icmp_.user_comparator();
  const int num_levels = input_version_->vset_->NumLevels();
  for (int lvl = output_level_ + 1; lvl < num_levels; lvl++) {
    const std::vector<FileMetaData*>& files = input_version_->files_[lvl];
    while (level_ptrs_[lvl] < files.size()) {
      FileMetaData* f = files[level_ptrs_[lvl]];
      if (user_cmp->Compare(user_key, f->largest.user_key()) <= 0) {
        // We've advanced far enough
        if (user_cmp->Compare(user_key, f->smallest.user_key()) >= 0) {
          // Key falls in this file's range, so definitely not base level
          return false;
        }
        break;
      }
      level_ptrs_[lvl]++;
    }
  }
  return true;
}

bool Compaction::ShouldStopBefore(const Slice& internal_key) {
  const VersionSet* vset = input_version_->vset_;
  // Scan to find earliest grandparent file that contains key.
  const InternalKeyComparator* icmp = &vset->icmp_;
  while (grandparent_index_ < grandparents_.size() &&
         icmp->Compare(internal_key,
                       grandparents_[grandparent_index_]->largest.Encode()) >
             0) {
    if (seen_key_) {
      overlapped_bytes_ += grandparents_[grandparent_index_]->file_size;
    }
    grandparent_index_++;
  }
  seen_key_ = true;

  if (overlapped_bytes_ > MaxGrandParentOverlapBytesFor(vset->options_)) {
    // Too much overlap for current output; start new output
    overlapped_bytes_ = 0;
    return true;
  } else {
    return false;
  }
}

void Compaction::ReleaseInputs() {
  if (input_version_ != nullptr) {
    input_version_->Unref();
    input_version_ = nullptr;
  }
}

}  // namespace sealdb
