// Version / VersionSet: the tree of table files per level, its one-record
// commits to the FileStore journal, and compaction picking.
//
// The FileStore journal is the only metadata log. A live table is a store
// file whose tag holds its level and key range (lsm/version_edit.h);
// LogAndApply installs each flush, compaction and trivial move with one
// FileStore::Commit, and Recover rebuilds the Version from the store's
// file list. A table dies when the last Version referencing it is dropped
// (its FileMetaData refcount reaches 0); the engine then deletes its
// FileMetaData, closing its reader, and removes the file.
//
// Extensions over classic LevelDB:
//  * configurable level count (SMRDB runs with 2 levels),
//  * an "overlapping last level" mode where key ranges inside the last
//    level may overlap (SMRDB): lookups scan candidates newest-first and
//    compactions are picked by overlap depth,
//  * set-aware victim selection (SEALDB): among compaction candidates at a
//    level, prefer the file whose set already has the most invalidated
//    members, so set regions empty out and their space is reclaimed.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lsm/dbformat.h"
#include "lsm/table_cache.h"
#include "lsm/version_edit.h"
#include "util/options.h"

namespace sealdb {

namespace fs {
class FileStore;
}  // namespace fs

class Compaction;
class Iterator;
class MemTable;
class TableBuilder;
class Version;
class VersionSet;
class WritableFile;

// Return the smallest index i such that files[i]->largest >= key.
// Return files.size() if there is no such file.
// REQUIRES: "files" contains a sorted list of non-overlapping files.
int FindFile(const InternalKeyComparator& icmp,
             const std::vector<FileMetaData*>& files, const Slice& key);

// Returns true iff some file in "files" overlaps the user key range
// [*smallest,*largest]. smallest==nullptr represents a key smaller than all
// keys in the DB. largest==nullptr represents a key largest than all keys.
// REQUIRES: If disjoint_sorted_files, files[] contains disjoint ranges in
// sorted order.
bool SomeFileOverlapsRange(const InternalKeyComparator& icmp,
                           bool disjoint_sorted_files,
                           const std::vector<FileMetaData*>& files,
                           const Slice* smallest_user_key,
                           const Slice* largest_user_key);

// Conflict detector for the parallel compaction executor: a reservation map
// of the (level span, user-key range, input files) claimed by each unit of
// in-flight background work. Two units may run concurrently iff their level
// spans are disjoint or their user-key ranges are disjoint, and they share
// no input file — the set-disjointness argument of paper Sec. III-A turned
// into a schedulability test. All calls are made under the owning DB's
// mutex.
class CompactionReservations {
 public:
  explicit CompactionReservations(const Comparator* user_cmp)
      : user_cmp_(user_cmp) {}

  // Claim the level span, key range, and input files of *c. Returns a
  // nonzero ticket on success, 0 if the claim conflicts with an active
  // reservation.
  uint64_t TryReserve(const Compaction* c);

  // Claim an explicit span (testing and non-compaction work).
  uint64_t TryReserveRange(int min_level, int max_level, const Slice& smallest,
                           const Slice& largest,
                           const std::vector<uint64_t>& files);

  // Release a previously granted ticket.
  void Release(uint64_t ticket);

  // True iff an active reservation touches `level` and its user-key range
  // overlaps [smallest, largest]. Keeps memtable-flush placement away from
  // levels an in-flight compaction will install outputs into.
  bool RangeReserved(int level, const Slice& smallest,
                     const Slice& largest) const;

  // True iff the file number is an input of an active reservation.
  bool FileReserved(uint64_t number) const;

  size_t active() const { return reservations_.size(); }

 private:
  struct Reservation {
    uint64_t ticket;
    int min_level;
    int max_level;
    std::string smallest;  // user keys, inclusive hull
    std::string largest;
    std::vector<uint64_t> files;
  };

  bool Conflicts(int min_level, int max_level, const Slice& smallest,
                 const Slice& largest,
                 const std::vector<uint64_t>& files) const;

  const Comparator* const user_cmp_;
  uint64_t next_ticket_ = 1;
  std::vector<Reservation> reservations_;
};

class Version {
 public:
  struct GetStats {
    FileMetaData* seek_file;
    int seek_file_level;
  };

  // Append to *iters a sequence of iterators that will yield the contents
  // of this Version when merged together. REQUIRES: saved version.
  void AddIterators(const ReadOptions&, std::vector<Iterator*>* iters);

  // Lookup the value for key. If found, store it in *val and return OK.
  // Else return a non-OK status. Fills *stats.
  Status Get(const ReadOptions&, const LookupKey& key, std::string* val,
             GetStats* stats);

  // Adds "stats" into the current state.  Returns true if a new
  // compaction may need to be triggered, false otherwise.
  bool UpdateStats(const GetStats& stats);

  void Ref();
  void Unref();

  void GetOverlappingInputs(
      int level,
      const InternalKey* begin,  // nullptr means before all keys
      const InternalKey* end,    // nullptr means after all keys
      std::vector<FileMetaData*>* inputs);

  // Returns true iff some file in the specified level overlaps some part of
  // [*smallest_user_key,*largest_user_key].
  bool OverlapInLevel(int level, const Slice* smallest_user_key,
                      const Slice* largest_user_key);

  // Return the level at which we should place a new memtable compaction
  // result that covers the range [smallest_user_key,largest_user_key].
  int PickLevelForMemTableOutput(const Slice& smallest_user_key,
                                 const Slice& largest_user_key);

  // True iff key ranges inside this level may overlap (level 0, or the
  // last level in SMRDB mode).
  bool LevelIsOverlapping(int level) const;

  // Maximum number of mutually overlapping files at any point in the given
  // level (only meaningful for overlapping levels).
  int MaxOverlapDepth(int level) const;

  std::string DebugString() const;

  const std::vector<FileMetaData*>& files(int level) const {
    return files_[level];
  }

 private:
  friend class Compaction;
  friend class VersionSet;

  class LevelFileNumIterator;

  explicit Version(VersionSet* vset);
  Version(const Version&) = delete;
  Version& operator=(const Version&) = delete;
  ~Version();

  Iterator* NewConcatenatingIterator(const ReadOptions&, int level) const;

  // Call func(arg, level, f) for every file that may contain an entry for
  // user_key, newest-first. Stops when func returns false.
  void ForEachOverlapping(Slice user_key, Slice internal_key, void* arg,
                          bool (*func)(void*, int, FileMetaData*));

  VersionSet* vset_;  // VersionSet to which this Version belongs
  Version* next_;     // Next version in linked list
  Version* prev_;     // Previous version in linked list
  int refs_;          // Number of live refs to this version

  // List of files per level
  std::vector<std::vector<FileMetaData*>> files_;

  // Next file to compact based on seek stats.
  FileMetaData* file_to_compact_;
  int file_to_compact_level_;

  // Level that should be compacted next and its compaction score.
  // Score < 1 means compaction is not strictly needed.
  double compaction_score_;
  int compaction_level_;
};

class VersionSet {
 public:
  VersionSet(const std::string& dbname, const Options* options,
             fs::FileStore* store, TableCache* table_cache,
             const InternalKeyComparator*);
  VersionSet(const VersionSet&) = delete;
  VersionSet& operator=(const VersionSet&) = delete;

  ~VersionSet();

  // Commit *edit (one FileStore journal record carrying the new tags, the
  // cleared ones, the retired WALs and the last sequence), then install the
  // version it forms as current. On error nothing changes in memory.
  Status LogAndApply(VersionEdit* edit);

  // Rebuild the current version from the store's tagged tables and the
  // last sequence from its engine state. Removes untagged tables (outputs
  // whose commit never landed), marks every listed file number used, and
  // returns the WALs to replay, oldest first.
  Status Recover(std::vector<uint64_t>* logs);

  // Return the current version.
  Version* current() const { return current_; }

  // Allocate and return a new file number
  uint64_t NewFileNumber() { return next_file_number_++; }

  // Arrange to reuse "file_number" unless a newer file number has
  // already been allocated.
  void ReuseFileNumber(uint64_t file_number) {
    if (next_file_number_ == file_number + 1) {
      next_file_number_ = file_number;
    }
  }

  // Return the number of Table files at the specified level.
  int NumLevelFiles(int level) const;

  // Return the last sequence number.
  uint64_t LastSequence() const { return last_sequence_; }

  // Set the last sequence number to s.
  void SetLastSequence(uint64_t s) {
    assert(s >= last_sequence_);
    last_sequence_ = s;
  }

  // Tables no Version references any more, since the last call. Their
  // tags were cleared by a landed commit; the caller deletes the metadata,
  // closing the readers, then purges their pages and removes the files.
  // Until then a dead table keeps its index and filter pages pinned.
  std::vector<std::unique_ptr<FileMetaData>> TakeObsoleteFiles() {
    return std::exchange(obsolete_files_, {});
  }

  int NumLevels() const { return options_->num_levels; }

  // Pick level and inputs for a new compaction. Returns nullptr if no
  // compaction needs to be done; otherwise a heap-allocated Compaction.
  // When `reserved` is non-null, victims whose ranges or files are claimed
  // by in-flight compactions are skipped, so concurrent executors pick
  // disjoint work instead of colliding and retrying.
  Compaction* PickCompaction(const CompactionReservations* reserved = nullptr);

  // Return a compaction object for compacting the range [begin,end] in
  // the specified level.  Returns nullptr if there is nothing in that
  // level that overlaps the specified range.
  Compaction* CompactRange(int level, const InternalKey* begin,
                           const InternalKey* end);

  uint64_t MaxFileSizeForLevel(int level) const;

  // Create an iterator that merges the compaction inputs for "*c" from
  // their images (read by TableCache::ReadImages, and outliving the
  // iterator). Needs no mutex.
  Iterator* MakeInputIterator(Compaction* c, const TableImages& images);

  // Returns true iff some level needs a compaction.
  bool NeedsCompaction() const {
    Version* v = current_;
    return (v->compaction_score_ >= 1) || (v->file_to_compact_ != nullptr);
  }

  const Options* options() const { return options_; }
  const InternalKeyComparator* icmp() const { return &icmp_; }

 private:
  class Builder;

  friend class Compaction;
  friend class Version;

  // Mark the specified file number as used.
  void MarkFileNumberUsed(uint64_t number);
  void Finalize(Version* v);

  // SMRDB mode: seed inputs[0] with a file from the deepest overlap
  // cluster at the given (overlapping) level.
  void PickOverlapCluster(int level, Compaction* c);

  // kSet, sorted level >= 1: the unreserved level-`level` table with the
  // lowest victim score (see version_set.cc), nullptr if all are reserved.
  FileMetaData* ScoredVictim(int level,
                             const CompactionReservations* reserved);

  // True iff picking `f` as the level-`level` victim would collide with an
  // active reservation (never true when reserved == nullptr).
  bool VictimReserved(const CompactionReservations* reserved, int level,
                      const FileMetaData* f) const;

  void GetRange(const std::vector<FileMetaData*>& inputs, InternalKey* smallest,
                InternalKey* largest);

  void GetRange2(const std::vector<FileMetaData*>& inputs1,
                 const std::vector<FileMetaData*>& inputs2,
                 InternalKey* smallest, InternalKey* largest);

  void SetupOtherInputs(Compaction* c);

  void AppendVersion(Version* v);

  const std::string dbname_;
  const Options* const options_;
  fs::FileStore* const store_;
  TableCache* const table_cache_;
  const InternalKeyComparator icmp_;
  uint64_t next_file_number_ = 1;
  uint64_t last_sequence_ = 0;
  // See TakeObsoleteFiles.
  std::vector<std::unique_ptr<FileMetaData>> obsolete_files_;
  Version dummy_versions_;  // Head of circular doubly-linked list of versions.
  Version* current_;        // == dummy_versions_.prev_

  // Per-level key at which the next compaction at that level should start
  // (the rotation of level 0 and of kSSTable; kSet scores its sorted-level
  // victims instead). Either an empty string, or a valid InternalKey. In
  // memory only: it restarts from the beginning of the key space on reopen.
  std::vector<std::string> compact_pointer_;
};

// A Compaction encapsulates information about a compaction.
class Compaction {
 public:
  ~Compaction();

  // Return the level that is being compacted.  Inputs from "level"
  // and "level+1" will be merged to produce a set of "level+1" files.
  int level() const { return level_; }

  // The level the outputs are installed into. Usually level()+1, but an
  // intra-level merge (overlapping last level, SMRDB) outputs in place.
  int output_level() const { return output_level_; }

  // Return the object that holds the edits to the descriptor done
  // by this compaction.
  VersionEdit* edit() { return &edit_; }

  // "which" must be either 0 or 1
  int num_input_files(int which) const { return inputs_[which].size(); }

  // Return the ith input file at "level()+which" ("which" must be 0 or 1).
  FileMetaData* input(int which, int i) const { return inputs_[which][i]; }
  const std::vector<FileMetaData*>& inputs(int which) const {
    return inputs_[which];
  }

  // Maximum size of files to build during this compaction.
  uint64_t MaxOutputFileSize() const { return max_output_file_size_; }

  // Total bytes across all inputs.
  uint64_t TotalInputBytes() const;

  // Is this a trivial compaction that can be implemented by just
  // moving a single input file to the next level (no merging or splitting)
  bool IsTrivialMove() const;

  // Add all inputs to this compaction as delete operations to *edit.
  void AddInputDeletions(VersionEdit* edit);

  // Returns true if the information we have available guarantees that
  // the compaction is producing data in "level+1" for which no data exists
  // in levels greater than "level+1".
  bool IsBaseLevelForKey(const Slice& user_key);

  // Returns true iff we should stop building the current output
  // before processing "internal_key".
  bool ShouldStopBefore(const Slice& internal_key);

  // Release the input version for the compaction, once the compaction
  // is successful.
  void ReleaseInputs();

 private:
  friend class Version;
  friend class VersionSet;

  Compaction(const Options* options, int level, int output_level);

  int level_;
  int output_level_;
  uint64_t max_output_file_size_;
  Version* input_version_;
  VersionEdit edit_;

  // Each compaction reads inputs from "level_" and "output_level_".
  std::vector<FileMetaData*> inputs_[2];  // The two sets of inputs

  // State used to check for number of overlapping grandparent files
  // (parent == level_ + 1, grandparent == level_ + 2)
  std::vector<FileMetaData*> grandparents_;
  size_t grandparent_index_;  // Index in grandparent_starts_
  bool seen_key_;             // Some output key has been seen
  int64_t overlapped_bytes_;  // Bytes of overlap between current output
                              // and grandparent files

  // State for implementing IsBaseLevelForKey

  // level_ptrs_ holds indices into input_version_->levels_: our state
  // is that we are positioned at one of the file ranges for each
  // higher level than the ones involved in this compaction (i.e. for
  // all L >= level_ + 2).
  std::vector<size_t> level_ptrs_;
};

}  // namespace sealdb
