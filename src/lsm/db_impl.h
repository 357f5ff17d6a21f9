// DBImpl: the LSM engine. One implementation serves all three systems; the
// differences live in Options (level shape, overlap mode, set-aware
// compaction) and in the storage stack underneath the FileStore.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "lsm/compaction_merge.h"
#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "lsm/engine_metrics.h"
#include "lsm/log_writer.h"
#include "lsm/snapshot.h"
#include "lsm/version_set.h"
#include "util/options.h"

// Annotation macro kept as documentation of the locking discipline
// inherited from LevelDB; expands to nothing.
#define EXCLUSIVE_LOCKS_REQUIRED(...)

namespace sealdb {

class MemTable;
class TableCache;
class Version;
class VersionEdit;
class VersionSet;

class DBImpl : public DB {
 public:
  DBImpl(const Options& options, const std::string& dbname,
         fs::FileStore* store);

  DBImpl(const DBImpl&) = delete;
  DBImpl& operator=(const DBImpl&) = delete;

  ~DBImpl() override;

  // Implementations of the DB interface
  Status Put(const WriteOptions&, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions&, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  Iterator* NewIterator(const ReadOptions&) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  bool GetProperty(const Slice& property, std::string* value) override;
  void CompactRange(const Slice* begin, const Slice* end) override;
  void CompactLevelRange(int level, const Slice* begin,
                         const Slice* end) override;
  void WaitForIdle() override;
  int WriteStallLevel() override {
    return stall_level_.load(std::memory_order_relaxed);
  }

  void QuarantineFile(uint64_t file_number) override;

  std::vector<LiveFileMeta> GetLiveFilesMetadata() override;
  void SetRecordCompactionEvents(bool enable) override;
  std::vector<CompactionEvent> TakeCompactionEvents() override;

 private:
  friend class DB;
  struct CompactionState;
  struct ManualCompaction;
  struct Writer;

  Iterator* NewInternalIterator(const ReadOptions&,
                                SequenceNumber* latest_snapshot,
                                uint32_t* seed);

  // Rebuild the version from the store and replay every WAL into level-0
  // tables; *edit collects those tables and retires the replayed WALs.
  Status Recover(VersionEdit* edit) EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  void MaybeIgnoreError(Status* s) const;

  // Remove the tables no version references any more (and drop them from
  // the table cache); each removal counts toward its set region's dead
  // members in the FileStore.
  void RemoveObsoleteFiles() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Remove the tables of a compaction that failed before its commit, and
  // release its set region. Called without mutex_: no version references
  // the outputs.
  void RemoveUncommittedOutputs(CompactionState* compact);

  // Flush imm_ to a table and commit it, retiring the WAL behind it, unless
  // another thread is already flushing it. Returns whether it flushed.
  // Errors are recorded in bg_error_.
  bool CompactMemTable() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Flush the current memtable and wait until the flush has committed.
  void FlushMemTable();

  Status RecoverLogFile(uint64_t log_number, VersionEdit* edit,
                        SequenceNumber* max_sequence)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  Status WriteLevel0Table(MemTable* mem, VersionEdit* edit, Version* base)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  Status MakeRoomForWrite(bool force /* compact even if there is room? */)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  WriteBatch* BuildBatchGroup(Writer** last_writer)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  void RecordBackgroundError(const Status& s);

  // Recompute stall_level_ from the L0 file count and memtable backlog.
  // Called wherever either changes (writes, flush installs, compaction
  // installs) so WriteStallLevel() tracks the engine without taking
  // mutex_ on the read side.
  void UpdateStallLevel() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Inline mode (no workers): run the compaction step on this thread until
  // it finds nothing to do. Otherwise: start the workers and wake them.
  void MaybeScheduleCompaction() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  void BackgroundThreadMain();
  // The one compaction driver: does one unit of work and returns whether it
  // did any. With manual == nullptr that is a flush of imm_ if none is in
  // flight, else a compaction from PickCompaction; with a manual request,
  // the next compaction of its range. Inline mode, the workers and manual
  // compaction all call it.
  bool CompactionStep(ManualCompaction* manual)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  // Compact [*begin,*end] of `level` on this thread, one step at a time,
  // until the range is done.
  void RunManualCompaction(int level, const Slice* begin, const Slice* end);
  // Run one picked compaction (a trivial move if allowed and possible,
  // otherwise a full merge) and clean up. Takes ownership of c.
  void ExecuteCompaction(Compaction* c, bool allow_trivial_move)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  void CleanupCompaction(CompactionState* compact)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  // Merge the inputs into new tables and install them; a failure is
  // latched in bg_error_ and leaves no output behind.
  void DoCompactionWork(CompactionState* compact)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  Status OpenCompactionOutputFile(CompactionState* compact);
  // Finish the current output; `input_status` is the merged input's, which
  // abandons the output when not ok.
  Status FinishCompactionOutputFile(CompactionState* compact,
                                    const Status& input_status);
  // The build stage of the merge loop: add one batch of merged entries to
  // the outputs, opening, cutting and finishing tables as it goes. Memtable
  // flushes it runs (workers only) add their time to *flush_nanos.
  Status BuildCompactionOutputs(CompactionState* compact,
                                const MergeBatch& batch,
                                uint64_t* flush_nanos);
  Status InstallCompactionResults(CompactionState* compact)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  const Comparator* user_comparator() const {
    return internal_comparator_.user_comparator();
  }

  // Constant after construction
  const InternalKeyComparator internal_comparator_;
  const InternalFilterPolicy internal_filter_policy_;
  const Options options_;  // options_.comparator == &internal_comparator_
  const std::string dbname_;
  fs::FileStore* const store_;

  // table_cache_ provides its own synchronization
  std::unique_ptr<TableCache> table_cache_;

  // State below is protected by mutex_
  std::mutex mutex_;
  std::atomic<bool> shutting_down_;
  std::condition_variable_any background_work_finished_signal_;
  MemTable* mem_;
  MemTable* imm_;                 // Memtable being compacted
  std::atomic<bool> has_imm_;     // So bg thread can detect non-null imm_
  std::unique_ptr<fs::WritableFile> logfile_;
  uint64_t logfile_number_;
  uint64_t imm_logfile_number_ = 0;  // the WAL behind imm_, retired by its flush
  std::unique_ptr<log::Writer> log_;
  uint32_t seed_;  // For sampling.

  // Queue of writers.
  std::deque<Writer*> writers_;
  WriteBatch* tmp_batch_;

  SnapshotList snapshots_;

  // Compaction executor: options_.max_background_compactions workers share
  // one wakeup cv; with none, callers run the step inline. Flushes run one
  // at a time; compactions whose level spans and key-range hulls are
  // disjoint run concurrently, with reservations_ serializing conflicting
  // picks.
  std::vector<std::thread> bg_threads_;
  // Merge helper threads, one per compaction in flight, kept for the next.
  MergeHelpers merge_helpers_;
  std::condition_variable_any background_wakeup_;
  int compactions_in_flight_ = 0;  // concurrent DoCompactionWork calls
  bool imm_flush_in_flight_ = false;
  bool pick_exhausted_ = false;    // last pick found nothing runnable
  CompactionReservations reservations_;

  std::unique_ptr<VersionSet> versions_;

  // Have we encountered a background error in paranoid mode?
  Status bg_error_;

  // Published copy of the write-stall state (see DB::WriteStallLevel);
  // written under mutex_ by UpdateStallLevel, read lock-free by anyone.
  std::atomic<int> stall_level_{0};

  // Engine counters (the sealdb_engine_* metrics).
  EngineMetrics em_;
  // Event recording, protected by mutex_.
  bool record_events_ = false;
  std::vector<CompactionEvent> events_;
};

}  // namespace sealdb
