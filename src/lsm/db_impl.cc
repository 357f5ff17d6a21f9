#include "lsm/db_impl.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "buf/buffer_pool.h"
#include "fs/file_store.h"
#include "lsm/db_iter.h"
#include "lsm/filename.h"
#include "lsm/log_reader.h"
#include "lsm/memtable.h"
#include "lsm/merger.h"
#include "lsm/table_builder.h"
#include "lsm/table_cache.h"
#include "lsm/write_batch.h"
#include "util/logging.h"

namespace sealdb {

// Wall-clock nanoseconds for the engine's stage and stall timers (device
// time is tracked separately by the simulated drive's latency model).
static uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Information kept for every waiting writer
struct DBImpl::Writer {
  explicit Writer(std::mutex* mu)
      : batch(nullptr), sync(false), done(false) {
    (void)mu;
  }

  Status status;
  WriteBatch* batch;
  bool sync;
  bool done;
  std::condition_variable_any cv;
};

struct DBImpl::CompactionState {
  // Files produced by compaction
  struct Output {
    uint64_t number;
    uint64_t file_size;
    InternalKey smallest, largest;
    std::unique_ptr<Table> table;  // opened from the builder's tail
  };

  Output* current_output() { return &outputs[outputs.size() - 1]; }

  explicit CompactionState(Compaction* c)
      : compaction(c),
        smallest_snapshot(0),
        outfile(nullptr),
        builder(nullptr),
        total_bytes(0),
        region_id(0) {}

  Compaction* const compaction;

  // Sequence numbers < smallest_snapshot are not significant since we
  // will never have to service a snapshot below smallest_snapshot.
  // Therefore if we have seen a sequence number S <= smallest_snapshot,
  // we can drop all entries for the same key with sequence numbers < S.
  SequenceNumber smallest_snapshot;

  std::vector<Output> outputs;

  std::unique_ptr<fs::WritableFile> outfile;
  TableBuilder* builder;

  uint64_t total_bytes;

  // SEALDB: FileStore region holding the whole output set (0 = none).
  uint64_t region_id;
};

// A manual compaction of the files of `level` overlapping [*begin,*end]
// (nullptr meaning open-ended), fed to CompactionStep one compaction at a
// time until done.
struct DBImpl::ManualCompaction {
  int level = 0;
  bool done = false;
  const InternalKey* begin = nullptr;
  const InternalKey* end = nullptr;
  InternalKey begin_storage, end_storage;
};

// Fix user-supplied options to be reasonable
template <class T, class V>
static void ClipToRange(T* ptr, V minvalue, V maxvalue) {
  if (static_cast<V>(*ptr) > maxvalue) *ptr = maxvalue;
  if (static_cast<V>(*ptr) < minvalue) *ptr = minvalue;
}
static Options SanitizeOptions(const std::string& dbname,
                               const InternalKeyComparator* icmp,
                               const InternalFilterPolicy* ipolicy,
                               const Options& src) {
  (void)dbname;
  Options result = src;
  result.comparator = icmp;
  result.filter_policy = (src.filter_policy != nullptr) ? ipolicy : nullptr;
  ClipToRange(&result.write_buffer_size, 16 << 10, 1 << 30);
  ClipToRange(&result.max_file_size, 16 << 10, 1 << 30);
  ClipToRange(&result.block_size, 1 << 10, 4 << 20);
  ClipToRange(&result.max_background_compactions, 0, 8);
  if (result.num_levels < 2) result.num_levels = 2;
  if (result.num_levels > 16) result.num_levels = 16;
  return result;
}

DBImpl::DBImpl(const Options& raw_options, const std::string& dbname,
               fs::FileStore* store)
    : internal_comparator_(raw_options.comparator),
      internal_filter_policy_(raw_options.filter_policy),
      options_(SanitizeOptions(dbname, &internal_comparator_,
                               &internal_filter_policy_, raw_options)),
      dbname_(dbname),
      store_(store),
      table_cache_(std::make_unique<TableCache>(dbname_, options_, store_)),
      shutting_down_(false),
      mem_(nullptr),
      imm_(nullptr),
      has_imm_(false),
      logfile_(nullptr),
      logfile_number_(0),
      log_(nullptr),
      seed_(0),
      tmp_batch_(new WriteBatch),
      reservations_(internal_comparator_.user_comparator()),
      versions_(std::make_unique<VersionSet>(dbname_, &options_, store_,
                                             table_cache_.get(),
                                             &internal_comparator_)),
      em_(options_.metrics_registry, options_.metrics_shard_label) {}

DBImpl::~DBImpl() {
  // Wake every worker; in-flight compactions notice shutting_down_ at their
  // next key and abort, then the join below drains the pool.
  mutex_.lock();
  shutting_down_.store(true, std::memory_order_release);
  background_wakeup_.notify_all();
  background_work_finished_signal_.notify_all();
  mutex_.unlock();
  for (std::thread& t : bg_threads_) {
    t.join();
  }

  delete tmp_batch_;
  if (mem_ != nullptr) mem_->Unref();
  if (imm_ != nullptr) imm_->Unref();
  log_.reset();
  logfile_.reset();
}

void DBImpl::MaybeIgnoreError(Status* s) const {
  if (s->ok() || options_.paranoid_checks) {
    // No change needed
  } else {
    *s = Status::OK();
  }
}

void DBImpl::RemoveObsoleteFiles() {
  std::vector<uint64_t> dead;
  {
    // Deleting the metadata closes the readers, unpinning their index and
    // filter pages before the purge below.
    const std::vector<std::unique_ptr<FileMetaData>> files =
        versions_->TakeObsoleteFiles();
    for (const auto& f : files) dead.push_back(f->number);
  }
  if (dead.empty()) return;
  std::sort(dead.begin(), dead.end());
  for (uint64_t number : dead) table_cache_->Evict(number);

  // No version references these tables and their names are never reused,
  // so other threads may proceed while they are removed.
  mutex_.unlock();
  for (uint64_t number : dead) {
    store_->RemoveFile(TableFileName(dbname_, number));
  }
  mutex_.lock();
}

void DBImpl::RemoveUncommittedOutputs(CompactionState* compact) {
  if (compact->builder != nullptr) {
    compact->builder->Abandon();
    delete compact->builder;
    compact->builder = nullptr;
  }
  compact->outfile.reset();
  for (CompactionState::Output& out : compact->outputs) {
    out.table.reset();
    table_cache_->Evict(out.number);
    store_->RemoveFile(TableFileName(dbname_, out.number));
  }
  if (compact->region_id != 0) {
    // Removing the region's last table released it; a region no table was
    // carved from is released by sealing it empty.
    store_->SealRegion(compact->region_id);
  }
}

void DBImpl::QuarantineFile(uint64_t file_number) {
  // Scrub found the table's media damaged. Unlike the dead-file Evict
  // above, the file is still live in the version set, so its pages are
  // banned from re-admission until it dies: a reader that fetched a block
  // just before the quarantine must not re-populate the shared pool with
  // it. Its reader stays open; its pinned index and filter pages are
  // dropped from the pool and freed when it closes.
  table_cache_->Evict(file_number, /*ban=*/true);
}

Status DBImpl::Recover(VersionEdit* edit) {
  // The FileStore itself has already been recovered by the caller.
  std::vector<uint64_t> logs;
  Status s = versions_->Recover(&logs);
  if (!s.ok()) {
    return s;
  }

  // Replay every WAL, in the order the logs were written. A WAL whose
  // memtable was flushed went away in that flush's commit record.
  SequenceNumber max_sequence(0);
  for (uint64_t log : logs) {
    s = RecoverLogFile(log, edit, &max_sequence);
    if (!s.ok()) {
      return s;
    }
    edit->RemoveLog(log);
  }

  if (versions_->LastSequence() < max_sequence) {
    versions_->SetLastSequence(max_sequence);
  }

  return Status::OK();
}

Status DBImpl::RecoverLogFile(uint64_t log_number, VersionEdit* edit,
                              SequenceNumber* max_sequence) {
  struct LogReporter : public log::Reader::Reporter {
    Status* status;
    void Corruption(size_t bytes, const Status& s) override {
      (void)bytes;
      if (this->status != nullptr && this->status->ok()) *this->status = s;
    }
  };

  // Open the log file
  std::string fname = LogFileName(dbname_, log_number);
  std::unique_ptr<fs::SequentialFile> file;
  Status status = store_->NewSequentialFile(fname, &file);
  if (!status.ok()) {
    MaybeIgnoreError(&status);
    return status;
  }

  // Create the log reader.
  LogReporter reporter;
  reporter.status = (options_.paranoid_checks ? &status : nullptr);
  // We intentionally make log::Reader do checksumming even if
  // paranoid_checks==false so that corruptions cause entire commits
  // to be skipped instead of propagating bad information (like overly
  // large sequence numbers).
  log::Reader reader(file.get(), &reporter, true /*checksum*/);
  std::string scratch;
  Slice record;
  WriteBatch batch;
  MemTable* mem = nullptr;
  while (reader.ReadRecord(&record, &scratch) && status.ok()) {
    if (record.size() < 12) {
      reporter.Corruption(record.size(),
                          Status::Corruption("log record too small"));
      continue;
    }
    WriteBatchInternal::SetContents(&batch, record);

    if (mem == nullptr) {
      mem = new MemTable(internal_comparator_);
      mem->Ref();
    }
    status = WriteBatchInternal::InsertInto(&batch, mem);
    MaybeIgnoreError(&status);
    if (!status.ok()) {
      break;
    }
    const SequenceNumber last_seq = WriteBatchInternal::Sequence(&batch) +
                                    WriteBatchInternal::Count(&batch) - 1;
    if (last_seq > *max_sequence) {
      *max_sequence = last_seq;
    }

    if (mem->ApproximateMemoryUsage() > options_.write_buffer_size) {
      status = WriteLevel0Table(mem, edit, nullptr);
      mem->Unref();
      mem = nullptr;
      if (!status.ok()) {
        // Reflect errors immediately so that conditions like full
        // file-systems cause the DB::Open() to fail.
        break;
      }
    }
  }

  file.reset();

  // Always write a fresh log on reopen: flush the recovered memtable.
  if (mem != nullptr) {
    if (status.ok()) {
      status = WriteLevel0Table(mem, edit, nullptr);
    }
    mem->Unref();
  }

  return status;
}

// Build a table file from the contents of *iter (used by memtable
// flushes). The generated file will be named according to meta->number.
// On success, the rest of *meta is filled with metadata about the table
// and *table holds its reader. If no data is present in *iter,
// meta->file_size is set to zero, and no table file is produced.
static Status BuildTable(const std::string& dbname, fs::FileStore* store,
                         const Options& options, TableCache* table_cache,
                         Iterator* iter, FileMetaData* meta,
                         std::unique_ptr<Table>* table) {
  Status s;
  meta->file_size = 0;
  iter->SeekToFirst();

  std::string fname = TableFileName(dbname, meta->number);
  if (iter->Valid()) {
    std::unique_ptr<fs::WritableFile> file;
    s = store->NewWritableFile(fname, options.max_file_size,
                               &file);
    if (!s.ok()) {
      return s;
    }

    TableBuilder builder(options, file.get());
    meta->smallest.DecodeFrom(iter->key());
    Slice key;
    for (; iter->Valid(); iter->Next()) {
      key = iter->key();
      builder.Add(key, iter->value());
    }
    if (!key.empty()) {
      meta->largest.DecodeFrom(key);
    }

    // Finish and check for builder errors
    s = builder.Finish();
    if (s.ok()) {
      meta->file_size = builder.FileSize();
      assert(meta->file_size > 0);
    }

    // Finish and check for file errors
    if (s.ok()) {
      s = file->Close();
    }
    file.reset();

    if (s.ok()) {
      // Verify that the table is usable, from the tail just written
      s = table_cache->OpenTable(meta->number, meta->file_size,
                                 builder.tail(), table);
    }
  }

  // Check for input iterator errors
  if (!iter->status().ok()) {
    s = iter->status();
  }

  if (s.ok() && meta->file_size > 0) {
    // Keep it
  } else {
    store->RemoveFile(fname);
  }
  return s;
}

Status DBImpl::WriteLevel0Table(MemTable* mem, VersionEdit* edit,
                                Version* base) {
  FileMetaData meta;
  meta.number = versions_->NewFileNumber();
  Iterator* iter = mem->NewIterator();

  Status s;
  std::unique_ptr<Table> table;
  {
    mutex_.unlock();
    s = BuildTable(dbname_, store_, options_, table_cache_.get(), iter, &meta,
                   &table);
    mutex_.lock();
  }

  delete iter;

  // Note that if file_size is zero, the file has been deleted and
  // should not be committed.
  int level = 0;
  if (s.ok() && meta.file_size > 0) {
    const Slice min_user_key = meta.smallest.user_key();
    const Slice max_user_key = meta.largest.user_key();
    if (base != nullptr) {
      level = base->PickLevelForMemTableOutput(min_user_key, max_user_key);
      // A concurrent compaction may install outputs inside this key range at
      // a sorted level (its future outputs are invisible to the placement
      // check above). Demote past any reserved span; L0 tolerates overlap.
      while (level > 0 &&
             reservations_.RangeReserved(level, min_user_key, max_user_key)) {
        level--;
      }
    }
    edit->AddFile(level, meta.number, meta.file_size, meta.smallest,
                  meta.largest, /*set_id=*/0, std::move(table));
  }

  em_.flushes->Inc();
  em_.flush_bytes->Add(meta.file_size);
  return s;
}

bool DBImpl::CompactMemTable() {
  if (imm_ == nullptr || imm_flush_in_flight_) return false;
  imm_flush_in_flight_ = true;

  // Save the contents of the memtable as a new Table
  VersionEdit edit;
  Version* base = versions_->current();
  base->Ref();
  Status s = WriteLevel0Table(imm_, &edit, base);
  base->Unref();

  // Replace immutable memtable with the generated Table, and retire the
  // WAL behind it in the same commit.
  if (s.ok()) {
    edit.RemoveLog(imm_logfile_number_);
    s = versions_->LogAndApply(&edit);
  }

  if (s.ok()) {
    // Commit to the new state
    imm_->Unref();
    imm_ = nullptr;
    has_imm_.store(false, std::memory_order_release);
    pick_exhausted_ = false;  // the new L0 file may enable a compaction
    UpdateStallLevel();
    RemoveObsoleteFiles();
  } else {
    RecordBackgroundError(s);
  }
  imm_flush_in_flight_ = false;
  // Wake writers waiting in MakeRoomForWrite, and idle workers.
  background_work_finished_signal_.notify_all();
  background_wakeup_.notify_all();
  return true;
}

void DBImpl::CompactRange(const Slice* begin, const Slice* end) {
  int max_level_with_files = 1;
  {
    mutex_.lock();
    Version* base = versions_->current();
    for (int level = 1; level < versions_->NumLevels(); level++) {
      if (base->OverlapInLevel(level, begin, end)) {
        max_level_with_files = level;
      }
    }
    mutex_.unlock();
  }
  // Could skip the flush when the memtable does not overlap the range;
  // correctness does not require it.
  FlushMemTable();
  for (int level = 0; level < max_level_with_files; level++) {
    RunManualCompaction(level, begin, end);
  }
}

void DBImpl::CompactLevelRange(int level, const Slice* begin,
                               const Slice* end) {
  if (level < 0 || level >= options_.num_levels) return;
  RunManualCompaction(level, begin, end);
}

void DBImpl::RunManualCompaction(int level, const Slice* begin,
                                 const Slice* end) {
  ManualCompaction manual;
  manual.level = level;
  if (begin != nullptr) {
    manual.begin_storage =
        InternalKey(*begin, kMaxSequenceNumber, kValueTypeForSeek);
    manual.begin = &manual.begin_storage;
  }
  if (end != nullptr) {
    manual.end_storage = InternalKey(*end, 0, static_cast<ValueType>(0));
    manual.end = &manual.end_storage;
  }

  mutex_.lock();
  while (!manual.done && bg_error_.ok() &&
         !shutting_down_.load(std::memory_order_acquire)) {
    if (!CompactionStep(&manual) && !manual.done) {
      // The range conflicts with a running compaction: wait for work to
      // finish, then re-pick against the updated version.
      background_work_finished_signal_.wait(mutex_);
    }
  }
  mutex_.unlock();
}

void DBImpl::FlushMemTable() {
  // A null batch waits for earlier writes, then switches the memtable.
  if (!Write(WriteOptions(), nullptr).ok()) return;
  mutex_.lock();
  while (imm_ != nullptr && bg_error_.ok()) {
    MaybeScheduleCompaction();
    if (imm_ != nullptr && bg_error_.ok()) {
      background_work_finished_signal_.wait(mutex_);
    }
  }
  mutex_.unlock();
}

// Enter read-only degraded mode: the first persistent I/O error (failed WAL
// append/sync, flush, compaction, or commit record) is latched and every
// subsequent write or compaction fails fast with it. Reads keep being served
// from whatever state is already durable/in memory; re-opening the DB after
// the underlying fault is repaired restores write availability.
void DBImpl::RecordBackgroundError(const Status& s) {
  if (bg_error_.ok()) {
    bg_error_ = s;
    em_.background_error->Set(1);
    background_work_finished_signal_.notify_all();
  }
}

void DBImpl::MaybeScheduleCompaction() {
  if (options_.max_background_compactions == 0) {
    while (CompactionStep(nullptr)) {
    }
    return;
  }
  if (shutting_down_.load(std::memory_order_acquire)) return;
  if (!bg_error_.ok()) return;
  if (imm_ == nullptr && !versions_->NeedsCompaction()) return;
  if (bg_threads_.empty()) {
    const int n = options_.max_background_compactions;
    bg_threads_.reserve(n);
    for (int i = 0; i < n; i++) {
      bg_threads_.emplace_back(&DBImpl::BackgroundThreadMain, this);
    }
  }
  background_wakeup_.notify_all();
}

void DBImpl::BackgroundThreadMain() {
  mutex_.lock();
  while (!shutting_down_.load(std::memory_order_acquire)) {
    if (!CompactionStep(nullptr)) {
      background_wakeup_.wait(mutex_);
    }
  }
  mutex_.unlock();
}

// Flushes take priority and run one at a time; compaction picks are guarded
// by the reservation map, so workers holding disjoint reservations merge
// concurrently.
bool DBImpl::CompactionStep(ManualCompaction* manual) {
  if (shutting_down_.load(std::memory_order_acquire) || !bg_error_.ok()) {
    return false;
  }
  // Inline mode runs one unit at a time, whichever thread calls: its set
  // regions carry no trailing guard, so nothing may write behind one while
  // it fills. The caller waits for the running unit instead.
  if (options_.max_background_compactions == 0 &&
      (imm_flush_in_flight_ || reservations_.active() > 0)) {
    return false;
  }
  if (manual == nullptr) {
    if (CompactMemTable()) return true;
    if (pick_exhausted_ || !versions_->NeedsCompaction()) return false;
  }

  const uint64_t pick_start = NowNanos();
  Compaction* c = (manual != nullptr)
                      ? versions_->CompactRange(manual->level, manual->begin,
                                                manual->end)
                      : versions_->PickCompaction(&reservations_);
  const uint64_t ticket = (c != nullptr) ? reservations_.TryReserve(c) : 0;
  em_.pick_time->AddNanos(NowNanos() - pick_start);
  if (c == nullptr) {
    if (manual != nullptr) {
      manual->done = true;  // nothing of the range is left at its level
    } else {
      // Every candidate conflicts with a running compaction (or the
      // trigger was stale). Cleared when state changes.
      pick_exhausted_ = true;
      background_work_finished_signal_.notify_all();
    }
    return false;
  }
  if (ticket == 0) {
    // The inputs conflict with a running compaction: for a pick, through an
    // expansion the victim-level skip could not see. The compact_pointer_
    // already rotated past this victim, so the next pick lands elsewhere.
    c->ReleaseInputs();
    delete c;
    return false;
  }
  if (manual != nullptr) {
    // LevelDB's manual_end. A compaction from a sorted level took a prefix
    // of the range's files and moves them out of the level, so the next
    // one starts at the largest key this one took. One from an overlapping
    // level (L0, or SMRDB's last level in place) took every file
    // overlapping the range.
    if (versions_->current()->LevelIsOverlapping(manual->level)) {
      manual->done = true;
    } else {
      manual->begin_storage = c->inputs(0).back()->largest;
      manual->begin = &manual->begin_storage;
    }
  }

  // A manual compaction rewrites its inputs even where a move would do.
  ExecuteCompaction(c, /*allow_trivial_move=*/manual == nullptr);
  reservations_.Release(ticket);
  pick_exhausted_ = false;
  background_work_finished_signal_.notify_all();
  background_wakeup_.notify_all();
  return true;
}

void DBImpl::ExecuteCompaction(Compaction* c, bool allow_trivial_move) {
  if (allow_trivial_move && c->IsTrivialMove()) {
    // Move file to next level
    assert(c->num_input_files(0) == 1);
    FileMetaData* f = c->input(0, 0);
    c->edit()->RemoveFile(c->level(), f->number);
    c->edit()->AddFile(c->output_level(), f->number, f->file_size, f->smallest,
                       f->largest, f->set_id);
    const Status status = versions_->LogAndApply(c->edit());
    if (!status.ok()) {
      RecordBackgroundError(status);
    }
    UpdateStallLevel();
    em_.compactions_at(c->output_level())->Inc();
    if (record_events_) {
      CompactionEvent ev;
      ev.level = c->level();
      ev.output_level = c->output_level();
      ev.num_inputs_base = 1;
      ev.num_outputs = 1;
      ev.input_bytes = f->file_size;
      ev.output_bytes = f->file_size;
      ev.trivial_move = true;
      events_.push_back(std::move(ev));
    }
  } else {
    CompactionState* compact = new CompactionState(c);
    DoCompactionWork(compact);
    CleanupCompaction(compact);
    c->ReleaseInputs();
    RemoveObsoleteFiles();
  }
  delete c;
}

void DBImpl::CleanupCompaction(CompactionState* compact) {
  if (compact->builder != nullptr) {
    // May happen if we get a shutdown call in the middle of compaction
    compact->builder->Abandon();
    delete compact->builder;
  } else {
    assert(compact->outfile == nullptr);
  }
  compact->outfile.reset();
  delete compact;
}

Status DBImpl::OpenCompactionOutputFile(CompactionState* compact) {
  assert(compact != nullptr);
  assert(compact->builder == nullptr);
  uint64_t file_number;
  {
    mutex_.lock();
    file_number = versions_->NewFileNumber();
    CompactionState::Output out;
    out.number = file_number;
    out.smallest.Clear();
    out.largest.Clear();
    compact->outputs.push_back(std::move(out));
    mutex_.unlock();
  }

  // Make the output file
  std::string fname = TableFileName(dbname_, file_number);
  Status s;
  if (compact->region_id != 0) {
    // SEALDB: carve the table from the compaction's set region so the
    // whole set lands contiguously.
    s = store_->NewWritableFileInRegion(compact->region_id, fname,
                                        &compact->outfile);
  } else {
    s = store_->NewWritableFile(
        fname, compact->compaction->MaxOutputFileSize(),
        &compact->outfile);
  }
  if (s.ok()) {
    compact->builder = new TableBuilder(options_, compact->outfile.get());
  }
  return s;
}

Status DBImpl::FinishCompactionOutputFile(CompactionState* compact,
                                          const Status& input_status) {
  assert(compact != nullptr);
  assert(compact->outfile != nullptr);
  assert(compact->builder != nullptr);

  const uint64_t output_number = compact->current_output()->number;
  assert(output_number != 0);

  // Check for iterator errors
  Status s = input_status;
  const uint64_t current_entries = compact->builder->NumEntries();
  if (s.ok()) {
    s = compact->builder->Finish();
  } else {
    compact->builder->Abandon();
  }
  const uint64_t current_bytes = compact->builder->FileSize();
  compact->current_output()->file_size = current_bytes;
  compact->total_bytes += current_bytes;

  // Finish and check for file errors
  if (s.ok()) {
    s = compact->outfile->Close();
  }
  compact->outfile.reset();

  if (s.ok() && current_entries > 0) {
    // Verify that the table is usable, from the tail just written
    s = table_cache_->OpenTable(output_number, current_bytes,
                                compact->builder->tail(),
                                &compact->current_output()->table);
  }
  delete compact->builder;
  compact->builder = nullptr;
  return s;
}

Status DBImpl::InstallCompactionResults(CompactionState* compact) {
  // Add compaction outputs
  compact->compaction->AddInputDeletions(compact->compaction->edit());
  const int out_level = compact->compaction->output_level();
  for (CompactionState::Output& out : compact->outputs) {
    compact->compaction->edit()->AddFile(out_level, out.number, out.file_size,
                                         out.smallest, out.largest,
                                         compact->region_id,
                                         std::move(out.table));
  }
  Status s = versions_->LogAndApply(compact->compaction->edit());
  if (s.ok()) UpdateStallLevel();
  return s;
}

Status DBImpl::BuildCompactionOutputs(CompactionState* compact,
                                      const MergeBatch& batch,
                                      uint64_t* flush_nanos) {
  Status status;
  for (const MergeBatch::Entry& entry : batch.entries) {
    if (shutting_down_.load(std::memory_order_acquire)) break;
    // Prioritize immutable compaction work (workers only: inline mode runs
    // one unit at a time)
    if (has_imm_.load(std::memory_order_relaxed) &&
        options_.max_background_compactions > 0) {
      mutex_.lock();
      const uint64_t flush_start = NowNanos();
      if (CompactMemTable()) *flush_nanos += NowNanos() - flush_start;
      mutex_.unlock();
    }

    const Slice key = batch.key(entry);
    if (entry.cut && compact->builder != nullptr) {
      status = FinishCompactionOutputFile(compact, batch.input_status);
      if (!status.ok()) break;
    }
    if (!entry.keep) continue;

    // Open output file if necessary
    if (compact->builder == nullptr) {
      status = OpenCompactionOutputFile(compact);
      if (!status.ok()) break;
    }
    if (compact->builder->NumEntries() == 0) {
      compact->current_output()->smallest.DecodeFrom(key);
    }
    compact->current_output()->largest.DecodeFrom(key);
    compact->builder->Add(key, entry.value);

    // Close output file if it is big enough
    if (compact->builder->FileSize() >=
        compact->compaction->MaxOutputFileSize()) {
      status = FinishCompactionOutputFile(compact, batch.input_status);
      if (!status.ok()) break;
    }
  }
  return status;
}

void DBImpl::DoCompactionWork(CompactionState* compact) {
  const obs::TimeCounter* device_busy = store_->drive()->metrics().busy;
  const double device_before = device_busy->Seconds();

  assert(versions_->NumLevelFiles(compact->compaction->level()) > 0);
  assert(compact->builder == nullptr);
  assert(compact->outfile == nullptr);

  compactions_in_flight_++;
  em_.max_parallel->SetMax(compactions_in_flight_);

  if (snapshots_.empty()) {
    compact->smallest_snapshot = versions_->LastSequence();
  } else {
    compact->smallest_snapshot = snapshots_.oldest()->sequence_number();
  }

  const uint64_t input_bytes = compact->compaction->TotalInputBytes();

  // Deletion markers can only be dropped when no older version of the key
  // can exist outside the compaction. With an overlapping last level
  // (SMRDB mode), runs not participating in this compaction may still hold
  // older versions, so markers must be kept unless the compaction covers
  // the entire level.
  bool allow_delete_drop = true;
  if (options_.allow_overlap_last_level &&
      compact->compaction->output_level() == options_.num_levels - 1) {
    const int out_level = compact->compaction->output_level();
    const int which = compact->compaction->level() == out_level ? 0 : 1;
    const size_t in_level_inputs = compact->compaction->num_input_files(which);
    allow_delete_drop =
        in_level_inputs == versions_->current()->files(out_level).size();
  }

  // Release mutex while we're actually doing the compaction work: every
  // drive request below runs without it.
  mutex_.unlock();

  // Set-at-once I/O: read every input table whole, one drive request each,
  // the victim level's files and then the set, before the merge writes its
  // first output (stage "read"). Inputs past TableCache::kMaxImageBytes
  // stream instead.
  const uint64_t images_start = NowNanos();
  TableImages images;
  Status status = table_cache_->ReadImages(compact->compaction->inputs(0),
                                           compact->compaction->inputs(1),
                                           &images);
  const uint64_t images_nanos = NowNanos() - images_start;

  // SEALDB: reserve one contiguous region for the whole output set before
  // writing (dynamic band management, Eq. 1 applied inside the allocator).
  if (status.ok() && options_.compaction_unit == CompactionUnit::kSet) {
    // Outputs roughly equal inputs; the slack covers per-table format
    // overhead and is returned to the free list by SealRegion.
    const uint64_t region_size =
        input_bytes + input_bytes / 16 + 2 * options_.max_file_size;
    // With workers, flushes and other compactions may append behind the
    // region while it is still being filled; reserve a trailing guard then.
    Status rs = store_->AllocateRegion(region_size, &compact->region_id,
                                       options_.max_background_compactions > 0);
    if (!rs.ok()) {
      // Fall back to per-file placement rather than failing the compaction.
      compact->region_id = 0;
    }
  }

  Iterator* input =
      status.ok() ? versions_->MakeInputIterator(compact->compaction, images)
                  : NewErrorIterator(status);
  const uint64_t seek_start = NowNanos();
  input->SeekToFirst();
  const uint64_t read_nanos = images_nanos + (NowNanos() - seek_start);

  // Two stages: a merge stage (drop rules and cut points) feeds this
  // thread, which builds and writes the outputs. With every input in memory
  // the merge stage runs on a helper thread, batches ahead; an input that
  // streams reads the drive as the merge advances, so both stages then run
  // here, entry by entry, and the drive sees one order whatever the thread
  // timing. Stage time: "merge" is what this thread waited for (or spent
  // on) merged entries, "write" what it spent building them, less in-loop
  // memtable flushes, which belong to no stage.
  const bool streams = std::any_of(
      images.begin(), images.end(),
      [](const auto& image) { return image.second.data == nullptr; });
  uint64_t merge_nanos = 0, write_nanos = 0;
  {
    MergeStage merge(compact->compaction, input, user_comparator(),
                     compact->smallest_snapshot, allow_delete_drop);
    MergePipe pipe(&merge,
                   status.ok() && !streams ? &merge_helpers_ : nullptr);
    uint64_t flush_nanos = 0;
    uint64_t wait_start = NowNanos();
    while (const MergeBatch* batch = pipe.Next()) {
      const uint64_t build_start = NowNanos();
      merge_nanos += build_start - wait_start;
      status = BuildCompactionOutputs(compact, *batch, &flush_nanos);
      wait_start = NowNanos();
      write_nanos += wait_start - build_start;
      if (!status.ok() || shutting_down_.load(std::memory_order_acquire)) {
        break;
      }
    }
    write_nanos -= flush_nanos;
  }

  if (status.ok() && shutting_down_.load(std::memory_order_acquire)) {
    status = Status::IOError("Deleting DB during compaction");
  }
  if (status.ok() && compact->builder != nullptr) {
    const uint64_t finish_start = NowNanos();
    status = FinishCompactionOutputFile(compact, input->status());
    write_nanos += NowNanos() - finish_start;
  }
  if (status.ok()) {
    status = input->status();
  }
  delete input;
  input = nullptr;
  images.clear();  // the merge was their last reader

  if (status.ok() && compact->region_id != 0) {
    // Return the unused tail of the set region to the free-space list.
    status = store_->SealRegion(compact->region_id);
  }
  if (!status.ok()) {
    // Failed before its commit: nothing references the outputs.
    RemoveUncommittedOutputs(compact);
  }

  mutex_.lock();

  const double device_seconds = device_busy->Seconds() - device_before;
  const int out_level = compact->compaction->output_level();
  em_.compactions_at(out_level)->Inc();
  em_.compaction_read_bytes->Add(input_bytes);
  em_.compaction_write_bytes->Add(compact->total_bytes);
  em_.read_time->AddNanos(read_nanos);
  em_.merge_time->AddNanos(merge_nanos);
  em_.write_time->AddNanos(write_nanos);
  em_.compaction_time_at(out_level)->AddNanos(read_nanos + merge_nanos +
                                              write_nanos);

  if (status.ok()) {
    const uint64_t install_start = NowNanos();
    status = InstallCompactionResults(compact);
    em_.install_time->AddNanos(NowNanos() - install_start);
  }
  if (!status.ok()) {
    RecordBackgroundError(status);
  }
  compactions_in_flight_--;

  if (record_events_) {
    CompactionEvent ev;
    ev.level = compact->compaction->level();
    ev.output_level = compact->compaction->output_level();
    ev.num_inputs_base = compact->compaction->num_input_files(0);
    ev.num_inputs_parent = compact->compaction->num_input_files(1);
    ev.num_outputs = static_cast<int>(compact->outputs.size());
    ev.input_bytes = input_bytes;
    ev.output_bytes = compact->total_bytes;
    ev.device_seconds = device_seconds;
    ev.set_id = compact->region_id;
    for (const auto& out : compact->outputs) {
      std::vector<fs::Extent> extents;
      if (store_
              ->GetFileExtents(TableFileName(dbname_, out.number), &extents)
              .ok()) {
        for (const fs::Extent& e : extents) {
          ev.output_placement.emplace_back(e.offset, e.length);
        }
      }
    }
    events_.push_back(std::move(ev));
  }
}

namespace {

struct IterState {
  std::mutex* const mu;
  Version* const version;
  MemTable* const mem;
  MemTable* const imm;

  IterState(std::mutex* mutex, MemTable* mem, MemTable* imm, Version* version)
      : mu(mutex), version(version), mem(mem), imm(imm) {}
};

void CleanupIteratorState(void* arg1, void* arg2) {
  (void)arg2;
  IterState* state = reinterpret_cast<IterState*>(arg1);
  state->mu->lock();
  state->mem->Unref();
  if (state->imm != nullptr) state->imm->Unref();
  state->version->Unref();
  state->mu->unlock();
  delete state;
}

}  // anonymous namespace

Iterator* DBImpl::NewInternalIterator(const ReadOptions& options,
                                      SequenceNumber* latest_snapshot,
                                      uint32_t* seed) {
  mutex_.lock();
  *latest_snapshot = versions_->LastSequence();

  // Collect together all needed child iterators
  std::vector<Iterator*> list;
  list.push_back(mem_->NewIterator());
  mem_->Ref();
  if (imm_ != nullptr) {
    list.push_back(imm_->NewIterator());
    imm_->Ref();
  }
  versions_->current()->AddIterators(options, &list);
  Iterator* internal_iter =
      NewMergingIterator(&internal_comparator_, &list[0], list.size());
  versions_->current()->Ref();

  IterState* cleanup =
      new IterState(&mutex_, mem_, imm_, versions_->current());
  internal_iter->RegisterCleanup(CleanupIteratorState, cleanup, nullptr);

  *seed = ++seed_;
  mutex_.unlock();
  return internal_iter;
}

Status DBImpl::Get(const ReadOptions& options, const Slice& key,
                   std::string* value) {
  Status s;
  mutex_.lock();
  SequenceNumber snapshot;
  if (options.snapshot != nullptr) {
    snapshot =
        static_cast<const SnapshotImpl*>(options.snapshot)->sequence_number();
  } else {
    snapshot = versions_->LastSequence();
  }

  MemTable* mem = mem_;
  MemTable* imm = imm_;
  Version* current = versions_->current();
  mem->Ref();
  if (imm != nullptr) imm->Ref();
  current->Ref();

  bool have_stat_update = false;
  Version::GetStats stats;

  // Unlock while reading from files and memtables
  {
    mutex_.unlock();
    // First look in the memtable, then in the immutable memtable (if any).
    LookupKey lkey(key, snapshot);
    if (mem->Get(lkey, value, &s)) {
      // Done
    } else if (imm != nullptr && imm->Get(lkey, value, &s)) {
      // Done
    } else {
      s = current->Get(options, lkey, value, &stats);
      have_stat_update = true;
    }
    mutex_.lock();
  }

  if (have_stat_update && current->UpdateStats(stats)) {
    pick_exhausted_ = false;  // a seek compaction is now due
    MaybeScheduleCompaction();
  }
  mem->Unref();
  if (imm != nullptr) imm->Unref();
  current->Unref();
  mutex_.unlock();
  return s;
}

Iterator* DBImpl::NewIterator(const ReadOptions& options) {
  SequenceNumber latest_snapshot;
  uint32_t seed;
  Iterator* iter = NewInternalIterator(options, &latest_snapshot, &seed);
  return NewDBIterator(this, user_comparator(), iter,
                       (options.snapshot != nullptr
                            ? static_cast<const SnapshotImpl*>(options.snapshot)
                                  ->sequence_number()
                            : latest_snapshot),
                       seed);
}

const Snapshot* DBImpl::GetSnapshot() {
  mutex_.lock();
  const Snapshot* s = snapshots_.New(versions_->LastSequence());
  mutex_.unlock();
  return s;
}

void DBImpl::ReleaseSnapshot(const Snapshot* snapshot) {
  mutex_.lock();
  snapshots_.Delete(static_cast<const SnapshotImpl*>(snapshot));
  mutex_.unlock();
}

// Convenience methods
Status DBImpl::Put(const WriteOptions& o, const Slice& key,
                   const Slice& val) {
  WriteBatch batch;
  batch.Put(key, val);
  return Write(o, &batch);
}

Status DBImpl::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

Status DBImpl::Write(const WriteOptions& options, WriteBatch* updates) {
  Writer w(&mutex_);
  w.batch = updates;
  w.sync = options.sync;
  w.done = false;

  mutex_.lock();
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) {
    w.cv.wait(mutex_);
  }
  if (w.done) {
    mutex_.unlock();
    return w.status;
  }

  // May temporarily unlock and wait.
  Status status = MakeRoomForWrite(updates == nullptr);
  uint64_t last_sequence = versions_->LastSequence();
  Writer* last_writer = &w;
  if (status.ok() && updates != nullptr) {  // nullptr batch is for compactions
    WriteBatch* write_batch = BuildBatchGroup(&last_writer);
    em_.write_groups->Inc();
    WriteBatchInternal::SetSequence(write_batch, last_sequence + 1);
    last_sequence += WriteBatchInternal::Count(write_batch);

    // Add to log and apply to memtable.  We can release the lock
    // during this phase since &w is currently responsible for logging
    // and protects against concurrent loggers and concurrent writes
    // into mem_.
    {
      mutex_.unlock();
      const Slice contents = WriteBatchInternal::Contents(write_batch);
      status = log_->AddRecord(contents);
      bool wal_error = !status.ok();
      if (status.ok() && options.sync) {
        // Pad to a full device block so the sync makes everything durable
        // without ever rewriting a block in place (SMR requirement).
        status = log_->PadToBlockBoundary();
        if (status.ok()) {
          status = logfile_->Sync();
        }
        if (!status.ok()) {
          wal_error = true;
        }
      }
      if (status.ok()) {
        status = WriteBatchInternal::InsertInto(write_batch, mem_);
      }
      mutex_.lock();
      em_.wal_bytes->Add(contents.size());
      // Count only the user payload (keys + values) toward user bytes.
      em_.user_bytes->Add(contents.size() - 12);
      if (wal_error) {
        // The state of the log file is indeterminate: the log record we
        // just added (or a chunk of an earlier buffered one) may or may
        // not show up when the DB is re-opened. So we force the DB into
        // read-only mode, where all future writes fail.
        RecordBackgroundError(status);
      }
    }
    if (write_batch == tmp_batch_) tmp_batch_->Clear();

    versions_->SetLastSequence(last_sequence);
  }

  while (true) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      ready->status = status;
      ready->done = true;
      ready->cv.notify_one();
    }
    if (ready == last_writer) break;
  }

  // Notify new head of write queue
  if (!writers_.empty()) {
    writers_.front()->cv.notify_one();
  }

  mutex_.unlock();

  return status;
}

// REQUIRES: Writer list must be non-empty
// REQUIRES: First writer must have a non-null batch
WriteBatch* DBImpl::BuildBatchGroup(Writer** last_writer) {
  assert(!writers_.empty());
  Writer* first = writers_.front();
  WriteBatch* result = first->batch;
  assert(result != nullptr);

  size_t size = WriteBatchInternal::ByteSize(first->batch);

  // Allow the group to grow up to a maximum size, but if the
  // original write is small, limit the growth so we do not slow
  // down the small write too much.
  size_t max_size = 1 << 20;
  if (size <= (128 << 10)) {
    max_size = size + (128 << 10);
  }

  *last_writer = first;
  std::deque<Writer*>::iterator iter = writers_.begin();
  ++iter;  // Advance past "first"
  for (; iter != writers_.end(); ++iter) {
    Writer* w = *iter;
    if (w->sync && !first->sync) {
      // Do not include a sync write into a batch handled by a non-sync write.
      break;
    }

    if (w->batch != nullptr) {
      size += WriteBatchInternal::ByteSize(w->batch);
      if (size > max_size) {
        // Do not make batch too big
        break;
      }

      // Append to *result
      if (result == first->batch) {
        // Switch to temporary batch instead of disturbing caller's batch
        result = tmp_batch_;
        assert(WriteBatchInternal::Count(result) == 0);
        WriteBatchInternal::Append(result, first->batch);
      }
      WriteBatchInternal::Append(result, w->batch);
    }
    *last_writer = w;
  }
  return result;
}

// REQUIRES: mutex_ is held
// REQUIRES: this thread is currently at the front of the writer queue
Status DBImpl::MakeRoomForWrite(bool force) {
  assert(!writers_.empty());
  bool allow_delay = !force;
  // The previous memtable is still being flushed, or there are too many
  // level-0 files.
  auto stopped = [this] {
    return imm_ != nullptr || versions_->NumLevelFiles(0) >=
                                  options_.level0_stop_writes_trigger;
  };
  Status s;
  while (true) {
    UpdateStallLevel();
    if (!bg_error_.ok()) {
      // Yield previous error
      s = bg_error_;
      break;
    } else if (allow_delay &&
               versions_->NumLevelFiles(0) >=
                   options_.level0_slowdown_writes_trigger) {
      // Close to the hard limit on level-0 files. LevelDB delays a single
      // write here; device time is simulated, so count the slowdown and go
      // on. The work that lowers L0 is already running or scheduled, and
      // waking the workers on every slowed write would only churn their
      // picks.
      allow_delay = false;  // Do not delay a single write more than once
      em_.stall_slowdowns->Inc();
    } else if (!force && (mem_->ApproximateMemoryUsage() <=
                          options_.write_buffer_size)) {
      // There is room in current memtable
      break;
    } else if (stopped()) {
      // No room (or a forced switch) and no switch possible yet: run or
      // schedule the work, and wait while the stop holds.
      em_.stall_stops->Inc();
      MaybeScheduleCompaction();
      if (bg_error_.ok() && stopped()) {
        const uint64_t stall_start = NowNanos();
        background_work_finished_signal_.wait(mutex_);
        em_.stall_time->AddNanos(NowNanos() - stall_start);
      }
    } else {
      // Attempt to switch to a new memtable and trigger compaction of old
      uint64_t new_log_number = versions_->NewFileNumber();
      std::unique_ptr<fs::WritableFile> lfile;
      s = store_->NewWritableFile(LogFileName(dbname_, new_log_number),
                                  options_.write_buffer_size * 2, &lfile,
                                  /*appendable=*/true);
      if (!s.ok()) {
        // Avoid chewing through file number space in a tight loop.
        versions_->ReuseFileNumber(new_log_number);
        break;
      }
      log_.reset();
      logfile_ = std::move(lfile);
      imm_logfile_number_ = logfile_number_;
      logfile_number_ = new_log_number;
      log_ = std::make_unique<log::Writer>(logfile_.get());
      imm_ = mem_;
      has_imm_.store(true, std::memory_order_release);
      mem_ = new MemTable(internal_comparator_);
      mem_->Ref();
      force = false;  // Do not force another compaction if have room
      MaybeScheduleCompaction();
    }
  }
  UpdateStallLevel();
  return s;
}

void DBImpl::UpdateStallLevel() {
  const int l0 = versions_->NumLevelFiles(0);
  int level = 0;
  if (l0 >= options_.level0_stop_writes_trigger) {
    level = 2;
  } else if (l0 >= options_.level0_slowdown_writes_trigger ||
             imm_ != nullptr) {
    level = 1;
  }
  stall_level_.store(level, std::memory_order_relaxed);
  em_.stall_level->Set(level);
}

bool DBImpl::GetProperty(const Slice& property, std::string* value) {
  value->clear();

  mutex_.lock();
  Slice in = property;
  Slice prefix("sealdb.");
  bool ok = false;
  if (in.starts_with(prefix)) {
    in.remove_prefix(prefix.size());

    if (in.starts_with("num-files-at-level")) {
      in.remove_prefix(strlen("num-files-at-level"));
      uint64_t level;
      ok = ConsumeDecimalNumber(&in, &level) && in.empty();
      if (ok && level < static_cast<uint64_t>(versions_->NumLevels())) {
        char buf[100];
        std::snprintf(buf, sizeof(buf), "%d",
                      versions_->NumLevelFiles(static_cast<int>(level)));
        *value = buf;
      } else {
        ok = false;
      }
    } else if (in == "sstables") {
      *value = versions_->current()->DebugString();
      ok = true;
    } else if (in == "background-error") {
      // "OK" when healthy; otherwise the latched error that put the DB in
      // read-only mode.
      *value = bg_error_.ToString();
      ok = true;
    } else if (in == "approximate-memory-usage") {
      size_t total_usage = 0;
      if (options_.buffer_pool != nullptr) {
        // A shared pool's bytes belong to the whole stack; count them once
        // (in the unlabeled or shard-0 engine) so a sharded stack summing
        // per-shard properties doesn't multiply the pool.
        if (options_.metrics_shard_label.empty() ||
            options_.metrics_shard_label == "0") {
          total_usage += options_.buffer_pool->usage_bytes();
        }
      }
      if (mem_) {
        total_usage += mem_->ApproximateMemoryUsage();
      }
      if (imm_) {
        total_usage += imm_->ApproximateMemoryUsage();
      }
      if (options_.external_memory_bytes != nullptr) {
        total_usage += options_.external_memory_bytes->load(
            std::memory_order_relaxed);
      }
      char buf[50];
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(total_usage));
      *value = buf;
      ok = true;
    }
  }
  mutex_.unlock();
  return ok;
}

void DBImpl::WaitForIdle() {
  mutex_.lock();
  // Work is pending while a memtable waits for its flush, a compaction
  // holds a reservation, or the trigger asks for a pick. pick_exhausted_
  // breaks the trigger check when it is stale (nothing is actually
  // runnable); it is cleared whenever a flush or compaction installs new
  // state.
  auto pending = [this] {
    return bg_error_.ok() &&
           (imm_ != nullptr || reservations_.active() > 0 ||
            (!pick_exhausted_ && versions_->NeedsCompaction()));
  };
  while (pending()) {
    MaybeScheduleCompaction();
    if (pending()) background_work_finished_signal_.wait(mutex_);
  }
  mutex_.unlock();
}

std::vector<LiveFileMeta> DBImpl::GetLiveFilesMetadata() {
  std::vector<LiveFileMeta> out;
  mutex_.lock();
  Version* v = versions_->current();
  for (int level = 0; level < versions_->NumLevels(); level++) {
    for (const FileMetaData* f : v->files(level)) {
      LiveFileMeta m;
      m.number = f->number;
      m.level = level;
      m.file_size = f->file_size;
      m.set_id = f->set_id;
      m.smallest_user_key = f->smallest.user_key().ToString();
      m.largest_user_key = f->largest.user_key().ToString();
      out.push_back(std::move(m));
    }
  }
  mutex_.unlock();
  return out;
}

void DBImpl::SetRecordCompactionEvents(bool enable) {
  mutex_.lock();
  record_events_ = enable;
  mutex_.unlock();
}

std::vector<CompactionEvent> DBImpl::TakeCompactionEvents() {
  mutex_.lock();
  std::vector<CompactionEvent> out;
  out.swap(events_);
  mutex_.unlock();
  return out;
}

Status DB::Open(const Options& options, const std::string& dbname,
                fs::FileStore* store, DB** dbptr) {
  *dbptr = nullptr;

  DBImpl* impl = new DBImpl(options, dbname, store);
  impl->mutex_.lock();
  VersionEdit edit;
  Status s = impl->Recover(&edit);
  if (s.ok()) {
    // Create new log and a corresponding memtable.
    uint64_t new_log_number = impl->versions_->NewFileNumber();
    std::unique_ptr<fs::WritableFile> lfile;
    s = store->NewWritableFile(LogFileName(dbname, new_log_number),
                               impl->options_.write_buffer_size * 2, &lfile,
                               /*appendable=*/true);
    if (s.ok()) {
      impl->logfile_ = std::move(lfile);
      impl->logfile_number_ = new_log_number;
      impl->log_ = std::make_unique<log::Writer>(impl->logfile_.get());
      impl->mem_ = new MemTable(impl->internal_comparator_);
      impl->mem_->Ref();
    }
  }
  if (s.ok()) {
    // One commit installs the recovered tables and retires the replayed
    // WALs; until it lands, the next Open replays the same WALs again.
    s = impl->versions_->LogAndApply(&edit);
  }
  if (s.ok()) {
    impl->MaybeScheduleCompaction();
  }
  impl->mutex_.unlock();
  if (s.ok()) {
    *dbptr = impl;
  } else {
    delete impl;
  }
  return s;
}

Status DestroyDB(const std::string& dbname, const Options& options,
                 fs::FileStore* store) {
  (void)options;
  std::vector<std::string> filenames = store->GetChildren();
  const std::string prefix = dbname + "/";
  Status result;
  for (const std::string& name : filenames) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      Status del = store->RemoveFile(name);
      if (result.ok() && !del.ok()) {
        result = del;
      }
    }
  }
  return result;
}

}  // namespace sealdb
