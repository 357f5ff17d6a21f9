// The merge stage of a compaction, and the pipe that runs it on a helper
// thread ahead of the stage that builds and writes the output tables.
//
// A compaction's merge loop has two halves. The merge stage walks the
// merged input, applies the drop rules (hidden versions, obsolete deletion
// markers, the snapshot bound) and asks Compaction::ShouldStopBefore about
// every key, dropped or not. The build stage (DBImpl) opens, fills,
// finishes and cuts the outputs: everything that touches a file or the
// drive. The merge stage touches neither the drive nor the DB mutex, so it
// may run on any thread; the build stage sees the same keys, values and cut
// points in the same order wherever it ran, and issues the same drive
// requests.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "lsm/dbformat.h"
#include "lsm/iterator.h"
#include "util/slice.h"
#include "util/status.h"

namespace sealdb {

class Compaction;

// Merged entries handed from the merge stage to the build stage. Keys are
// copied into the batch; values are slices of the input, valid until the
// merge stage advances past them (see MergeStage).
struct MergeBatch {
  struct Entry {
    uint32_t key_offset;  // the key is bytes[key_offset, +key_size)
    uint32_t key_size;
    Slice value;
    // ShouldStopBefore held at this key: the build stage finishes the
    // current output, if any, before the key.
    bool cut;
    // Not dropped: the build stage adds it. A dropped key travels only to
    // carry its cut.
    bool keep;
  };

  Slice key(const Entry& e) const {
    return Slice(bytes.data() + e.key_offset, e.key_size);
  }

  std::string bytes;
  std::vector<Entry> entries;
  Status input_status;  // the input's status once the last entry was read
  bool last = false;    // the input is exhausted: no batch follows
};

// Walks a compaction's merged input into batches. Not thread-safe: one
// thread at a time calls Fill.
class MergeStage {
 public:
  // `input` is positioned at its first entry.
  MergeStage(Compaction* c, Iterator* input, const Comparator* user_cmp,
             SequenceNumber smallest_snapshot, bool allow_delete_drop);

  MergeStage(const MergeStage&) = delete;
  MergeStage& operator=(const MergeStage&) = delete;

  // Refills *batch with the next entries, up to about `batch_bytes` of key
  // and value bytes (0: one entry). The input is not advanced past the
  // batch's last entry until the next call, so a value from a streamed
  // table stays valid while the build stage adds it.
  void Fill(size_t batch_bytes, MergeBatch* batch);

 private:
  Compaction* const compaction_;
  Iterator* const input_;
  const Comparator* const user_cmp_;
  const SequenceNumber smallest_snapshot_;
  const bool allow_delete_drop_;

  bool advance_ = false;  // the input still sits on the last batch's entry
  ParsedInternalKey ikey_;
  std::string current_user_key_;
  bool has_current_user_key_ = false;
  SequenceNumber last_sequence_for_key_ = kMaxSequenceNumber;
};

class MergePipe;

// A thread that runs the merge stage of one MergePipe at a time, ahead of
// the pipe's consumer. It never touches the drive or the DB mutex, and it
// reads a pipe only under its mutex, so detaching a pipe needs no help
// from the thread: a helper that loses its core delays a compaction by at
// most the batch it was filling.
class MergeHelper {
 public:
  MergeHelper();
  MergeHelper(const MergeHelper&) = delete;
  MergeHelper& operator=(const MergeHelper&) = delete;
  ~MergeHelper();  // stops and joins the thread

 private:
  friend class MergePipe;

  void Main();
  // Wakes the thread to look at its pipe again.
  void Signal();

  std::mutex mu_;  // held by whichever thread runs the attached pipe's stage
  MergePipe* pipe_ = nullptr;  // guarded by mu_
  bool stop_ = false;          // guarded by mu_
  // Bumped on every change the thread may wait for (a pipe attached, a
  // batch released, the stop), so a change made while it looks is never
  // missed.
  std::atomic<uint32_t> events_{0};
  std::thread thread_;
};

// The DB's idle merge helpers. A compaction borrows one for its merge and
// returns it, so threads are started only when more compactions run at
// once than ever before, and joined when the DB closes.
class MergeHelpers {
 public:
  std::unique_ptr<MergeHelper> Acquire();
  void Release(std::unique_ptr<MergeHelper> helper);

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<MergeHelper>> idle_;
};

// Hands a MergeStage's batches to the build stage, in input order. With a
// helper, the stage runs on the helper's thread up to kBatches - 1 batches
// ahead of the consumer, in batches of about kBatchBytes reused rather than
// reallocated; when the next batch is not ready and the helper is not
// filling it, the consumer fills it itself. Either way batch n holds the
// same entries. Without helpers, Next runs the stage on the caller's
// thread, one entry per batch, so the input's drive reads interleave with
// the build stage's writes exactly as in a single loop.
class MergePipe {
 public:
  static constexpr uint64_t kBatches = 3;
  static constexpr size_t kBatchBytes = 64 << 10;

  // The stage must outlive the pipe; so must everything it reads. With
  // `helpers` null the pipe runs without a helper.
  MergePipe(MergeStage* stage, MergeHelpers* helpers);

  MergePipe(const MergePipe&) = delete;
  MergePipe& operator=(const MergePipe&) = delete;

  // Detaches the helper, waiting at most for the batch it is filling, and
  // returns it to the pool.
  ~MergePipe();

  // The next batch, waiting for it if need be; nullptr once the last batch
  // was returned. The batch is valid until the next call.
  const MergeBatch* Next();

 private:
  friend class MergeHelper;

  // Whether batch produced_ may be filled now. Requires helper_->mu_.
  bool CanFill() const;
  // Fills batch produced_ if it may. Requires helper_->mu_.
  void FillNext();

  MergeStage* const stage_;
  MergeHelpers* const helpers_;
  std::unique_ptr<MergeHelper> helper_;
  MergeBatch batches_[kBatches];
  uint64_t consumed_ = 0;  // batches Next returned; the consumer's only
  bool done_ = false;      // Next returned the last batch
  bool exhausted_ = false;  // the last batch is filled; guarded by mu_

  std::atomic<uint64_t> produced_{0};  // batches filled
  std::atomic<uint64_t> released_{0};  // batches the consumer is done with
};

}  // namespace sealdb
