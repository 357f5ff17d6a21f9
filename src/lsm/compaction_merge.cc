#include "lsm/compaction_merge.h"

#include "lsm/version_set.h"

namespace sealdb {

MergeStage::MergeStage(Compaction* c, Iterator* input,
                       const Comparator* user_cmp,
                       SequenceNumber smallest_snapshot,
                       bool allow_delete_drop)
    : compaction_(c),
      input_(input),
      user_cmp_(user_cmp),
      smallest_snapshot_(smallest_snapshot),
      allow_delete_drop_(allow_delete_drop) {}

void MergeStage::Fill(size_t batch_bytes, MergeBatch* batch) {
  batch->bytes.clear();
  batch->entries.clear();
  batch->last = false;
  size_t held = 0;  // key and value bytes of the entries
  if (advance_) {
    input_->Next();
    advance_ = false;
  }
  for (; input_->Valid(); input_->Next()) {
    const Slice key = input_->key();
    // Asked of every key, dropped or not: it accumulates the grandparent
    // overlap that places the cuts.
    const bool cut = compaction_->ShouldStopBefore(key);

    bool drop = false;
    if (!ParseInternalKey(key, &ikey_)) {
      // Do not hide error keys
      current_user_key_.clear();
      has_current_user_key_ = false;
      last_sequence_for_key_ = kMaxSequenceNumber;
    } else {
      if (!has_current_user_key_ ||
          user_cmp_->Compare(ikey_.user_key, Slice(current_user_key_)) != 0) {
        // First occurrence of this user key
        current_user_key_.assign(ikey_.user_key.data(),
                                 ikey_.user_key.size());
        has_current_user_key_ = true;
        last_sequence_for_key_ = kMaxSequenceNumber;
      }

      if (last_sequence_for_key_ <= smallest_snapshot_) {
        // Hidden by an newer entry for same user key
        drop = true;  // (A)
      } else if (ikey_.type == kTypeDeletion && allow_delete_drop_ &&
                 ikey_.sequence <= smallest_snapshot_ &&
                 compaction_->IsBaseLevelForKey(ikey_.user_key)) {
        // For this user key:
        // (1) there is no data in higher levels
        // (2) data in lower levels will have larger sequence numbers
        // (3) data in layers that are being compacted here and have
        //     smaller sequence numbers will be dropped in the next
        //     few iterations of this loop (by rule (A) above).
        // Therefore this deletion marker is obsolete and can be dropped.
        drop = true;
      }

      last_sequence_for_key_ = ikey_.sequence;
    }

    if (drop && !cut) continue;
    const Slice value = drop ? Slice() : input_->value();
    batch->entries.push_back({static_cast<uint32_t>(batch->bytes.size()),
                              static_cast<uint32_t>(key.size()), value, cut,
                              !drop});
    batch->bytes.append(key.data(), key.size());
    held += key.size() + value.size();
    if (held >= batch_bytes) {
      // Stop on this entry, so the input holds it until the next call.
      advance_ = true;
      batch->input_status = input_->status();
      return;
    }
  }
  batch->input_status = input_->status();
  batch->last = true;
}

MergeHelper::MergeHelper() : thread_(&MergeHelper::Main, this) {}

MergeHelper::~MergeHelper() {
  {
    std::lock_guard<std::mutex> l(mu_);
    stop_ = true;
  }
  Signal();
  thread_.join();
}

void MergeHelper::Signal() {
  events_.fetch_add(1, std::memory_order_release);
  events_.notify_one();
}

void MergeHelper::Main() {
  for (;;) {
    const uint32_t seen = events_.load(std::memory_order_acquire);
    {
      std::lock_guard<std::mutex> l(mu_);
      if (stop_) return;
      if (pipe_ != nullptr && pipe_->CanFill()) {
        pipe_->FillNext();
        continue;
      }
    }
    events_.wait(seen, std::memory_order_acquire);
  }
}

std::unique_ptr<MergeHelper> MergeHelpers::Acquire() {
  {
    std::lock_guard<std::mutex> l(mu_);
    if (!idle_.empty()) {
      std::unique_ptr<MergeHelper> helper = std::move(idle_.back());
      idle_.pop_back();
      return helper;
    }
  }
  return std::make_unique<MergeHelper>();
}

void MergeHelpers::Release(std::unique_ptr<MergeHelper> helper) {
  std::lock_guard<std::mutex> l(mu_);
  idle_.push_back(std::move(helper));
}

MergePipe::MergePipe(MergeStage* stage, MergeHelpers* helpers)
    : stage_(stage), helpers_(helpers) {
  if (helpers_ == nullptr) return;
  helper_ = helpers_->Acquire();
  {
    std::lock_guard<std::mutex> l(helper_->mu_);
    helper_->pipe_ = this;
  }
  helper_->Signal();
}

MergePipe::~MergePipe() {
  if (helper_ == nullptr) return;
  {
    std::lock_guard<std::mutex> l(helper_->mu_);
    helper_->pipe_ = nullptr;
  }
  helpers_->Release(std::move(helper_));
}

const MergeBatch* MergePipe::Next() {
  if (done_) return nullptr;
  const MergeBatch* batch;
  if (helper_ == nullptr) {
    stage_->Fill(0, &batches_[0]);
    batch = &batches_[0];
  } else {
    released_.store(consumed_, std::memory_order_release);  // the last batch
    helper_->Signal();
    // Not ready: merge it here unless the helper is merging it now.
    while (produced_.load(std::memory_order_acquire) <= consumed_) {
      std::unique_lock<std::mutex> l(helper_->mu_, std::try_to_lock);
      if (l.owns_lock()) {
        FillNext();
      } else {
        std::this_thread::yield();
      }
    }
    batch = &batches_[consumed_ % kBatches];
  }
  consumed_++;
  done_ = batch->last;
  return batch;
}

bool MergePipe::CanFill() const {
  // Batch n reuses batch n - kBatches's slot.
  return !exhausted_ && produced_.load(std::memory_order_relaxed) <
                            released_.load(std::memory_order_acquire) +
                                kBatches;
}

void MergePipe::FillNext() {
  if (!CanFill()) return;
  const uint64_t n = produced_.load(std::memory_order_relaxed);
  MergeBatch* batch = &batches_[n % kBatches];
  stage_->Fill(kBatchBytes, batch);
  exhausted_ = batch->last;
  produced_.store(n + 1, std::memory_order_release);
}

}  // namespace sealdb
