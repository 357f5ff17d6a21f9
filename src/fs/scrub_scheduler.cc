#include "fs/scrub_scheduler.h"

#include <algorithm>
#include <chrono>

#include "lsm/db.h"
#include "lsm/filename.h"

namespace sealdb::fs {

namespace {

// ScrubStep reports damaged files by their full store name
// ("<dbname>/000005.ldb"); the table number lives in the basename.
bool TableNumberFromStoreName(const std::string& name, uint64_t* number) {
  size_t slash = name.find_last_of('/');
  std::string base = (slash == std::string::npos) ? name : name.substr(slash + 1);
  FileType type;
  return ParseFileName(base, number, &type) && type == kTableFile;
}

}  // namespace

ScrubScheduler::ScrubScheduler(
    std::vector<Target> targets, ScrubOptions options,
    std::shared_ptr<obs::MetricsRegistry> registry,
    std::function<void(int, const std::string&)> degrade)
    : options_(options),
      registry_(std::move(registry)),
      degrade_(std::move(degrade)) {
  targets_.reserve(targets.size());
  for (auto& t : targets) {
    TargetState ts;
    ts.target = t;
    if (registry_ != nullptr) {
      obs::Labels labels;
      if (!t.label.empty()) labels.push_back({"shard", t.label});
      ts.c_bytes = registry_->RegisterCounter(
          "sealdb_scrub_bytes_total", "bytes verified by the online scrub",
          labels);
      ts.c_errors = registry_->RegisterCounter(
          "sealdb_scrub_errors_total",
          "blocks the scrub found unreadable and quarantined", labels);
      ts.c_repaired = registry_->RegisterCounter(
          "sealdb_scrub_repaired_total",
          "quarantined blocks whose scrub probe read clean again", labels);
      ts.c_passes = registry_->RegisterCounter(
          "sealdb_scrub_passes_total",
          "full scrub passes completed over the store's namespace", labels);
      ts.g_quarantined = registry_->RegisterGauge(
          "sealdb_scrub_quarantined_blocks",
          "blocks currently quarantined in the store", labels);
    }
    targets_.push_back(std::move(ts));
  }
}

ScrubScheduler::~ScrubScheduler() { Stop(); }

void ScrubScheduler::Start() {
  std::lock_guard<std::mutex> l(run_mu_);
  if (running_ || targets_.empty()) return;
  running_ = true;
  thread_ = std::thread(&ScrubScheduler::ThreadMain, this);
}

void ScrubScheduler::Stop() {
  {
    std::lock_guard<std::mutex> l(run_mu_);
    if (!running_) return;
    running_ = false;
    run_cv_.notify_all();
  }
  thread_.join();
}

void ScrubScheduler::ThreadMain() {
  using clock = std::chrono::steady_clock;
  // Token bucket: refilled at rate_bytes_per_sec, capped at a few steps
  // of burst so a long foreground stall doesn't turn into a read storm.
  const double rate = static_cast<double>(options_.rate_bytes_per_sec);
  const double burst = static_cast<double>(4 * options_.step_bytes);
  double tokens = static_cast<double>(options_.step_bytes);
  auto last = clock::now();
  std::unique_lock<std::mutex> run_lock(run_mu_);
  while (running_) {
    auto now = clock::now();
    tokens = std::min(
        burst, tokens + std::chrono::duration<double>(now - last).count() * rate);
    last = now;
    if (tokens < static_cast<double>(options_.step_bytes)) {
      const double need = static_cast<double>(options_.step_bytes) - tokens;
      run_cv_.wait_for(run_lock,
                       std::chrono::duration<double>(need / rate),
                       [&] { return !running_; });
      continue;
    }
    run_lock.unlock();
    uint64_t scanned;
    {
      std::lock_guard<std::mutex> l(scrub_mu_);
      scanned = RunStep(next_target_ % targets_.size(), options_.step_bytes);
      next_target_++;
    }
    run_lock.lock();
    tokens -= static_cast<double>(std::max<uint64_t>(scanned, 1));
  }
}

uint64_t ScrubScheduler::RunStep(size_t idx, uint64_t budget) {
  TargetState& ts = targets_[idx];
  ScrubStepResult step;
  Status s = ts.target.store->ScrubStep(&ts.cursor, budget, &step);
  (void)s;  // ScrubStep fails only on internal errors; damage is in `step`
  total_bytes_ += step.bytes_scanned;
  total_errors_ += step.bad_blocks;
  total_repaired_ += step.repaired_blocks;
  if (step.wrapped) total_passes_++;
  if (ts.c_bytes != nullptr) {
    ts.c_bytes->Add(step.bytes_scanned);
    ts.c_errors->Add(step.bad_blocks);
    ts.c_repaired->Add(step.repaired_blocks);
    if (step.wrapped) ts.c_passes->Add(1);
  }
  Escalate(ts, step);
  return step.bytes_scanned;
}

void ScrubScheduler::Escalate(TargetState& ts, const ScrubStepResult& step) {
  // Rung 2: purge and ban the pooled pages of damaged tables so the
  // quarantine is honored end-to-end (drive -> FileStore -> buffer pool).
  for (const std::string& name : step.damaged_files) {
    uint64_t number;
    if (TableNumberFromStoreName(name, &number)) {
      ts.target.db->QuarantineFile(number);
    }
  }
  // Rung 3: too much of this column's media is bad — degrade the shard.
  const uint64_t quarantined = ts.target.store->QuarantinedBlocks().size();
  if (ts.g_quarantined != nullptr) {
    ts.g_quarantined->Set(static_cast<int64_t>(quarantined));
  }
  if (!ts.degraded && quarantined >= options_.degrade_bad_blocks &&
      options_.degrade_bad_blocks > 0) {
    ts.degraded = true;
    degrade_(ts.target.shard,
             "scrub: " + std::to_string(quarantined) + " blocks quarantined");
  }
}

void ScrubScheduler::RunFullPass() {
  std::lock_guard<std::mutex> l(scrub_mu_);
  for (size_t i = 0; i < targets_.size(); i++) {
    // A full pass from the start of the namespace (the background thread
    // may have left the cursor mid-walk, and stepping from there to the
    // wrap would skip every file before it): step until the namespace
    // wraps. Each step re-acquires the store mutex, so foreground I/O
    // still interleaves.
    TargetState& ts = targets_[i];
    ts.cursor = ScrubCursor();
    ScrubStepResult step;
    do {
      Status s = ts.target.store->ScrubStep(&ts.cursor, options_.step_bytes,
                                            &step);
      if (!s.ok()) break;
      total_bytes_ += step.bytes_scanned;
      total_errors_ += step.bad_blocks;
      total_repaired_ += step.repaired_blocks;
      if (step.wrapped) total_passes_++;
      if (ts.c_bytes != nullptr) {
        ts.c_bytes->Add(step.bytes_scanned);
        ts.c_errors->Add(step.bad_blocks);
        ts.c_repaired->Add(step.repaired_blocks);
        if (step.wrapped) ts.c_passes->Add(1);
      }
      Escalate(ts, step);
    } while (!step.wrapped);
  }
}

uint64_t ScrubScheduler::bytes_scrubbed() const {
  std::lock_guard<std::mutex> l(scrub_mu_);
  return total_bytes_;
}

uint64_t ScrubScheduler::errors_found() const {
  std::lock_guard<std::mutex> l(scrub_mu_);
  return total_errors_;
}

uint64_t ScrubScheduler::blocks_repaired() const {
  std::lock_guard<std::mutex> l(scrub_mu_);
  return total_repaired_;
}

uint64_t ScrubScheduler::passes_completed() const {
  std::lock_guard<std::mutex> l(scrub_mu_);
  return total_passes_;
}

}  // namespace sealdb::fs
