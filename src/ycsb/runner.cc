#include "ycsb/runner.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/presets.h"
#include "lsm/iterator.h"
#include "net/seal_client.h"

namespace sealdb::ycsb {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// Simulated drive busy time; 0 for a remote (stack-less) runner.
double DeviceBusySeconds(baselines::Stack* stack) {
  return stack != nullptr ? stack->drive()->metrics().busy->Seconds() : 0.0;
}

}  // namespace

Status Runner::OpGet(const std::string& key, std::string* value) {
  if (client_ != nullptr) return client_->Get(key, value);
  return stack_->db()->Get(ReadOptions(), key, value);
}

Status Runner::OpPut(const std::string& key, const std::string& value) {
  if (client_ != nullptr) return client_->Put(key, value);
  return stack_->db()->Put(WriteOptions(), key, value);
}

Status Runner::OpScan(const std::string& start, int len, std::string* sink) {
  if (client_ != nullptr) {
    std::vector<std::pair<std::string, std::string>> entries;
    Status s = client_->Scan(start, static_cast<size_t>(len), &entries);
    if (!s.ok()) return s;
    if (!entries.empty()) *sink = std::move(entries.back().second);
    return Status::OK();
  }
  std::unique_ptr<Iterator> it(stack_->db()->NewIterator(ReadOptions()));
  for (it->Seek(start); it->Valid() && len > 0; it->Next(), len--) {
    sink->assign(it->value().data(), it->value().size());
  }
  return it->status();
}

void Runner::Settle() {
  if (stack_ != nullptr) stack_->db()->WaitForIdle();
}

Status Runner::Load(uint64_t record_count, RunResult* result, int threads) {
  *result = RunResult();
  result->workload = "Load";
  // The remote client multiplexes one connection; only embedded loads can
  // fan out over driver threads.
  int nthreads = client_ != nullptr ? 1 : std::max(1, threads);
  if (record_count > 0 && static_cast<uint64_t>(nthreads) > record_count) {
    nthreads = static_cast<int>(record_count);
  }
  const double device_before = DeviceBusySeconds(stack_);
  const auto wall_start = Clock::now();
  if (nthreads == 1) {
    CoreWorkload workload(WorkloadSpec::Load(), 0, key_bytes_, value_bytes_,
                          seed_);
    for (uint64_t i = 0; i < record_count; i++) {
      const auto op_start = Clock::now();
      Status s = OpPut(workload.NextInsertKey(), workload.NextValue());
      if (!s.ok()) return s;
      result->latency_micros.Add(MicrosSince(op_start));
      result->inserts++;
      result->operations++;
    }
  } else {
    // Each thread owns a disjoint record-id range and a private workload
    // instance (CoreWorkload is single-threaded); BuildKey keeps the key
    // set identical to a serial load, whatever the interleaving.
    std::vector<RunResult> partial(nthreads);
    std::vector<Status> statuses(nthreads);
    std::vector<std::thread> pool;
    const uint64_t per = record_count / nthreads;
    const uint64_t extra = record_count % nthreads;
    uint64_t next_begin = 0;
    for (int t = 0; t < nthreads; t++) {
      const uint64_t begin = next_begin;
      const uint64_t end =
          begin + per + (static_cast<uint64_t>(t) < extra ? 1 : 0);
      next_begin = end;
      pool.emplace_back([this, t, begin, end, &partial, &statuses] {
        CoreWorkload workload(WorkloadSpec::Load(), 0, key_bytes_,
                              value_bytes_, seed_ + t);
        for (uint64_t id = begin; id < end; id++) {
          const auto op_start = Clock::now();
          Status s = OpPut(workload.BuildKey(id), workload.NextValue());
          if (!s.ok()) {
            statuses[t] = s;
            return;
          }
          partial[t].latency_micros.Add(MicrosSince(op_start));
          partial[t].inserts++;
          partial[t].operations++;
        }
      });
    }
    for (auto& th : pool) th.join();
    for (int t = 0; t < nthreads; t++) {
      if (!statuses[t].ok()) return statuses[t];
      result->latency_micros.Merge(partial[t].latency_micros);
      result->inserts += partial[t].inserts;
      result->operations += partial[t].operations;
    }
  }
  Settle();
  result->wall_seconds = SecondsSince(wall_start);
  result->device_seconds = DeviceBusySeconds(stack_) - device_before;
  return Status::OK();
}

Status Runner::Run(const WorkloadSpec& spec, uint64_t record_count,
                   uint64_t op_count, RunResult* result) {
  *result = RunResult();
  result->workload = spec.name;
  CoreWorkload workload(spec, record_count, key_bytes_, value_bytes_,
                        seed_ + 100);
  const double device_before = DeviceBusySeconds(stack_);
  const auto wall_start = Clock::now();
  std::string value;

  for (uint64_t i = 0; i < op_count; i++) {
    const auto op_start = Clock::now();
    switch (workload.NextOperation()) {
      case Operation::kRead: {
        Status s = OpGet(workload.NextRequestKey(), &value);
        if (s.IsNotFound()) {
          result->not_found++;
        } else if (!s.ok()) {
          return s;
        }
        result->reads++;
        break;
      }
      case Operation::kUpdate: {
        Status s = OpPut(workload.NextRequestKey(), workload.NextValue());
        if (!s.ok()) return s;
        result->updates++;
        break;
      }
      case Operation::kInsert: {
        Status s = OpPut(workload.NextInsertKey(), workload.NextValue());
        if (!s.ok()) return s;
        result->inserts++;
        break;
      }
      case Operation::kScan: {
        Status s = OpScan(workload.NextRequestKey(), workload.NextScanLength(),
                          &value);
        if (!s.ok()) return s;
        result->scans++;
        break;
      }
      case Operation::kReadModifyWrite: {
        const std::string key = workload.NextRequestKey();
        Status s = OpGet(key, &value);
        if (!s.ok() && !s.IsNotFound()) return s;
        if (s.IsNotFound()) result->not_found++;
        s = OpPut(key, workload.NextValue());
        if (!s.ok()) return s;
        result->rmws++;
        break;
      }
    }
    result->latency_micros.Add(MicrosSince(op_start));
    result->operations++;
  }
  Settle();
  result->wall_seconds = SecondsSince(wall_start);
  result->device_seconds = DeviceBusySeconds(stack_) - device_before;
  return Status::OK();
}

}  // namespace sealdb::ycsb
