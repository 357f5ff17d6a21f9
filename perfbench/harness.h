// Shared machinery of the SEALDB benchmark: the clock, the percentile rule,
// the record codec every correctness check rests on, the span log of the
// traced mode, metrics-registry snapshots and the result report.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/slice.h"

namespace perfbench {

inline constexpr size_t kKeyBytes = 16;
inline constexpr size_t kValueBytes = 256;

uint64_t NowNs();
double PeakRssMb();

// SplitMix64: derives independent sub-seeds and value bytes from one seed.
uint64_t Mix64(uint64_t x);

// ---------------------------------------------------------------------------
// Percentiles. A percentile is the nearest-rank sample: the smallest sample
// with at least pct% of all samples at or below it. It is reported only when
// at least kMinBeyond samples lie above its rank.

inline constexpr uint64_t kMinBeyond = 10;

size_t RankIndex(size_t n, double pct);
uint64_t SamplesBeyond(size_t n, double pct);
bool PercentileSupported(size_t n, double pct);
// Highest of 50, 90, 99, 99.9, 99.99, 99.999 the sample count supports; 0
// when even the median is not supported.
double HighestSupportedPercentile(size_t n);

struct LatencySummary {
  uint64_t count = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double top_pct = 0;  // highest supported percentile and its value
  double top_us = 0;
};
// Reorders *ns (nanosecond samples). Each percentile is the nearest-rank
// sample, placed within its run of equal samples (see SpreadTies in
// harness.cc) so that a coarse clock tick does not quantize it.
LatencySummary Summarize(std::vector<uint32_t>* ns);
// Nearest-rank value of `pct` in *ns, in ns; reorders *ns. 0 when empty.
uint32_t PercentileNs(std::vector<uint32_t>* ns, double pct);

// ---------------------------------------------------------------------------
// Records. Keys are "k" + 14 zero-padded decimal digits + "x", so byte order
// is id order. A value is derived from (id, version): 8 bytes of version,
// 8 bytes of id, then bytes drawn from Mix64(id, version). Any value read
// back therefore names the write it came from and can be checked exactly.

std::string KeyOf(uint64_t id);
bool ParseKey(const sealdb::Slice& key, uint64_t* id);
void ValueOf(uint64_t id, uint64_t version, std::string* out);
// True when `value` is byte-for-byte ValueOf(*id, *version).
bool ParseValue(const sealdb::Slice& value, uint64_t* id, uint64_t* version);

// ---------------------------------------------------------------------------
// Correctness accounting. Every measured or verifying operation records one
// outcome; a failed, refused or wrong operation counts as failed. With
// inject_every = k > 0 every k-th value read back has one byte flipped
// before it is checked, and the check must catch it.

class Checker {
 public:
  explicit Checker(uint64_t inject_every) : inject_every_(inject_every) {}

  // Called on every value read back, before it is checked.
  void MaybeCorrupt(std::string* value);
  // Exact check: `got` must equal ValueOf(id, version).
  static bool ValueIs(uint64_t id, uint64_t version, const sealdb::Slice& got);
  void Record(bool ok, const char* what);
  // Counts `n` operations that passed their checks.
  void Passed(uint64_t n) { attempted_.fetch_add(n, std::memory_order_relaxed); }

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  const uint64_t inject_every_;
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

// ---------------------------------------------------------------------------
// Span log of the traced mode: name, start, end, parent span and a request
// id shared by one operation's spans. Kept in memory per driver thread and
// written out at exit.

enum SpanName : uint16_t {
  kSpanOp,
  kSpanGen,
  kSpanLsmPut,
  kSpanLsmGet,
  kSpanLsmSeek,
  kSpanLsmNext,
  kSpanNetRtt,
  kSpanServerTotal,
  kSpanServerQueue,
  kSpanServerCommit,
  kSpanServerEngine,
  kNumSpanNames,
};
const char* SpanNameString(uint16_t name);

inline constexpr uint32_t kNoParent = 0xFFFFFFFFu;

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t request = 0;
  uint32_t parent = kNoParent;  // index in the same log
  uint16_t name = 0;
};

class SpanLog {
 public:
  uint32_t Add(uint16_t name, uint64_t start_ns, uint64_t end_ns,
               uint64_t request, uint32_t parent = kNoParent) {
    spans_.push_back(Span{start_ns, end_ns, request, parent, name});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  std::vector<Span> spans_;
};

struct SpanStats {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;  // duration minus the part covered by child spans
  double p50_ns = 0;
  double p99_ns = 0;
};
// Per span name, across all logs. A child's coverage is clipped to its
// parent's interval.
std::vector<SpanStats> DeriveSpanStats(const std::vector<const SpanLog*>& logs);
// Binary dump: "PBSPANS1", u32 name count, names as u16 length + bytes, u64
// span count, then per span start, end, request (u64), parent (u32), name
// (u16), and the log index (u16). Returns false on I/O error.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

// ---------------------------------------------------------------------------
// Registry snapshots: the counters the METRICS opcode renders, summed over
// label sets (shards, levels, kinds) where the family is sliced.

using Counters = std::map<std::string, double>;
Counters TakeCounters(const sealdb::obs::MetricsRegistry& registry);
Counters Delta(const Counters& before, const Counters& after);
double Get(const Counters& c, const std::string& key);

struct HistogramStats {
  uint64_t count = 0;
  double mean = 0;
  double p99_bound = 0;  // upper edge of the bucket holding the p99
};
// Difference of two snapshots of one histogram series.
HistogramStats HistogramDelta(const sealdb::obs::MetricsRegistry& registry,
                              const std::string& name,
                              const sealdb::obs::Labels& labels,
                              const sealdb::obs::FixedHistogram::Snapshot& base);
sealdb::obs::FixedHistogram::Snapshot HistogramSnapshot(
    const sealdb::obs::MetricsRegistry& registry, const std::string& name,
    const sealdb::obs::Labels& labels);

// ---------------------------------------------------------------------------
// Result report. `metrics` is the headline list the run prints last (the
// end-to-end metrics untraced, the per-layer metrics traced); `ledger` holds
// every per-layer figure of a traced run. `samples` is the sample count
// behind a percentile (0 for other metrics).

struct MetricValue {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              uint64_t samples = 0) {
    metrics_.push_back({name, value, unit, samples});
  }
  void Ledger(const std::string& name, double value, const std::string& unit,
              uint64_t samples = 0) {
    ledger_.push_back({name, value, unit, samples});
  }
  void Info(const std::string& key, const std::string& value) {
    info_.emplace_back(key, value);
  }

  // Human-readable lines: name, value, unit (and n= for percentiles).
  void Print() const;
  bool WriteJson(const std::string& path, bool correct, uint64_t attempted,
                 uint64_t failed) const;

 private:
  std::vector<MetricValue> metrics_;
  std::vector<MetricValue> ledger_;
  std::vector<std::pair<std::string, std::string>> info_;
};

// Host and build stamp: nproc, compiler and version, build type.
void StampHost(Report* report);

}  // namespace perfbench
