// MetricsRegistry: the unified observability substrate (DESIGN.md §12).
//
// Every counter in the stack — engine compaction/stall accounting,
// simulated-device traffic, server admission control, client retries —
// lives here as a named metric, and nowhere else: there are no snapshot
// structs copying them. One registry instance is shared by a whole stack
// (drive, FileStore, engine, server); Render() (the METRICS wire response)
// is the one exposition, and programmatic readers (benches, tests, the
// Table I figures) query it with the point and family lookups below.
//
// Design constraints:
//   - mutation is lock-free and cheap enough for hot paths: counters are
//     sharded relaxed atomics (one cache line per shard, threads hash to a
//     shard), gauges a single CAS, histogram buckets relaxed atomics;
//   - registration is idempotent: re-registering the same name+labels
//     returns the existing metric, so a reopened engine keeps accumulating
//     into the same counters;
//   - reads are snapshots: Render()/counter_value() observe each atomic
//     once; a histogram's count is derived from its buckets so count ==
//     sum(buckets) holds in every snapshot, even mid-mutation.
//
// Naming scheme: sealdb_<subsystem>_<quantity>[_<unit>][_total], labels for
// enumerable dimensions ({level=,stage=,op=,reason=,dir=,kind=}). Counters
// end in _total; time counters count nanoseconds and render in seconds
// (_seconds_total).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sealdb::obs {

using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
// Threads hash to one of kShards cache-line-padded slots so concurrent
// writers on different cores do not bounce a single line.
inline constexpr size_t kShards = 8;
size_t ShardIndex();

struct alignas(64) PaddedAtomic {
  std::atomic<uint64_t> v{0};
};
}  // namespace detail

// Monotonic counter.
class Counter {
 public:
  void Add(uint64_t n) {
    shards_[detail::ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Inc() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  detail::PaddedAtomic shards_[detail::kShards];
};

// Time counter: a Counter holding nanoseconds, addressable in the units the
// call sites naturally have (the latency model hands out double seconds).
class TimeCounter {
 public:
  void AddSeconds(double s) {
    if (s > 0) nanos_.Add(static_cast<uint64_t>(s * 1e9 + 0.5));
  }
  void AddNanos(uint64_t ns) { nanos_.Add(ns); }
  double Seconds() const { return nanos_.Value() / 1e9; }
  uint64_t Nanos() const { return nanos_.Value(); }

 private:
  Counter nanos_;
};

// Settable instantaneous value (queue depth, stall level, free bytes, WA).
class Gauge {
 public:
  void Set(double v) {
    bits_.store(ToBits(v), std::memory_order_relaxed);
  }
  void Add(double d) {
    uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(cur, ToBits(FromBits(cur) + d),
                                        std::memory_order_relaxed)) {
    }
  }
  // Ratchet upward: keeps the high-water mark of every Set-like update.
  void SetMax(double v) {
    uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (FromBits(cur) < v &&
           !bits_.compare_exchange_weak(cur, ToBits(v),
                                        std::memory_order_relaxed)) {
    }
  }
  double Value() const {
    return FromBits(bits_.load(std::memory_order_relaxed));
  }

 private:
  static uint64_t ToBits(double v);
  static double FromBits(uint64_t bits);
  std::atomic<uint64_t> bits_{0};  // IEEE-754 bit pattern; 0 encodes 0.0
};

// Fixed-bucket histogram. Bucket i counts observations <= bounds[i]; one
// implicit +Inf bucket catches the rest. The snapshot's count is derived
// from the buckets, so count == sum(buckets) in every snapshot.
class FixedHistogram {
 public:
  explicit FixedHistogram(std::vector<double> bounds);

  void Observe(double v);

  struct Snapshot {
    std::vector<double> bounds;    // upper edges, ascending (no +Inf)
    std::vector<uint64_t> counts;  // bounds.size() + 1 entries
    double sum = 0;
    uint64_t count = 0;            // == sum of counts
  };
  Snapshot TakeSnapshot() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Counter>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> sum_bits_{0};              // double bit pattern
};

// Common latency bucket ladder (microseconds): 1us .. ~67s, x4 steps.
std::vector<double> MicrosBuckets();

enum class MetricKind { kCounter, kTimeCounter, kGauge, kHistogram };

// One rendered metric for programmatic consumers (bench JSON, tests).
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;  // counter/gauge value; TimeCounter in seconds
  FixedHistogram::Snapshot histogram;  // kHistogram only
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration is idempotent on (name, labels): the first call creates,
  // later calls return the existing instance (kind must match; a kind
  // mismatch returns nullptr rather than aliasing). Returned pointers stay
  // valid for the registry's lifetime.
  Counter* RegisterCounter(const std::string& name, const std::string& help,
                           const Labels& labels = {});
  TimeCounter* RegisterTimeCounter(const std::string& name,
                                   const std::string& help,
                                   const Labels& labels = {});
  Gauge* RegisterGauge(const std::string& name, const std::string& help,
                       const Labels& labels = {});
  FixedHistogram* RegisterHistogram(const std::string& name,
                                    const std::string& help,
                                    const std::vector<double>& bounds,
                                    const Labels& labels = {});

  // Collect hooks run before every snapshot/render; components use them to
  // refresh derived gauges (WA, AWA, queue depths) from their own state.
  // Remove the hook before the component it reads from dies.
  size_t AddCollectHook(std::function<void()> fn);
  void RemoveCollectHook(size_t id);

  // Prometheus text exposition: families sorted by name, label sets sorted
  // within a family, # HELP/# TYPE once per family. Deterministic given
  // deterministic values.
  std::string Render() const;

  // Programmatic snapshot of every metric (collect hooks run first).
  std::vector<MetricSample> Snapshot() const;

  // Point lookups for bench emitters and tests; 0 if absent. Run the
  // collect hooks first (gauges may be hook-refreshed).
  uint64_t counter_value(const std::string& name,
                         const Labels& labels = {}) const;
  double gauge_value(const std::string& name, const Labels& labels = {}) const;
  // TimeCounter value in seconds; 0 if absent.
  double time_value(const std::string& name, const Labels& labels = {}) const;

  // Family aggregation across label sets, for consumers that want a total
  // regardless of how a family is sliced (e.g. per-shard engines stamp a
  // `shard` label on every series). An entry participates when its labels
  // contain every pair of `filter` (subset match), so e.g.
  // counter_family_sum("sealdb_engine_compaction_bytes_total",
  // {{"dir","write"}}) sums the write direction over all shards without
  // merging it with the read direction.
  uint64_t counter_family_sum(const std::string& name,
                              const Labels& filter = {}) const;
  // TimeCounter family total in seconds.
  double time_family_sum(const std::string& name,
                         const Labels& filter = {}) const;
  double gauge_family_sum(const std::string& name,
                          const Labels& filter = {}) const;
  double gauge_family_max(const std::string& name,
                          const Labels& filter = {}) const;

 private:
  struct Entry {
    std::string name;
    std::string help;
    Labels labels;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<TimeCounter> time_counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<FixedHistogram> histogram;
  };

  Entry* FindOrNull(const std::string& name, const Labels& labels) const;
  Entry* Register(const std::string& name, const std::string& help,
                  const Labels& labels, MetricKind kind,
                  const std::vector<double>* bounds);
  void RunCollectHooks() const;

  mutable std::mutex mu_;
  // Stable storage: entries are never erased, pointers never invalidate.
  std::vector<std::unique_ptr<Entry>> entries_;
  std::vector<std::pair<size_t, std::function<void()>>> hooks_;
  size_t next_hook_id_ = 1;
};

}  // namespace sealdb::obs
