#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

using sealdb::Slice;
using sealdb::obs::FixedHistogram;
using sealdb::obs::Labels;
using sealdb::obs::MetricKind;
using sealdb::obs::MetricsRegistry;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double PeakRssMb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Percentiles

namespace {
// Percentiles are handled in parts per million so 99.9% of 10000 samples is
// exactly rank 9990, with no floating-point rounding at the boundary.
uint64_t Rank(size_t n, double pct) {
  const uint64_t ppm = static_cast<uint64_t>(std::llround(pct * 10000.0));
  const uint64_t rank = (ppm * n + 999999) / 1000000;
  return std::max<uint64_t>(rank, 1);
}
}  // namespace

size_t RankIndex(size_t n, double pct) {
  if (n == 0) return 0;
  return static_cast<size_t>(std::min<uint64_t>(Rank(n, pct), n) - 1);
}

uint64_t SamplesBeyond(size_t n, double pct) {
  if (n == 0) return 0;
  return n - std::min<uint64_t>(Rank(n, pct), n);
}

bool PercentileSupported(size_t n, double pct) {
  return n > 0 && SamplesBeyond(n, pct) >= kMinBeyond;
}

double HighestSupportedPercentile(size_t n) {
  double best = 0;
  for (double pct : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999}) {
    if (PercentileSupported(n, pct)) best = pct;
  }
  return best;
}

namespace {
// The sample at rank index `idx` of `sorted`, spread over its run of equal
// samples: k samples equal to v stand for k values evenly placed between
// the midpoints to the neighbouring distinct samples. The clock ticks in
// steps of about 10 ns, so without this a sub-microsecond percentile could
// only move in steps of a few percent. Distinct samples with even gaps keep
// their own value.
double SpreadTies(const std::vector<uint32_t>& sorted, size_t idx) {
  const uint32_t v = sorted[idx];
  const size_t lo =
      std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin();
  const size_t hi =
      std::upper_bound(sorted.begin(), sorted.end(), v) - sorted.begin();
  const double below = lo > 0 ? (v + static_cast<double>(sorted[lo - 1])) / 2 : v;
  const double above =
      hi < sorted.size() ? (v + static_cast<double>(sorted[hi])) / 2 : v;
  return below + (above - below) * (static_cast<double>(idx - lo) + 0.5) /
                     static_cast<double>(hi - lo);
}
}  // namespace

LatencySummary Summarize(std::vector<uint32_t>* ns) {
  LatencySummary s;
  s.count = ns->size();
  if (ns->empty()) return s;
  std::sort(ns->begin(), ns->end());
  auto at = [&](double pct) {
    return SpreadTies(*ns, RankIndex(ns->size(), pct)) / 1e3;
  };
  s.p50_us = at(50);
  s.p99_us = at(99);
  s.p999_us = at(99.9);
  s.top_pct = HighestSupportedPercentile(ns->size());
  s.top_us = s.top_pct > 0 ? at(s.top_pct) : 0;
  return s;
}

uint32_t PercentileNs(std::vector<uint32_t>* ns, double pct) {
  if (ns->empty()) return 0;
  const size_t idx = RankIndex(ns->size(), pct);
  std::nth_element(ns->begin(), ns->begin() + idx, ns->end());
  return (*ns)[idx];
}

// ---------------------------------------------------------------------------
// Records

std::string KeyOf(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "k%014llux",
                static_cast<unsigned long long>(id));
  return std::string(buf, kKeyBytes);
}

bool ParseKey(const Slice& key, uint64_t* id) {
  if (key.size() != kKeyBytes || key[0] != 'k' || key[15] != 'x') return false;
  uint64_t v = 0;
  for (size_t i = 1; i < 15; i++) {
    const char c = key[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = v;
  return true;
}

namespace {
void FillValue(uint64_t id, uint64_t version, char* out) {
  std::memcpy(out, &version, 8);
  std::memcpy(out + 8, &id, 8);
  uint64_t state = Mix64(id * 0x100000001B3ull ^ Mix64(version));
  for (size_t off = 16; off < kValueBytes; off += 8) {
    state = Mix64(state);
    std::memcpy(out + off, &state, 8);
  }
}
}  // namespace

void ValueOf(uint64_t id, uint64_t version, std::string* out) {
  out->resize(kValueBytes);
  FillValue(id, version, out->data());
}

bool ParseValue(const Slice& value, uint64_t* id, uint64_t* version) {
  if (value.size() != kValueBytes) return false;
  std::memcpy(version, value.data(), 8);
  std::memcpy(id, value.data() + 8, 8);
  char expect[kValueBytes];
  FillValue(*id, *version, expect);
  return std::memcmp(expect, value.data(), kValueBytes) == 0;
}

void Checker::MaybeCorrupt(std::string* value) {
  if (inject_every_ == 0 || value->empty()) return;
  if ((checks_.fetch_add(1, std::memory_order_relaxed) + 1) % inject_every_ ==
      0) {
    (*value)[value->size() - 1] ^= 0x01;  // the injected wrong value
  }
}

bool Checker::ValueIs(uint64_t id, uint64_t version, const Slice& got) {
  uint64_t got_id = 0, got_version = 0;
  return ParseValue(got, &got_id, &got_version) && got_id == id &&
         got_version == version;
}

void Checker::Record(bool ok, const char* what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (ok) return;
  const uint64_t n = failed_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n <= 5) std::fprintf(stderr, "check failed: %s\n", what);
}

// ---------------------------------------------------------------------------
// Spans

const char* SpanNameString(uint16_t name) {
  static const char* const kNames[kNumSpanNames] = {
      "op",           "ycsb.gen",      "lsm.put",      "lsm.get",
      "lsm.seek",     "lsm.next",      "net.rtt",      "server.total",
      "server.queue", "server.commit", "server.engine",
  };
  return name < kNumSpanNames ? kNames[name] : "?";
}

std::vector<SpanStats> DeriveSpanStats(
    const std::vector<const SpanLog*>& logs) {
  std::vector<SpanStats> out(kNumSpanNames);
  std::vector<std::vector<uint32_t>> durations(kNumSpanNames);
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent == kNoParent) continue;
      const Span& p = spans[s.parent];
      const uint64_t lo = std::max(s.start_ns, p.start_ns);
      const uint64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) covered[s.parent] += static_cast<double>(hi - lo);
    }
    for (size_t i = 0; i < spans.size(); i++) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      SpanStats& st = out[s.name];
      st.count++;
      st.total_ns += dur;
      st.self_ns += std::max(0.0, dur - covered[i]);
      durations[s.name].push_back(static_cast<uint32_t>(
          std::min<uint64_t>(s.end_ns - s.start_ns, UINT32_MAX)));
    }
  }
  for (size_t n = 0; n < out.size(); n++) {
    out[n].p50_ns = static_cast<double>(PercentileNs(&durations[n], 50));
    out[n].p99_ns = static_cast<double>(PercentileNs(&durations[n], 99));
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite("PBSPANS1", 1, 8, f) == 8;
  const uint32_t names = kNumSpanNames;
  ok = ok && std::fwrite(&names, sizeof(names), 1, f) == 1;
  for (uint16_t n = 0; n < kNumSpanNames; n++) {
    const uint16_t len = static_cast<uint16_t>(std::strlen(SpanNameString(n)));
    ok = ok && std::fwrite(&len, sizeof(len), 1, f) == 1 &&
         std::fwrite(SpanNameString(n), 1, len, f) == len;
  }
  uint64_t total = 0;
  for (const SpanLog* log : logs) total += log->spans().size();
  ok = ok && std::fwrite(&total, sizeof(total), 1, f) == 1;
  for (size_t l = 0; l < logs.size() && ok; l++) {
    const uint16_t log_index = static_cast<uint16_t>(l);
    for (const Span& s : logs[l]->spans()) {
      ok = std::fwrite(&s.start_ns, 8, 1, f) == 1 &&
           std::fwrite(&s.end_ns, 8, 1, f) == 1 &&
           std::fwrite(&s.request, 8, 1, f) == 1 &&
           std::fwrite(&s.parent, 4, 1, f) == 1 &&
           std::fwrite(&s.name, 2, 1, f) == 1 &&
           std::fwrite(&log_index, 2, 1, f) == 1;
      if (!ok) break;
    }
  }
  return std::fclose(f) == 0 && ok;
}

// ---------------------------------------------------------------------------
// Registry snapshots

Counters TakeCounters(const MetricsRegistry& r) {
  Counters c;
  c["smr.busy_s"] = r.time_family_sum("sealdb_device_busy_seconds_total");
  c["smr.position_s"] =
      r.time_family_sum("sealdb_device_position_seconds_total");
  c["smr.seeks"] = r.counter_family_sum("sealdb_device_seeks_total");
  c["smr.ops.read"] =
      r.counter_family_sum("sealdb_device_ops_total", {{"kind", "read"}});
  c["smr.ops.write"] =
      r.counter_family_sum("sealdb_device_ops_total", {{"kind", "write"}});
  c["smr.physical_bytes_written"] = r.counter_family_sum(
      "sealdb_device_physical_bytes_total", {{"dir", "write"}});
  c["smr.logical_bytes_written"] = r.counter_family_sum(
      "sealdb_device_logical_bytes_total", {{"dir", "write"}});
  c["smr.logical_bytes_read"] = r.counter_family_sum(
      "sealdb_device_logical_bytes_total", {{"dir", "read"}});
  c["smr.guard_violations"] =
      r.counter_family_sum("sealdb_smr_guard_violations_total");

  c["lsm.user_bytes"] = r.counter_family_sum("sealdb_engine_user_bytes_total");
  c["lsm.flush_bytes"] =
      r.counter_family_sum("sealdb_engine_flush_bytes_total");
  c["lsm.flushes"] = r.counter_family_sum("sealdb_engine_flushes_total");
  c["lsm.compactions"] =
      r.counter_family_sum("sealdb_engine_compactions_total");
  c["lsm.compaction_bytes_read"] = r.counter_family_sum(
      "sealdb_engine_compaction_bytes_total", {{"dir", "read"}});
  c["lsm.compaction_bytes_written"] = r.counter_family_sum(
      "sealdb_engine_compaction_bytes_total", {{"dir", "write"}});
  for (const char* stage : {"pick", "read", "merge", "write", "install"}) {
    c[std::string("lsm.compaction_stage_s.") + stage] = r.time_family_sum(
        "sealdb_engine_compaction_stage_seconds_total", {{"stage", stage}});
  }
  c["lsm.write_stall_s"] =
      r.time_family_sum("sealdb_engine_write_stall_seconds_total");
  c["lsm.write_stall_events"] =
      r.counter_family_sum("sealdb_engine_write_stall_events_total");

  c["buf.hits"] = r.counter_family_sum("sealdb_buf_hits_total");
  c["buf.optimistic_hits"] = r.counter_family_sum(
      "sealdb_buf_hits_total", {{"path", "optimistic"}});
  c["buf.misses"] = r.counter_family_sum("sealdb_buf_misses_total");
  c["buf.evictions"] = r.counter_family_sum("sealdb_buf_evictions_total",
                                            {{"cause", "clock"}});

  c["core.band_allocs"] = r.counter_family_sum("sealdb_band_alloc_total");

  c["server.requests"] = r.counter_family_sum("sealdb_server_requests_total");
  c["server.write_groups"] =
      r.counter_family_sum("sealdb_server_write_groups_total");
  c["server.batched_writes"] =
      r.counter_family_sum("sealdb_server_batched_writes_total");
  c["server.bytes"] = r.counter_family_sum("sealdb_server_bytes_total");
  for (const char* reason :
       {"connections", "queue_full", "inflight_cap", "stall"}) {
    c[std::string("server.admission_rejected.") + reason] =
        r.counter_family_sum("sealdb_server_admission_rejected_total",
                             {{"reason", reason}});
  }
  return c;
}

Counters Delta(const Counters& before, const Counters& after) {
  Counters d;
  for (const auto& [k, v] : after) d[k] = v - Get(before, k);
  return d;
}

double Get(const Counters& c, const std::string& key) {
  auto it = c.find(key);
  return it == c.end() ? 0.0 : it->second;
}

FixedHistogram::Snapshot HistogramSnapshot(const MetricsRegistry& registry,
                                           const std::string& name,
                                           const Labels& labels) {
  for (const auto& s : registry.Snapshot()) {
    if (s.kind == MetricKind::kHistogram && s.name == name &&
        s.labels == labels) {
      return s.histogram;
    }
  }
  return {};
}

HistogramStats HistogramDelta(const MetricsRegistry& registry,
                              const std::string& name, const Labels& labels,
                              const FixedHistogram::Snapshot& base) {
  const FixedHistogram::Snapshot now =
      HistogramSnapshot(registry, name, labels);
  HistogramStats st;
  if (now.counts.empty()) return st;
  std::vector<uint64_t> counts = now.counts;
  for (size_t i = 0; i < counts.size() && i < base.counts.size(); i++) {
    counts[i] -= base.counts[i];
  }
  for (uint64_t c : counts) st.count += c;
  if (st.count == 0) return st;
  st.mean = (now.sum - base.sum) / static_cast<double>(st.count);
  const uint64_t rank = RankIndex(st.count, 99) + 1;
  uint64_t seen = 0;
  st.p99_bound = INFINITY;
  for (size_t i = 0; i < counts.size() && i < now.bounds.size(); i++) {
    seen += counts[i];
    if (seen >= rank) {
      st.p99_bound = now.bounds[i];
      break;
    }
  }
  return st;
}

// ---------------------------------------------------------------------------
// Report

void Report::Print() const {
  auto line = [](const MetricValue& m) {
    if (m.samples > 0) {
      std::printf("%-40s %.6g %s (n=%llu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  };
  for (const auto& [k, v] : info_) std::printf("%-40s %s\n", k.c_str(), v.c_str());
  for (const MetricValue& m : metrics_) line(m);
  if (!ledger_.empty()) std::printf("-- per-layer ledger --\n");
  for (const MetricValue& m : ledger_) line(m);
}

namespace {
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void WriteMetrics(std::FILE* f, const char* key,
                  const std::vector<MetricValue>& list) {
  std::fprintf(f, "  %s: {", JsonString(key).c_str());
  for (size_t i = 0; i < list.size(); i++) {
    const MetricValue& m = list[i];
    std::fprintf(f, "%s\n    %s: {\"value\": %s, \"unit\": %s", i ? "," : "",
                 JsonString(m.name).c_str(), JsonNumber(m.value).c_str(),
                 JsonString(m.unit).c_str());
    if (m.samples > 0) {
      std::fprintf(f, ", \"samples\": %llu",
                   static_cast<unsigned long long>(m.samples));
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  }");
}
}  // namespace

bool Report::WriteJson(const std::string& path, bool correct,
                       uint64_t attempted, uint64_t failed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  for (const auto& [k, v] : info_) {
    std::fprintf(f, "  %s: %s,\n", JsonString(k).c_str(),
                 JsonString(v).c_str());
  }
  std::fprintf(f,
               "  \"correct\": %s,\n  \"attempted\": %llu,\n"
               "  \"failed\": %llu,\n",
               correct ? "true" : "false",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  WriteMetrics(f, "metrics", metrics_);
  std::fprintf(f, ",\n");
  WriteMetrics(f, "ledger", ledger_);
  std::fprintf(f, "\n}\n");
  return std::fclose(f) == 0;
}

void StampHost(Report* report) {
  report->Info("host.nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
#if defined(__clang__)
  report->Info("host.compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  report->Info("host.compiler", std::string("gcc ") + __VERSION__);
#else
  report->Info("host.compiler", "unknown");
#endif
  report->Info("host.build_type", PERFBENCH_BUILD_TYPE);
}

}  // namespace perfbench
