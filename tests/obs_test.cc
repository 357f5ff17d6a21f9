// Observability layer tests: MetricsRegistry semantics (idempotent
// registration, kind mismatches, gauges, time counters, histogram bucket
// edges), concurrent mutation with snapshot consistency (meaningful under
// TSan via the "stress" ctest label), Prometheus text exposition golden
// output, and end-to-end coverage of the METRICS opcode plus the sampled
// op-tracing pipeline (queue-wait / group-commit / engine / device spans).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/presets.h"
#include "lsm/db.h"
#include "net/seal_client.h"
#include "obs/metrics.h"
#include "server/seal_server.h"

namespace sealdb {

namespace {

using baselines::BuildStack;
using baselines::Stack;
using baselines::StackConfig;
using baselines::SystemKind;

StackConfig SmallConfig() {
  StackConfig config;
  config.kind = SystemKind::kSEALDB;
  config.capacity_bytes = 256ull << 20;
  config.band_bytes = 640 << 10;
  config.sstable_bytes = 64 << 10;
  config.write_buffer_bytes = 64 << 10;
  config.track_bytes = 16 << 10;
  config.conventional_bytes = 8 << 20;
  config.inline_compactions = false;
  return config;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry unit tests.

TEST(MetricsRegistry, CounterBasics) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.RegisterCounter("test_ops_total", "ops", {});
  ASSERT_NE(c, nullptr);
  c->Inc();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42u);
  EXPECT_EQ(reg.counter_value("test_ops_total"), 42u);
  EXPECT_EQ(reg.counter_value("no_such_metric"), 0u);
}

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.RegisterCounter("test_total", "help", {});
  obs::Counter* b = reg.RegisterCounter("test_total", "ignored", {});
  EXPECT_EQ(a, b);  // same (name, labels) -> same counter

  // Same name with different labels is a distinct series.
  obs::Counter* labeled =
      reg.RegisterCounter("test_total", "help", {{"kind", "x"}});
  EXPECT_NE(labeled, a);
  a->Add(3);
  labeled->Add(5);
  EXPECT_EQ(reg.counter_value("test_total"), 3u);
  EXPECT_EQ(reg.counter_value("test_total", {{"kind", "x"}}), 5u);
}

TEST(MetricsRegistry, KindMismatchReturnsNull) {
  obs::MetricsRegistry reg;
  ASSERT_NE(reg.RegisterCounter("test_metric", "h", {}), nullptr);
  EXPECT_EQ(reg.RegisterGauge("test_metric", "h", {}), nullptr);
  EXPECT_EQ(reg.RegisterTimeCounter("test_metric", "h", {}), nullptr);
  EXPECT_EQ(
      reg.RegisterHistogram("test_metric", "h", obs::MicrosBuckets(), {}),
      nullptr);
}

TEST(MetricsRegistry, GaugeSetAddAndMax) {
  obs::MetricsRegistry reg;
  obs::Gauge* g = reg.RegisterGauge("test_gauge", "g", {});
  ASSERT_NE(g, nullptr);
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->Value(), 2.5);
  g->Add(1.5);
  EXPECT_DOUBLE_EQ(g->Value(), 4.0);
  g->Add(-3.0);
  EXPECT_DOUBLE_EQ(g->Value(), 1.0);
  g->SetMax(7.0);
  g->SetMax(5.0);  // lower value must not win the ratchet
  EXPECT_DOUBLE_EQ(g->Value(), 7.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("test_gauge"), 7.0);
}

TEST(MetricsRegistry, TimeCounterUnits) {
  obs::MetricsRegistry reg;
  obs::TimeCounter* t = reg.RegisterTimeCounter("test_seconds_total", "t", {});
  ASSERT_NE(t, nullptr);
  t->AddSeconds(1.5);
  t->AddMicros(500'000);
  EXPECT_DOUBLE_EQ(t->Seconds(), 2.0);
  EXPECT_EQ(t->Nanos(), 2'000'000'000u);
  EXPECT_DOUBLE_EQ(reg.time_value("test_seconds_total"), 2.0);
}

TEST(MetricsRegistry, HistogramBucketEdgesAreInclusive) {
  obs::FixedHistogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // <= 1
  h.Observe(1.0);    // edge: still the <= 1 bucket
  h.Observe(1.001);  // <= 10
  h.Observe(10.0);   // edge: still the <= 10 bucket
  h.Observe(50.0);   // <= 100
  h.Observe(1000.0); // +Inf
  obs::FixedHistogram::Snapshot snap = h.TakeSnapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.001 + 10.0 + 50.0 + 1000.0);
}

TEST(MetricsRegistry, CollectHooksRunOnSnapshot) {
  obs::MetricsRegistry reg;
  obs::Gauge* g = reg.RegisterGauge("test_depth", "d", {});
  int calls = 0;
  size_t id = reg.AddCollectHook([&] {
    calls++;
    g->Set(static_cast<double>(calls));
  });
  EXPECT_DOUBLE_EQ(reg.gauge_value("test_depth"), 1.0);
  (void)reg.Snapshot();
  EXPECT_EQ(calls, 2);
  reg.RemoveCollectHook(id);
  (void)reg.Snapshot();
  EXPECT_EQ(calls, 2);  // removed hooks must not fire
}

// ---------------------------------------------------------------------------
// Exposition format golden test. The rendering is deterministic (families
// and label sets sorted), so an exact-match golden is stable.

TEST(MetricsExposition, GoldenOutput) {
  obs::MetricsRegistry reg;
  // Register out of alphabetical order on purpose; Render() must sort.
  obs::Counter* w =
      reg.RegisterCounter("demo_ops_total", "Demo ops.", {{"kind", "write"}});
  obs::Counter* r =
      reg.RegisterCounter("demo_ops_total", "Demo ops.", {{"kind", "read"}});
  obs::Gauge* g = reg.RegisterGauge("demo_depth", "Queue depth.", {});
  obs::FixedHistogram* h =
      reg.RegisterHistogram("demo_micros", "Latency.", {1.0, 10.0}, {});
  w->Add(3);
  r->Add(7);
  g->Set(2.5);
  h->Observe(1.0);
  h->Observe(5.0);
  h->Observe(100.0);

  const std::string expected =
      "# HELP demo_depth Queue depth.\n"
      "# TYPE demo_depth gauge\n"
      "demo_depth 2.5\n"
      "# HELP demo_micros Latency.\n"
      "# TYPE demo_micros histogram\n"
      "demo_micros_bucket{le=\"1\"} 1\n"
      "demo_micros_bucket{le=\"10\"} 2\n"
      "demo_micros_bucket{le=\"+Inf\"} 3\n"
      "demo_micros_sum 106\n"
      "demo_micros_count 3\n"
      "# HELP demo_ops_total Demo ops.\n"
      "# TYPE demo_ops_total counter\n"
      "demo_ops_total{kind=\"read\"} 7\n"
      "demo_ops_total{kind=\"write\"} 3\n";
  EXPECT_EQ(reg.Render(), expected);
}

TEST(MetricsExposition, LabelValuesAreEscaped) {
  obs::MetricsRegistry reg;
  obs::Counter* c =
      reg.RegisterCounter("esc_total", "", {{"path", "a\"b\\c\nd"}});
  c->Inc();
  const std::string out = reg.Render();
  EXPECT_TRUE(Contains(out, "esc_total{path=\"a\\\"b\\\\c\\nd\"} 1"))
      << out;
}

// ---------------------------------------------------------------------------
// Concurrent mutation: counters shard across threads, histograms must keep
// count == sum(buckets) in every snapshot. Run under TSan via the "stress"
// label to catch data races in the lock-free paths.

TEST(MetricsConcurrency, CountersAndHistogramsUnderContention) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.RegisterCounter("stress_total", "", {});
  obs::FixedHistogram* h =
      reg.RegisterHistogram("stress_micros", "", obs::MicrosBuckets(), {});
  obs::Gauge* peak = reg.RegisterGauge("stress_peak", "", {});
  ASSERT_NE(c, nullptr);
  ASSERT_NE(h, nullptr);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20'000;
  std::atomic<bool> stop{false};

  // A reader thread snapshots continuously while writers mutate; every
  // snapshot must be internally consistent (derived count == bucket sum;
  // Render never crashes or reports garbage).
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<obs::MetricSample> samples = reg.Snapshot();
      for (const obs::MetricSample& s : samples) {
        if (s.kind != obs::MetricKind::kHistogram) continue;
        uint64_t bucket_sum = 0;
        for (uint64_t b : s.histogram.counts) bucket_sum += b;
        ASSERT_EQ(bucket_sum, s.histogram.count);
      }
      (void)reg.Render();
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; i++) {
        c->Inc();
        h->Observe(static_cast<double>((t * kOpsPerThread + i) % 5000));
        peak->SetMax(static_cast<double>(i));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(c->Value(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  obs::FixedHistogram::Snapshot snap = h->TakeSnapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_DOUBLE_EQ(peak->Value(), kOpsPerThread - 1);
}

// ---------------------------------------------------------------------------
// End to end: one registry spans engine + device + server, the METRICS
// opcode returns it over the wire, and sampled requests leave span
// breakdowns behind.

class ObsServerTest : public ::testing::Test {
 protected:
  void StartServer(uint64_t trace_sample_every) {
    ASSERT_TRUE(BuildStack(SmallConfig(), "/obs-served", &stack_).ok());
    server::ServerOptions opts;
    opts.num_workers = 2;
    opts.trace_sample_every = trace_sample_every;
    server_ = std::make_unique<server::SealServer>(stack_->db(), stack_.get(),
                                                   opts);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    if (stack_ != nullptr) stack_->db()->WaitForIdle();
  }

  std::unique_ptr<Stack> stack_;
  std::unique_ptr<server::SealServer> server_;
};

TEST_F(ObsServerTest, MetricsOpcodeRoundTrip) {
  StartServer(/*trace_sample_every=*/0);
  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  ASSERT_TRUE(client.Put("obs-key", "obs-value").ok());
  std::string value;
  ASSERT_TRUE(client.Get("obs-key", &value).ok());
  EXPECT_EQ(value, "obs-value");

  std::string text;
  ASSERT_TRUE(client.Metrics(&text).ok());

  // Engine, device, and server families must all come from the one shared
  // registry the stack built.
  EXPECT_TRUE(Contains(text, "# TYPE sealdb_engine_user_bytes_total counter"))
      << text;
  EXPECT_TRUE(Contains(text, "sealdb_device_busy_seconds_total")) << text;
  EXPECT_TRUE(Contains(text, "sealdb_server_requests_total")) << text;
  EXPECT_TRUE(Contains(text, "sealdb_server_admission_rejected_total"))
      << text;
  EXPECT_TRUE(Contains(text, "sealdb_server_dedup_replays_total")) << text;
  EXPECT_TRUE(Contains(text, "sealdb_server_ops_total{op=\"write\"}"))
      << text;

  // The exposition renders the server's registry: at least one write and
  // one get were served.
  const auto& reg = *server_->metrics_registry();
  EXPECT_GE(reg.counter_value("sealdb_server_ops_total", {{"op", "write"}}),
            1u);
  EXPECT_GE(reg.counter_value("sealdb_server_ops_total", {{"op", "get"}}),
            1u);
}

TEST_F(ObsServerTest, SampledRequestYieldsSpanBreakdown) {
  StartServer(/*trace_sample_every=*/1);  // trace everything
  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  ASSERT_TRUE(client.Put("span-key", "span-value").ok());
  const uint64_t put_trace = client.last_trace_id();
  ASSERT_NE(put_trace, 0u);
  std::string value;
  ASSERT_TRUE(client.Get("span-key", &value).ok());
  const uint64_t get_trace = client.last_trace_id();
  ASSERT_NE(get_trace, 0u);
  EXPECT_NE(put_trace, get_trace);

  // Spans are recorded before the ack is sent, so both must be visible now.
  std::vector<server::TraceSpan> spans = server_->sampled_traces();
  ASSERT_GE(spans.size(), 2u);
  const server::TraceSpan* put_span = nullptr;
  const server::TraceSpan* get_span = nullptr;
  for (const server::TraceSpan& s : spans) {
    if (s.trace_id == put_trace) put_span = &s;
    if (s.trace_id == get_trace) get_span = &s;
  }
  ASSERT_NE(put_span, nullptr);
  ASSERT_NE(get_span, nullptr);

  // The breakdown must be coherent: stages sum to no more than the total,
  // and the total spans actual elapsed time.
  EXPECT_GT(put_span->total_micros, 0u);
  EXPECT_LE(put_span->queue_micros + put_span->commit_micros,
            put_span->total_micros);
  EXPECT_GE(put_span->commit_micros, put_span->engine_micros);
  EXPECT_GT(get_span->total_micros, 0u);
  EXPECT_GE(get_span->device_seconds, 0.0);

  // Span durations feed the per-stage histograms in the registry.
  const auto& reg = *server_->metrics_registry();
  EXPECT_GE(reg.counter_value("sealdb_server_requests_total"), 2u);
  std::string text;
  ASSERT_TRUE(client.Metrics(&text).ok());
  EXPECT_TRUE(
      Contains(text, "sealdb_server_span_micros_count{stage=\"total\"}"))
      << text;
}

TEST_F(ObsServerTest, ClientRetryCountersLiveInClientRegistry) {
  StartServer(/*trace_sample_every=*/0);
  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Put("k", "v").ok());
  net::ClientStats st = client.stats();
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(client.metrics_registry()->counter_value(
                "sealdb_client_retries_total"),
            0u);
}

}  // namespace sealdb
