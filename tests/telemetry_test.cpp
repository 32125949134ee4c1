// Tests of the telemetry layer: sharded counters/gauges/histograms and
// their cross-shard merge, percentile extraction, registry get-or-create
// semantics, snapshot consistency under concurrent recording (the TSan
// target), the sampling tracer, the exposition formats, and an end-to-end
// check that a live service run populates the metric catalogue with
// plausible values.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "paper_fixture.h"
#include "service/service.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace ksir {
namespace {

using ::ksir::testing::BalancedQueryVector;
using ::ksir::testing::PaperElements;
using ::ksir::testing::PaperEngineConfig;
using ::ksir::testing::PaperTopicModel;

// ---- counters and gauges ---------------------------------------------------

TEST(CounterTest, SumsAcrossThreadsAndShards) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter]() {
      for (int i = 0; i < kAddsPerThread; ++i) counter.Add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kAddsPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Set(42);
  EXPECT_EQ(gauge.Value(), 42);
  gauge.Add(-2);
  EXPECT_EQ(gauge.Value(), 40);
}

// ---- histograms ------------------------------------------------------------

TEST(HistogramTest, BucketOfMapsBoundariesInclusively) {
  // counts[i] covers (bounds[i-1], bounds[i]]: an exact bound lands in its
  // own bucket, just past it lands in the next.
  for (std::size_t i = 0; i < kNumLatencyBounds; ++i) {
    EXPECT_EQ(Histogram::BucketOf(kLatencyBoundsSeconds[i]), i);
  }
  EXPECT_EQ(Histogram::BucketOf(0.0), 0u);
  EXPECT_EQ(Histogram::BucketOf(kLatencyBoundsSeconds[0] * 1.01), 1u);
  // Past the top bound -> overflow bucket.
  EXPECT_EQ(Histogram::BucketOf(100.0), kNumLatencyBounds);
}

TEST(HistogramTest, SnapshotMergesShardsRecordedByManyThreads) {
  Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kRecordsPerThread = 1000;
  const double value = 1e-3;  // bucket index BucketOf(1e-3)
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, value]() {
      for (int i = 0; i < kRecordsPerThread; ++i) hist.Record(value);
    });
  }
  for (auto& thread : threads) thread.join();
  const HistogramSnapshot snapshot = hist.Snapshot();
  EXPECT_EQ(snapshot.count, kThreads * kRecordsPerThread);
  EXPECT_EQ(snapshot.counts[Histogram::BucketOf(value)], snapshot.count);
  EXPECT_NEAR(snapshot.sum, kThreads * kRecordsPerThread * value,
              1e-9 * kThreads * kRecordsPerThread);
}

TEST(HistogramTest, PercentileInterpolatesInsideCoveringBucket) {
  Histogram hist;
  // 100 samples in the (2.56e-4, 5.12e-4] bucket and 100 in
  // (1.024e-3, 2.048e-3]: p25 must fall in the first bucket's range, p75
  // in the second's, and both inside the global recorded range.
  for (int i = 0; i < 100; ++i) hist.Record(4e-4);
  for (int i = 0; i < 100; ++i) hist.Record(1.5e-3);
  const HistogramSnapshot snapshot = hist.Snapshot();
  const double p25 = snapshot.Percentile(0.25);
  const double p75 = snapshot.Percentile(0.75);
  EXPECT_GT(p25, 2.56e-4);
  EXPECT_LE(p25, 5.12e-4);
  EXPECT_GT(p75, 1.024e-3);
  EXPECT_LE(p75, 2.048e-3);
  EXPECT_LT(p25, p75);
}

TEST(HistogramTest, PercentileEdgeCases) {
  Histogram empty;
  EXPECT_EQ(empty.Snapshot().Percentile(0.5), 0.0);

  Histogram overflow;
  overflow.Record(50.0);  // above the top bound
  // Overflow-bucket quantiles clamp to the top finite bound.
  EXPECT_DOUBLE_EQ(overflow.Snapshot().Percentile(0.5),
                   kLatencyBoundsSeconds[kNumLatencyBounds - 1]);
}

// ---- registry --------------------------------------------------------------

TEST(MetricRegistryTest, GetOrCreateReturnsSameObjectForSameName) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("ksir_test_total", "help");
  Counter* b = registry.GetCounter("ksir_test_total");
  EXPECT_EQ(a, b);
  a->Add(3);
  b->Add(4);
  EXPECT_EQ(a->Value(), 7);
  // Distinct names are distinct objects.
  EXPECT_NE(registry.GetCounter("ksir_other_total"), a);
}

TEST(MetricRegistryTest, SnapshotIsSortedAndFindable) {
  MetricRegistry registry;
  registry.GetCounter("zeta_total")->Add(1);
  registry.GetGauge("alpha_depth")->Set(5);
  registry.GetHistogram("mid_seconds")->Record(1e-3);
  const RegistrySnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.metrics.size(), 3u);
  EXPECT_TRUE(std::is_sorted(snapshot.metrics.begin(), snapshot.metrics.end(),
                             [](const MetricSnapshot& a,
                                const MetricSnapshot& b) {
                               return a.name < b.name;
                             }));
  const MetricSnapshot* gauge = snapshot.Find("alpha_depth");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->type, MetricType::kGauge);
  EXPECT_EQ(gauge->value, 5);
  const MetricSnapshot* hist = snapshot.Find("mid_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->type, MetricType::kHistogram);
  EXPECT_EQ(hist->histogram.count, 1);
  EXPECT_EQ(snapshot.Find("absent"), nullptr);
}

// The TSan target: snapshots taken while every metric type is being
// hammered must be race-free and observe internally consistent cells.
TEST(MetricRegistryTest, SnapshotDuringConcurrentRecordingChurn) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("churn_total");
  Gauge* gauge = registry.GetGauge("churn_depth");
  Histogram* hist = registry.GetHistogram("churn_seconds");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        counter->Add(1);
        gauge->Add(1);
        hist->Record(1e-4);
      }
    });
  }
  std::int64_t last_count = 0;
  for (int i = 0; i < 200; ++i) {
    const RegistrySnapshot snapshot = registry.Snapshot();
    const MetricSnapshot* h = snapshot.Find("churn_seconds");
    ASSERT_NE(h, nullptr);
    // Monotone across snapshots, and bucket counts always sum to count.
    EXPECT_GE(h->histogram.count, last_count);
    last_count = h->histogram.count;
    std::int64_t bucket_sum = 0;
    for (const std::int64_t c : h->histogram.counts) bucket_sum += c;
    EXPECT_EQ(bucket_sum, h->histogram.count);
  }
  stop.store(true);
  for (auto& writer : writers) writer.join();
  const RegistrySnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Find("churn_total")->value, counter->Value());
}

// ---- tracer and stage scopes -----------------------------------------------

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(/*enabled=*/false, /*sample_period=*/1, /*capacity=*/16);
  tracer.SampleUnit();
  EXPECT_FALSE(tracer.armed());
  const auto now = std::chrono::steady_clock::now();
  tracer.Emit("stage", now, now);
  EXPECT_TRUE(tracer.Events().empty());
}

TEST(TracerTest, SamplePeriodArmsEveryNthUnit) {
  Tracer tracer(/*enabled=*/true, /*sample_period=*/3, /*capacity=*/16);
  std::vector<bool> armed;
  for (int i = 0; i < 6; ++i) {
    tracer.SampleUnit();
    armed.push_back(tracer.armed());
  }
  EXPECT_EQ(armed, (std::vector<bool>{true, false, false, true, false,
                                      false}));
}

TEST(TracerTest, BufferBoundsAndCountsDrops) {
  Tracer tracer(/*enabled=*/true, /*sample_period=*/1, /*capacity=*/2);
  tracer.SampleUnit();
  const auto now = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) tracer.Emit("stage", now, now);
  EXPECT_EQ(tracer.Events().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3);
  tracer.Clear();
  EXPECT_TRUE(tracer.Events().empty());
  EXPECT_EQ(tracer.dropped(), 0);
}

TEST(StageScopeTest, RecordsOnlyWhenTimingEnabled) {
  Telemetry off;  // default config: kOff
  Histogram* off_hist = off.registry().GetHistogram("off_seconds");
  { StageScope scope(&off, off_hist, "stage"); }
  EXPECT_EQ(off_hist->Snapshot().count, 0);
  { StageScope scope(nullptr, nullptr, "stage"); }  // must be a safe no-op

  TelemetryConfig config;
  config.level = TelemetryLevel::kCounters;
  Telemetry on(config);
  Histogram* on_hist = on.registry().GetHistogram("on_seconds");
  { StageScope scope(&on, on_hist, "stage"); }
  const HistogramSnapshot snapshot = on_hist->Snapshot();
  EXPECT_EQ(snapshot.count, 1);
  EXPECT_GE(snapshot.sum, 0.0);
  // kCounters still emits no trace events.
  EXPECT_TRUE(on.tracer().Events().empty());
}

TEST(StageScopeTest, TracingLevelEmitsSpansForSampledUnits) {
  TelemetryConfig config;
  config.level = TelemetryLevel::kTracing;
  config.trace_sample_period = 1;
  Telemetry telemetry(config);
  Histogram* hist = telemetry.registry().GetHistogram("traced_seconds");
  telemetry.tracer().SampleUnit();
  { StageScope scope(&telemetry, hist, "traced.stage"); }
  const std::vector<TraceEvent> events = telemetry.tracer().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "traced.stage");
  EXPECT_GE(events[0].dur_us, 0.0);
}

// ---- exposition ------------------------------------------------------------

TEST(ExpositionTest, PrometheusTextShape) {
  MetricRegistry registry;
  registry.GetCounter("ksir_demo_total", "A demo counter")->Add(7);
  registry.GetGauge("ksir_demo_depth")->Set(3);
  Histogram* hist = registry.GetHistogram("ksir_demo_seconds", "A demo hist");
  hist->Record(1e-3);
  hist->Record(100.0);  // overflow bucket
  const std::string text = PrometheusText(registry);
  EXPECT_NE(text.find("# HELP ksir_demo_total A demo counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ksir_demo_total counter"), std::string::npos);
  EXPECT_NE(text.find("ksir_demo_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ksir_demo_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ksir_demo_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("ksir_demo_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("ksir_demo_seconds_count 2"), std::string::npos);
  // Cumulative buckets: the finite top bound has seen only the 1e-3 sample.
  EXPECT_NE(text.find("ksir_demo_seconds_bucket{le=\"8.388608\"} 1"),
            std::string::npos);
}

TEST(ExpositionTest, MetricsJsonShape) {
  MetricRegistry registry;
  registry.GetCounter("ksir_demo_total")->Add(7);
  registry.GetHistogram("ksir_demo_seconds")->Record(1e-3);
  const std::string json = MetricsJson(registry);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"ksir_demo_total\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

TEST(ExpositionTest, ChromeTraceJsonShape) {
  Tracer tracer(/*enabled=*/true, /*sample_period=*/1, /*capacity=*/16);
  tracer.SampleUnit();
  const auto begin = std::chrono::steady_clock::now();
  tracer.Emit("demo.stage", begin, begin + std::chrono::microseconds(5));
  const std::string json = ChromeTraceJson(tracer);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"demo.stage\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

// ---- end-to-end: a live service populates the catalogue --------------------

// Parameterized by EngineConfig::maintenance_threads: one participant, and
// three on the service's shared pool, run the same staged apply.
class TelemetryIntegrationTest
    : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    ServiceConfig config;
    config.engine = PaperEngineConfig();
    config.engine.maintenance_threads = GetParam();
    config.num_shards = 2;
    config.telemetry.level = TelemetryLevel::kCounters;
    auto service = KsirService::Create(config, &model_);
    ASSERT_TRUE(service.ok()) << service.status().message();
    service_ = std::move(service).value();
    ASSERT_TRUE(service_->Append(PaperElements()).ok());
    KsirQuery query;
    query.k = 2;
    query.x = BalancedQueryVector();
    ASSERT_TRUE(service_->Query(query).ok());
    ASSERT_TRUE(service_->Query(query).ok());  // second hits the cache
  }

  TopicModel model_ = PaperTopicModel();
  std::unique_ptr<KsirService> service_;
};

TEST_P(TelemetryIntegrationTest, IngestAndQueryPopulateExpectedMetrics) {
  const RegistrySnapshot snapshot =
      service_->telemetry().registry().Snapshot();
  const auto counter = [&](const char* name) {
    const MetricSnapshot* m = snapshot.Find(name);
    EXPECT_NE(m, nullptr) << name;
    return m != nullptr ? m->value : -1;
  };
  const auto hist_count = [&](const char* name) {
    const MetricSnapshot* m = snapshot.Find(name);
    EXPECT_NE(m, nullptr) << name;
    return m != nullptr ? m->histogram.count : -1;
  };

  // Ingestion: 8 paper elements over 8 buckets, every element fresh once.
  EXPECT_EQ(counter("ksir_ingest_elements_total"), 8);
  EXPECT_EQ(counter("ksir_ingest_buckets_total"), 8);
  // >= 8: every element is fresh once, plus any archive resurrections
  // (e.g. a late reference re-activating an expired element).
  EXPECT_GE(counter("ksir_maintainer_fresh_total"), 8);
  EXPECT_GT(counter("ksir_maintainer_repositions_total"), 0);
  EXPECT_GT(counter("ksir_ingest_update_nanos_total"), 0);

  // Query path: two queries, one planner miss + one cache hit.
  EXPECT_EQ(counter("ksir_service_queries_total"), 2);
  EXPECT_EQ(counter("ksir_planner_plans_total"), 1);
  EXPECT_EQ(counter("ksir_cache_hits_total"), 1);
  EXPECT_EQ(counter("ksir_cache_misses_total"), 1);
  EXPECT_EQ(counter("ksir_planner_merge_wins_total") +
                counter("ksir_planner_best_shard_wins_total"),
            1);

  // Stage timing histograms: every bucket apply times each of its five
  // stages once; with 2 shards and 8 buckets there are 16 applies. Each
  // shard sees buckets with no list work (their elements went to the other
  // shard), and those must record every stage too.
  EXPECT_EQ(hist_count("ksir_maintainer_bucket_apply_seconds"), 16);
  for (const char* stage :
       {"ksir_maintainer_stage_expiry_seconds",
        "ksir_maintainer_stage_insert_seconds",
        "ksir_maintainer_stage_score_seconds",
        "ksir_maintainer_stage_gather_seconds",
        "ksir_maintainer_stage_list_apply_seconds"}) {
    EXPECT_EQ(hist_count(stage),
              hist_count("ksir_maintainer_bucket_apply_seconds"))
        << stage;
  }
  EXPECT_EQ(hist_count("ksir_engine_advance_seconds"), 16);
  EXPECT_EQ(hist_count("ksir_ingest_bucket_seconds"), 8);
  EXPECT_EQ(hist_count("ksir_planner_plan_seconds"), 1);
  EXPECT_EQ(hist_count("ksir_planner_shard_fanout_seconds_0"), 1);
  EXPECT_EQ(hist_count("ksir_planner_shard_fanout_seconds_1"), 1);
  EXPECT_EQ(hist_count("ksir_service_query_seconds"), 2);
  EXPECT_EQ(hist_count("ksir_service_cache_lookup_seconds"), 2);

  // The decomposed stages must sum to (at most) the whole bucket apply:
  // the stage scopes nest inside the bucket-apply scope, so their total
  // can never exceed it (plus timer-resolution noise).
  const auto hist_sum = [&](const char* name) {
    const MetricSnapshot* m = snapshot.Find(name);
    return m != nullptr ? m->histogram.sum : 0.0;
  };
  const double stage_sum = hist_sum("ksir_maintainer_stage_expiry_seconds") +
                           hist_sum("ksir_maintainer_stage_insert_seconds") +
                           hist_sum("ksir_maintainer_stage_score_seconds") +
                           hist_sum("ksir_maintainer_stage_gather_seconds") +
                           hist_sum("ksir_maintainer_stage_list_apply_seconds");
  const double apply_sum = hist_sum("ksir_maintainer_bucket_apply_seconds");
  EXPECT_GT(apply_sum, 0.0);
  EXPECT_GT(stage_sum, 0.0);
  EXPECT_LE(stage_sum, apply_sum * 1.05 + 1e-6);
}

TEST_P(TelemetryIntegrationTest, StatsViewsMatchRegistryCounters) {
  // The legacy stats structs are thin views over the same registry
  // counters — they must agree exactly.
  const ServiceStats stats = service_->stats();
  const RegistrySnapshot snapshot =
      service_->telemetry().registry().Snapshot();
  EXPECT_EQ(stats.cache.hits, snapshot.Find("ksir_cache_hits_total")->value);
  EXPECT_EQ(stats.cache.misses,
            snapshot.Find("ksir_cache_misses_total")->value);
  EXPECT_EQ(stats.planner.plans,
            snapshot.Find("ksir_planner_plans_total")->value);
  EXPECT_EQ(stats.ingestion.elements_ingested,
            snapshot.Find("ksir_ingest_elements_total")->value);
  EXPECT_EQ(stats.ingestion.buckets_processed,
            snapshot.Find("ksir_ingest_buckets_total")->value);
}

TEST_P(TelemetryIntegrationTest, ExpositionsRenderLiveMetrics) {
  const std::string text = service_->MetricsText();
  EXPECT_NE(text.find("ksir_maintainer_bucket_apply_seconds_count"),
            std::string::npos);
  EXPECT_NE(text.find("ksir_service_queries_total 2"), std::string::npos);
  const std::string json = service_->MetricsJsonDump();
  EXPECT_NE(json.find("ksir_planner_plan_seconds"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    MaintenanceThreads, TelemetryIntegrationTest, ::testing::Values(0u, 3u),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "threads" + std::to_string(info.param);
    });

TEST(TelemetryTracingTest, ServiceTracingProducesSpans) {
  TopicModel model = PaperTopicModel();
  ServiceConfig config;
  config.engine = PaperEngineConfig();
  config.num_shards = 2;
  config.telemetry.level = TelemetryLevel::kTracing;
  config.telemetry.trace_sample_period = 1;  // trace every unit
  auto service = KsirService::Create(config, &model);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Append(PaperElements()).ok());
  KsirQuery query;
  query.k = 2;
  query.x = BalancedQueryVector();
  ASSERT_TRUE((*service)->Query(query).ok());
  const std::vector<TraceEvent> events =
      (*service)->telemetry().tracer().Events();
  ASSERT_FALSE(events.empty());
  const auto has = [&](const std::string& name) {
    return std::any_of(events.begin(), events.end(),
                       [&](const TraceEvent& e) { return name == e.name; });
  };
  EXPECT_TRUE(has("maint.bucket_apply"));
  EXPECT_TRUE(has("planner.plan"));
  EXPECT_TRUE(has("planner.fanout"));
  const std::string json = (*service)->TraceJson();
  EXPECT_NE(json.find("maint.bucket_apply"), std::string::npos);
}

// Telemetry off (the default) must keep every histogram silent while the
// stats counters still work — the cost-parity contract of kOff.
TEST(TelemetryOffTest, DefaultLevelRecordsCountersButNoTimings) {
  TopicModel model = PaperTopicModel();
  ServiceConfig config;
  config.engine = PaperEngineConfig();
  config.num_shards = 2;
  auto service = KsirService::Create(config, &model);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Append(PaperElements()).ok());
  KsirQuery query;
  query.k = 2;
  query.x = BalancedQueryVector();
  ASSERT_TRUE((*service)->Query(query).ok());
  const RegistrySnapshot snapshot =
      (*service)->telemetry().registry().Snapshot();
  EXPECT_EQ(snapshot.Find("ksir_ingest_elements_total")->value, 8);
  EXPECT_EQ(
      snapshot.Find("ksir_maintainer_bucket_apply_seconds")->histogram.count,
      0);
  EXPECT_EQ(snapshot.Find("ksir_service_query_seconds")->histogram.count, 0);
  // Stats (and their total_update_ms) keep working without timing.
  EXPECT_GT((*service)->stats().ingestion.total_update_ms, 0.0);
}

}  // namespace
}  // namespace ksir
