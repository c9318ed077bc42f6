// Unit tests for the observability layer: metrics registry instruments and
// their Prometheus text exposition, per-query trace spans, EXPLAIN ANALYZE
// actual-vs-estimated rendering, the service's instrument wiring (with an
// injected private registry), cache-generation reset semantics vs the
// monotonic registry counters, epoch swap/drain accounting, and the
// snapshot layer's open/mmap metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "eval/query_engine.h"
#include "net/ops_routes.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpq/query_parser.h"
#include "service/query_service.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"
#include "store/graph_builder.h"
#include "test_util.h"

namespace omega {
namespace {

using omega::testing::MakeGraph;
using omega::testing::Qy;

// --- MetricsRegistry ---------------------------------------------------------

TEST(ObsMetricsTest, CounterGaugeHistogramBasics) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("requests_total", "help");
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(c->Value(), 5u);
  // Same (name, labels) -> same instrument; different labels -> distinct.
  EXPECT_EQ(registry.GetCounter("requests_total"), c);
  EXPECT_NE(registry.GetCounter("requests_total", "", "k=\"v\""), c);

  Gauge* g = registry.GetGauge("depth");
  g->Set(7);
  g->Add(-3);
  EXPECT_EQ(g->Value(), 4);

  Histogram* h = registry.GetHistogram("lat_us", "", "", {10, 100, 1000});
  h->Observe(5);     // bucket 0 (le=10)
  h->Observe(10);    // inclusive upper bound: still bucket 0
  h->Observe(500);   // bucket 2 (le=1000)
  h->Observe(5000);  // +Inf bucket
  EXPECT_EQ(h->Count(), 4u);
  EXPECT_EQ(h->Sum(), 5515u);
  EXPECT_EQ(h->BucketCount(0), 2u);
  EXPECT_EQ(h->BucketCount(1), 0u);
  EXPECT_EQ(h->BucketCount(2), 1u);
  EXPECT_EQ(h->BucketCount(3), 1u);  // +Inf
}

TEST(ObsMetricsTest, RenderTextPrometheusFormat) {
  MetricsRegistry registry;
  registry.GetCounter("omega_reqs_total", "Requests", "class=\"EXACT\"")
      ->Increment(3);
  registry.GetCounter("omega_reqs_total", "Requests", "class=\"RELAX\"")
      ->Increment();
  registry.GetGauge("omega_depth", "Depth")->Set(2);
  Histogram* h = registry.GetHistogram("omega_lat_us", "Latency", "", {10, 20});
  h->Observe(15);

  const std::string text = registry.RenderText();
  // Families render HELP/TYPE once, then every labelled series.
  EXPECT_NE(text.find("# HELP omega_reqs_total Requests"), std::string::npos);
  EXPECT_NE(text.find("# TYPE omega_reqs_total counter"), std::string::npos);
  EXPECT_NE(text.find("omega_reqs_total{class=\"EXACT\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("omega_reqs_total{class=\"RELAX\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE omega_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("omega_depth 2"), std::string::npos);
  // Histogram buckets are cumulative and end with +Inf == _count.
  EXPECT_NE(text.find("# TYPE omega_lat_us histogram"), std::string::npos);
  EXPECT_NE(text.find("omega_lat_us_bucket{le=\"10\"} 0"), std::string::npos);
  EXPECT_NE(text.find("omega_lat_us_bucket{le=\"20\"} 1"), std::string::npos);
  EXPECT_NE(text.find("omega_lat_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("omega_lat_us_sum 15"), std::string::npos);
  EXPECT_NE(text.find("omega_lat_us_count 1"), std::string::npos);
  // HELP/TYPE appear once per family even with two series.
  EXPECT_EQ(text.find("# HELP omega_reqs_total"),
            text.rfind("# HELP omega_reqs_total"));
}

// --- TraceRecorder -----------------------------------------------------------

TEST(ObsTraceTest, SpansEventsAnnotationsAndJson) {
  TraceRecorder trace;
  const TraceRecorder::SpanId a = trace.Begin("plan");
  trace.Annotate(a, "conjuncts", 2);
  trace.End(a);
  const TraceRecorder::SpanId e = trace.Event("epoch_pin");
  trace.AnnotateStr(e, "class", "EXACT");
  trace.RecordComplete("queue_wait", 125.0);
  EXPECT_EQ(trace.NumSpans(), 3u);

  const std::vector<TraceRecorder::Span> spans = trace.Snapshot();
  EXPECT_EQ(spans[0].name, "plan");
  EXPECT_GE(spans[0].dur_us, 0.0);
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_EQ(spans[0].attrs[0].key, "conjuncts");
  EXPECT_EQ(spans[0].attrs[0].value, 2);
  EXPECT_EQ(spans[1].dur_us, 0.0);  // instant event
  EXPECT_EQ(spans[2].name, "queue_wait");
  EXPECT_DOUBLE_EQ(spans[2].dur_us, 125.0);
  // RecordComplete back-dates the start so the span nests plausibly.
  EXPECT_GE(spans[2].start_us, 0.0);

  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"conjuncts\":2"), std::string::npos);
  EXPECT_NE(json.find("\"class\":\"EXACT\""), std::string::npos);
}

TEST(ObsTraceTest, ScopedSpanIsNullSafe) {
  {
    ScopedSpan span(nullptr, "noop");
    span.Annotate("k", 1);
    span.AnnotateStr("s", "v");
  }
  TraceRecorder trace;
  {
    ScopedSpan span(&trace, "work");
    span.Annotate("k", 1);
  }
  const std::vector<TraceRecorder::Span> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_GE(spans[0].dur_us, 0.0);  // closed by the destructor
}

// --- EXPLAIN ANALYZE ---------------------------------------------------------

/// Hub-skewed graph: one node with a large type fan-in, so the planner's
/// uniform-degree estimate misses the actual cardinality by a wide margin —
/// exactly what EXPLAIN ANALYZE exists to expose.
GraphStore HubGraph() {
  GraphBuilder builder;
  for (int i = 0; i < 150; ++i) {
    (void)builder.AddEdge("item" + std::to_string(i), "type", "Hub");
    if (i % 30 == 0) {
      (void)builder.AddEdge("item" + std::to_string(i), "type", "Rare");
    }
  }
  (void)builder.AddEdge("Hub", "related", "Rare");
  return std::move(builder).Finalize();
}

TEST(ObsExplainAnalyzeTest, ShowsActualVsEstimatedWithRatio) {
  const GraphStore graph = HubGraph();
  QueryEngine engine(&graph, nullptr);
  const Query query = Qy("(?X) <- (Hub, type-, ?X)");

  Result<std::unique_ptr<QueryResultStream>> stream =
      engine.Execute(query, {});
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  QueryAnswer answer;
  size_t answers = 0;
  while ((*stream)->Next(&answer)) ++answers;
  ASSERT_TRUE((*stream)->status().ok());
  EXPECT_EQ(answers, 150u);

  const std::string rendered = (*stream)->ExplainString();
  // Estimates render alongside actuals with the mis-estimate ratio.
  EXPECT_NE(rendered.find("est="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("act=150 rows"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("err="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("popped="), std::string::npos) << rendered;
}

TEST(ObsExplainAnalyzeTest, JoinNodesReportActualRowsToo) {
  const GraphStore graph = HubGraph();
  QueryEngine engine(&graph, nullptr);
  const Query query = Qy("(?X, ?Y) <- (?X, type, ?Z), (?X, type, ?Y)");

  Result<std::unique_ptr<QueryResultStream>> stream =
      engine.Execute(query, {});
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  QueryAnswer answer;
  while ((*stream)->Next(&answer)) {
  }
  ASSERT_TRUE((*stream)->status().ok());

  const std::string rendered = (*stream)->ExplainString();
  EXPECT_NE(rendered.find("RankJoin"), std::string::npos) << rendered;
  // Both the join node and its leaves carry {act=... err=...} blocks.
  EXPECT_NE(rendered.find("live-peak="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("err="), std::string::npos) << rendered;
}

// --- Service wiring ----------------------------------------------------------

const GraphStore& ServiceGraph() {
  static const GraphStore* graph = new GraphStore(MakeGraph({
      {"a1", "knows", "a2"},
      {"a2", "knows", "a3"},
      {"a3", "knows", "a1"},
      {"a1", "likes", "a3"},
  }));
  return *graph;
}

QueryRequest Req(const std::string& text, bool bypass_cache = false) {
  QueryRequest request;
  request.query = Qy(text);
  request.top_k = 10;
  request.bypass_cache = bypass_cache;
  return request;
}

TEST(ObsServiceTest, InjectedRegistryCountsSubmissionsAndCompletions) {
  MetricsRegistry registry;
  QueryServiceOptions options;
  options.num_workers = 2;
  options.metrics = &registry;
  QueryService service(&ServiceGraph(), nullptr, options);

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(
        service.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  }
  EXPECT_TRUE(
      service.Execute(Req("(?X) <- (?X, likes, ?Y)", /*bypass_cache=*/true))
          .status.ok());

  EXPECT_EQ(registry.GetCounter("omega_service_submitted_total")->Value(), 4u);
  EXPECT_EQ(registry
                .GetCounter("omega_service_completed_total", "",
                            "status=\"ok\"")
                ->Value(),
            4u);
  // Two repeats of the cached query hit; the first miss inserted.
  EXPECT_EQ(registry.GetCounter("omega_cache_hits_total")->Value(), 2u);
  EXPECT_GE(registry.GetCounter("omega_cache_misses_total")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("omega_cache_insertions_total")->Value(), 1u);
  // Executed (non-hit) requests land in the per-class latency histogram.
  Histogram* exec = registry.GetHistogram("omega_service_exec_us", "",
                                          "class=\"EXACT\"");
  EXPECT_EQ(exec->Count(), 2u);
  EXPECT_EQ(registry.GetGauge("omega_service_queue_depth")->Value(), 0);
  // The whole wiring shows up in the exposition.
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("omega_service_submitted_total 4"), std::string::npos);
  EXPECT_NE(text.find("omega_service_exec_us_count{class=\"EXACT\"} 2"),
            std::string::npos);
}

// Without an injected registry each service counts into one it owns: two
// live services in one process report only their own traffic, and neither
// writes a serving series into the process-global registry.
TEST(ObsServiceTest, TwoServicesCountOnlyTheirOwnTraffic) {
  QueryServiceOptions options;
  options.num_workers = 1;
  QueryService first(&ServiceGraph(), nullptr, options);
  QueryService second(&ServiceGraph(), nullptr, options);
  ASSERT_NE(first.metrics_registry(), second.metrics_registry());
  ASSERT_NE(first.metrics_registry(), MetricsRegistry::Global());
  ASSERT_NE(second.metrics_registry(), MetricsRegistry::Global());

  EXPECT_TRUE(first.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  EXPECT_TRUE(first.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  EXPECT_TRUE(second
                  .Execute(Req("(?X) <- APPROX (?X, likes, ?Y)",
                               /*bypass_cache=*/true))
                  .status.ok());

  const size_t exact = static_cast<size_t>(QueryClass::kExact);
  const size_t approx = static_cast<size_t>(QueryClass::kApprox);
  const ServiceStats a = first.stats();
  EXPECT_EQ(a.submitted, 2u);
  EXPECT_EQ(a.completed, 2u);
  EXPECT_EQ(a.cache.hits, 1u);
  EXPECT_EQ(a.cache.misses, 1u);
  EXPECT_EQ(a.per_class[exact].queries, 2u);
  EXPECT_EQ(a.per_class[exact].executed, 1u);
  EXPECT_EQ(a.per_class[approx].queries, 0u);
  const ServiceStats b = second.stats();
  EXPECT_EQ(b.submitted, 1u);
  EXPECT_EQ(b.completed, 1u);
  EXPECT_EQ(b.cache.hits + b.cache.misses, 0u);
  EXPECT_EQ(b.per_class[exact].queries, 0u);
  EXPECT_EQ(b.per_class[approx].queries, 1u);
  EXPECT_EQ(b.per_class[approx].executed, 1u);
  EXPECT_GT(b.per_class[approx].eval.tuples_popped, 0u);

  const std::string global = MetricsRegistry::Global()->RenderText();
  EXPECT_EQ(global.find("omega_service_"), std::string::npos) << global;
  EXPECT_EQ(global.find("omega_cache_"), std::string::npos) << global;
}

// S1 regression: cache-generation resets must clear the per-class and
// per-cache counters but leave the registry's monotonic totals untouched.
TEST(ObsServiceTest, CacheGenerationResetKeepsRegistryMonotonic) {
  MetricsRegistry registry;
  QueryServiceOptions options;
  options.num_workers = 1;
  options.metrics = &registry;
  QueryService service(&ServiceGraph(), nullptr, options);

  EXPECT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  EXPECT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  ServiceStats stats = service.stats();
  const size_t exact = static_cast<size_t>(QueryClass::kExact);
  EXPECT_EQ(stats.per_class[exact].cache_hits, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);

  service.InvalidateCache();
  stats = service.stats();
  EXPECT_EQ(stats.per_class[exact].cache_hits, 0u);
  EXPECT_EQ(stats.per_class[exact].cache_lookups, 0u);
  EXPECT_EQ(stats.cache.hits, 0u);
  // The generation reset zeroed the cache's own eviction tally too, but the
  // registry keeps the Clear()-time eviction: Prometheus counters never
  // rewind.
  EXPECT_EQ(stats.cache.evictions, 0u);
  EXPECT_GT(registry.GetCounter("omega_cache_evictions_total")->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("omega_cache_hits_total")->Value(), 1u);
}

TEST(ObsServiceTest, SwapAndDrainAccounting) {
  MetricsRegistry registry;
  QueryServiceOptions options;
  options.num_workers = 1;
  options.metrics = &registry;
  std::shared_ptr<const Dataset> initial = Dataset::FromParts(
      MakeGraph({{"a", "knows", "b"}}), std::nullopt);
  std::shared_ptr<const Dataset> next = Dataset::FromParts(
      MakeGraph({{"x", "knows", "y"}, {"y", "knows", "z"}}), std::nullopt);
  QueryService service(initial, options);

  // No query ever pinned epoch 0, so the swap drains it synchronously.
  ASSERT_TRUE(service.SwapDataset(next).ok());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.dataset_swaps, 1u);
  EXPECT_EQ(stats.epochs_retired, 1u);
  EXPECT_EQ(stats.epochs_drained, 1u);
  EXPECT_GE(stats.swap_ms_total, 0.0);
  EXPECT_GE(stats.drain_ms_total, 0.0);
  EXPECT_GE(stats.drain_ms_max, 0.0);
  EXPECT_EQ(registry.GetCounter("omega_service_swaps_total")->Value(), 1u);
  EXPECT_EQ(registry.GetHistogram("omega_service_swap_us")->Count(), 1u);
  EXPECT_EQ(registry.GetHistogram("omega_service_epoch_drain_us")->Count(),
            1u);

  // A query against the new epoch, then another swap: the pinned epoch 1
  // drains once its last ticket is gone (the worker may hold the ticket a
  // beat after Execute returns, so poll briefly).
  EXPECT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  ASSERT_TRUE(service.SwapDataset(initial).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.stats().epochs_drained < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stats = service.stats();
  EXPECT_EQ(stats.epochs_retired, 2u);
  EXPECT_EQ(stats.epochs_drained, 2u);
}

TEST(ObsServiceTest, PerQueryTraceCoversServiceAndEngine) {
  QueryServiceOptions options;
  options.num_workers = 1;
  QueryService service(&ServiceGraph(), nullptr, options);

  TraceRecorder trace;
  QueryRequest request = Req("(?X) <- (?X, knows, ?Y)", /*bypass_cache=*/true);
  request.trace = &trace;
  ASSERT_TRUE(service.Execute(std::move(request)).status.ok());

  std::vector<std::string> names;
  for (const TraceRecorder::Span& span : trace.Snapshot()) {
    names.push_back(span.name);
  }
  auto has = [&](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has("epoch_pin"));
  EXPECT_TRUE(has("queue_wait"));
  EXPECT_TRUE(has("plan"));     // recorded inside the engine
  EXPECT_TRUE(has("compile"));  // recorded inside the engine
  EXPECT_TRUE(has("execute"));
  // The operator totals were appended after draining.
  bool has_operator_span = false;
  for (const std::string& name : names) {
    if (name.rfind("op ", 0) == 0) has_operator_span = true;
  }
  EXPECT_TRUE(has_operator_span);

  // A cached re-run records the lookup hit instead of an execution.
  TraceRecorder hit_trace;
  QueryRequest repeat = Req("(?X) <- (?X, knows, ?Y)");
  ASSERT_TRUE(service.Execute(std::move(repeat)).status.ok());  // warm
  QueryRequest traced = Req("(?X) <- (?X, knows, ?Y)");
  traced.trace = &hit_trace;
  ASSERT_TRUE(service.Execute(std::move(traced)).status.ok());
  bool saw_hit = false;
  for (const TraceRecorder::Span& span : hit_trace.Snapshot()) {
    if (span.name != "cache_lookup") continue;
    for (const TraceRecorder::Attr& attr : span.attrs) {
      if (attr.key == "hit" && attr.value == 1) saw_hit = true;
    }
  }
  EXPECT_TRUE(saw_hit);
}

// --- Injected observability surfaces ----------------------------------------

// Regression for the shell's `.metrics` / `.trace save` routing: a service
// constructed with injected surfaces must expose exactly those through its
// accessors, one without them owns its registry, and RenderMetrics renders
// the process-wide registry followed by the service's, the way every
// consumer (shell, ops routes) does.
TEST(ObsServiceTest, InjectedSurfacesResolveThroughAccessors) {
  MetricsRegistry registry;
  FlightRecorder recorder;
  EventLog events;
  QueryServiceOptions options;
  options.num_workers = 1;
  options.metrics = &registry;
  options.flight_recorder = &recorder;
  options.events = &events;
  QueryService service(&ServiceGraph(), nullptr, options);

  EXPECT_EQ(service.metrics_registry(), &registry);
  EXPECT_EQ(service.flight_recorder(), &recorder);
  EXPECT_EQ(service.event_log(), &events);
  EXPECT_EQ(EffectiveFlightRecorder(&service), &recorder);

  // No service at all -> just the process-global registry, no recorder.
  EXPECT_EQ(EffectiveFlightRecorder(nullptr), nullptr);
  EXPECT_NE(RenderMetrics(MetricsRegistry::Global(), nullptr)
                .find("omega_process_uptime_seconds"),
            std::string::npos);

  // A service without injected surfaces owns its registry and reports no
  // flight recorder; its series render after the process-wide ones.
  QueryServiceOptions plain;
  plain.num_workers = 1;
  QueryService bare(&ServiceGraph(), nullptr, plain);
  ASSERT_NE(bare.metrics_registry(), nullptr);
  EXPECT_NE(bare.metrics_registry(), MetricsRegistry::Global());
  EXPECT_NE(bare.metrics_registry(), &registry);
  EXPECT_EQ(EffectiveFlightRecorder(&bare), nullptr);
  EXPECT_TRUE(bare.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  const std::string text = RenderMetrics(MetricsRegistry::Global(), &bare);
  const size_t process = text.find("omega_process_uptime_seconds");
  const size_t served = text.find("omega_service_submitted_total 1");
  ASSERT_NE(process, std::string::npos);
  ASSERT_NE(served, std::string::npos) << text;
  EXPECT_LT(process, served);
}

TEST(ObsServiceTest, FlightRecorderCapturesEveryCompletion) {
  FlightRecorder recorder;
  QueryServiceOptions options;
  options.num_workers = 1;
  options.flight_recorder = &recorder;
  QueryService service(&ServiceGraph(), nullptr, options);

  EXPECT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  EXPECT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  EXPECT_TRUE(
      service.Execute(Req("(?X) <- (?X, likes, ?Y)", /*bypass_cache=*/true))
          .status.ok());

  EXPECT_EQ(recorder.recorded_total(), 3u);
  const std::vector<QueryFlightRecord> recent = recorder.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_STREQ(recent[0].query_class, "EXACT");
  EXPECT_EQ(recent[0].status, StatusCode::kOk);
  // The repeat of the first query served from cache, same canonical key.
  EXPECT_TRUE(recent[1].cache_hit);
  EXPECT_EQ(recent[1].key_hash, recent[0].key_hash);
  EXPECT_NE(recent[0].key_hash, 0u);
  // Cache-bypass requests still get a key hash (recorder needs it even
  // though the cache never saw the request).
  EXPECT_FALSE(recent[2].cache_hit);
  EXPECT_NE(recent[2].key_hash, 0u);
  EXPECT_NE(recent[2].key_hash, recent[0].key_hash);
}

TEST(ObsServiceTest, SwapRecordsAnEventInTheInjectedJournal) {
  EventLog events;
  QueryServiceOptions options;
  options.num_workers = 1;
  options.events = &events;
  std::shared_ptr<const Dataset> initial = Dataset::FromParts(
      MakeGraph({{"a", "knows", "b"}}), std::nullopt);
  std::shared_ptr<const Dataset> next = Dataset::FromParts(
      MakeGraph({{"c", "knows", "d"}}), std::nullopt);
  QueryService service(initial, options);
  ASSERT_TRUE(service.SwapDataset(next).ok());

  bool saw_swap = false;
  for (const LogEvent& event : events.Snapshot()) {
    if (event.component == "service" &&
        event.message.find("dataset swap published") != std::string::npos) {
      saw_swap = true;
    }
  }
  EXPECT_TRUE(saw_swap);
}

// --- Snapshot layer ----------------------------------------------------------

TEST(ObsSnapshotTest, OpenCountsAndMmapBytesGauge) {
  MetricsRegistry* const global = MetricsRegistry::Global();
  Counter* const opens =
      global->GetCounter("omega_snapshot_opens_total", "", "outcome=\"ok\"");
  Gauge* const mapped = global->GetGauge("omega_snapshot_mmap_bytes");
  const uint64_t opens_before = opens->Value();
  const int64_t mapped_before = mapped->Value();

  const std::string path = ::testing::TempDir() + "/obs_metrics.snap";
  const GraphStore graph = MakeGraph({{"a", "r", "b"}, {"b", "r", "c"}});
  ASSERT_TRUE(WriteSnapshot(graph, nullptr, path).ok());
  {
    Result<std::shared_ptr<const Dataset>> dataset =
        SnapshotReader::Open(path);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    EXPECT_EQ(opens->Value(), opens_before + 1);
    EXPECT_GT(mapped->Value(), mapped_before);
  }
  // Dropping the dataset unmaps the file and returns the gauge.
  EXPECT_EQ(mapped->Value(), mapped_before);
}

// --- Clock discipline --------------------------------------------------------

TEST(ObsTimerTest, TimerIsMonotonic) {
  // The steady-clock contract itself is a static_assert in common/timer.h;
  // this is just the runtime sanity half.
  const Timer timer;
  const double first = timer.ElapsedUs();
  const double second = timer.ElapsedUs();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
}

}  // namespace
}  // namespace omega
