// Unit tests for the concurrent query service: result-cache behaviour
// (hit / miss / LRU eviction / invalidation / canonical keying), deadline
// expiry both mid-stream and while queued, cooperative cancellation
// including admission-slot release and fast shutdown, admission-control
// rejection, and the per-query-class serving statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "rpq/query_parser.h"
#include "service/query_service.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"
#include "test_util.h"

namespace omega {
namespace {

using std::chrono::milliseconds;
using omega::testing::CanonAnswers;
using omega::testing::Qy;

/// Queries are move-only, so requests are built fresh per submission.
QueryRequest Req(const std::string& text, size_t top_k = 10) {
  QueryRequest request;
  request.query = Qy(text);
  request.top_k = top_k;
  return request;
}

/// Small deterministic graph for functional tests.
const GraphStore& SmallGraph() {
  static const GraphStore* graph = new GraphStore(omega::testing::MakeGraph({
      {"a1", "knows", "a2"},
      {"a2", "knows", "a3"},
      {"a3", "knows", "a1"},
      {"a1", "likes", "a3"},
      {"a2", "likes", "a1"},
      {"b1", "knows", "b2"},
  }));
  return *graph;
}

/// Dense random graph whose APPROX closure query runs for a long time if
/// nobody stops it — the blocker used by the cancellation/deadline tests.
/// Cancellation is what makes a multi-second query safe to use in a test.
const GraphStore& SlowGraph() {
  static const GraphStore* graph = new GraphStore(
      omega::testing::RandomGraph(/*seed=*/7, /*num_nodes=*/500,
                                  {"a", "b"}, /*density=*/4.0));
  return *graph;
}

QueryRequest SlowRequest() {
  QueryRequest request = Req("(?X) <- APPROX (?X, (a.b)+, ?Y)", /*top_k=*/0);
  request.bypass_cache = true;  // top_k=0 drains: forces full evaluation
  return request;
}

// --- ResultCache -------------------------------------------------------------

std::shared_ptr<const CachedResult> Entry(int tag) {
  auto entry = std::make_shared<CachedResult>();
  entry->answers.push_back(QueryAnswer{{static_cast<NodeId>(tag)}, 0});
  return entry;
}

TEST(ResultCacheTest, HitMissAndLruEviction) {
  ResultCache cache(/*capacity=*/2, /*num_shards=*/1);
  EXPECT_EQ(cache.Lookup("k1"), nullptr);
  EXPECT_EQ(cache.Insert("k1", Entry(1)), 0u);
  EXPECT_EQ(cache.Insert("k2", Entry(2)), 0u);
  ASSERT_NE(cache.Lookup("k1"), nullptr);  // refreshes k1: k2 becomes LRU
  EXPECT_EQ(cache.Insert("k3", Entry(3)), 1u);  // evicts k2
  EXPECT_NE(cache.Lookup("k1"), nullptr);
  EXPECT_EQ(cache.Lookup("k2"), nullptr);
  EXPECT_NE(cache.Lookup("k3"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, InsertReplacesExistingKey) {
  ResultCache cache(4, 2);
  EXPECT_EQ(cache.Insert("k", Entry(1)), 0u);
  EXPECT_EQ(cache.Insert("k", Entry(9)), 0u);  // a replacement evicts nothing
  std::shared_ptr<const CachedResult> got = cache.Lookup("k");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->answers[0].bindings[0], 9u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheTest, ClearDropsEverythingAndCountsEvictions) {
  ResultCache cache(8, 4);
  cache.Insert("k1", Entry(1));
  cache.Insert("k2", Entry(2));
  EXPECT_EQ(cache.Clear(), 2u);
  EXPECT_EQ(cache.Lookup("k1"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, EvictedEntryStaysValidForHolders) {
  ResultCache cache(1, 1);
  cache.Insert("k1", Entry(1));
  std::shared_ptr<const CachedResult> held = cache.Lookup("k1");
  cache.Insert("k2", Entry(2));  // evicts k1
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->answers[0].bindings[0], 1u);  // snapshot survives eviction
}

// --- QueryService: results and caching ---------------------------------------

TEST(QueryServiceTest, ExecuteMatchesEngineReference) {
  QueryServiceOptions options;
  options.num_workers = 2;
  QueryService service(&SmallGraph(), nullptr, options);

  const Query query = Qy("(?X, ?Z) <- (?X, knows, ?Y), (?Y, likes, ?Z)");
  QueryRequest request;
  request.query = Clone(query);
  request.top_k = 0;
  QueryResponse response = service.Execute(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.exhausted);
  ASSERT_EQ(response.head, (std::vector<std::string>{"X", "Z"}));

  QueryEngine engine(&SmallGraph(), nullptr);
  Result<std::vector<QueryAnswer>> reference = engine.ExecuteTopK(query, 0);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(CanonAnswers(response.answers), CanonAnswers(*reference));
  EXPECT_FALSE(response.answers.empty());
}

TEST(QueryServiceTest, RepeatedQueryHitsCache) {
  QueryServiceOptions options;
  options.num_workers = 1;
  QueryService service(&SmallGraph(), nullptr, options);

  QueryResponse miss = service.Execute(Req("(?X) <- (?X, knows, ?Y)"));
  ASSERT_TRUE(miss.status.ok());
  EXPECT_FALSE(miss.cache_hit);

  QueryResponse hit = service.Execute(Req("(?X) <- (?X, knows, ?Y)"));
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(CanonAnswers(hit.answers), CanonAnswers(miss.answers));
  EXPECT_EQ(hit.exec_ms, 0.0);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  // One logical miss: the worker's re-probe of the same request does not
  // double-count.
  EXPECT_EQ(stats.cache.misses, 1u);
}

TEST(QueryServiceTest, CacheKeysOnCanonicalizedVariableNames) {
  QueryService service(&SmallGraph(), nullptr, {});
  ASSERT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());

  // Same query with renamed variables must hit the same entry — but the
  // response's column labels come from the query as submitted, not from
  // the query that populated the cache.
  QueryResponse renamed =
      service.Execute(Req("(?Foo) <- (?Foo, knows, ?Bar)"));
  ASSERT_TRUE(renamed.status.ok());
  EXPECT_TRUE(renamed.cache_hit);
  EXPECT_EQ(renamed.head, (std::vector<std::string>{"Foo"}));

  // A different top_k is a different artifact.
  EXPECT_FALSE(
      service.Execute(Req("(?X) <- (?X, knows, ?Y)", /*top_k=*/3)).cache_hit);
}

TEST(QueryServiceTest, BypassCacheSkipsLookupAndFill) {
  QueryService service(&SmallGraph(), nullptr, {});
  for (int i = 0; i < 2; ++i) {
    QueryRequest request = Req("(?X) <- (?X, likes, ?Y)");
    request.bypass_cache = true;
    EXPECT_FALSE(service.Execute(std::move(request)).cache_hit);
  }
  EXPECT_EQ(service.stats().cache.hits, 0u);
  EXPECT_EQ(service.stats().cache.entries, 0u);
}

TEST(QueryServiceTest, InvalidateCacheForcesReexecution) {
  QueryService service(&SmallGraph(), nullptr, {});
  ASSERT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  ASSERT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).cache_hit);
  service.InvalidateCache();
  EXPECT_FALSE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).cache_hit);
}

TEST(QueryServiceTest, CacheDisabledWhenZeroEntries) {
  QueryServiceOptions options;
  options.cache_entries = 0;
  QueryService service(&SmallGraph(), nullptr, options);
  EXPECT_FALSE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).cache_hit);
  EXPECT_FALSE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).cache_hit);
}

TEST(QueryServiceTest, InvalidQueryRejectedAtSubmit) {
  QueryService service(&SmallGraph(), nullptr, {});
  QueryRequest request;
  request.query.head = {"X"};  // no conjuncts
  Result<std::shared_ptr<QueryTicket>> ticket =
      service.Submit(std::move(request));
  EXPECT_FALSE(ticket.ok());
  EXPECT_TRUE(ticket.status().IsInvalidArgument());
}

// --- QueryService: dataset hot-swap ------------------------------------------

/// A second universe over the same vocabulary but different shape: the same
/// query text yields a different answer multiset than on SmallGraph().
GraphStore OtherGraph() {
  return omega::testing::MakeGraph({
      {"c1", "knows", "c2"},
      {"c2", "knows", "c1"},
      {"c1", "likes", "c2"},
  });
}

TEST(QueryServiceTest, SwapDatasetServesTheNewDataset) {
  QueryServiceOptions options;
  options.num_workers = 1;
  QueryService service(&SmallGraph(), nullptr, options);
  EXPECT_EQ(service.dataset_epoch(), 0u);

  QueryResponse before = service.Execute(Req("(?X) <- (?X, knows, ?Y)", 0));
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.epoch, 0u);

  std::shared_ptr<const Dataset> next =
      Dataset::FromParts(OtherGraph(), std::nullopt);
  ASSERT_TRUE(service.SwapDataset(next).ok());
  EXPECT_EQ(service.dataset_epoch(), 1u);

  QueryResponse after = service.Execute(Req("(?X) <- (?X, knows, ?Y)", 0));
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.epoch, 1u);
  EXPECT_FALSE(after.cache_hit);  // the new epoch's cache starts empty

  QueryEngine reference(&next->graph(), nullptr);
  Result<std::vector<QueryAnswer>> expected =
      reference.ExecuteTopK(Qy("(?X) <- (?X, knows, ?Y)"), 0);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(CanonAnswers(after.answers), CanonAnswers(*expected));
  EXPECT_NE(CanonAnswers(after.answers), CanonAnswers(before.answers));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.dataset_epoch, 1u);
  EXPECT_EQ(stats.dataset_swaps, 1u);
  EXPECT_FALSE(service.SwapDataset(nullptr).ok());
}

TEST(QueryServiceTest, SwapInvalidatesCachedResultsAtomically) {
  QueryServiceOptions options;
  options.num_workers = 1;
  QueryService service(&SmallGraph(), nullptr, options);
  ASSERT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)", 0)).status.ok());
  ASSERT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)", 0)).cache_hit);

  ASSERT_TRUE(
      service.SwapDataset(Dataset::FromParts(OtherGraph(), std::nullopt))
          .ok());
  QueryResponse fresh = service.Execute(Req("(?X) <- (?X, knows, ?Y)", 0));
  ASSERT_TRUE(fresh.status.ok());
  // A pre-swap cache entry must never satisfy a post-swap admission.
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_EQ(fresh.epoch, 1u);
  EXPECT_EQ(fresh.answers.size(), 2u);  // c1->c2, c2->c1
}

TEST(QueryServiceTest, SwapToSnapshotBackedDataset) {
  // The swapped-in dataset comes from a binary snapshot: the service then
  // serves queries over borrowed mmap arrays, which must be answer-identical
  // to serving the in-memory build.
  GraphStore other = OtherGraph();
  const std::string path = ::testing::TempDir() + "/swap_target.snap";
  ASSERT_TRUE(WriteSnapshot(other, nullptr, path).ok());
  Result<std::shared_ptr<const Dataset>> mapped = SnapshotReader::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  QueryServiceOptions options;
  options.num_workers = 2;
  QueryService service(&SmallGraph(), nullptr, options);
  ASSERT_TRUE(service.SwapDataset(*mapped).ok());

  QueryResponse response = service.Execute(Req("(?X) <- (?X, knows, ?Y)", 0));
  ASSERT_TRUE(response.status.ok());
  QueryEngine reference(&other, nullptr);
  Result<std::vector<QueryAnswer>> expected =
      reference.ExecuteTopK(Qy("(?X) <- (?X, knows, ?Y)"), 0);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(CanonAnswers(response.answers), CanonAnswers(*expected));
}

// A ticket may pin a retired epoch past its service's lifetime. The epoch's
// drain is then recorded into the registry the service owned, which the
// epoch co-owns — it must still be alive (ASan) and take the observation.
TEST(QueryServiceTest, RetiredEpochDrainsAfterServiceIsDestroyed) {
  EventLog events;
  std::shared_ptr<QueryTicket> pinned;
  MetricsRegistry* registry = nullptr;
  {
    QueryServiceOptions options;
    options.num_workers = 1;
    options.events = &events;
    QueryService service(Dataset::FromParts(OtherGraph(), std::nullopt),
                         options);
    registry = service.metrics_registry();
    Result<std::shared_ptr<QueryTicket>> ticket =
        service.Submit(Req("(?X) <- (?X, knows, ?Y)"));
    ASSERT_TRUE(ticket.ok());
    pinned = *ticket;
    ASSERT_TRUE(pinned->Wait().status.ok());
    ASSERT_TRUE(
        service.SwapDataset(Dataset::FromParts(OtherGraph(), std::nullopt))
            .ok());
    EXPECT_EQ(service.stats().epochs_retired, 1u);
    EXPECT_EQ(service.stats().epochs_drained, 0u);  // the ticket pins it
  }
  // The service is gone; its registry lives on in the pinned epoch.
  Histogram* drain = registry->GetHistogram("omega_service_epoch_drain_us");
  EXPECT_EQ(drain->Count(), 0u);
  EXPECT_EQ(registry->GetCounter("omega_service_swaps_total")->Value(), 1u);
  pinned.reset();  // last pin: the drain lands, then the registry dies
  bool drained = false;
  for (const LogEvent& event : events.Snapshot()) {
    if (event.message.find("epoch 0 drained") != std::string::npos) {
      drained = true;
    }
  }
  EXPECT_TRUE(drained);
}

// stats() reads no lock, so its snapshot is consistent only because it
// reads completions and drains before submissions and swaps. Land a whole
// request and a whole swap between those reads: a snapshot that read them
// in the other order would show a completion without its submission and a
// drain without its swap.
TEST(QueryServiceTest, StatsReadsCompletionsBeforeSubmissions) {
  QueryServiceOptions options;
  options.num_workers = 1;
  options.cache_entries = 0;
  static QueryService* service = nullptr;
  static bool armed = false;
  QueryService local(Dataset::FromParts(OtherGraph(), std::nullopt), options);
  service = &local;
  ASSERT_TRUE(service->Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());

  QueryService::stats_read_gap_hook = [] {
    if (!armed) return;  // SwapDataset's own registry read comes back here
    armed = false;
    ASSERT_TRUE(service->Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
    ASSERT_TRUE(
        service->SwapDataset(Dataset::FromParts(OtherGraph(), std::nullopt))
            .ok());
    // The worker drops its pin on epoch 0 just after answering.
    const Histogram* drains = service->metrics_registry()->GetHistogram(
        "omega_service_epoch_drain_us");
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (drains->Count() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_EQ(drains->Count(), 1u);
  };
  armed = true;
  const ServiceStats stats = service->stats();
  QueryService::stats_read_gap_hook = nullptr;
  ASSERT_FALSE(armed);

  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.epochs_drained, 0u);
  EXPECT_EQ(stats.epochs_retired, 1u);
  const ServiceStats after = service->stats();
  EXPECT_EQ(after.completed, 2u);
  EXPECT_EQ(after.epochs_drained, 1u);
  service = nullptr;
}

TEST(QueryServiceTest, ServiceOwnsDatasetPassedAtConstruction) {
  std::shared_ptr<const Dataset> dataset =
      Dataset::FromParts(OtherGraph(), std::nullopt);
  QueryServiceOptions options;
  options.num_workers = 1;
  QueryService service(dataset, options);
  const Dataset* raw = dataset.get();
  dataset.reset();  // the service keeps it alive through epoch 0
  ASSERT_NE(raw, nullptr);
  QueryResponse response = service.Execute(Req("(?X) <- (?X, likes, ?Y)", 0));
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.answers.size(), 1u);
}

TEST(QueryServiceTest, InFlightQueryDrainsOnItsAdmissionEpoch) {
  QueryServiceOptions options;
  options.num_workers = 1;
  QueryService service(&SlowGraph(), nullptr, options);

  Result<std::shared_ptr<QueryTicket>> slow = service.Submit(SlowRequest());
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(
      service.SwapDataset(Dataset::FromParts(OtherGraph(), std::nullopt))
          .ok());
  // The in-flight query still runs (and is cancelled) on epoch 0.
  (*slow)->Cancel();
  const QueryResponse& cancelled = (*slow)->Wait();
  EXPECT_TRUE(cancelled.status.IsCancelled());
  EXPECT_EQ(cancelled.epoch, 0u);

  QueryResponse fresh = service.Execute(Req("(?X) <- (?X, knows, ?Y)", 0));
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_EQ(fresh.epoch, 1u);
}

// --- QueryService: cache-generation accounting (InvalidateCache) -------------

TEST(QueryServiceTest, InvalidateCacheResetsCacheGenerationCounters) {
  QueryServiceOptions options;
  options.num_workers = 1;
  QueryService service(&SmallGraph(), nullptr, options);

  ASSERT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  ASSERT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).cache_hit);
  {
    const ServiceStats stats = service.stats();
    const ClassAggregate& exact =
        stats.per_class[static_cast<size_t>(QueryClass::kExact)];
    EXPECT_EQ(exact.cache_hits, 1u);
    EXPECT_EQ(exact.cache_lookups, 2u);
    EXPECT_DOUBLE_EQ(exact.CacheHitRate(), 0.5);
    EXPECT_EQ(stats.cache.hits, 1u);
  }

  service.InvalidateCache();
  {
    // The generation counters restart: hit rate describes the (empty)
    // current cache, not the one that was just dropped.
    const ServiceStats stats = service.stats();
    const ClassAggregate& exact =
        stats.per_class[static_cast<size_t>(QueryClass::kExact)];
    EXPECT_EQ(exact.cache_hits, 0u);
    EXPECT_EQ(exact.cache_lookups, 0u);
    EXPECT_DOUBLE_EQ(exact.CacheHitRate(), 0.0);
    EXPECT_EQ(stats.cache.hits, 0u);
    EXPECT_EQ(stats.cache.misses, 0u);
    // Lifetime counters are NOT generation-scoped and survive.
    EXPECT_EQ(exact.queries, 2u);
    EXPECT_EQ(stats.completed, 2u);
  }

  // The next run re-executes (miss) then hits: a clean new generation.
  EXPECT_FALSE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).cache_hit);
  EXPECT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).cache_hit);
  const ClassAggregate& exact =
      service.stats().per_class[static_cast<size_t>(QueryClass::kExact)];
  EXPECT_EQ(exact.cache_hits, 1u);
  EXPECT_EQ(exact.cache_lookups, 2u);
}

TEST(QueryServiceTest, BypassedRequestsDoNotCountAsCacheLookups) {
  QueryServiceOptions options;
  options.num_workers = 1;
  QueryService service(&SmallGraph(), nullptr, options);
  QueryRequest request = Req("(?X) <- (?X, likes, ?Y)");
  request.bypass_cache = true;
  ASSERT_TRUE(service.Execute(std::move(request)).status.ok());
  const ClassAggregate& exact =
      service.stats().per_class[static_cast<size_t>(QueryClass::kExact)];
  EXPECT_EQ(exact.queries, 1u);
  EXPECT_EQ(exact.cache_lookups, 0u);
  EXPECT_DOUBLE_EQ(exact.CacheHitRate(), 0.0);
}

// --- QueryService: deadlines and cancellation --------------------------------

TEST(QueryServiceTest, DeadlineExpiresMidStream) {
  QueryServiceOptions options;
  options.num_workers = 1;
  QueryService service(&SlowGraph(), nullptr, options);

  QueryRequest request = SlowRequest();
  request.deadline = milliseconds(5);
  QueryResponse response = service.Execute(std::move(request));
  EXPECT_TRUE(response.status.IsDeadlineExceeded())
      << response.status.ToString();
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);
}

TEST(QueryServiceTest, DefaultDeadlineApplies) {
  QueryServiceOptions options;
  options.num_workers = 1;
  options.default_deadline = milliseconds(5);
  QueryService service(&SlowGraph(), nullptr, options);
  QueryResponse response = service.Execute(SlowRequest());
  EXPECT_TRUE(response.status.IsDeadlineExceeded())
      << response.status.ToString();
}

TEST(QueryServiceTest, DeadlineCountsQueueWait) {
  QueryServiceOptions options;
  options.num_workers = 1;
  QueryService service(&SlowGraph(), nullptr, options);

  // Occupy the only worker, then queue a request whose deadline expires
  // while it waits: it must fail without ever executing.
  Result<std::shared_ptr<QueryTicket>> blocker = service.Submit(SlowRequest());
  ASSERT_TRUE(blocker.ok());
  QueryRequest victim_request = Req("(?X) <- (?X, a, ?Y)");
  victim_request.deadline = milliseconds(20);
  victim_request.bypass_cache = true;
  Result<std::shared_ptr<QueryTicket>> victim =
      service.Submit(std::move(victim_request));
  ASSERT_TRUE(victim.ok());

  // Let the victim's deadline lapse while it sits in the queue, then free
  // the worker: the victim must be completed without ever executing.
  std::this_thread::sleep_for(milliseconds(60));
  (*blocker)->Cancel();
  EXPECT_TRUE((*blocker)->Wait().status.IsCancelled());

  const QueryResponse& response = (*victim)->Wait();
  EXPECT_TRUE(response.status.IsDeadlineExceeded())
      << response.status.ToString();
  EXPECT_EQ(response.exec_ms, 0.0);  // never reached the engine
}

TEST(QueryServiceTest, CancelMidExecution) {
  QueryServiceOptions options;
  options.num_workers = 1;
  QueryService service(&SlowGraph(), nullptr, options);
  Result<std::shared_ptr<QueryTicket>> ticket = service.Submit(SlowRequest());
  ASSERT_TRUE(ticket.ok());
  (*ticket)->Cancel();
  const QueryResponse& response = (*ticket)->Wait();
  EXPECT_TRUE(response.status.IsCancelled()) << response.status.ToString();
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(QueryServiceTest, CancelReleasesAdmissionSlot) {
  QueryServiceOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  options.cache_entries = 0;
  QueryService service(&SlowGraph(), nullptr, options);

  // Occupy the worker and wait until the queue has drained into it.
  Result<std::shared_ptr<QueryTicket>> blocker = service.Submit(SlowRequest());
  ASSERT_TRUE(blocker.ok());
  while (service.queue_depth() > 0) {
    std::this_thread::yield();
  }

  Result<std::shared_ptr<QueryTicket>> queued = service.Submit(SlowRequest());
  ASSERT_TRUE(queued.ok());  // fills the only admission slot

  Result<std::shared_ptr<QueryTicket>> overflow =
      service.Submit(SlowRequest());
  ASSERT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsResourceExhausted());
  // Admission failure names the queue, not the evaluator's tuple budget.
  EXPECT_NE(overflow.status().message().find("admission queue"),
            std::string::npos);
  EXPECT_EQ(service.stats().rejected, 1u);

  // Cancelling the queued request releases its slot: the next submission is
  // admitted (the full-queue path purges cancelled tickets).
  (*queued)->Cancel();
  Result<std::shared_ptr<QueryTicket>> retry = service.Submit(SlowRequest());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE((*queued)->Wait().status.IsCancelled());

  (*blocker)->Cancel();
  (*retry)->Cancel();
  (*blocker)->Wait();
  (*retry)->Wait();
}

TEST(QueryServiceTest, ExpiredQueuedDeadlineReleasesAdmissionSlot) {
  QueryServiceOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  options.cache_entries = 0;
  QueryService service(&SlowGraph(), nullptr, options);

  Result<std::shared_ptr<QueryTicket>> blocker = service.Submit(SlowRequest());
  ASSERT_TRUE(blocker.ok());
  while (service.queue_depth() > 0) {
    std::this_thread::yield();
  }

  // Fill the only slot with a request whose deadline lapses while queued:
  // it is provably dead, so the next full-queue submission reclaims its
  // slot instead of being rejected.
  QueryRequest doomed = SlowRequest();
  doomed.deadline = milliseconds(5);
  Result<std::shared_ptr<QueryTicket>> queued =
      service.Submit(std::move(doomed));
  ASSERT_TRUE(queued.ok());
  std::this_thread::sleep_for(milliseconds(30));

  Result<std::shared_ptr<QueryTicket>> retry = service.Submit(SlowRequest());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE((*queued)->Wait().status.IsDeadlineExceeded());

  (*blocker)->Cancel();
  (*retry)->Cancel();
  (*blocker)->Wait();
  (*retry)->Wait();
}

TEST(QueryServiceTest, DestructorCancelsInFlightAndQueued) {
  auto service = std::make_unique<QueryService>(&SlowGraph(), nullptr, [] {
    QueryServiceOptions options;
    options.num_workers = 1;
    return options;
  }());
  Result<std::shared_ptr<QueryTicket>> running =
      service->Submit(SlowRequest());
  Result<std::shared_ptr<QueryTicket>> queued = service->Submit(SlowRequest());
  ASSERT_TRUE(running.ok());
  ASSERT_TRUE(queued.ok());
  service.reset();  // must not block on the multi-second blocker
  EXPECT_TRUE((*running)->Wait().status.IsCancelled());
  EXPECT_TRUE((*queued)->Wait().status.IsCancelled());
}

// --- QueryService: statistics ------------------------------------------------

TEST(QueryServiceTest, PerClassAggregatesReportServingMetrics) {
  QueryService service(&SmallGraph(), nullptr, {});

  const std::string exact = "(?X, ?Z) <- (?X, knows, ?Y), (?Y, likes, ?Z)";
  ASSERT_TRUE(service.Execute(Req(exact, 0)).status.ok());
  ASSERT_TRUE(service.Execute(Req(exact, 0)).status.ok());  // cache hit

  ASSERT_TRUE(
      service.Execute(Req("(?X) <- APPROX (?X, knows.knows, ?Y)")).status.ok());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);

  const ClassAggregate& ex =
      stats.per_class[static_cast<size_t>(QueryClass::kExact)];
  EXPECT_EQ(ex.queries, 2u);
  EXPECT_EQ(ex.cache_hits, 1u);
  EXPECT_DOUBLE_EQ(ex.CacheHitRate(), 0.5);
  EXPECT_GT(ex.eval.tuples_popped, 0u);
  // The two-conjunct query ran through a rank join: its operator counters
  // must surface in the aggregate.
  EXPECT_GT(ex.join_rows, 0u);

  const ClassAggregate& ap =
      stats.per_class[static_cast<size_t>(QueryClass::kApprox)];
  EXPECT_EQ(ap.queries, 1u);
  EXPECT_EQ(ap.cache_hits, 0u);
  EXPECT_GT(ap.exec_ms, 0.0);

  EXPECT_EQ(
      stats.per_class[static_cast<size_t>(QueryClass::kRelax)].queries, 0u);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(QueryServiceTest, NothingInFlightOnceEveryResponseIsBack) {
  // Cleared after the service below is destroyed: its workers have joined,
  // so none can still be reading the hook.
  struct HookReset {
    ~HookReset() { QueryService::response_published_hook = nullptr; }
  } reset;
  QueryServiceOptions options;
  options.num_workers = 4;
  QueryService service(&SmallGraph(), nullptr, options);
  // Hold each worker just after its client has the response: a worker that
  // left the running set only after publishing would still count as in
  // flight when the client reads the stats below.
  QueryService::response_published_hook = [] {
    std::this_thread::sleep_for(milliseconds(5));
  };
  for (int i = 0; i < 12; ++i) {
    QueryRequest request = Req("(?X, ?Y) <- (?X, knows+, ?Y)", 0);
    request.bypass_cache = true;  // every request runs on a worker
    ASSERT_TRUE(service.Execute(std::move(request)).status.ok());
    EXPECT_EQ(service.stats().in_flight, 0u) << "after request " << i;
    EXPECT_EQ(service.metrics_registry()
                  ->GetGauge("omega_service_in_flight")
                  ->Value(),
              0)
        << "after request " << i;
  }
}

TEST(QueryClassTest, ClassifiesByFlexibleModes) {
  EXPECT_EQ(ClassifyQuery(Qy("(?X) <- (?X, a, ?Y)")), QueryClass::kExact);
  EXPECT_EQ(ClassifyQuery(Qy("(?X) <- APPROX (?X, a, ?Y)")),
            QueryClass::kApprox);
  EXPECT_EQ(ClassifyQuery(Qy("(?X) <- RELAX (?X, a, ?Y)")),
            QueryClass::kRelax);
  EXPECT_EQ(ClassifyQuery(
                Qy("(?X) <- APPROX (?X, a, ?Y), RELAX (?Y, b, ?Z)")),
            QueryClass::kMixed);
  EXPECT_STREQ(QueryClassToString(QueryClass::kMixed), "MIXED");
}

}  // namespace
}  // namespace omega
