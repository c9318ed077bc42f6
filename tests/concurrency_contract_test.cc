// Regression tests for the concurrency contracts the thread-safety
// annotation pass formalised (PR 6). Each test targets one site the
// capability audit called out as load-bearing:
//
//  - ServiceStats accounting: every fact is a registry counter with
//    release increments and acquire reads; admissions are counted before a
//    worker can pop the ticket, and stats() reads completions before
//    submissions, so a concurrent snapshot must never observe a completion
//    without its submission (completions > submitted would mean a counter
//    bumped out of order or read in the wrong order).
//  - Epoch publication: the epoch pointer is a SharedMutex-guarded leaf —
//    concurrent readers of dataset_epoch() must see monotonically
//    non-decreasing ids while SwapDataset storms (a stale or torn pointer
//    load would show up as the id going backwards).
//  - RelaxedAtomic: the documented lock-free escape hatch must still be
//    atomic — relaxed ordering licenses reordering, not lost updates.
//
// These run under the TSan CI job too (suite name is in its ctest regex).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/atomics.h"
#include "rpq/query_parser.h"
#include "service/query_service.h"
#include "test_util.h"

namespace omega {
namespace {

using omega::testing::Qy;

QueryRequest Req(const std::string& text, size_t top_k = 0) {
  QueryRequest request;
  request.query = Qy(text);
  request.top_k = top_k;
  return request;
}

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

// Clients hammer Submit while a poller thread snapshots stats()
// concurrently. Every snapshot must satisfy the accounting invariant
// (completions never exceed admissions, per-class totals never exceed the
// global total); the final snapshot must balance exactly. The broken
// variant — admissions counted after the ticket is visible to a worker, a
// relaxed counter, or stats() reading submissions first — produces
// transient completions > submitted under this load.
TEST(ConcurrencyContractTest, StatsSnapshotsAreConsistentUnderLoad) {
  QueryServiceOptions options;
  options.num_workers = 4;
  options.max_queue = 1024;
  QueryService service(&SmallGraph(), nullptr, options);

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 60;
  std::atomic<bool> stop_polling{false};
  std::atomic<size_t> bad_snapshots{0};
  std::atomic<size_t> client_oks{0};

  std::thread poller([&] {
    while (!stop_polling.load(std::memory_order_relaxed)) {
      const ServiceStats snap = service.stats();
      const uint64_t finished = snap.completed + snap.cancelled +
                                snap.deadline_exceeded + snap.failed;
      if (finished > snap.submitted) ++bad_snapshots;
      uint64_t per_class = 0;
      for (const ClassAggregate& agg : snap.per_class) {
        per_class += agg.queries;
      }
      if (per_class > snap.submitted) ++bad_snapshots;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t r = 0; r < kPerClient; ++r) {
        QueryRequest request =
            Req(c % 2 == 0 ? "(?X) <- (?X, knows, ?Y)"
                           : "(?X, ?Z) <- (?X, knows, ?Y), (?Y, likes, ?Z)");
        // Half the traffic bypasses the cache so the executed path (the
        // heavier stats accumulation) stays busy throughout.
        request.bypass_cache = r % 2 == 0;
        if (service.Execute(std::move(request)).status.ok()) ++client_oks;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  stop_polling.store(true, std::memory_order_relaxed);
  poller.join();

  EXPECT_EQ(bad_snapshots.load(), 0u);
  EXPECT_EQ(client_oks.load(), kClients * kPerClient);

  const ServiceStats final_stats = service.stats();
  EXPECT_EQ(final_stats.submitted, kClients * kPerClient);
  EXPECT_EQ(final_stats.completed, kClients * kPerClient);
  EXPECT_EQ(final_stats.rejected, 0u);
  uint64_t per_class_total = 0;
  for (const ClassAggregate& agg : final_stats.per_class) {
    per_class_total += agg.queries;
  }
  EXPECT_EQ(per_class_total, kClients * kPerClient);
}

// SwapDataset storm vs concurrent dataset_epoch() readers: the published
// epoch id must be monotonically non-decreasing per reader, land exactly on
// kSwaps when the storm ends, and queries admitted throughout must carry a
// valid epoch id. A reader that loaded epoch_ without the shared capability
// could observe the pointer mid-swap (TSan catches the race; this test
// catches the semantic symptom — time going backwards).
TEST(ConcurrencyContractTest, EpochIdsMonotoneUnderSwapStorm) {
  auto make_dataset = [] {
    OntologyBuilder ob;
    Result<Ontology> ontology = std::move(ob).Finalize();
    EXPECT_TRUE(ontology.ok());
    return Dataset::FromParts(omega::testing::MakeGraph({
                                  {"a1", "knows", "a2"},
                                  {"a2", "knows", "a3"},
                              }),
                              std::move(ontology).value());
  };
  std::shared_ptr<const Dataset> dataset = make_dataset();

  QueryServiceOptions options;
  options.num_workers = 2;
  options.max_queue = 256;
  QueryService service(dataset, options);

  constexpr uint64_t kSwaps = 64;
  constexpr size_t kReaders = 3;
  std::atomic<bool> stop_readers{false};
  std::atomic<size_t> regressions{0};
  std::atomic<size_t> swap_failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!stop_readers.load(std::memory_order_relaxed)) {
        const uint64_t now = service.dataset_epoch();
        if (now < last) ++regressions;
        last = now;
        std::this_thread::yield();
      }
    });
  }

  std::thread querier([&] {
    while (!stop_readers.load(std::memory_order_relaxed)) {
      const QueryResponse response =
          service.Execute(Req("(?X) <- (?X, knows, ?Y)"));
      if (response.status.ok() && response.epoch > kSwaps) ++regressions;
      std::this_thread::yield();
    }
  });

  for (uint64_t s = 0; s < kSwaps; ++s) {
    if (!service.SwapDataset(make_dataset()).ok()) ++swap_failures;
  }
  stop_readers.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  querier.join();

  EXPECT_EQ(swap_failures.load(), 0u);
  EXPECT_EQ(regressions.load(), 0u);
  EXPECT_EQ(service.dataset_epoch(), kSwaps);
  EXPECT_EQ(service.stats().dataset_swaps, kSwaps);
}

// The lock-free escape hatch: RelaxedAtomic pins memory_order_relaxed,
// which permits arbitrary reordering but NOT lost updates — concurrent
// FetchAdds must sum exactly. (The is_always_lock_free static_assert in
// atomics.h is the compile-time half of this contract.)
TEST(ConcurrencyContractTest, RelaxedAtomicFetchAddLosesNoUpdates) {
  RelaxedAtomic<uint64_t> counter;
  EXPECT_EQ(counter.Load(), 0u);

  constexpr size_t kThreads = 8;
  constexpr uint64_t kAddsPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) counter.FetchAdd(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Load(), kThreads * kAddsPerThread);

  EXPECT_EQ(counter.Exchange(7), kThreads * kAddsPerThread);
  counter.Store(42);
  EXPECT_EQ(counter.Load(), 42u);
}

// Cancellation flags are RelaxedAtomic<bool> (documented escape in
// cancel.h): a flip on one thread must become visible to token polls on
// another, and tokens must share state with their source after copies.
TEST(ConcurrencyContractTest, CancelFlagVisibleAcrossThreads) {
  CancelSource source;
  CancelToken token = source.token();
  CancelToken copy = token;
  ASSERT_FALSE(token.cancelled());

  std::atomic<bool> seen{false};
  std::thread watcher([&] {
    while (!copy.cancelled()) std::this_thread::yield();
    seen.store(true);
  });
  source.Cancel();
  watcher.join();
  EXPECT_TRUE(seen.load());
  EXPECT_TRUE(token.cancelled());
}

}  // namespace
}  // namespace omega
