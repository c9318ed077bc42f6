// Concurrency stress test: N client threads fire M mixed queries (exact,
// APPROX, RELAX, multi-conjunct joins) at one QueryService sharing a single
// frozen GraphStore + BoundOntology, and every response's answer multiset
// must match the single-threaded engine reference computed up front. Runs
// both cached and cache-bypassing submissions so repeated queries exercise
// the cache path and fresh evaluations race on the shared store. This is
// the test the ThreadSanitizer CI job exists for: a mutable-cache or
// lazy-init regression in a const read path (like the BoundOntology label
// down-set cache this PR removed) shows up here as a data race.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rpq/query_parser.h"
#include "service/query_service.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"
#include "test_util.h"

namespace omega {
namespace {

struct Fixture {
  GraphStore graph;
  Ontology ontology;
};

/// Career-path-flavoured universe with a property hierarchy (for RELAX),
/// type edges, and enough fan-out that APPROX closures do real work.
Fixture StressFixture() {
  Fixture fx;
  OntologyBuilder ob;
  EXPECT_TRUE(ob.AddSubproperty("worksAt", "affiliatedWith").ok());
  EXPECT_TRUE(ob.AddSubproperty("studiesAt", "affiliatedWith").ok());
  EXPECT_TRUE(ob.AddSubclass("University", "Institution").ok());
  EXPECT_TRUE(ob.AddSubclass("Company", "Institution").ok());
  Result<Ontology> o = std::move(ob).Finalize();
  EXPECT_TRUE(o.ok());
  fx.ontology = std::move(o).value();

  GraphBuilder builder;
  Rng rng(13);
  constexpr size_t kPeople = 60;
  constexpr size_t kOrgs = 12;
  std::vector<std::string> people;
  std::vector<std::string> orgs;
  for (size_t i = 0; i < kPeople; ++i) {
    people.push_back("p" + std::to_string(i));
  }
  for (size_t i = 0; i < kOrgs; ++i) {
    orgs.push_back("o" + std::to_string(i));
    (void)builder.AddEdge(orgs.back(), "type",
                          i % 2 == 0 ? "University" : "Company");
  }
  for (size_t i = 0; i < kPeople; ++i) {
    (void)builder.AddEdge(people[i], "knows",
                          people[rng.NextBounded(kPeople)]);
    (void)builder.AddEdge(people[i], "knows",
                          people[rng.NextBounded(kPeople)]);
    (void)builder.AddEdge(people[i],
                          rng.NextBounded(2) == 0 ? "worksAt" : "studiesAt",
                          orgs[rng.NextBounded(kOrgs)]);
  }
  fx.graph = std::move(builder).Finalize();
  return fx;
}

using omega::testing::CanonAnswers;
using omega::testing::Qy;

TEST(ServiceStressTest, ConcurrentMixedWorkloadMatchesReference) {
  const Fixture fx = StressFixture();

  // Mixed workload: single- and multi-conjunct, all three modes, a
  // constant endpoint, and a shared-variable join. top_k = 0 everywhere so
  // the comparison is over complete answer multisets (a top-k cut could
  // legitimately differ at equal-distance boundaries).
  std::vector<Query> workload;
  for (const char* text : {
           "(?X) <- (?X, knows, ?Y)",
           "(?X, ?Z) <- (?X, knows, ?Y), (?Y, knows, ?Z)",
           "(?X, ?O) <- (?X, knows, ?Y), (?Y, worksAt, ?O)",
           "(?X) <- APPROX (?X, knows.worksAt, ?Y)",
           "(?X) <- APPROX (?X, knows.knows.knows, ?Y)",
           "(?X) <- RELAX (?X, worksAt, ?Y)",
           "(?X) <- RELAX (?X, worksAt.type, ?Y)",
           // A RELAX conjunct traversing a label with no ontology property
           // (knows): under entailment matching this resolves the label's
           // down-set — the exact path where a lazily-inserted const-side
           // cache would race across worker threads.
           "(?X) <- RELAX (?X, knows.worksAt, ?Y)",
           "(?X, ?Y) <- (?X, knows, ?Y), RELAX (?X, studiesAt, ?O)",
           "(?X) <- (o0, type, ?X)",
           "(?X) <- APPROX (?X, worksAt, ?Y), (?X, knows, ?Z)",
       }) {
    workload.push_back(Qy(text));
  }

  // Single-threaded reference, computed before any concurrency exists.
  QueryEngine engine(&fx.graph, &fx.ontology);
  std::vector<std::vector<std::pair<std::vector<NodeId>, Cost>>> reference;
  for (const Query& query : workload) {
    Result<std::vector<QueryAnswer>> answers = engine.ExecuteTopK(query, 0);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    reference.push_back(CanonAnswers(*answers));
    ASSERT_FALSE(reference.back().empty()) << query.ToString();
  }

  QueryServiceOptions options;
  options.num_workers = 4;
  options.max_queue = 256;
  QueryService service(&fx.graph, &fx.ontology, options);

  constexpr size_t kClients = 8;
  constexpr size_t kRequestsPerClient = 30;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        const size_t qi = (c * 7 + r * 3) % workload.size();
        QueryRequest request;
        request.query = Clone(workload[qi]);
        request.top_k = 0;
        // Every third request bypasses the cache so fresh evaluations keep
        // racing on the shared store even once everything is cached.
        request.bypass_cache = (c + r) % 3 == 0;
        const QueryResponse response = service.Execute(std::move(request));
        if (!response.status.ok()) {
          ++failures;
          continue;
        }
        if (CanonAnswers(response.answers) != reference[qi]) ++mismatches;
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.completed, kClients * kRequestsPerClient);
  EXPECT_GT(stats.cache.hits, 0u);
  // All four classes ran (the workload includes a mixed APPROX+RELAX
  // query via per-conjunct modes only when both appear; here: no mixed).
  EXPECT_GT(stats.per_class[static_cast<size_t>(QueryClass::kExact)].queries,
            0u);
  EXPECT_GT(stats.per_class[static_cast<size_t>(QueryClass::kApprox)].queries,
            0u);
  EXPECT_GT(stats.per_class[static_cast<size_t>(QueryClass::kRelax)].queries,
            0u);
}

TEST(ServiceStressTest, ConcurrentRelaxSharesTheBoundOntologyReadOnly) {
  // Every request re-evaluates (cache disabled) the same RELAX query whose
  // automaton, under entailment matching, resolves the down-set of a label
  // with no ontology property (knows) — the path where BoundOntology once
  // lazily filled a mutable cache behind its const API. All workers resolve
  // it at once; under TSan a reintroduced lazy insert fails here reliably.
  const Fixture fx = StressFixture();
  QueryServiceOptions options;
  options.num_workers = 8;
  options.max_queue = 256;
  options.cache_entries = 0;
  QueryService service(&fx.graph, &fx.ontology, options);

  QueryEngine engine(&fx.graph, &fx.ontology);
  const Query relax = Qy("(?X) <- RELAX (?X, knows.worksAt, ?Y)");
  Result<std::vector<QueryAnswer>> expected = engine.ExecuteTopK(relax, 0);
  ASSERT_TRUE(expected.ok());
  const auto reference = CanonAnswers(*expected);
  ASSERT_FALSE(reference.empty());

  std::atomic<size_t> bad{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 8; ++c) {
    clients.emplace_back([&] {
      for (size_t r = 0; r < 12; ++r) {
        QueryRequest request;
        request.query = Clone(relax);
        request.top_k = 0;
        const QueryResponse response = service.Execute(std::move(request));
        if (!response.status.ok() ||
            CanonAnswers(response.answers) != reference) {
          ++bad;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(bad.load(), 0u);
}

/// Builds a StressFixture-shaped universe whose random wiring differs by
/// seed: the same query text yields different answer multisets per variant.
Fixture StressVariant(uint64_t seed) {
  Fixture fx;
  OntologyBuilder ob;
  EXPECT_TRUE(ob.AddSubproperty("worksAt", "affiliatedWith").ok());
  EXPECT_TRUE(ob.AddSubproperty("studiesAt", "affiliatedWith").ok());
  EXPECT_TRUE(ob.AddSubclass("University", "Institution").ok());
  EXPECT_TRUE(ob.AddSubclass("Company", "Institution").ok());
  Result<Ontology> o = std::move(ob).Finalize();
  EXPECT_TRUE(o.ok());
  fx.ontology = std::move(o).value();

  GraphBuilder builder;
  Rng rng(seed);
  // Population sizes depend on the seed so that *every* workload query —
  // including "all ?X with a knows edge" — answers differently per variant;
  // the hammer clients rely on the references being pairwise distinct.
  const size_t kPeople = 40 + seed % 13;
  const size_t kOrgs = 8 + seed % 5;
  std::vector<std::string> people, orgs;
  for (size_t i = 0; i < kPeople; ++i) {
    people.push_back("p" + std::to_string(i));
  }
  for (size_t i = 0; i < kOrgs; ++i) {
    orgs.push_back("o" + std::to_string(i));
    (void)builder.AddEdge(orgs.back(), "type",
                          i % 2 == 0 ? "University" : "Company");
  }
  for (size_t i = 0; i < kPeople; ++i) {
    (void)builder.AddEdge(people[i], "knows",
                          people[rng.NextBounded(kPeople)]);
    (void)builder.AddEdge(people[i], "knows",
                          people[rng.NextBounded(kPeople)]);
    (void)builder.AddEdge(people[i],
                          rng.NextBounded(2) == 0 ? "worksAt" : "studiesAt",
                          orgs[rng.NextBounded(kOrgs)]);
  }
  fx.graph = std::move(builder).Finalize();
  return fx;
}

// Swap-under-load hammer: one thread keeps hot-swapping between two
// datasets (one of them snapshot-backed, so mmap-borrowed arrays are
// exercised under full concurrency) while client threads fire the mixed
// workload and check that every response's answer multiset matches the
// reference of EXACTLY ONE epoch's dataset — and that the response's epoch
// id names that dataset. A torn swap (query seeing half the old and half
// the new substrate), a stale post-swap cache hit, or a use-after-free of
// a retired epoch's mapping would all fail here; under TSan this is also
// the race gate for the epoch publication path.
TEST(ServiceStressTest, SwapUnderLoadServesExactlyOneEpochPerResponse) {
  Fixture variant_a = StressVariant(21);
  Fixture variant_b = StressVariant(77);

  std::vector<Query> workload;
  for (const char* text : {
           "(?X) <- (?X, knows, ?Y)",
           "(?X, ?O) <- (?X, knows, ?Y), (?Y, worksAt, ?O)",
           "(?X) <- APPROX (?X, knows.worksAt, ?Y)",
           "(?X) <- RELAX (?X, worksAt, ?Y)",
           "(?X) <- RELAX (?X, knows.worksAt, ?Y)",
       }) {
    workload.push_back(Qy(text));
  }

  // Per-dataset single-threaded references, computed before any concurrency.
  QueryEngine engine_a(&variant_a.graph, &variant_a.ontology);
  QueryEngine engine_b(&variant_b.graph, &variant_b.ontology);
  std::vector<std::vector<std::pair<std::vector<NodeId>, Cost>>> ref_a, ref_b;
  for (const Query& query : workload) {
    Result<std::vector<QueryAnswer>> a = engine_a.ExecuteTopK(query, 0);
    Result<std::vector<QueryAnswer>> b = engine_b.ExecuteTopK(query, 0);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ref_a.push_back(CanonAnswers(*a));
    ref_b.push_back(CanonAnswers(*b));
    // The hammer can only detect cross-epoch mixing if the two datasets
    // disagree on every workload query.
    ASSERT_NE(ref_a.back(), ref_b.back()) << query.ToString();
  }

  // Dataset B travels through the binary snapshot engine; dataset A is the
  // in-memory build the service starts on.
  const std::string path = ::testing::TempDir() + "/stress_variant_b.snap";
  ASSERT_TRUE(WriteSnapshot(variant_b.graph, &variant_b.ontology, path).ok());
  Result<std::shared_ptr<const Dataset>> mapped_b = SnapshotReader::Open(path);
  ASSERT_TRUE(mapped_b.ok()) << mapped_b.status().ToString();
  std::shared_ptr<const Dataset> dataset_a = Dataset::FromParts(
      std::move(variant_a.graph), std::move(variant_a.ontology));

  QueryServiceOptions options;
  options.num_workers = 4;
  options.max_queue = 256;
  QueryService service(dataset_a, options);

  constexpr size_t kClients = 6;
  constexpr size_t kRequestsPerClient = 25;
  constexpr size_t kSwaps = 40;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::atomic<size_t> swap_failures{0};
  std::atomic<size_t> epoch_label_mismatches{0};
  std::atomic<size_t> served_a{0}, served_b{0};
  // Newest epoch any client has received a response from, and how many
  // clients are done: the swapper paces itself on them.
  std::atomic<uint64_t> newest_epoch_served{0};
  std::atomic<size_t> clients_done{0};

  // Each swap waits (bounded) until a client has received a response from
  // the epoch it published, so the storm cannot outrun the clients — back
  // to back, all the swaps could land before any request pins an odd
  // epoch, and dataset B would serve nothing.
  std::thread swapper([&] {
    for (size_t s = 0; s < kSwaps; ++s) {
      if (!service.SwapDataset(s % 2 == 0 ? *mapped_b : dataset_a).ok()) {
        ++swap_failures;
      }
      const uint64_t published = s + 1;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (newest_epoch_served.load() < published &&
             clients_done.load() < kClients &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        const size_t qi = (c * 3 + r) % workload.size();
        QueryRequest request;
        request.query = Clone(workload[qi]);
        request.top_k = 0;
        // A third of the requests bypass the cache so fresh evaluations
        // keep racing the swaps; the rest also exercise per-epoch caches.
        request.bypass_cache = (c + r) % 3 == 0;
        const QueryResponse response = service.Execute(std::move(request));
        if (!response.status.ok()) {
          ++failures;
          continue;
        }
        uint64_t newest = newest_epoch_served.load();
        while (newest < response.epoch &&
               !newest_epoch_served.compare_exchange_weak(newest,
                                                          response.epoch)) {
        }
        const auto got = CanonAnswers(response.answers);
        const bool is_a = got == ref_a[qi];
        const bool is_b = got == ref_b[qi];
        if (is_a == is_b) {
          // Matches both (impossible: references differ) or neither — a
          // torn snapshot of the substrate.
          ++mismatches;
          continue;
        }
        // Epoch ids alternate: even = dataset A (epoch 0 = initial A),
        // odd = dataset B.
        const bool epoch_says_b = response.epoch % 2 == 1;
        if (epoch_says_b != is_b) ++epoch_label_mismatches;
        (is_a ? served_a : served_b)++;
      }
      ++clients_done;
    });
  }
  for (std::thread& client : clients) client.join();
  swapper.join();

  EXPECT_EQ(swap_failures.load(), 0u);
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(epoch_label_mismatches.load(), 0u);
  // Both datasets actually served traffic (the swap raced the workload).
  EXPECT_GT(served_a.load(), 0u);
  EXPECT_GT(served_b.load(), 0u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.dataset_swaps, kSwaps);
  EXPECT_EQ(stats.submitted, kClients * kRequestsPerClient);
}

TEST(ServiceStressTest, ConcurrentCancellationAndDeadlinesStaySane) {
  const Fixture fx = StressFixture();
  QueryServiceOptions options;
  options.num_workers = 3;
  options.max_queue = 16;
  QueryService service(&fx.graph, &fx.ontology, options);

  const Query slow = Qy("(?X) <- APPROX (?X, knows.knows.knows, ?Y)");
  std::atomic<size_t> invalid_status{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      for (size_t r = 0; r < 20; ++r) {
        QueryRequest request;
        request.query = Clone(slow);
        request.top_k = 0;
        request.bypass_cache = true;
        if (r % 2 == 0) request.deadline = std::chrono::milliseconds(1);
        Result<std::shared_ptr<QueryTicket>> ticket =
            service.Submit(std::move(request));
        if (!ticket.ok()) {
          // Admission rejection is legitimate under this much pressure.
          if (!ticket.status().IsResourceExhausted()) ++invalid_status;
          continue;
        }
        if (r % 3 == c % 3) (*ticket)->Cancel();
        const Status& status = (*ticket)->Wait().status;
        // Any of these is a sane outcome; anything else is a bug.
        if (!status.ok() && !status.IsCancelled() &&
            !status.IsDeadlineExceeded()) {
          ++invalid_status;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(invalid_status.load(), 0u);

  // The service remains healthy after the storm.
  QueryRequest request;
  request.query = Qy("(?X) <- (?X, knows, ?Y)");
  request.top_k = 0;
  EXPECT_TRUE(service.Execute(std::move(request)).status.ok());
}

}  // namespace
}  // namespace omega
