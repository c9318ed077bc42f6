// Observability overhead gate: the same mixed serving workload (exact /
// APPROX / RELAX, single- and multi-conjunct, cache-bypassed so the engine
// actually runs) driven through a QueryService twice. The service always
// counts into its registry; the pair measures what reading it costs:
//
//   BM_SubstrateObs_ServeMix_MetricsOn   a poller calls RenderText() and
//                                        stats() about once a millisecond
//                                        while the mix runs, as a scraper
//                                        would
//   BM_SubstrateObs_ServeMix_MetricsOff  the same mix, nobody polls
//
// tools/check_substrate_gate.py pairs them under the default tolerance: the
// scraped run must stay within ~10% of the unscraped one, i.e. lock-free
// reads of the instruments must not slow the workers that write them.
// Tracing is deliberately not part of the pair — it is an opt-in
// per-request diagnostic, not an always-on cost.
//
// A second pair proves the flight recorder's always-on contract the same
// way:
//
//   BM_SubstrateObs_ServeMix_RecorderOn   every completion appends a flat
//                                         summary to a FlightRecorder ring
//   BM_SubstrateObs_ServeMix_RecorderOff  options.flight_recorder == nullptr
//
// The slow threshold is left at its (high) default so the pair measures the
// fast path — one mutex-guarded struct append per completion.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "rpq/query_parser.h"
#include "service/query_service.h"
#include "store/graph_builder.h"

namespace {

using namespace omega;

/// Hub-skewed social-ish graph, same shape as bench_service's: enough
/// fan-out that APPROX queries do real automaton work.
const GraphStore& ServingGraph() {
  static const GraphStore* graph = [] {
    Rng rng(777);
    GraphBuilder builder;
    constexpr size_t kPeople = 400;
    constexpr size_t kOrgs = 20;
    std::vector<std::string> people;
    std::vector<std::string> orgs;
    people.reserve(kPeople);
    for (size_t i = 0; i < kPeople; ++i) {
      people.push_back("p" + std::to_string(i));
    }
    for (size_t i = 0; i < kOrgs; ++i) {
      orgs.push_back("o" + std::to_string(i));
      (void)builder.AddEdge(orgs.back(), "type",
                            i % 2 == 0 ? "University" : "Company");
    }
    for (size_t i = 0; i < kPeople; ++i) {
      for (int e = 0; e < 3; ++e) {
        (void)builder.AddEdge(people[i], "knows",
                              people[rng.NextBounded(kPeople)]);
      }
      (void)builder.AddEdge(people[i],
                            rng.NextBounded(2) == 0 ? "worksAt" : "studiesAt",
                            orgs[rng.NextBounded(kOrgs)]);
    }
    return new GraphStore(std::move(builder).Finalize());
  }();
  return *graph;
}

const Ontology& ServingOntology() {
  static const Ontology* ontology = [] {
    OntologyBuilder ob;
    (void)ob.AddSubproperty("worksAt", "affiliatedWith");
    (void)ob.AddSubproperty("studiesAt", "affiliatedWith");
    (void)ob.AddSubclass("University", "Institution");
    (void)ob.AddSubclass("Company", "Institution");
    Result<Ontology> o = std::move(ob).Finalize();
    if (!o.ok()) {
      std::fprintf(stderr, "bench_obs: %s\n", o.status().ToString().c_str());
      std::abort();
    }
    return new Ontology(std::move(o).value());
  }();
  return *ontology;
}

const std::vector<Query>& Workload() {
  static const std::vector<Query>* workload = [] {
    auto* queries = new std::vector<Query>();
    for (const char* text : {
             "(?X) <- (?X, knows, ?Y)",
             "(?X, ?Z) <- (?X, knows, ?Y), (?Y, knows, ?Z)",
             "(?X) <- APPROX (?X, knows.worksAt, ?Y)",
             "(?X) <- RELAX (?X, worksAt, ?Y)",
             "(?X, ?Y) <- (?X, knows, ?Y), RELAX (?X, studiesAt, ?O)",
         }) {
      Result<Query> q = ParseQuery(text);
      if (!q.ok()) {
        std::fprintf(stderr, "bench_obs: %s\n",
                     q.status().ToString().c_str());
        std::abort();
      }
      queries->push_back(std::move(q).value());
    }
    return queries;
  }();
  return *workload;
}

constexpr size_t kTopK = 20;
constexpr size_t kClientThreads = 4;
constexpr size_t kRequestsPerClient = 16;

size_t DriveClients(QueryService* service) {
  std::vector<std::thread> clients;
  std::atomic<size_t> ok{0};
  clients.reserve(kClientThreads);
  for (size_t c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([service, c, &ok] {
      const std::vector<Query>& workload = Workload();
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        QueryRequest request;
        request.query = Clone(workload[(c * 3 + r) % workload.size()]);
        request.top_k = kTopK;
        request.bypass_cache = true;  // the engine must actually run
        if (service->Execute(std::move(request)).status.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  return ok.load();
}

void ObsBench(benchmark::State& state, bool scrape) {
  // The injected registry is what the poller renders; it must outlive the
  // service and its epochs — declared first, destroyed last.
  MetricsRegistry registry;
  QueryServiceOptions options;
  options.num_workers = 2;
  options.max_queue = 1024;  // admission never skews the pair
  options.metrics = &registry;
  QueryService service(&ServingGraph(), &ServingOntology(),
                       std::move(options));
  std::atomic<bool> stop{false};
  std::atomic<size_t> polls{0};
  std::thread poller;
  if (scrape) {
    poller = std::thread([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        benchmark::DoNotOptimize(registry.RenderText());
        benchmark::DoNotOptimize(service.stats());
        polls.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  size_t total_ok = 0;
  for (auto _ : state) {
    total_ok += DriveClients(&service);
  }
  if (scrape) {
    stop.store(true, std::memory_order_relaxed);
    poller.join();
    if (polls.load() == 0) state.SkipWithError("the poller never ran");
  }
  if (total_ok != state.iterations() * kClientThreads * kRequestsPerClient) {
    state.SkipWithError("some requests failed");
  }
  if (registry.GetCounter("omega_service_submitted_total")->Value() <
      total_ok) {
    state.SkipWithError("the registry did not record the submissions");
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_ok));
}

void BM_SubstrateObs_ServeMix_MetricsOn(benchmark::State& state) {
  ObsBench(state, /*scrape=*/true);
}
BENCHMARK(BM_SubstrateObs_ServeMix_MetricsOn)->UseRealTime();

void BM_SubstrateObs_ServeMix_MetricsOff(benchmark::State& state) {
  ObsBench(state, /*scrape=*/false);
}
BENCHMARK(BM_SubstrateObs_ServeMix_MetricsOff)->UseRealTime();

void RecorderBench(benchmark::State& state, bool recorder_on) {
  // Both runs count into the service's own registry, so the pair isolates
  // the recorder's cost; the recorder must outlive the service (declared
  // first).
  FlightRecorder recorder;
  QueryServiceOptions options;
  options.num_workers = 2;
  options.max_queue = 1024;
  options.flight_recorder = recorder_on ? &recorder : nullptr;
  QueryService service(&ServingGraph(), &ServingOntology(),
                       std::move(options));
  size_t total_ok = 0;
  for (auto _ : state) {
    total_ok += DriveClients(&service);
  }
  if (total_ok != state.iterations() * kClientThreads * kRequestsPerClient) {
    state.SkipWithError("some requests failed");
  }
  if (recorder_on && recorder.recorded_total() < total_ok) {
    state.SkipWithError("recorder-on run did not record completions");
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_ok));
}

void BM_SubstrateObs_ServeMix_RecorderOn(benchmark::State& state) {
  RecorderBench(state, /*recorder_on=*/true);
}
BENCHMARK(BM_SubstrateObs_ServeMix_RecorderOn)->UseRealTime();

void BM_SubstrateObs_ServeMix_RecorderOff(benchmark::State& state) {
  RecorderBench(state, /*recorder_on=*/false);
}
BENCHMARK(BM_SubstrateObs_ServeMix_RecorderOff)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
