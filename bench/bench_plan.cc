// Planner gate bench: races the cost-based greedy bushy plan against the
// seed's textual left-deep order on a skewed-selectivity workload — a hub
// join whose textual order materialises a large intermediate side table
// before the selective constant-target conjunct can filter, exactly the
// intermediate-result blow-up the planner exists to avoid. The
// BM_SubstratePlan_{PlannedOrder,TextualOrder} pair is consumed by
// tools/check_substrate_gate.py (via the `substrate_gate` CMake target),
// which requires the planned order to hold a >= 1.5x speedup.
//
// The BM_SubstratePlan_{BoundJoin,HashRankJoin} pair races the dependent
// (bound-input) join against the HRJN plan on the probe x RELAX shape of
// L4All: a closure probe from one timeline episode binds a handful of ?X,
// joined to RELAX (?X, type, ?C). HRJN drains the RELAX conjunct over the
// whole graph; the BoundJoin evaluates it once per probe row. The gate
// requires a >= 10x speedup.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datasets/l4all.h"
#include "eval/query_engine.h"
#include "rpq/query_parser.h"
#include "store/graph_builder.h"

namespace {

using namespace omega;

// Hub-skewed graph: `a` edges land on a few hub nodes and `b` edges leave
// them, so (?X, a, ?Y) |><| (?Y, b, ?Z) multiplies through the hubs; `rare`
// reaches the constant sink from a handful of nodes, making the final
// textual conjunct the most selective one.
const GraphStore& SkewedGraph() {
  static const GraphStore* graph = [] {
    Rng rng(2027);
    GraphBuilder builder;
    constexpr size_t kNodes = 2000;
    constexpr size_t kHubs = 40;
    constexpr size_t kEdges = 2500;
    std::vector<NodeId> nodes;
    nodes.reserve(kNodes);
    for (size_t i = 0; i < kNodes; ++i) {
      nodes.push_back(builder.GetOrAddNode("n" + std::to_string(i)));
    }
    const NodeId sink = builder.GetOrAddNode("sink");
    const LabelId a = *builder.InternLabel("a");
    const LabelId b = *builder.InternLabel("b");
    const LabelId rare = *builder.InternLabel("rare");
    for (size_t e = 0; e < kEdges; ++e) {
      (void)builder.AddEdge(nodes[rng.NextBounded(kNodes)], a,
                            nodes[rng.NextBounded(kHubs)]);
      (void)builder.AddEdge(nodes[rng.NextBounded(kHubs)], b,
                            nodes[rng.NextBounded(kNodes)]);
    }
    for (size_t e = 0; e < 25; ++e) {
      (void)builder.AddEdge(nodes[rng.NextBounded(kNodes)], rare, sink);
    }
    return new GraphStore(std::move(builder).Finalize());
  }();
  return *graph;
}

const Query& SkewedQuery() {
  static const Query* query = [] {
    Result<Query> q = ParseQuery(
        "(?X, ?Z) <- (?X, a, ?Y), (?Y, b, ?Z), (?Z, rare, sink)");
    if (!q.ok()) {
      std::fprintf(stderr, "bench_plan: %s\n", q.status().ToString().c_str());
      std::abort();
    }
    return new Query(std::move(q).value());
  }();
  return *query;
}

std::vector<QueryAnswer> DrainWithMode(PlanMode mode) {
  QueryEngine engine(&SkewedGraph(), nullptr);
  QueryEngineOptions options;
  options.plan_mode = mode;
  Result<std::vector<QueryAnswer>> answers =
      engine.ExecuteTopK(SkewedQuery(), 0, options);
  if (!answers.ok()) {
    std::fprintf(stderr, "bench_plan: %s\n",
                 answers.status().ToString().c_str());
    std::abort();
  }
  return std::move(answers).value();
}

/// Both orders must retrieve the same answer multiset — a pair that did
/// different work would gate nothing.
void CheckOutputsAgree() {
  static const bool checked = [] {
    auto canon = [](std::vector<QueryAnswer> answers) {
      std::vector<std::pair<std::vector<NodeId>, Cost>> rows;
      rows.reserve(answers.size());
      for (QueryAnswer& a : answers) {
        rows.emplace_back(std::move(a.bindings), a.distance);
      }
      std::sort(rows.begin(), rows.end());
      return rows;
    };
    if (canon(DrainWithMode(PlanMode::kGreedyBushy)) !=
        canon(DrainWithMode(PlanMode::kTextual))) {
      std::fprintf(stderr,
                   "bench_plan: planned and textual orders retrieved "
                   "different answers\n");
      std::abort();
    }
    return true;
  }();
  (void)checked;
}

void BM_SubstratePlan_PlannedOrder(benchmark::State& state) {
  CheckOutputsAgree();
  size_t total = 0;
  for (auto _ : state) {
    total += DrainWithMode(PlanMode::kGreedyBushy).size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_SubstratePlan_PlannedOrder);

void BM_SubstratePlan_TextualOrder(benchmark::State& state) {
  CheckOutputsAgree();
  size_t total = 0;
  for (auto _ : state) {
    total += DrainWithMode(PlanMode::kTextual).size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_SubstratePlan_TextualOrder);

const L4AllDataset& ProbeDataset() {
  static const L4AllDataset* data = new L4AllDataset(GenerateL4All());
  return *data;
}

const Query& ProbeRelaxQuery() {
  static const Query* query = [] {
    Result<Query> q = ParseQuery(
        "(?X, ?C) <- (Alumni 4 Episode 1, next+, ?X), RELAX (?X, type, ?C)");
    if (!q.ok()) {
      std::fprintf(stderr, "bench_plan: %s\n", q.status().ToString().c_str());
      std::abort();
    }
    return new Query(std::move(q).value());
  }();
  return *query;
}

/// Top-100 of the probe x RELAX query, the join workload's page size.
std::vector<QueryAnswer> ProbeRelaxTopK(bool use_bound_join) {
  const L4AllDataset& data = ProbeDataset();
  QueryEngine engine(&data.graph, &data.ontology);
  QueryEngineOptions options;
  options.use_bound_join = use_bound_join;
  Result<std::vector<QueryAnswer>> answers =
      engine.ExecuteTopK(ProbeRelaxQuery(), 100, options);
  if (!answers.ok() || answers->empty()) {
    std::fprintf(stderr, "bench_plan: probe x RELAX: %s\n",
                 answers.ok() ? "no answers"
                              : answers.status().ToString().c_str());
    std::abort();
  }
  return std::move(answers).value();
}

/// Both plans must retrieve the same ranked answers (ties at the cut aside:
/// the cut is below 100 here, so the lists are complete).
void CheckBoundJoinAgrees() {
  static const bool checked = [] {
    auto canon = [](std::vector<QueryAnswer> answers) {
      std::vector<std::pair<std::vector<NodeId>, Cost>> rows;
      for (QueryAnswer& a : answers) {
        rows.emplace_back(std::move(a.bindings), a.distance);
      }
      std::sort(rows.begin(), rows.end());
      return rows;
    };
    const std::vector<QueryAnswer> bound = ProbeRelaxTopK(true);
    if (bound.size() >= 100 || canon(bound) != canon(ProbeRelaxTopK(false))) {
      std::fprintf(stderr,
                   "bench_plan: bound and HRJN plans retrieved different "
                   "answers\n");
      std::abort();
    }
    return true;
  }();
  (void)checked;
}

void BM_SubstratePlan_BoundJoin(benchmark::State& state) {
  CheckBoundJoinAgrees();
  size_t total = 0;
  for (auto _ : state) total += ProbeRelaxTopK(true).size();
  state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_SubstratePlan_BoundJoin);

void BM_SubstratePlan_HashRankJoin(benchmark::State& state) {
  CheckBoundJoinAgrees();
  size_t total = 0;
  for (auto _ : state) total += ProbeRelaxTopK(false).size();
  state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_SubstratePlan_HashRankJoin);

}  // namespace

BENCHMARK_MAIN();
