// Micro-benchmarks of the substrate the paper builds on (the Sparksee
// replacement + automaton pipeline), using google-benchmark. These have no
// counterpart figure; they quantify the access paths whose costs the Open /
// GetNext / Succ procedures depend on.
#include <benchmark/benchmark.h>

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "automata/approx.h"
#include "automata/epsilon_removal.h"
#include "automata/thompson.h"
#include "bench_util.h"
#include "common/flat_hash.h"
#include "common/pack.h"
#include "common/rng.h"
#include "datasets/l4all.h"
#include "eval/conjunct_evaluator.h"
#include "eval/frontier_scan.h"
#include "eval/rank_join.h"
#include "eval/rank_join_reference.h"
#include "eval/tuple_dictionary.h"
#include "eval/tuple_dictionary_reference.h"
#include "rpq/query_parser.h"
#include "rpq/regex_parser.h"
#include "store/bitmap.h"
#include "store/graph_builder.h"
#include "store/oid_set.h"

namespace {

using namespace omega;

const GraphStore& BenchGraph() {
  static const GraphStore* graph = [] {
    Rng rng(99);
    GraphBuilder builder;
    constexpr size_t kNodes = 100000;
    constexpr size_t kEdgesPerLabel = 400000;
    std::vector<NodeId> nodes;
    nodes.reserve(kNodes);
    for (size_t i = 0; i < kNodes; ++i) {
      nodes.push_back(builder.GetOrAddNode("n" + std::to_string(i)));
    }
    for (const char* label : {"a", "b", "c", "d"}) {
      const LabelId l = *builder.InternLabel(label);
      for (size_t e = 0; e < kEdgesPerLabel; ++e) {
        (void)builder.AddEdge(nodes[rng.NextZipf(kNodes, 1.2)], l,
                              nodes[rng.NextBounded(kNodes)]);
      }
    }
    return new GraphStore(std::move(builder).Finalize());
  }();
  return *graph;
}

void BM_NeighborScan(benchmark::State& state) {
  const GraphStore& g = BenchGraph();
  const LabelId a = *g.labels().Find("a");
  Rng rng(7);
  size_t total = 0;
  for (auto _ : state) {
    const NodeId n = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    auto span = g.Neighbors(n, a, Direction::kOutgoing);
    total += span.size();
    benchmark::DoNotOptimize(span.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_NeighborScan);

void BM_SigmaNeighborScan(benchmark::State& state) {
  const GraphStore& g = BenchGraph();
  Rng rng(7);
  size_t total = 0;
  for (auto _ : state) {
    const NodeId n = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    auto span = g.SigmaNeighbors(n, Direction::kOutgoing);
    total += span.size();
    benchmark::DoNotOptimize(span.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_SigmaNeighborScan);

void BM_NodeLookupByLabel(benchmark::State& state) {
  const GraphStore& g = BenchGraph();
  Rng rng(11);
  for (auto _ : state) {
    const std::string label = "n" + std::to_string(rng.NextBounded(100000));
    benchmark::DoNotOptimize(g.FindNode(label));
  }
}
BENCHMARK(BM_NodeLookupByLabel);

void BM_OidSetUnion(benchmark::State& state) {
  Rng rng(3);
  std::vector<NodeId> a_ids, b_ids;
  for (int i = 0; i < state.range(0); ++i) {
    a_ids.push_back(static_cast<NodeId>(rng.NextBounded(1u << 20)));
    b_ids.push_back(static_cast<NodeId>(rng.NextBounded(1u << 20)));
  }
  const OidSet a = OidSet::FromUnsorted(a_ids);
  const OidSet b = OidSet::FromUnsorted(b_ids);
  for (auto _ : state) {
    OidSet u = OidSet::Union(a, b);
    benchmark::DoNotOptimize(u.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_OidSetUnion)->Arg(1000)->Arg(100000);

void BM_BitmapTestAndSet(benchmark::State& state) {
  Bitmap bitmap(1 << 20);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bitmap.TestAndSet(static_cast<NodeId>(rng.NextBounded(1u << 20))));
  }
}
BENCHMARK(BM_BitmapTestAndSet);

void BM_TupleDictionaryChurn(benchmark::State& state) {
  Rng rng(13);
  for (auto _ : state) {
    TupleDictionary dict;
    for (int i = 0; i < 1000; ++i) {
      dict.Add({static_cast<NodeId>(i), static_cast<NodeId>(i), 0,
                static_cast<Cost>(rng.NextBounded(4)), (i % 7) == 0});
    }
    while (!dict.Empty()) benchmark::DoNotOptimize(dict.Remove());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TupleDictionaryChurn);

// ---------------------------------------------------------------------------
// Substrate regression gate. Each BM_Substrate* pair races the bucket-queue /
// flat-hash structure against the seed's std::map / std::unordered_* one on
// the same GetNext-shaped workload; tools/check_substrate_gate.py reads the
// --benchmark_out JSON (BENCH_substrate.json) and fails if the new side is
// slower. Keep the workload of each pair byte-identical.
// ---------------------------------------------------------------------------

// Dijkstra-shaped dictionary traffic: every add is at (popped distance +
// small cost), the distance frontier creeps upward, and bursts of same-cost
// tuples model Succ fan-out.
template <typename Dict>
void DictionaryFrontierWorkload(benchmark::State& state) {
  const int kOps = 20000;
  for (auto _ : state) {
    Rng rng(21);
    Dict dict;
    dict.Add({0, 0, 0, 0, false});
    Cost frontier = 0;
    int pushed = 1;
    while (!dict.Empty()) {
      const EvalTuple t = dict.Remove();
      frontier = t.d;
      benchmark::DoNotOptimize(&t);
      if (pushed >= kOps) continue;
      const int fanout = static_cast<int>(rng.NextBounded(4));
      for (int k = 0; k < fanout && pushed < kOps; ++k, ++pushed) {
        dict.Add({static_cast<NodeId>(pushed), static_cast<NodeId>(pushed), 0,
                  frontier + static_cast<Cost>(rng.NextBounded(3)),
                  rng.NextBool(0.15)});
      }
    }
    benchmark::DoNotOptimize(frontier);
  }
  state.SetItemsProcessed(state.iterations() * kOps);
}

void BM_SubstrateDictionary_BucketQueue(benchmark::State& state) {
  DictionaryFrontierWorkload<TupleDictionary>(state);
}
BENCHMARK(BM_SubstrateDictionary_BucketQueue);

void BM_SubstrateDictionary_StdMapReference(benchmark::State& state) {
  DictionaryFrontierWorkload<ReferenceTupleDictionary>(state);
}
BENCHMARK(BM_SubstrateDictionary_StdMapReference);

// The evaluator's visited-set discipline: one membership probe per generated
// tuple (ExpandTuple) and one insert-if-absent per popped tuple (GetNext).
struct BenchVisitedKey {
  uint64_t vn;
  StateId s;
  bool operator==(const BenchVisitedKey&) const = default;
};
struct BenchVisitedKeyHash {
  size_t operator()(const BenchVisitedKey& k) const {
    // Mirrors ConjunctEvaluator::VisitedKeyHash (the shared HashMix64 path)
    // so both sides of the pair run the evaluator's real hash.
    return static_cast<size_t>(
        HashMix64(k.vn ^ (static_cast<uint64_t>(k.s) *
                          0x9e3779b97f4a7c15ULL)));
  }
};

BenchVisitedKey VisitedKeyAt(Rng& rng) {
  const uint64_t vn = rng.NextBounded(1u << 18);
  return {vn << 32 | rng.NextBounded(1u << 18), static_cast<StateId>(rng.NextBounded(8))};
}

template <typename Set>
void VisitedSetWorkload(benchmark::State& state, Set& set,
                        auto insert, auto contains) {
  const int kOps = 50000;
  size_t hits = 0;
  for (auto _ : state) {
    Rng rng(31);
    set.clear();
    for (int i = 0; i < kOps; ++i) {
      // ~3 probes (generated successors) per insert (popped tuple).
      hits += contains(set, VisitedKeyAt(rng));
      hits += contains(set, VisitedKeyAt(rng));
      hits += contains(set, VisitedKeyAt(rng));
      insert(set, VisitedKeyAt(rng));
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * kOps * 4);
}

void BM_SubstrateVisited_FlatHash(benchmark::State& state) {
  struct Wrapper {
    FlatHashSet<BenchVisitedKey, BenchVisitedKeyHash> set;
    void clear() { set.Clear(); }
  } w;
  VisitedSetWorkload(
      state, w,
      [](Wrapper& w, const BenchVisitedKey& k) { w.set.Insert(k); },
      [](Wrapper& w, const BenchVisitedKey& k) { return w.set.Contains(k); });
}
BENCHMARK(BM_SubstrateVisited_FlatHash);

void BM_SubstrateVisited_StdUnordered(benchmark::State& state) {
  std::unordered_set<BenchVisitedKey, BenchVisitedKeyHash> set;
  VisitedSetWorkload(
      state, set,
      [](auto& s, const BenchVisitedKey& k) { s.insert(k); },
      [](auto& s, const BenchVisitedKey& k) { return s.count(k) > 0; });
}
BENCHMARK(BM_SubstrateVisited_StdUnordered);

// The answer map: duplicate check per final-state tuple, then
// insert-if-absent when the answer is emitted.
template <typename MapAdaptor>
void AnswerMapWorkload(benchmark::State& state, MapAdaptor& map,
                       auto insert, auto contains) {
  const int kOps = 50000;
  size_t hits = 0;
  for (auto _ : state) {
    Rng rng(41);
    map.clear();
    for (int i = 0; i < kOps; ++i) {
      const uint64_t key = rng.NextBounded(1u << 16);
      hits += contains(map, key);
      insert(map, key, static_cast<Cost>(i & 1023));
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * kOps * 2);
}

void BM_SubstrateAnswers_FlatHash(benchmark::State& state) {
  struct Wrapper {
    FlatHashMap<uint64_t, Cost> map;
    void clear() { map.Clear(); }
  } w;
  AnswerMapWorkload(
      state, w,
      [](Wrapper& w, uint64_t k, Cost d) { w.map.Insert(k, d); },
      [](Wrapper& w, uint64_t k) { return w.map.Contains(k); });
}
BENCHMARK(BM_SubstrateAnswers_FlatHash);

void BM_SubstrateAnswers_StdUnordered(benchmark::State& state) {
  std::unordered_map<uint64_t, Cost> map;
  AnswerMapWorkload(
      state, map,
      [](auto& m, uint64_t k, Cost d) { m.try_emplace(k, d); },
      [](auto& m, uint64_t k) { return m.find(k) != m.end(); });
}
BENCHMARK(BM_SubstrateAnswers_StdUnordered);

// The rank-join data plane: a two-conjunct chain join (X,Y) |><| (Y,Z) on a
// shared Y drawn from a small domain, rows arriving in non-decreasing
// distance (bench_util's shared synthetic workload). The compiled side runs
// slot bindings + packed-integer keys, the reference side is the seed
// string-keyed join kept in rank_join_reference.h. Both drain the identical
// row script to exhaustion.
const std::vector<bench::SyntheticJoinRow>& JoinWorkload(bool left) {
  static const auto* left_rows = new std::vector<bench::SyntheticJoinRow>(
      bench::SyntheticJoinRows(61, 2000, 128));
  static const auto* right_rows = new std::vector<bench::SyntheticJoinRow>(
      bench::SyntheticJoinRows(62, 2000, 128));
  return left ? *left_rows : *right_rows;
}

void BM_SubstrateRankJoin_CompiledSlots(benchmark::State& state) {
  size_t total = 0;
  for (auto _ : state) {
    RankJoinStream join(std::make_unique<bench::SyntheticBindingStream>(
                            &JoinWorkload(true), true),
                        std::make_unique<bench::SyntheticBindingStream>(
                            &JoinWorkload(false), false));
    Binding out;
    size_t rows = 0;
    Cost sum = 0;
    while (join.Next(&out)) {
      ++rows;
      sum += out.distance;
    }
    benchmark::DoNotOptimize(sum);
    total += rows;
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_SubstrateRankJoin_CompiledSlots);

const std::vector<ReferenceBinding>& ReferenceJoinWorkload(bool left) {
  // Materialised once, like JoinWorkload: the pair must time the two joins,
  // not row conversion on one side.
  static const auto* left_rows = new std::vector<ReferenceBinding>(
      bench::SyntheticReferenceRows(JoinWorkload(true), true));
  static const auto* right_rows = new std::vector<ReferenceBinding>(
      bench::SyntheticReferenceRows(JoinWorkload(false), false));
  return left ? *left_rows : *right_rows;
}

void BM_SubstrateRankJoin_StringKeyReference(benchmark::State& state) {
  size_t total = 0;
  for (auto _ : state) {
    ReferenceRankJoinStream join(
        std::make_unique<VectorReferenceBindingStream>(
            bench::SyntheticReferenceVars(true), &ReferenceJoinWorkload(true)),
        std::make_unique<VectorReferenceBindingStream>(
            bench::SyntheticReferenceVars(false),
            &ReferenceJoinWorkload(false)));
    ReferenceBinding out;
    size_t rows = 0;
    Cost sum = 0;
    while (join.Next(&out)) {
      ++rows;
      sum += out.distance;
    }
    benchmark::DoNotOptimize(sum);
    total += rows;
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_SubstrateRankJoin_StringKeyReference);

// Head-binding dedup in QueryResultStream: one membership-or-insert per
// joined row. The seed kept a std::set<std::vector<NodeId>>; the compiled
// plane packs two-variable heads into one word probed through FlatHashSet.
void BM_SubstrateHeadDedup_FlatPacked(benchmark::State& state) {
  const int kOps = 50000;
  size_t fresh = 0;
  for (auto _ : state) {
    Rng rng(71);
    FlatHashSet<uint64_t> seen;
    for (int i = 0; i < kOps; ++i) {
      const NodeId a = static_cast<NodeId>(rng.NextBounded(1u << 12));
      const NodeId b = static_cast<NodeId>(rng.NextBounded(1u << 12));
      fresh += seen.Insert(PackPair(a, b));
    }
  }
  benchmark::DoNotOptimize(fresh);
  state.SetItemsProcessed(state.iterations() * kOps);
}
BENCHMARK(BM_SubstrateHeadDedup_FlatPacked);

void BM_SubstrateHeadDedup_StdSetReference(benchmark::State& state) {
  const int kOps = 50000;
  size_t fresh = 0;
  for (auto _ : state) {
    Rng rng(71);
    std::set<std::vector<NodeId>> seen;
    for (int i = 0; i < kOps; ++i) {
      const NodeId a = static_cast<NodeId>(rng.NextBounded(1u << 12));
      const NodeId b = static_cast<NodeId>(rng.NextBounded(1u << 12));
      fresh += seen.insert({a, b}).second;
    }
  }
  benchmark::DoNotOptimize(fresh);
  state.SetItemsProcessed(state.iterations() * kOps);
}
BENCHMARK(BM_SubstrateHeadDedup_StdSetReference);

void BM_ThompsonPlusEpsRemoval(benchmark::State& state) {
  const GraphStore& g = BenchGraph();
  RegexPtr regex = std::move(ParseRegex("(a|b.c)*.d-.(a+|(b.c.d))")).value();
  for (auto _ : state) {
    Nfa nfa = RemoveEpsilons(BuildThompsonNfa(*regex, g.labels()));
    benchmark::DoNotOptimize(nfa.NumStates());
  }
}
BENCHMARK(BM_ThompsonPlusEpsRemoval);

void BM_ApproxAutomatonConstruction(benchmark::State& state) {
  const GraphStore& g = BenchGraph();
  RegexPtr regex = std::move(ParseRegex("(a|b.c)*.d-.(a+|(b.c.d))")).value();
  Nfa exact = RemoveEpsilons(BuildThompsonNfa(*regex, g.labels()));
  for (auto _ : state) {
    Nfa approx = BuildApproxAutomaton(exact, ApproxOptions{});
    benchmark::DoNotOptimize(approx.NumStates());
  }
}
BENCHMARK(BM_ApproxAutomatonConstruction);

// --- exact variable-to-variable drain ----------------------------------------
// Fig. 4 Q5, (?X, next+, ?Y), drained on a generated L4All graph (L2: 1201
// timelines): the frontier scan's per-source bitmaps vs the ranked walk's
// bucket queue, visited hash and answer map, over one shared automaton.

const L4AllDataset& ExactDrainDataset() {
  static const L4AllDataset* data =
      new L4AllDataset(GenerateL4All(L4AllScalePreset(2)));
  return *data;
}

const PreparedConjunct& ExactDrainConjunct() {
  static const PreparedConjunct* prepared = [] {
    Result<Conjunct> conjunct = ParseConjunct("(?X, next+, ?Y)");
    Result<PreparedConjunct> p =
        PrepareConjunct(*conjunct, ExactDrainDataset().graph, nullptr, {});
    return new PreparedConjunct(std::move(p).value());
  }();
  return *prepared;
}

template <typename MakeStream>
void ExactDrainWorkload(benchmark::State& state, MakeStream make_stream) {
  const GraphStore& g = ExactDrainDataset().graph;
  const PreparedConjunct& prepared = ExactDrainConjunct();
  size_t answers = 0;
  for (auto _ : state) {
    const std::unique_ptr<AnswerStream> stream = make_stream(g, prepared);
    Answer answer;
    answers = 0;
    while (stream->Next(&answer)) ++answers;
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}

void BM_SubstrateExactDrain_FrontierScan(benchmark::State& state) {
  ExactDrainWorkload(state, [](const GraphStore& g, const PreparedConjunct& p) {
    return std::make_unique<FrontierScanStream>(&g, &p, EvaluatorOptions{});
  });
}
BENCHMARK(BM_SubstrateExactDrain_FrontierScan)->Unit(benchmark::kMillisecond);

void BM_SubstrateExactDrain_RankedExact(benchmark::State& state) {
  ExactDrainWorkload(state, [](const GraphStore& g, const PreparedConjunct& p) {
    return std::make_unique<ConjunctEvaluator>(&g, nullptr, &p,
                                               EvaluatorOptions{});
  });
}
BENCHMARK(BM_SubstrateExactDrain_RankedExact)->Unit(benchmark::kMillisecond);

// --- flexible first page ------------------------------------------------------
// Fig. 4 Q4 under APPROX, (?X, job.type, ?Y), top-100 on the same L4All L2
// graph: every answer is at distance 0, so lazy Succ pushes only the free
// moves and one deferred tuple per expansion, while eager Succ also pushes
// every insertion and substitution into the class nodes' instances.

const PreparedConjunct& ApproxPageConjunct() {
  static const PreparedConjunct* prepared = [] {
    Result<Conjunct> conjunct = ParseConjunct("APPROX (?X, job.type, ?Y)");
    Result<PreparedConjunct> p =
        PrepareConjunct(*conjunct, ExactDrainDataset().graph, nullptr, {});
    return new PreparedConjunct(std::move(p).value());
  }();
  return *prepared;
}

void ApproxPageWorkload(benchmark::State& state, bool lazy_succ) {
  const GraphStore& g = ExactDrainDataset().graph;
  const PreparedConjunct& prepared = ApproxPageConjunct();
  EvaluatorOptions options;
  options.lazy_succ = lazy_succ;
  EvaluatorStats stats;
  for (auto _ : state) {
    ConjunctEvaluator evaluator(&g, nullptr, &prepared, options);
    Answer answer;
    for (int i = 0; i < 100 && evaluator.Next(&answer); ++i) {
    }
    stats = evaluator.stats();
    benchmark::DoNotOptimize(stats.answers_emitted);
  }
  state.counters["answers"] = static_cast<double>(stats.answers_emitted);
  state.counters["pushed"] = static_cast<double>(stats.tuples_pushed);
}

void BM_SubstrateApproxPage_LazySucc(benchmark::State& state) {
  ApproxPageWorkload(state, true);
}
BENCHMARK(BM_SubstrateApproxPage_LazySucc)->Unit(benchmark::kMillisecond);

void BM_SubstrateApproxPage_EagerSucc(benchmark::State& state) {
  ApproxPageWorkload(state, false);
}
BENCHMARK(BM_SubstrateApproxPage_EagerSucc)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
