// Lazy vs eager Succ: a ConjunctEvaluator that pushes a popped tuple's
// positive-cost APPROX/RELAX moves only when its deferred twin pops
// (EvaluatorOptions::lazy_succ) must yield the answers and distances of the
// eager Succ of §3.4 (lazy_succ=false). Only the order among answers at
// equal distance may differ, so drains compare as multisets and top-k cuts
// tie-aware. Covered, on seeded cyclic graphs with self-loops, `type` edges
// and a random ontology: APPROX (uniform and mixed edit costs,
// transposition on and off) and RELAX (with and without dom/range rules),
// constant and variable endpoints, (?X, R, ?X), finite distance ceilings
// (the truncation flag must match too), and engine plans with BoundJoin
// instances, distance-aware rounds and disjunction branches (same
// EvaluatorStats::rounds). A class-hub fixture bounds the pushes per pop of
// a distance-0 top-10 page.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "eval/query_engine.h"
#include "store/graph_builder.h"
#include "test_util.h"

namespace omega {
namespace {

using Row = std::pair<std::vector<NodeId>, Cost>;

constexpr size_t kInstances = 20;
const std::vector<std::string> kLabels = {"p0", "p1", "p2", "type"};

struct World {
  GraphStore graph;
  Ontology ontology;
  std::unique_ptr<BoundOntology> bound;
};

/// Random cyclic world: a ring of p0 edges over every third instance,
/// self-loops, random p0..p2 edges, instances typed into classes c0..c3
/// (c0 typed most often, so it is a small hub), p0..p2 in a random sp
/// forest with random domains and ranges, c0..c3 in a random sc forest.
World CyclicWorld(uint64_t seed) {
  Rng rng(seed);
  World world;
  OntologyBuilder ob;
  const std::vector<std::string> properties = {"p0", "p1", "p2"};
  const std::vector<std::string> classes = {"c0", "c1", "c2", "c3"};
  for (size_t i = 0; i + 1 < properties.size(); ++i) {
    if (rng.NextBool(0.6)) {
      const size_t parent = i + 1 + rng.NextBounded(properties.size() - i - 1);
      EXPECT_TRUE(ob.AddSubproperty(properties[i], properties[parent]).ok());
    }
  }
  for (size_t i = 0; i + 1 < classes.size(); ++i) {
    if (rng.NextBool(0.6)) {
      const size_t parent = i + 1 + rng.NextBounded(classes.size() - i - 1);
      EXPECT_TRUE(ob.AddSubclass(classes[i], classes[parent]).ok());
    }
  }
  for (const std::string& p : properties) {
    if (rng.NextBool(0.4)) {
      EXPECT_TRUE(
          ob.SetDomain(p, classes[rng.NextBounded(classes.size())]).ok());
    }
    if (rng.NextBool(0.4)) {
      EXPECT_TRUE(ob.SetRange(p, classes[rng.NextBounded(classes.size())]).ok());
    }
  }
  Result<Ontology> ontology = std::move(ob).Finalize();
  EXPECT_TRUE(ontology.ok());
  world.ontology = std::move(ontology).value();

  GraphBuilder gb;
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < kInstances; ++i) {
    nodes.push_back(gb.GetOrAddNode("n" + std::to_string(i)));
  }
  std::vector<NodeId> class_nodes;
  for (const std::string& c : classes) class_nodes.push_back(gb.GetOrAddNode(c));
  std::vector<LabelId> labels;
  for (const std::string& p : properties) labels.push_back(*gb.InternLabel(p));
  auto add = [&](NodeId a, LabelId l, NodeId b) {
    EXPECT_TRUE(gb.AddEdge(a, l, b).ok());
  };
  for (size_t i = 0; i < kInstances; i += 3) {
    add(nodes[i], labels[0], nodes[(i + 3) % kInstances]);
  }
  for (int i = 0; i < 3; ++i) {
    const NodeId n = nodes[rng.NextBounded(kInstances)];
    add(n, labels[rng.NextBounded(labels.size())], n);
  }
  for (const LabelId l : labels) {
    for (size_t e = 0; e < kInstances; ++e) {
      add(nodes[rng.NextBounded(kInstances)], l,
          nodes[rng.NextBounded(kInstances)]);
    }
  }
  for (NodeId n : nodes) {
    if (rng.NextBool(0.4)) {
      EXPECT_TRUE(gb.AddTypeEdge(n, class_nodes[0]).ok());
    } else if (rng.NextBool(0.6)) {
      EXPECT_TRUE(
          gb.AddTypeEdge(n, class_nodes[rng.NextBounded(class_nodes.size())])
              .ok());
    }
  }
  world.graph = std::move(gb).Finalize();
  world.bound = std::make_unique<BoundOntology>(&world.ontology, &world.graph);
  return world;
}

/// Random edit/relaxation costs: uniform 1 or mixed, so c_min(s) is not
/// always every positive move's cost.
EvaluatorOptions RandomCosts(Rng& rng) {
  EvaluatorOptions options;
  if (rng.NextBool(0.5)) {
    options.approx.insertion_cost = 1 + static_cast<Cost>(rng.NextBounded(3));
    options.approx.deletion_cost = 1 + static_cast<Cost>(rng.NextBounded(3));
    options.approx.substitution_cost =
        1 + static_cast<Cost>(rng.NextBounded(3));
    options.relax.beta = 1 + static_cast<Cost>(rng.NextBounded(2));
    options.relax.gamma = 1 + static_cast<Cost>(rng.NextBounded(3));
  }
  options.approx.enable_transposition = rng.NextBool(0.5);
  options.approx.transposition_cost = 1 + static_cast<Cost>(rng.NextBounded(2));
  options.relax.enable_domain_range = rng.NextBool(0.5);
  return options;
}

Endpoint RandomConstant(Rng& rng) {
  return rng.NextBool(0.25)
             ? Endpoint::Constant("c" + std::to_string(rng.NextBounded(4)))
             : Endpoint::Constant("n" +
                                  std::to_string(rng.NextBounded(kInstances)));
}

/// A flexible conjunct with a random regex and one of the endpoint shapes:
/// constant source, constant target (Case 2 reverses it), variable to
/// variable, or (?X, R, ?X).
Conjunct RandomFlexibleConjunct(Rng& rng) {
  Conjunct c;
  c.mode = rng.NextBool(0.5) ? ConjunctMode::kApprox : ConjunctMode::kRelax;
  switch (rng.NextBounded(4)) {
    case 0:
      c.source = RandomConstant(rng);
      c.target = Endpoint::Variable("Y");
      break;
    case 1:
      c.source = Endpoint::Variable("X");
      c.target = RandomConstant(rng);
      break;
    case 2:
      c.source = Endpoint::Variable("X");
      c.target = Endpoint::Variable("Y");
      break;
    default:
      c.source = Endpoint::Variable("X");
      c.target = Endpoint::Variable("X");
      break;
  }
  c.regex = testing::RandomRegex(&rng, kLabels, 2);
  return c;
}

using Emitted = std::tuple<Cost, NodeId, NodeId>;

/// Pulls up to `limit` answers (0 drains) in emission order.
std::vector<Emitted> Pull(ConjunctEvaluator* evaluator, size_t limit) {
  std::vector<Emitted> out;
  Answer a;
  while ((limit == 0 || out.size() < limit) && evaluator->Next(&a)) {
    if (!out.empty()) {
      EXPECT_GE(a.distance, std::get<0>(out.back()))
          << "emission order must be non-decreasing";
    }
    out.emplace_back(a.distance, a.v, a.n);
  }
  EXPECT_TRUE(evaluator->status().ok()) << evaluator->status().ToString();
  return out;
}

/// Tie-aware top-k check of `got` (emission order) against the full ranked
/// list `all` (sorted by distance): the same distance sequence, the same
/// answers strictly below the cut distance, and every answer at the cut
/// distance one of the tied answers.
template <typename T, typename DistanceOf>
void ExpectTopKAgrees(const std::vector<T>& got, const std::vector<T>& all,
                      size_t k, DistanceOf distance_of,
                      const std::string& what) {
  const size_t want = std::min(k, all.size());
  ASSERT_EQ(got.size(), want) << what;
  if (want == 0) return;
  std::vector<Cost> got_d, want_d;
  for (size_t i = 0; i < want; ++i) {
    got_d.push_back(distance_of(got[i]));
    want_d.push_back(distance_of(all[i]));
  }
  EXPECT_EQ(got_d, want_d) << what << ": distance sequence of the top-" << k;
  const Cost cut = distance_of(all[want - 1]);
  std::vector<T> got_below, want_below;
  for (const T& r : got) {
    if (distance_of(r) < cut) got_below.push_back(r);
  }
  for (const T& r : all) {
    if (distance_of(r) < cut) want_below.push_back(r);
  }
  std::sort(got_below.begin(), got_below.end());
  std::sort(want_below.begin(), want_below.end());
  EXPECT_EQ(got_below, want_below) << what;
  for (const T& r : got) {
    if (distance_of(r) != cut) continue;
    EXPECT_NE(std::find(all.begin(), all.end(), r), all.end())
        << what << ": an answer at the cut distance is not a tied answer";
  }
}

/// Drains one conjunct lazily and eagerly over one prepared automaton and
/// compares answers per distance and the truncation flag, then compares
/// lazy top-k cuts against the eager drain.
void CheckEvaluatorAgrees(const World& world, const Conjunct& conjunct,
                          EvaluatorOptions options, const std::string& what) {
  Result<PreparedConjunct> prepared =
      PrepareConjunct(conjunct, world.graph, world.bound.get(), options);
  ASSERT_TRUE(prepared.ok()) << what << ": " << prepared.status().ToString();
  options.lazy_succ = false;
  ConjunctEvaluator eager(&world.graph, world.bound.get(), &*prepared,
                          options);
  std::vector<Emitted> reference = Pull(&eager, 0);
  options.lazy_succ = true;
  ConjunctEvaluator lazy(&world.graph, world.bound.get(), &*prepared, options);
  std::vector<Emitted> got = Pull(&lazy, 0);
  std::sort(reference.begin(), reference.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, reference) << what;
  EXPECT_EQ(lazy.truncated_by_distance(), eager.truncated_by_distance())
      << what;
  for (const size_t k : {1, 4, 15}) {
    ConjunctEvaluator cut(&world.graph, world.bound.get(), &*prepared,
                          options);
    ExpectTopKAgrees(
        Pull(&cut, k), reference, k,
        [](const Emitted& e) { return std::get<0>(e); },
        what + " top-" + std::to_string(k));
  }
}

class LazySuccPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LazySuccPropertyTest, EvaluatorMatchesEagerPerDistance) {
  Rng rng(GetParam() * 6151 + 7);
  const World world = CyclicWorld(GetParam());
  for (int round = 0; round < 30; ++round) {
    const Conjunct conjunct = RandomFlexibleConjunct(rng);
    EvaluatorOptions options = RandomCosts(rng);
    // Unbounded, or a ceiling that cuts some answers off.
    if (rng.NextBool(0.5)) {
      options.max_distance = static_cast<Cost>(rng.NextBounded(4));
    }
    CheckEvaluatorAgrees(world, conjunct, options,
                         "seed " + std::to_string(GetParam()) + " round " +
                             std::to_string(round) + " " + ToString(conjunct) +
                             " max_distance " +
                             std::to_string(options.max_distance));
  }
}

size_t CountBoundJoins(const PlanNode* node) {
  if (node == nullptr || node->is_leaf()) return 0;
  return (node->bound_var != kInvalidVar ? 1 : 0) +
         CountBoundJoins(node->left.get()) +
         CountBoundJoins(node->right.get());
}

struct EngineRun {
  std::vector<Row> rows;  // emission order
  uint64_t rounds = 0;
  size_t bound_joins = 0;
};

EngineRun RunEngine(const QueryEngine& engine, const Query& query,
                    const QueryEngineOptions& options, size_t limit,
                    const std::string& what) {
  EngineRun run;
  auto stream = engine.Execute(query, options);
  EXPECT_TRUE(stream.ok()) << what << ": " << stream.status().ToString();
  if (!stream.ok()) return run;
  QueryAnswer answer;
  while ((limit == 0 || run.rows.size() < limit) &&
         (*stream)->Next(&answer)) {
    if (!run.rows.empty()) {
      EXPECT_GE(answer.distance, run.rows.back().second)
          << what << ": emission order must be non-decreasing";
    }
    run.rows.emplace_back(answer.bindings, answer.distance);
  }
  EXPECT_TRUE((*stream)->status().ok())
      << what << ": " << (*stream)->status().ToString();
  run.rounds = (*stream)->stats().rounds;
  run.bound_joins = CountBoundJoins((*stream)->plan()->root.get());
  return run;
}

/// Drains `query` under lazy and eager Succ; compares the answer multisets
/// and the distance-aware/disjunction round counts, then lazy top-k cuts.
/// Returns the lazy plan's BoundJoin count.
size_t CheckEngineAgrees(const QueryEngine& engine, const Query& query,
                         QueryEngineOptions options, const std::string& what) {
  options.evaluator.lazy_succ = false;
  EngineRun eager = RunEngine(engine, query, options, 0, what + " [eager]");
  options.evaluator.lazy_succ = true;
  EngineRun lazy = RunEngine(engine, query, options, 0, what + " [lazy]");
  std::vector<Row> sorted_eager = eager.rows;
  std::vector<Row> sorted_lazy = lazy.rows;
  std::sort(sorted_eager.begin(), sorted_eager.end());
  std::sort(sorted_lazy.begin(), sorted_lazy.end());
  EXPECT_EQ(sorted_lazy, sorted_eager) << what;
  EXPECT_EQ(lazy.rounds, eager.rounds) << what << ": rounds";
  std::stable_sort(eager.rows.begin(), eager.rows.end(),
                   [](const Row& a, const Row& b) {
                     return a.second < b.second;
                   });
  for (const size_t k : {1, 5}) {
    ExpectTopKAgrees(
        RunEngine(engine, query, options, k, what + " [lazy top-k]").rows,
        eager.rows, k, [](const Row& r) { return r.second; },
        what + " top-" + std::to_string(k));
  }
  return lazy.bound_joins;
}

TEST_P(LazySuccPropertyTest, EnginePlansMatchEager) {
  Rng rng(GetParam() * 7919 + 3);
  const World world = CyclicWorld(GetParam() + 50);
  QueryEngine engine(&world.graph, &world.ontology);
  size_t bound_join_plans = 0;
  for (int round = 0; round < 16; ++round) {
    Query query;
    QueryEngineOptions options;
    options.evaluator = RandomCosts(rng);
    std::string route;
    switch (round % 4) {
      case 0: {  // a constant-rooted exact conjunct feeding a BoundJoin
        route = "bound join";
        Conjunct root;
        root.source = RandomConstant(rng);
        root.target = Endpoint::Variable("X");
        root.regex = testing::RandomRegex(&rng, kLabels, 1);
        query.conjuncts.push_back(std::move(root));
        Conjunct inner = RandomFlexibleConjunct(rng);
        inner.source = Endpoint::Variable("X");
        inner.target = Endpoint::Variable("Y");
        query.conjuncts.push_back(std::move(inner));
        options.evaluator.max_distance = 2;
        break;
      }
      case 1:  // distance-aware ψ rounds
        route = "distance-aware";
        query.conjuncts.push_back(RandomFlexibleConjunct(rng));
        options.distance_aware = true;
        break;
      case 2: {  // disjunction branches
        route = "disjunction";
        Conjunct c = RandomFlexibleConjunct(rng);
        std::vector<RegexPtr> branches;
        branches.push_back(testing::RandomRegex(&rng, kLabels, 1));
        branches.push_back(testing::RandomRegex(&rng, kLabels, 1));
        c.regex = MakeAlternation(std::move(branches));
        query.conjuncts.push_back(std::move(c));
        options.decompose_alternation = true;
        options.evaluator.top_k_hint = rng.NextBool(0.5) ? 3 : 0;
        break;
      }
      default:  // a plain drained conjunct under a ceiling
        route = "plain";
        query.conjuncts.push_back(RandomFlexibleConjunct(rng));
        options.evaluator.max_distance = 1 + static_cast<Cost>(rng.NextBounded(2));
        break;
    }
    query.head = query.BodyVariables();
    bound_join_plans += CheckEngineAgrees(
        engine, query, options,
        "seed " + std::to_string(GetParam()) + " round " +
            std::to_string(round) + " (" + route + ", hint " +
            std::to_string(options.evaluator.top_k_hint) + ") " +
            query.ToString());
  }
  // The BoundJoin route means nothing if the planner never picks it.
  EXPECT_GT(bound_join_plans, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazySuccPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

// --- the class hub -----------------------------------------------------------

/// One class node with `instances` typed instances, no other edges.
GraphStore ClassHubGraph(size_t instances) {
  GraphBuilder gb;
  const NodeId hub = gb.GetOrAddNode("Hub");
  for (size_t i = 0; i < instances; ++i) {
    const NodeId n = gb.GetOrAddNode("i" + std::to_string(i));
    EXPECT_TRUE(gb.AddTypeEdge(n, hub).ok());
  }
  return std::move(gb).Finalize();
}

TEST(LazySuccTest, ClassHubTopTenPushesPerPop) {
  // Every answer of APPROX (?X, type, ?Y) that a top-10 page sees is at
  // distance 0, but each expansion at the hub offers an insertion or a
  // substitution into every instance. Eager Succ pushes all of them on each
  // such pop; lazy Succ defers them behind one tuple at distance 1.
  constexpr size_t kHubInstances = 3000;
  constexpr size_t kTopK = 10;
  const GraphStore graph = ClassHubGraph(kHubInstances);
  Result<PreparedConjunct> prepared = PrepareConjunct(
      testing::Cj("APPROX (?X, type, ?Y)"), graph, nullptr, {});
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto page = [&](bool lazy_succ) {
    EvaluatorOptions options;
    options.lazy_succ = lazy_succ;
    ConjunctEvaluator evaluator(&graph, nullptr, &*prepared, options);
    const std::vector<Emitted> answers = Pull(&evaluator, kTopK);
    EXPECT_EQ(answers.size(), kTopK);
    for (const Emitted& a : answers) EXPECT_EQ(std::get<0>(a), 0);
    return evaluator.stats();
  };
  // Seeds are pushed in batches whatever the page; what a pop pushes is
  // bounded by the moves of one state that are free or deferred.
  auto pushes_within_bound = [](const EvaluatorStats& s) {
    return s.tuples_pushed - s.seeds_added <= 4 * s.tuples_popped;
  };
  const EvaluatorStats lazy = page(true);
  EXPECT_TRUE(pushes_within_bound(lazy))
      << lazy.tuples_pushed << " pushes (" << lazy.seeds_added
      << " seeds) for " << lazy.tuples_popped << " pops";
  EXPECT_LT(lazy.max_dictionary_size, kHubInstances);
  // The bound is not vacuous: eager Succ breaks it on the same page.
  const EvaluatorStats eager = page(false);
  EXPECT_FALSE(pushes_within_bound(eager))
      << eager.tuples_pushed << " pushes (" << eager.seeds_added
      << " seeds) for " << eager.tuples_popped << " pops";
}

TEST(LazySuccTest, DeferredPopsCountAsExpansions) {
  // (a, e, ?Y) on a -e-> b: APPROX answers b at 0 and a itself at 1
  // (deleting e). Lazy Succ expands (a, a, s0) twice: once for its free
  // move, once when the deferred twin pushes the positive-cost moves.
  const GraphStore graph = testing::MakeGraph({{"a", "e", "b"}});
  Result<PreparedConjunct> prepared =
      PrepareConjunct(testing::Cj("APPROX (a, e, ?Y)"), graph, nullptr, {});
  ASSERT_TRUE(prepared.ok());
  EvaluatorOptions options;
  options.lazy_succ = false;
  ConjunctEvaluator eager(&graph, nullptr, &*prepared, options);
  std::vector<Emitted> eager_answers = Pull(&eager, 0);
  ConjunctEvaluator lazy(&graph, nullptr, &*prepared, EvaluatorOptions{});
  std::vector<Emitted> lazy_answers = Pull(&lazy, 0);
  std::sort(eager_answers.begin(), eager_answers.end());
  std::sort(lazy_answers.begin(), lazy_answers.end());
  EXPECT_EQ(lazy_answers, eager_answers);
  EXPECT_GT(lazy.stats().succ_expansions, eager.stats().succ_expansions);
}

TEST(LazySuccTest, CeilingBelowTheDeferredStepChecksMovesInline) {
  // With ψ = 0 no deferred tuple may be pushed: the positive-cost moves are
  // checked when their tuple pops, pushing nothing but setting the flag an
  // eager walk would set.
  const GraphStore graph = testing::MakeGraph({{"a", "e", "b"}, {"b", "f", "c"}});
  Result<PreparedConjunct> prepared =
      PrepareConjunct(testing::Cj("APPROX (a, e, ?Y)"), graph, nullptr, {});
  ASSERT_TRUE(prepared.ok());
  for (const bool lazy_succ : {false, true}) {
    EvaluatorOptions options;
    options.max_distance = 0;
    options.lazy_succ = lazy_succ;
    ConjunctEvaluator evaluator(&graph, nullptr, &*prepared, options);
    const std::vector<Emitted> answers = Pull(&evaluator, 0);
    ASSERT_EQ(answers.size(), 1u) << lazy_succ;
    EXPECT_EQ(answers[0], Emitted(0, *graph.FindNode("a"),
                                  *graph.FindNode("b")));
    EXPECT_TRUE(evaluator.truncated_by_distance()) << lazy_succ;
    // Every popped tuple is a real (v, n, s) or final tuple: none deferred.
    EXPECT_EQ(evaluator.stats().succ_expansions, 2u) << lazy_succ;
  }
}

}  // namespace
}  // namespace omega
