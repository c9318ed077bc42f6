// Bound-vs-unbound plan equivalence: a query planned with dependent
// (bound-input) joins must yield the same ranked answers as the plain HRJN
// plan (QueryEngineOptions::use_bound_join=false), on random graphs and
// ontologies. Drained queries compare full ranked multisets; top-k cuts
// compare tie-aware (the distance sequence is fixed, answers strictly below
// the cut distance are fixed, answers at it may be any of the tied ones).
// Covered: bound variables at the source and at the target (the reversed
// automaton), RELAX instances bound to class nodes (no sc-ancestor seeds),
// (?X, R, ?X), APPROX with a final start state, 3-4-conjunct dependent
// chains and drained exact queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "eval/query_engine.h"
#include "rpq/query_parser.h"
#include "store/graph_builder.h"
#include "test_util.h"

namespace omega {
namespace {

using Row = std::pair<std::vector<NodeId>, Cost>;

struct World {
  GraphStore graph;
  Ontology ontology;
};

/// Random world: properties p0..p3 in a random sp forest (with random
/// domains and ranges), classes c0..c3 in a random sc forest, instances
/// n0..n13 typed at random, random property edges between instances.
World MakeWorld(uint64_t seed) {
  Rng rng(seed);
  World world;
  OntologyBuilder ob;
  const std::vector<std::string> properties = {"p0", "p1", "p2", "p3"};
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
    if (rng.NextBool(0.5)) {
      EXPECT_TRUE(
          ob.SetDomain(p, classes[rng.NextBounded(classes.size())]).ok());
    }
    if (rng.NextBool(0.5)) {
      EXPECT_TRUE(
          ob.SetRange(p, classes[rng.NextBounded(classes.size())]).ok());
    }
  }
  Result<Ontology> ontology = std::move(ob).Finalize();
  EXPECT_TRUE(ontology.ok());
  world.ontology = std::move(ontology).value();

  GraphBuilder gb;
  constexpr size_t kInstances = 14;
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < kInstances; ++i) {
    nodes.push_back(gb.GetOrAddNode("n" + std::to_string(i)));
  }
  std::vector<NodeId> class_nodes;
  for (const std::string& c : classes) class_nodes.push_back(gb.GetOrAddNode(c));
  for (NodeId n : nodes) {
    if (rng.NextBool(0.7)) {
      EXPECT_TRUE(
          gb.AddTypeEdge(n, class_nodes[rng.NextBounded(class_nodes.size())])
              .ok());
    }
  }
  for (const std::string& p : properties) {
    Result<LabelId> l = gb.InternLabel(p);
    for (int e = 0; e < 14; ++e) {
      EXPECT_TRUE(gb.AddEdge(nodes[rng.NextBounded(kInstances)], *l,
                             nodes[rng.NextBounded(kInstances)])
                      .ok());
    }
  }
  world.graph = std::move(gb).Finalize();
  return world;
}

size_t CountBoundJoins(const PlanNode* node) {
  if (node == nullptr || node->is_leaf()) return 0;
  return (node->bound_var != kInvalidVar ? 1 : 0) +
         CountBoundJoins(node->left.get()) +
         CountBoundJoins(node->right.get());
}

/// Runs `query` to `limit` answers (0 drains), asserting success and
/// non-decreasing distances. `bound_joins` receives the plan's BoundJoin
/// count.
std::vector<Row> Run(const QueryEngine& engine, const Query& query,
                     const QueryEngineOptions& options, size_t limit,
                     const std::string& what, size_t* bound_joins = nullptr) {
  std::vector<Row> rows;
  auto stream = engine.Execute(query, options);
  EXPECT_TRUE(stream.ok()) << what << ": " << stream.status().ToString();
  if (!stream.ok()) return rows;
  QueryAnswer answer;
  while ((limit == 0 || rows.size() < limit) && (*stream)->Next(&answer)) {
    if (!rows.empty()) {
      EXPECT_GE(answer.distance, rows.back().second)
          << what << ": emission order must be non-decreasing";
    }
    rows.emplace_back(answer.bindings, answer.distance);
  }
  EXPECT_TRUE((*stream)->status().ok())
      << what << ": " << (*stream)->status().ToString();
  if (bound_joins != nullptr) {
    *bound_joins = CountBoundJoins((*stream)->plan()->root.get());
  }
  return rows;
}

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Tie-aware top-k check of `got` against the full ranked answer list
/// `all` (sorted by distance): same length as the reference cut, same
/// distance sequence, the same answers strictly below the cut distance, and
/// every answer at the cut distance one of the tied answers.
void ExpectTopKAgrees(const std::vector<Row>& got, const std::vector<Row>& all,
                      size_t k, const std::string& what) {
  const size_t want = std::min(k, all.size());
  ASSERT_EQ(got.size(), want) << what;
  if (want == 0) return;
  std::vector<Cost> got_d, want_d;
  for (size_t i = 0; i < want; ++i) {
    got_d.push_back(got[i].second);
    want_d.push_back(all[i].second);
  }
  EXPECT_EQ(got_d, want_d) << what << ": distance sequence of the top-" << k;
  const Cost cut = all[want - 1].second;
  std::vector<Row> got_below, want_below;
  for (const Row& r : got) {
    if (r.second < cut) got_below.push_back(r);
  }
  for (const Row& r : all) {
    if (r.second < cut) want_below.push_back(r);
  }
  EXPECT_EQ(Sorted(got_below), Sorted(want_below)) << what;
  for (const Row& r : got) {
    if (r.second != cut) continue;
    EXPECT_NE(std::find(all.begin(), all.end(), r), all.end())
        << what << ": an answer at the cut distance is not a tied answer";
  }
}

/// Drains under both plans and compares; then compares a few top-k cuts.
/// Returns the bound plan's BoundJoin count.
size_t CheckBoundAgrees(const QueryEngine& engine, const Query& query,
                        QueryEngineOptions base, const std::string& what) {
  QueryEngineOptions unbound = base;
  unbound.use_bound_join = false;
  QueryEngineOptions bound = base;
  bound.use_bound_join = true;
  size_t bound_joins = 0, hrjn_bound_joins = 0;
  std::vector<Row> reference =
      Run(engine, query, unbound, 0, what + " [HRJN]", &hrjn_bound_joins);
  EXPECT_EQ(hrjn_bound_joins, 0u) << what;
  std::stable_sort(reference.begin(), reference.end(),
                   [](const Row& a, const Row& b) {
                     return a.second < b.second;
                   });
  const std::vector<Row> got =
      Run(engine, query, bound, 0, what + " [bound]", &bound_joins);
  EXPECT_EQ(Sorted(got), Sorted(reference))
      << what << ": bound plan diverged from the HRJN plan";
  for (const size_t k : {1, 3, 7}) {
    ExpectTopKAgrees(
        Run(engine, query, bound, k, what + " [bound top-k]"), reference, k,
        what + " top-" + std::to_string(k));
  }
  return bound_joins;
}

ConjunctMode RandomMode(Rng& rng) {
  const uint64_t pick = rng.NextBounded(3);
  return pick == 0 ? ConjunctMode::kExact
                   : pick == 1 ? ConjunctMode::kApprox : ConjunctMode::kRelax;
}

/// A constant-rooted conjunct binding ?V0, followed by a chain of 1-3
/// variable-to-variable conjuncts, each bound at its source, at its target
/// or a self-loop on the previous variable.
Query RandomChainQuery(Rng& rng) {
  const std::vector<std::string> labels = {"p0", "p1", "p2", "type"};
  Query query;
  Conjunct root;
  root.mode = rng.NextBool(0.7) ? ConjunctMode::kExact : RandomMode(rng);
  const Endpoint constant =
      rng.NextBool(0.3)
          ? Endpoint::Constant("c" + std::to_string(rng.NextBounded(4)))
          : Endpoint::Constant("n" + std::to_string(rng.NextBounded(14)));
  if (rng.NextBool(0.8)) {
    root.source = constant;
    root.target = Endpoint::Variable("V0");
  } else {
    root.source = Endpoint::Variable("V0");
    root.target = constant;
  }
  root.regex = testing::RandomRegex(&rng, labels, 1);
  query.conjuncts.push_back(std::move(root));

  const size_t links = 1 + rng.NextBounded(3);
  for (size_t i = 0; i < links; ++i) {
    const std::string prev = "V" + std::to_string(i);
    const std::string next = "V" + std::to_string(i + 1);
    Conjunct c;
    c.mode = RandomMode(rng);
    const uint64_t shape = rng.NextBounded(6);
    if (shape < 3) {
      c.source = Endpoint::Variable(prev);
      c.target = Endpoint::Variable(next);
    } else if (shape < 5) {
      c.source = Endpoint::Variable(next);
      c.target = Endpoint::Variable(prev);
    } else {
      c.source = Endpoint::Variable(prev);
      c.target = Endpoint::Variable(prev);
    }
    c.regex = testing::RandomRegex(&rng, labels, 1);
    query.conjuncts.push_back(std::move(c));
  }
  query.head = query.BodyVariables();
  return query;
}

class BoundJoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundJoinPropertyTest, BoundPlansMatchHrjnPlans) {
  Rng rng(GetParam() * 7919 + 3);
  const World world = MakeWorld(GetParam());
  QueryEngine engine(&world.graph, &world.ontology);
  size_t rounds = 0, rounds_bound = 0;
  for (int round = 0; round < 12; ++round) {
    const Query query = RandomChainQuery(rng);
    ASSERT_TRUE(ValidateQuery(query).ok()) << query.ToString();
    QueryEngineOptions base;
    base.evaluator.max_distance = 2;
    base.evaluator.relax.enable_domain_range = rng.NextBool(0.5);
    base.plan_mode = rng.NextBool(0.8) ? PlanMode::kGreedyBushy
                                       : PlanMode::kTextual;
    const size_t bound = CheckBoundAgrees(
        engine, query, base,
        "seed " + std::to_string(GetParam()) + " round " +
            std::to_string(round) + " " + query.ToString());
    ++rounds;
    if (bound > 0) ++rounds_bound;
  }
  // The property means nothing if the planner never picks a BoundJoin.
  EXPECT_GE(rounds_bound * 2, rounds)
      << rounds_bound << " of " << rounds << " plans used a BoundJoin";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundJoinPropertyTest,
                         ::testing::Range<uint64_t>(1, 17));

/// A fixed ontology with a two-level class chain: c0 sc c1 sc c2.
World ClassChainWorld() {
  World world;
  OntologyBuilder ob;
  EXPECT_TRUE(ob.AddSubclass("c0", "c1").ok());
  EXPECT_TRUE(ob.AddSubclass("c1", "c2").ok());
  EXPECT_TRUE(ob.AddSubproperty("p0", "p1").ok());
  Result<Ontology> ontology = std::move(ob).Finalize();
  EXPECT_TRUE(ontology.ok());
  world.ontology = std::move(ontology).value();
  GraphBuilder gb;
  const NodeId n0 = gb.GetOrAddNode("n0");
  const NodeId n1 = gb.GetOrAddNode("n1");
  const NodeId n2 = gb.GetOrAddNode("n2");
  const NodeId n3 = gb.GetOrAddNode("n3");
  const NodeId c0 = gb.GetOrAddNode("c0");
  const NodeId c1 = gb.GetOrAddNode("c1");
  const NodeId c2 = gb.GetOrAddNode("c2");
  EXPECT_TRUE(gb.AddTypeEdge(n0, c0).ok());
  EXPECT_TRUE(gb.AddTypeEdge(n1, c1).ok());
  EXPECT_TRUE(gb.AddTypeEdge(n2, c2).ok());
  const LabelId p0 = *gb.InternLabel("p0");
  const LabelId p1 = *gb.InternLabel("p1");
  EXPECT_TRUE(gb.AddEdge(n0, p0, n1).ok());
  EXPECT_TRUE(gb.AddEdge(n1, p1, n2).ok());
  EXPECT_TRUE(gb.AddEdge(n2, p0, n3).ok());
  EXPECT_TRUE(gb.AddEdge(n3, p1, n0).ok());
  (void)c1;
  world.graph = std::move(gb).Finalize();
  return world;
}

size_t CheckFixed(const World& world, const std::string& text,
                  QueryEngineOptions base = {}) {
  QueryEngine engine(&world.graph, &world.ontology);
  return CheckBoundAgrees(engine, testing::Qy(text), base, text);
}

TEST(BoundJoinShapeTest, RelaxInstanceOnClassNodeSeedsNoAncestors) {
  // ?C binds the class c0. The Case-1 constant Open of RELAX (c0, type-, ?Y)
  // would also seed c1 and c2 and answer n1 and n2 at cost > 0 — answers
  // the unbound conjunct never pairs with ?C = c0.
  const World world = ClassChainWorld();
  EXPECT_EQ(CheckFixed(world, "(?C, ?Y) <- (n0, type, ?C), "
                              "RELAX (?C, type-, ?Y)"),
            1u);
  QueryEngine engine(&world.graph, &world.ontology);
  auto answers = engine.ExecuteTopK(
      testing::Qy("(?Y) <- (n0, type, ?C), RELAX (?C, type-, ?Y)"), 0);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ((*answers)[0].bindings[0], *world.graph.FindNode("n0"));
}

TEST(BoundJoinShapeTest, TargetBoundConjunctRunsReversed) {
  const World world = ClassChainWorld();
  EXPECT_EQ(CheckFixed(world, "(?X, ?Y) <- (n0, p0, ?X), (?Y, p1.p0, ?X)"),
            1u);
  EXPECT_EQ(
      CheckFixed(world, "(?X, ?Y) <- (n0, p0, ?X), APPROX (?Y, p1.p0, ?X)"),
      1u);
  // Without dom/range relaxation RELAX is symmetric under reversal.
  EXPECT_EQ(
      CheckFixed(world, "(?X, ?Y) <- (n0, p0, ?X), RELAX (?Y, p0.p1, ?X)"),
      1u);
}

TEST(BoundJoinShapeTest, RelaxWithDomainRangeIsNeverBoundAtTarget) {
  World world;
  OntologyBuilder ob;
  EXPECT_TRUE(ob.SetDomain("p", "d").ok());
  EXPECT_TRUE(ob.SetRange("p", "r").ok());
  world.ontology = std::move(ob).Finalize().value();
  GraphBuilder gb;
  const NodeId a = gb.GetOrAddNode("a");
  const NodeId b = gb.GetOrAddNode("b");
  const NodeId d = gb.GetOrAddNode("d");
  const NodeId r = gb.GetOrAddNode("r");
  const LabelId p = *gb.InternLabel("p");
  const LabelId q = *gb.InternLabel("q");
  EXPECT_TRUE(gb.AddEdge(a, p, b).ok());
  EXPECT_TRUE(gb.AddEdge(a, q, b).ok());
  EXPECT_TRUE(gb.AddTypeEdge(a, d).ok());
  EXPECT_TRUE(gb.AddTypeEdge(b, r).ok());
  world.graph = std::move(gb).Finalize();
  QueryEngineOptions options;
  options.evaluator.relax.enable_domain_range = true;
  EXPECT_EQ(CheckFixed(world, "(?X, ?Y) <- (a, q, ?X), RELAX (?Y, p, ?X)",
                       options),
            0u);
  // Bound at its source, the dom/range rule is safe.
  EXPECT_EQ(CheckFixed(world, "(?X, ?Y) <- (a, q-, ?X), RELAX (?X, p, ?Y)",
                       options),
            1u);
}

TEST(BoundJoinShapeTest, SelfLoopConjunct) {
  const World world = ClassChainWorld();
  EXPECT_EQ(CheckFixed(world, "(?X) <- (n0, p0+, ?X), (?X, (p0|p1)+, ?X)"),
            1u);
  EXPECT_EQ(
      CheckFixed(world, "(?X) <- (n0, p0, ?X), APPROX (?X, p1.p0, ?X)"), 1u);
}

TEST(BoundJoinShapeTest, ApproxWithFinalStartState) {
  // Deleting the one symbol makes the start state final at cost 1: every
  // binding of ?X answers itself.
  const World world = ClassChainWorld();
  EXPECT_EQ(CheckFixed(world, "(?X, ?Y) <- (n0, p0|p1, ?X), APPROX (?X, p1, ?Y)"),
            1u);
  EXPECT_EQ(CheckFixed(world, "(?X, ?Y) <- (n3, p1, ?X), APPROX (?X, p0*, ?Y)"),
            1u);
}

TEST(BoundJoinShapeTest, ChainsBecomeLeftDeepDependentJoins) {
  const World world = MakeWorld(99);
  EXPECT_GE(CheckFixed(world,
                       "(?A, ?D) <- (n1, p0|p1, ?A), (?A, p2, ?B), "
                       "RELAX (?B, p1, ?C), (?C, p0-, ?D)"),
            2u);
  QueryEngine engine(&world.graph, &world.ontology);
  auto stream = engine.Execute(testing::Qy(
      "(?A, ?C) <- (n1, p0|p1, ?A), (?A, p2, ?B), APPROX (?B, p1, ?C)"));
  ASSERT_TRUE(stream.ok());
  const PlanNode* node = (*stream)->plan()->root.get();
  size_t depth = 0;
  while (!node->is_leaf()) {
    EXPECT_NE(node->bound_var, kInvalidVar);
    EXPECT_TRUE(node->right->is_leaf());
    node = node->left.get();
    ++depth;
  }
  EXPECT_EQ(depth, 2u);
  EXPECT_EQ(node->conjunct_index, 0u);
}

TEST(BoundJoinShapeTest, DrainedExactQueries) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const World world = MakeWorld(seed * 31);
    EXPECT_EQ(CheckFixed(world, "(?X, ?Y, ?Z) <- (n2, p0|p2, ?X), "
                                "(?X, p1+, ?Y), (?Z, p2.p0-, ?Y)"),
              2u);
  }
}

}  // namespace
}  // namespace omega
