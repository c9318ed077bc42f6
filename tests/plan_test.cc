// Unit tests for the cost-based planning layer: GraphStore label statistics,
// the NFA-level conjunct estimator, greedy bushy / left-deep plan
// construction, plan compilation to streams, and the EXPLAIN rendering —
// plus engine-level checks that Execute actually runs the planned shape and
// that zero-answer queries short-circuit.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eval/query_engine.h"
#include "plan/plan_node.h"
#include "plan/planner.h"
#include "plan/statistics.h"
#include "rpq/query_parser.h"
#include "test_util.h"

namespace omega {
namespace {

using testing::Cj;
using testing::MakeGraph;

PreparedConjunct Prepare(const std::string& text, const GraphStore& graph) {
  Result<PreparedConjunct> p =
      PrepareConjunct(Cj(text), graph, nullptr, EvaluatorOptions{});
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

TEST(LabelStatsTest, ExposesCsrCardinalities) {
  // a: two tails (x, y), two heads (y, z), three edges; b: one of each.
  GraphStore g = MakeGraph({{"x", "a", "y"},
                            {"x", "a", "z"},
                            {"y", "a", "z"},
                            {"p", "b", "q"}});
  const LabelId a = *g.labels().Find("a");
  const LabelStats stats = g.StatsForLabel(a);
  EXPECT_EQ(stats.edge_count, 3u);
  EXPECT_EQ(stats.num_tails, 2u);
  EXPECT_EQ(stats.num_heads, 2u);
  EXPECT_DOUBLE_EQ(stats.AvgOutDegree(), 1.5);
  EXPECT_DOUBLE_EQ(stats.AvgInDegree(), 1.5);

  const LabelStats sigma = g.SigmaStats();
  EXPECT_EQ(sigma.edge_count, 4u);
  EXPECT_EQ(sigma.num_tails, 3u);  // x, y, p

  const LabelStats none = g.StatsForLabel(kInvalidLabel);
  EXPECT_EQ(none.edge_count, 0u);
  EXPECT_DOUBLE_EQ(none.AvgOutDegree(), 0.0);
}

TEST(EstimateConjunctTest, VariableEndpointsCountLabelCandidates) {
  GraphStore g = MakeGraph({{"x", "a", "y"},
                            {"x", "a", "z"},
                            {"y", "a", "z"},
                            {"p", "b", "q"}});
  const ConjunctEstimate est =
      EstimateConjunct(Prepare("(?X, a, ?Y)", g), g);
  EXPECT_DOUBLE_EQ(est.sources, 2.0);  // |Tails(a)|
  EXPECT_DOUBLE_EQ(est.targets, 2.0);  // |Heads(a)|
  EXPECT_FALSE(est.provably_empty);
  EXPECT_GT(est.cardinality, 0.0);
  EXPECT_GT(est.selectivity, 0.0);
  EXPECT_LE(est.selectivity, 1.0);
}

TEST(EstimateConjunctTest, ConstantEndpointsAreNearOneSelectivity) {
  GraphStore g = MakeGraph({{"x", "a", "y"}, {"y", "a", "z"}});
  const ConjunctEstimate from_const =
      EstimateConjunct(Prepare("(x, a, ?Y)", g), g);
  EXPECT_DOUBLE_EQ(from_const.sources, 1.0);
  EXPECT_LT(from_const.cardinality, 2.0);

  // Both endpoints constant: a 0-or-1-row filter.
  const ConjunctEstimate filter =
      EstimateConjunct(Prepare("(x, a, y)", g), g);
  EXPECT_DOUBLE_EQ(filter.sources, 1.0);
  EXPECT_DOUBLE_EQ(filter.targets, 1.0);
  EXPECT_LT(filter.cardinality, 1.0);
}

TEST(EstimateConjunctTest, AbsentConstantOrLabelIsProvablyEmpty) {
  GraphStore g = MakeGraph({{"x", "a", "y"}});
  EXPECT_TRUE(EstimateConjunct(Prepare("(ghost, a, ?Y)", g), g)
                  .provably_empty);
  EXPECT_TRUE(EstimateConjunct(Prepare("(?X, nolabel, ?Y)", g), g)
                  .provably_empty);
  EXPECT_FALSE(EstimateConjunct(Prepare("(x, a, ?Y)", g), g).provably_empty);
}

TEST(EstimateConjunctTest, EmptyPathRegexScalesToAllNodes) {
  GraphStore g = MakeGraph({{"x", "a", "y"}, {"y", "a", "z"}, {"p", "a", "q"}});
  // a* accepts the empty path: every node is its own answer at distance 0.
  const ConjunctEstimate est =
      EstimateConjunct(Prepare("(?X, a*, ?Y)", g), g);
  EXPECT_DOUBLE_EQ(est.sources, static_cast<double>(g.NumNodes()));
  EXPECT_DOUBLE_EQ(est.targets, static_cast<double>(g.NumNodes()));
  EXPECT_DOUBLE_EQ(est.cardinality, static_cast<double>(g.NumNodes()));
}

// --- planner -----------------------------------------------------------------

PlanLeaf Leaf(size_t index, std::vector<VarId> vars, double cardinality) {
  PlanLeaf leaf;
  leaf.conjunct_index = index;
  leaf.description = "#" + std::to_string(index);
  leaf.variables = std::move(vars);
  leaf.estimate.cardinality = cardinality;
  leaf.estimate.selectivity = cardinality;
  return leaf;
}

std::vector<PlanLeaf> ChainLeaves() {
  // (?V0, R0, ?V1) huge, (?V1, R1, ?V2) medium, (?V2, R2, const) selective.
  std::vector<PlanLeaf> leaves;
  leaves.push_back(Leaf(0, {0, 1}, 1000));
  leaves.push_back(Leaf(1, {1, 2}, 100));
  leaves.push_back(Leaf(2, {2}, 1));
  return leaves;
}

TEST(PlannerTest, GreedyJoinsMostSelectivePairFirst) {
  std::unique_ptr<PlanNode> root = PlanGreedyBushy(ChainLeaves(), 100);
  ASSERT_FALSE(root->is_leaf());
  // Expected shape: ((#2 |><| #1) |><| #0), the selective constant conjunct
  // deepest and leftmost.
  ASSERT_FALSE(root->left->is_leaf());
  EXPECT_EQ(root->left->left->conjunct_index, 2u);
  EXPECT_EQ(root->left->right->conjunct_index, 1u);
  EXPECT_EQ(root->right->conjunct_index, 0u);
  EXPECT_EQ(root->left->join_vars, (std::vector<VarId>{2}));
  EXPECT_EQ(root->join_vars, (std::vector<VarId>{1}));
  EXPECT_EQ(root->variables, (std::vector<VarId>{0, 1, 2}));
}

TEST(PlannerTest, CrossProductsDeferredToLast) {
  // #0 and #1 are tiny but share nothing; #2 connects both. A naive
  // cheapest-pair pick would cross-product #0 x #1 first.
  std::vector<PlanLeaf> leaves;
  leaves.push_back(Leaf(0, {0}, 5));
  leaves.push_back(Leaf(1, {1}, 5));
  leaves.push_back(Leaf(2, {0, 1}, 1000));
  std::unique_ptr<PlanNode> root = PlanGreedyBushy(std::move(leaves), 100);
  // Every join in the tree shares a variable.
  ASSERT_FALSE(root->is_leaf());
  EXPECT_FALSE(root->join_vars.empty());
  const PlanNode& inner = root->left->is_leaf() ? *root->right : *root->left;
  EXPECT_FALSE(inner.join_vars.empty());
}

TEST(PlannerTest, ProvablyEmptyLeafJoinsEarlyEvenWithoutSharedVars) {
  std::vector<PlanLeaf> leaves;
  leaves.push_back(Leaf(0, {0}, 500));
  leaves.push_back(Leaf(1, {1}, 0));  // empty: short-circuits everything
  leaves.push_back(Leaf(2, {0}, 400));
  std::unique_ptr<PlanNode> root = PlanGreedyBushy(std::move(leaves), 100);
  // The empty leaf must not be deferred behind the #0 |><| #2 join.
  const PlanNode* deepest = root.get();
  while (!deepest->is_leaf()) deepest = deepest->left.get();
  EXPECT_EQ(deepest->conjunct_index, 1u);
  EXPECT_DOUBLE_EQ(root->est_cardinality, 0.0);
}

TEST(PlannerTest, LeftDeepFollowsGivenOrder) {
  std::unique_ptr<PlanNode> root =
      PlanLeftDeep(ChainLeaves(), {2, 0, 1}, 100);
  ASSERT_FALSE(root->is_leaf());
  EXPECT_EQ(root->right->conjunct_index, 1u);
  ASSERT_FALSE(root->left->is_leaf());
  EXPECT_EQ(root->left->left->conjunct_index, 2u);
  EXPECT_EQ(root->left->right->conjunct_index, 0u);
}

TEST(PlannerTest, CompilePlanExecutesBushyShape) {
  using testing::ScriptedBindingStream;
  auto row = [](std::vector<std::pair<VarId, NodeId>> vars, Cost d) {
    Binding b(3);
    for (auto& [slot, value] : vars) b.Bind(slot, value);
    b.distance = d;
    return b;
  };
  std::vector<PlanLeaf> leaves;
  leaves.push_back(Leaf(0, {0, 1}, 1000));
  leaves.push_back(Leaf(1, {1, 2}, 100));
  leaves.push_back(Leaf(2, {2}, 1));
  std::unique_ptr<PlanNode> root = PlanGreedyBushy(std::move(leaves), 100);

  std::vector<std::unique_ptr<BindingStream>> streams(3);
  streams[0] = std::make_unique<ScriptedBindingStream>(
      std::vector<VarId>{0, 1},
      std::vector<Binding>{row({{0, 7}, {1, 1}}, 0), row({{0, 8}, {1, 2}}, 1)});
  streams[1] = std::make_unique<ScriptedBindingStream>(
      std::vector<VarId>{1, 2},
      std::vector<Binding>{row({{1, 1}, {2, 5}}, 0), row({{1, 2}, {2, 6}}, 0)});
  streams[2] = std::make_unique<ScriptedBindingStream>(
      std::vector<VarId>{2}, std::vector<Binding>{row({{2, 5}}, 2)});

  std::unique_ptr<BindingStream> stream = CompilePlan(root.get(), &streams, 0);
  EXPECT_EQ(stream->variables(), (std::vector<VarId>{0, 1, 2}));
  Binding out;
  ASSERT_TRUE(stream->Next(&out));
  EXPECT_EQ(out.Get(0), 7u);
  EXPECT_EQ(out.Get(2), 5u);
  EXPECT_EQ(out.distance, 2);
  EXPECT_FALSE(stream->Next(&out));
  EXPECT_TRUE(stream->status().ok());
  // Every plan node observed its compiled operator.
  EXPECT_NE(root->stream, nullptr);
  EXPECT_NE(root->left->stream, nullptr);
  EXPECT_NE(root->left->left->stream, nullptr);
}

TEST(PlannerTest, RenderShowsOperatorsAndEstimates) {
  QueryPlan plan;
  plan.catalog.GetOrAdd("X");
  plan.catalog.GetOrAdd("Y");
  plan.catalog.GetOrAdd("Z");
  std::vector<PlanLeaf> leaves = ChainLeaves();
  leaves[0].description = "(?X, a, ?Y)";
  plan.root = PlanGreedyBushy(std::move(leaves), 100);
  const std::string text = RenderPlanTree(plan, /*with_stats=*/false);
  EXPECT_NE(text.find("RankJoin [?Y]"), std::string::npos) << text;
  EXPECT_NE(text.find("(?X, a, ?Y)"), std::string::npos) << text;
  EXPECT_NE(text.find("est="), std::string::npos) << text;
  EXPECT_NE(text.find("sel="), std::string::npos) << text;
}

// --- engine integration ------------------------------------------------------

/// A graph where textual order is bad: the selective conjunct is last.
GraphStore SkewedGraph() {
  std::vector<std::tuple<std::string, std::string, std::string>> triples;
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 3; ++j) {
      triples.push_back({"s" + std::to_string(i), "a",
                         "h" + std::to_string((i + j) % 4)});
      triples.push_back({"h" + std::to_string((i + j) % 4), "b",
                         "t" + std::to_string(i)});
    }
  }
  triples.push_back({"t0", "rare", "sink"});
  return MakeGraph(triples);
}

TEST(PlannerEngineTest, ExecuteChoosesSelectiveLeafDeepest) {
  GraphStore g = SkewedGraph();
  QueryEngine engine(&g, nullptr);
  Result<Query> q = ParseQuery(
      "(?X, ?Z) <- (?X, a, ?Y), (?Y, b, ?Z), (?Z, rare, sink)");
  ASSERT_TRUE(q.ok());
  auto stream = engine.Execute(*q);
  ASSERT_TRUE(stream.ok());
  const QueryPlan* plan = (*stream)->plan();
  ASSERT_NE(plan, nullptr);
  const PlanNode* deepest = plan->root.get();
  while (!deepest->is_leaf()) deepest = deepest->left.get();
  EXPECT_EQ(deepest->conjunct_index, 2u);

  // The planned tree yields the same answers as the textual reference.
  auto planned = engine.ExecuteTopK(*q, 0);
  QueryEngineOptions textual;
  textual.plan_mode = PlanMode::kTextual;
  auto reference = engine.ExecuteTopK(*q, 0, textual);
  ASSERT_TRUE(planned.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(planned->size(), reference->size());
}

TEST(PlannerEngineTest, ExplainQueryRendersTreeWithEstimates) {
  GraphStore g = SkewedGraph();
  QueryEngine engine(&g, nullptr);
  Result<Query> q = ParseQuery(
      "(?X, ?Z) <- (?X, a, ?Y), (?Y, b, ?Z), (?Z, rare, sink)");
  ASSERT_TRUE(q.ok());
  // The HRJN plan (the planner would otherwise pick BoundJoins here; see
  // ExplainAnalyzeRendersBoundJoins).
  QueryEngineOptions hrjn;
  hrjn.use_bound_join = false;
  Result<std::string> text = engine.ExplainQuery(*q, hrjn);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("RankJoin"), std::string::npos) << *text;
  EXPECT_NE(text->find("(?Z, rare, sink)"), std::string::npos) << *text;
  EXPECT_NE(text->find("est="), std::string::npos) << *text;

  // After execution, ExplainString adds per-operator counters.
  auto stream = engine.Execute(*q, hrjn);
  ASSERT_TRUE(stream.ok());
  QueryAnswer a;
  while ((*stream)->Next(&a)) {
  }
  const std::string analyzed = (*stream)->ExplainString();
  EXPECT_NE(analyzed.find("popped="), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("live-peak="), std::string::npos) << analyzed;
  // A join reports the rows it pulled from its children, never 0 once it
  // has emitted.
  EXPECT_EQ(analyzed.find("pulls=0 "), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("pulls="), std::string::npos) << analyzed;
}

TEST(PlannerEngineTest, ExplainAnalyzeRendersBoundJoins) {
  // (?Z, rare, sink) is rooted at a constant; the two variable-to-variable
  // conjuncts hang off it as a chain of dependent joins, each evaluated
  // from the values its outer input binds.
  GraphStore g = SkewedGraph();
  QueryEngine engine(&g, nullptr);
  Result<Query> q = ParseQuery(
      "(?X, ?Z) <- (?X, a, ?Y), (?Y, b, ?Z), (?Z, rare, sink)");
  ASSERT_TRUE(q.ok());
  Result<std::string> text = engine.ExplainQuery(*q);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("BoundJoin [?Z]"), std::string::npos) << *text;
  EXPECT_NE(text->find("BoundJoin [?Y]"), std::string::npos) << *text;
  EXPECT_EQ(text->find("RankJoin"), std::string::npos) << *text;

  auto stream = engine.Execute(*q);
  ASSERT_TRUE(stream.ok());
  QueryAnswer a;
  size_t answers = 0;
  while ((*stream)->Next(&a)) ++answers;
  ASSERT_TRUE((*stream)->status().ok());
  const std::string analyzed = (*stream)->ExplainString();
  EXPECT_NE(analyzed.find("instances="), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("pulls="), std::string::npos) << analyzed;
  // The instances' summed counters surface on the inner leaves.
  EXPECT_NE(analyzed.find("(?X, a, ?Y)  est="), std::string::npos);
  const EvaluatorStats stats = (*stream)->stats();
  EXPECT_GT(stats.instances_opened, 0u);
  EXPECT_GT(stats.join_pulls, 0u);

  QueryEngineOptions hrjn;
  hrjn.use_bound_join = false;
  auto reference = engine.ExecuteTopK(*q, 0, hrjn);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(answers, reference->size());
}

TEST(PlannerEngineTest, ForcedOrderMustBePermutation) {
  GraphStore g = MakeGraph({{"x", "a", "y"}});
  QueryEngine engine(&g, nullptr);
  Result<Query> q = ParseQuery("(?X) <- (?X, a, ?Y), (?Y, a, ?Z)");
  ASSERT_TRUE(q.ok());
  QueryEngineOptions options;
  options.forced_join_order = {0, 0};
  auto stream = engine.Execute(*q, options);
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlannerEngineTest, ZeroAnswerQueryDoesNotDrainSiblings) {
  // "ghost" is not in the graph: conjunct 0 is provably empty. Neither plan
  // mode may pay for the dense sibling conjuncts.
  GraphStore g = SkewedGraph();
  QueryEngine engine(&g, nullptr);
  Result<Query> q = ParseQuery(
      "(?X, ?Y) <- (ghost, rare, ?Y), (?X, a, ?Y), (?X, b, ?Z)");
  ASSERT_TRUE(q.ok());
  for (const PlanMode mode : {PlanMode::kGreedyBushy, PlanMode::kTextual}) {
    QueryEngineOptions options;
    options.plan_mode = mode;
    auto stream = engine.Execute(*q, options);
    ASSERT_TRUE(stream.ok());
    QueryAnswer a;
    EXPECT_FALSE((*stream)->Next(&a));
    EXPECT_TRUE((*stream)->status().ok());
    // A handful of pulls at most — the dense conjuncts stream hundreds of
    // answers when drained.
    EXPECT_LE((*stream)->stats().tuples_popped, 10u)
        << "mode " << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace omega
