// BoundJoinStream unit tests (one budget and one cancel path for the whole
// operator, per-operator counters) and the regression for the join shapes
// whose HRJN plan drains a variable-to-variable APPROX conjunct over the
// whole graph: `({c}, next+, ?X), APPROX (?X, prereq, ?Y)` on L4All and the
// YAGO prize chain ending in `APPROX (?Q, bornIn, ?C)`. Under the HRJN plan
// they exhaust the tuple budget; the dependent-join plan answers them.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datasets/l4all.h"
#include "datasets/yago.h"
#include "eval/bound_join.h"
#include "eval/query_engine.h"
#include "index/index_manager.h"
#include "rpq/query_parser.h"
#include "test_util.h"

namespace omega {
namespace {

using testing::MakeGraph;
using testing::ScriptedBindingStream;

/// Slots: 0 = ?X (bound by the outer rows), 1 = ?Y.
constexpr VarId kX = 0;
constexpr VarId kY = 1;

/// A star graph: hub h<i> has `fanout` outgoing `e` edges.
GraphStore StarGraph(size_t hubs, size_t fanout) {
  std::vector<std::tuple<std::string, std::string, std::string>> triples;
  for (size_t i = 0; i < hubs; ++i) {
    for (size_t j = 0; j < fanout; ++j) {
      triples.push_back({"h" + std::to_string(i), "e",
                         "t" + std::to_string(i) + "_" + std::to_string(j)});
    }
  }
  return MakeGraph(triples);
}

/// Outer rows binding ?X to every hub at distance 0.
std::unique_ptr<BindingStream> HubRows(const GraphStore& g, size_t hubs) {
  std::vector<Binding> rows;
  for (size_t i = 0; i < hubs; ++i) {
    Binding b(2);
    b.Bind(kX, *g.FindNode("h" + std::to_string(i)));
    rows.push_back(std::move(b));
  }
  return std::make_unique<ScriptedBindingStream>(std::vector<VarId>{kX},
                                                 std::move(rows));
}

BoundConjunct EdgeConjunct(const GraphStore& g, EvaluatorOptions options) {
  Result<PreparedConjunct> prepared =
      PrepareConjunct(testing::Cj("(?X, e, ?Y)"), g, nullptr, options);
  EXPECT_TRUE(prepared.ok());
  BoundConjunct inner;
  inner.graph = &g;
  inner.prepared =
      std::make_unique<PreparedConjunct>(std::move(prepared).value());
  inner.options = options;
  inner.bound_slot = kX;
  inner.free_slot = kY;
  return inner;
}

size_t Drain(BindingStream& stream) {
  Binding b;
  size_t rows = 0;
  while (stream.Next(&b)) ++rows;
  return rows;
}

TEST(BoundJoinTest, JoinsEveryBindingWithItsInstance) {
  const GraphStore g = StarGraph(4, 3);
  BoundJoinStream join(HubRows(g, 4), EdgeConjunct(g, {}));
  EXPECT_EQ(join.variables(), (std::vector<VarId>{kX, kY}));
  EXPECT_EQ(Drain(join), 12u);
  ASSERT_TRUE(join.status().ok());
  const EvaluatorStats own = join.OperatorStats();
  EXPECT_EQ(own.answers_emitted, 12u);
  EXPECT_EQ(own.instances_opened, 4u);
  EXPECT_EQ(own.join_pulls, 4u + 12u);  // outer rows + instance rows
  // The inner view carries the instances' summed evaluator counters.
  EXPECT_EQ(join.inner_view().stats().answers_emitted, 12u);
  EXPECT_EQ(join.inner_view().stats().seeds_added, 4u);
}

TEST(BoundJoinTest, BudgetIsOneSumOverAllInstances) {
  // Each instance alone holds a handful of live tuples; only their sum
  // exceeds the budget. A per-instance budget would let this run.
  const GraphStore g = StarGraph(40, 3);
  size_t peak = 0;
  {
    BoundJoinStream unlimited(HubRows(g, 40), EdgeConjunct(g, {}));
    EXPECT_EQ(Drain(unlimited), 120u);
    peak = unlimited.OperatorStats().max_join_live;
  }
  ASSERT_GT(peak, 40u);
  BoundJoinStream join(HubRows(g, 40), EdgeConjunct(g, {}), peak / 2);
  Drain(join);
  EXPECT_EQ(join.status().code(), StatusCode::kResourceExhausted)
      << join.status().ToString();
  EXPECT_NE(join.status().message().find("bound join"), std::string::npos);
}

TEST(BoundJoinTest, InstanceGrowsOnlyIntoTheSharedBudget) {
  // One instance walks a long chain without answering until its end; its
  // search state alone outgrows the budget.
  std::vector<std::tuple<std::string, std::string, std::string>> triples;
  for (int i = 0; i < 200; ++i) {
    triples.push_back({"n" + std::to_string(i), "e",
                       "n" + std::to_string(i + 1)});
  }
  triples.push_back({"n200", "f", "end"});
  const GraphStore g = MakeGraph(triples);
  Result<PreparedConjunct> prepared =
      PrepareConjunct(testing::Cj("(?X, e*.f, ?Y)"), g, nullptr, {});
  ASSERT_TRUE(prepared.ok());
  BoundConjunct inner;
  inner.graph = &g;
  inner.prepared =
      std::make_unique<PreparedConjunct>(std::move(prepared).value());
  inner.bound_slot = kX;
  inner.free_slot = kY;
  Binding row(2);
  row.Bind(kX, *g.FindNode("n0"));
  BoundJoinStream join(std::make_unique<ScriptedBindingStream>(
                           std::vector<VarId>{kX}, std::vector<Binding>{row}),
                       std::move(inner), /*max_live_tuples=*/50);
  Drain(join);
  EXPECT_EQ(join.status().code(), StatusCode::kResourceExhausted)
      << join.status().ToString();
}

TEST(BoundJoinTest, OpeningAnInstanceChecksTheCancelToken) {
  // Neither the scripted outer rows nor the instances poll a token here:
  // only the join's own check at instance open can fail the stream.
  const GraphStore g = StarGraph(4, 3);
  CancelSource source = CancelSource::WithTimeout(std::chrono::nanoseconds(0));
  BoundJoinStream join(HubRows(g, 4), EdgeConjunct(g, {}), 0, source.token());
  Binding b;
  EXPECT_FALSE(join.Next(&b));
  EXPECT_EQ(join.status().code(), StatusCode::kDeadlineExceeded)
      << join.status().ToString();
  EXPECT_EQ(join.OperatorStats().instances_opened, 0u);
}

TEST(BoundJoinTest, EngineBudgetAndDeadlineSurface) {
  const GraphStore g = StarGraph(40, 3);
  QueryEngine engine(&g, nullptr);
  const Query q = testing::Qy("(?X, ?Y) <- (?X, e, t7_0), (?X, e, ?Y)");
  auto plan = engine.ExplainQuery(q);
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan->find("BoundJoin [?X]"), std::string::npos) << *plan;

  QueryEngineOptions tight;
  tight.evaluator.max_live_tuples = 3;
  auto exhausted = engine.ExecuteTopK(q, 0, tight);
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);

  QueryEngineOptions expired;
  CancelSource source = CancelSource::WithTimeout(std::chrono::nanoseconds(0));
  expired.evaluator.cancel = source.token();
  auto late = engine.ExecuteTopK(q, 0, expired);
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);

  auto answers = engine.ExecuteTopK(q, 0);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 3u);
}

// --- the shapes the HRJN plan cannot answer within budget ---------------------

/// A tuple budget the HRJN plans of both shapes exhaust on the generated
/// data below, while their dependent-join plans stay far under it.
constexpr size_t kBudget = 1'000'000;
constexpr size_t kTopK = 100;

/// Runs `text` top-k under the HRJN plan (must exhaust kBudget) and under
/// the default plan (must answer k rows within it, in a BoundJoin plan,
/// holding fewer than `max_join_live` live tuples).
void ExpectBoundJoinAnswersWithinBudget(const QueryEngine& engine,
                                        const std::string& text,
                                        size_t max_join_live = kBudget / 2) {
  const Query query = testing::Qy(text);
  QueryEngineOptions hrjn;
  hrjn.use_bound_join = false;
  hrjn.evaluator.max_live_tuples = kBudget;
  auto drained = engine.ExecuteTopK(query, kTopK, hrjn);
  EXPECT_EQ(drained.status().code(), StatusCode::kResourceExhausted)
      << text << ": " << drained.status().ToString();

  QueryEngineOptions bound;
  bound.evaluator.max_live_tuples = kBudget;
  bound.evaluator.top_k_hint = kTopK;
  auto stream = engine.Execute(query, bound);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  size_t answers = 0;
  QueryAnswer answer;
  while (answers < kTopK && (*stream)->Next(&answer)) ++answers;
  ASSERT_TRUE((*stream)->status().ok())
      << text << ": " << (*stream)->status().ToString();
  EXPECT_EQ(answers, kTopK) << text;
  const std::string explain = (*stream)->ExplainString();
  EXPECT_NE(explain.find("BoundJoin"), std::string::npos) << explain;
  EXPECT_LT((*stream)->stats().max_join_live, max_join_live) << explain;
}

TEST(BoundJoinRegressionTest, L4AllClosureProbeWithApproxPrereq) {
  L4AllOptions options;
  options.num_timelines = 600;
  const L4AllDataset data = GenerateL4All(options);
  IndexManager indexes(&data.graph);
  QueryEngine engine(&data.graph, &data.ontology, &indexes);
  for (const char* timeline : {"Alumni 4 Episode 1", "Alumni 9 Episode 1"}) {
    // The instances pop 291 / 314 tuples (285 / 309 under eager Succ).
    // Eager Succ holds 219,020 / 284,132 live tuples for them (every
    // insertion and substitution at a class node pushes each of its
    // instances), lazy Succ 67,918 / 63,899.
    ExpectBoundJoinAnswersWithinBudget(
        engine,
        std::string("(?X, ?Y) <- (") + timeline +
            ", next+, ?X), APPROX (?X, prereq, ?Y)",
        /*max_join_live=*/100'000);
  }
}

TEST(BoundJoinRegressionTest, YagoPrizeChainWithApproxBirthplace) {
  YagoOptions options;
  options.scale = 0.01;
  const YagoDataset data = GenerateYago(options);
  IndexManager indexes(&data.graph);
  QueryEngine engine(&data.graph, &data.ontology, &indexes);
  for (const char* prize : {"prize_1", "prize_5"}) {
    ExpectBoundJoinAnswersWithinBudget(
        engine, std::string("(?P, ?C) <- (") + prize +
                    ", hasWonPrize-, ?P), (?P, marriedTo, ?Q), "
                    "APPROX (?Q, bornIn, ?C), (?C, locatedIn, ?K)");
  }
}

}  // namespace
}  // namespace omega
