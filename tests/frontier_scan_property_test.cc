// Frontier scan vs ranked walk: an exact variable-to-variable conjunct run
// as a FrontierScanStream must yield exactly the answer set of the ranked
// Open/GetNext/Succ walk (QueryEngineOptions::use_frontier_scan=false), on
// seeded random cyclic graphs with self-loops. Covered: label, inverse,
// `_`, concatenation, alternation, `+` and `*` (a final start state, so
// every node answers itself), (?X, R, ?X), a constant target (Case 2
// reverses it, so the ranked walk keeps it) and exact variable-to-variable
// conjuncts inside multi-conjunct queries. Unit tests pin the budget and
// deadline failures and the lazy source opening a top-k pull relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"
#include "eval/frontier_scan.h"
#include "eval/query_engine.h"
#include "store/graph_builder.h"
#include "test_util.h"

namespace omega {
namespace {

using Row = std::pair<std::vector<NodeId>, Cost>;

const std::vector<std::string> kLabels = {"p0", "p1", "p2"};

/// Random cyclic graph over nodes n0..n<num_nodes-1>: a ring of p0 edges
/// (so closures wrap around), self-loops on a few nodes, random edges over
/// every label, and a few `type` edges (which `_` also steps over).
GraphStore CyclicGraph(uint64_t seed, size_t num_nodes) {
  Rng rng(seed);
  GraphBuilder builder;
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < num_nodes; ++i) {
    nodes.push_back(builder.GetOrAddNode("n" + std::to_string(i)));
  }
  std::vector<LabelId> labels;
  for (const std::string& l : kLabels) labels.push_back(*builder.InternLabel(l));
  auto add = [&](NodeId a, LabelId l, NodeId b) {
    EXPECT_TRUE(builder.AddEdge(a, l, b).ok());
  };
  for (size_t i = 0; i < num_nodes; i += 3) {
    add(nodes[i], labels[0], nodes[(i + 3) % num_nodes]);
  }
  for (size_t i = 0; i < 4; ++i) {
    const NodeId n = nodes[rng.NextBounded(num_nodes)];
    add(n, labels[rng.NextBounded(labels.size())], n);
  }
  for (const LabelId l : labels) {
    for (size_t e = 0; e < num_nodes; ++e) {
      add(nodes[rng.NextBounded(num_nodes)], l,
          nodes[rng.NextBounded(num_nodes)]);
    }
  }
  const LabelId type = *builder.InternLabel("type");
  for (size_t e = 0; e < num_nodes / 3; ++e) {
    add(nodes[rng.NextBounded(num_nodes)], type,
        nodes[rng.NextBounded(num_nodes)]);
  }
  return std::move(builder).Finalize();
}

/// Drains `query`, asserting success; rows sorted for set comparison.
/// `explain` receives the EXPLAIN ANALYZE rendering.
std::vector<Row> Drain(const QueryEngine& engine, const Query& query,
                       const QueryEngineOptions& options,
                       std::string* explain = nullptr) {
  std::vector<Row> rows;
  auto stream = engine.Execute(query, options);
  EXPECT_TRUE(stream.ok()) << stream.status().ToString();
  if (!stream.ok()) return rows;
  QueryAnswer answer;
  while ((*stream)->Next(&answer)) {
    rows.emplace_back(answer.bindings, answer.distance);
  }
  EXPECT_TRUE((*stream)->status().ok()) << (*stream)->status().ToString();
  if (explain != nullptr) *explain = (*stream)->ExplainString();
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Drains `query` with the frontier scan on and off and compares the
/// answer sets. Returns how many leaves ran as frontier scans.
size_t ExpectScanMatchesRanked(const QueryEngine& engine, const Query& query,
                               QueryEngineOptions options) {
  options.use_frontier_scan = false;
  std::string ranked_plan;
  const std::vector<Row> ranked = Drain(engine, query, options, &ranked_plan);
  EXPECT_EQ(ranked_plan.find("via FrontierScan"), std::string::npos);
  options.use_frontier_scan = true;
  std::string scan_plan;
  const std::vector<Row> scanned = Drain(engine, query, options, &scan_plan);
  EXPECT_EQ(scanned, ranked) << query.ToString() << "\n" << scan_plan;
  size_t scans = 0;
  for (size_t at = scan_plan.find("via FrontierScan"); at != std::string::npos;
       at = scan_plan.find("via FrontierScan", at + 1)) {
    ++scans;
  }
  return scans;
}

/// Every (v, n) a stream emits, duplicates kept, sorted.
std::vector<std::pair<NodeId, NodeId>> Emitted(AnswerStream* stream) {
  std::vector<std::pair<NodeId, NodeId>> out;
  Answer answer;
  while (stream->Next(&answer)) {
    EXPECT_EQ(answer.distance, 0);
    out.emplace_back(answer.v, answer.n);
  }
  EXPECT_TRUE(stream->status().ok()) << stream->status().ToString();
  std::sort(out.begin(), out.end());
  return out;
}

/// Stream-level check below the engine's head dedup: the scan emits each
/// answer of the ranked walk exactly once.
void ExpectStreamsAgree(const GraphStore& graph, const Conjunct& conjunct) {
  Result<PreparedConjunct> prepared =
      PrepareConjunct(conjunct, graph, nullptr, EvaluatorOptions{});
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(FrontierScanEligible(*prepared)) << ToString(conjunct);
  FrontierScanStream scan(&graph, &*prepared, EvaluatorOptions{});
  ConjunctEvaluator ranked(&graph, nullptr, &*prepared, EvaluatorOptions{});
  EXPECT_EQ(Emitted(&scan), Emitted(&ranked)) << ToString(conjunct);
}

class FrontierScanPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FrontierScanPropertyTest, EveryOperatorMatchesRankedWalk) {
  const GraphStore graph = CyclicGraph(GetParam(), 24);
  QueryEngine engine(&graph, nullptr);
  for (const char* regex :
       {"p0", "p1-", "_", "_-", "p0.p1", "p0.p2-.p1", "p0|p1-", "(p0|p1).p2",
        "p0+", "p1-+", "(p0.p1)+", "p0*", "(p1|p2-)*", "_+", "p0*.p1",
        "(p0.p1-)*.p2+"}) {
    const Query query =
        testing::Qy(std::string("(?X, ?Y) <- (?X, ") + regex + ", ?Y)");
    EXPECT_EQ(ExpectScanMatchesRanked(engine, query, {}), 1u) << regex;
    ExpectStreamsAgree(graph, query.conjuncts[0]);
  }
}

TEST_P(FrontierScanPropertyTest, RandomRegexesMatchRankedWalk) {
  Rng rng(GetParam() * 104729 + 11);
  const GraphStore graph = CyclicGraph(GetParam() + 100, 20);
  QueryEngine engine(&graph, nullptr);
  for (int round = 0; round < 25; ++round) {
    Query query;
    Conjunct c;
    c.source = Endpoint::Variable("X");
    c.target = Endpoint::Variable("Y");
    c.regex = testing::RandomRegex(&rng, kLabels, 2);
    query.conjuncts.push_back(std::move(c));
    query.head = {"X", "Y"};
    EXPECT_EQ(ExpectScanMatchesRanked(engine, query, {}), 1u)
        << query.ToString();
    ExpectStreamsAgree(graph, query.conjuncts[0]);
  }
}

TEST_P(FrontierScanPropertyTest, StarAnswersEveryNodeItself) {
  const GraphStore graph = CyclicGraph(GetParam(), 18);
  QueryEngine engine(&graph, nullptr);
  for (const char* regex : {"p2*", "(p0.p1)*", "p1-*"}) {
    const Query query =
        testing::Qy(std::string("(?X, ?Y) <- (?X, ") + regex + ", ?Y)");
    ExpectScanMatchesRanked(engine, query, {});
    const std::vector<Row> rows = Drain(engine, query, {});
    for (NodeId n = 0; n < graph.NumNodes(); ++n) {
      const Row self{{n, n}, 0};
      EXPECT_TRUE(std::binary_search(rows.begin(), rows.end(), self))
          << regex << ": node " << n << " does not answer itself";
    }
  }
}

TEST_P(FrontierScanPropertyTest, SameVariableMatchesRankedWalk) {
  Rng rng(GetParam() * 31 + 5);
  const GraphStore graph = CyclicGraph(GetParam() + 200, 20);
  QueryEngine engine(&graph, nullptr);
  for (int round = 0; round < 12; ++round) {
    Query query;
    Conjunct c;
    c.source = Endpoint::Variable("X");
    c.target = Endpoint::Variable("X");
    c.regex = testing::RandomRegex(&rng, kLabels, 2);
    query.conjuncts.push_back(std::move(c));
    query.head = {"X"};
    EXPECT_EQ(ExpectScanMatchesRanked(engine, query, {}), 1u)
        << query.ToString();
  }
}

TEST_P(FrontierScanPropertyTest, ConstantTargetKeepsRankedWalk) {
  Rng rng(GetParam() * 17 + 1);
  const GraphStore graph = CyclicGraph(GetParam() + 300, 20);
  QueryEngine engine(&graph, nullptr);
  for (int round = 0; round < 10; ++round) {
    const std::string target = "n" + std::to_string(rng.NextBounded(20));
    Query query;
    Conjunct c;
    c.source = Endpoint::Variable("X");
    c.target = Endpoint::Constant(target);
    c.regex = testing::RandomRegex(&rng, kLabels, 2);
    query.conjuncts.push_back(std::move(c));
    query.head = {"X"};
    // Case 2 turns the constant into the evaluated source: not scanned.
    EXPECT_EQ(ExpectScanMatchesRanked(engine, query, {}), 0u)
        << query.ToString();
  }
}

TEST_P(FrontierScanPropertyTest, MultiConjunctQueriesMatchRankedWalk) {
  Rng rng(GetParam() * 7919 + 3);
  const GraphStore graph = CyclicGraph(GetParam() + 400, 16);
  QueryEngine engine(&graph, nullptr);
  size_t scans = 0;
  for (int round = 0; round < 12; ++round) {
    Query query;
    const size_t conjuncts = 2 + rng.NextBounded(2);
    for (size_t i = 0; i < conjuncts; ++i) {
      Conjunct c;
      c.mode = rng.NextBool(0.75) ? ConjunctMode::kExact : ConjunctMode::kApprox;
      const std::string a = "V" + std::to_string(i);
      const std::string b = "V" + std::to_string(i + 1);
      if (i == 0 && rng.NextBool(0.5)) {
        c.source = Endpoint::Constant("n" + std::to_string(rng.NextBounded(16)));
      } else {
        c.source = Endpoint::Variable(a);
      }
      c.target = Endpoint::Variable(b);
      c.regex = testing::RandomRegex(&rng, kLabels, 1);
      query.conjuncts.push_back(std::move(c));
    }
    query.head = query.BodyVariables();
    QueryEngineOptions options;
    options.evaluator.max_distance = 1;
    options.use_bound_join = rng.NextBool(0.5);
    scans += ExpectScanMatchesRanked(engine, query, options);
  }
  EXPECT_GT(scans, 0u) << "no multi-conjunct query ran a frontier scan";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontierScanPropertyTest,
                         ::testing::Range<uint64_t>(1, 7));

// --- unit tests --------------------------------------------------------------

PreparedConjunct Prepare(const GraphStore& graph, const std::string& text) {
  Result<PreparedConjunct> p =
      PrepareConjunct(testing::Cj(text), graph, nullptr, EvaluatorOptions{});
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

TEST(FrontierScanTest, EligibleOnlyForExactVariableToVariable) {
  const GraphStore graph = CyclicGraph(1, 10);
  EXPECT_TRUE(FrontierScanEligible(Prepare(graph, "(?X, p0+.p1, ?Y)")));
  EXPECT_TRUE(FrontierScanEligible(Prepare(graph, "(?X, _*, ?X)")));
  EXPECT_FALSE(FrontierScanEligible(Prepare(graph, "(n1, p0+, ?Y)")));
  EXPECT_FALSE(FrontierScanEligible(Prepare(graph, "(?X, p0+, n1)")));
  EXPECT_FALSE(FrontierScanEligible(Prepare(graph, "APPROX (?X, p0, ?Y)")));
}

TEST(FrontierScanTest, TinyBudgetFailsResourceExhausted) {
  const GraphStore graph = CyclicGraph(2, 30);
  const PreparedConjunct prepared = Prepare(graph, "(?X, _+, ?Y)");
  EvaluatorOptions options;
  options.max_live_tuples = 3;
  FrontierScanStream scan(&graph, &prepared, options);
  Answer answer;
  size_t pulled = 0;
  while (scan.Next(&answer)) ++pulled;
  EXPECT_TRUE(scan.status().IsResourceExhausted())
      << scan.status().ToString() << " after " << pulled << " answers";
}

TEST(FrontierScanTest, ExpiredDeadlineFailsDeadlineExceeded) {
  const GraphStore graph = CyclicGraph(3, 30);
  const PreparedConjunct prepared = Prepare(graph, "(?X, p0+, ?Y)");
  const CancelSource source = CancelSource::WithDeadline(
      std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EvaluatorOptions options;
  options.cancel = source.token();
  FrontierScanStream scan(&graph, &prepared, options);
  Answer answer;
  EXPECT_FALSE(scan.Next(&answer));
  EXPECT_TRUE(scan.status().IsDeadlineExceeded()) << scan.status().ToString();
}

TEST(FrontierScanTest, TopTenOpensFewSources) {
  // A long p0 chain: every node but the last is a source with answers.
  constexpr size_t kNodes = 2000;
  GraphBuilder builder;
  const LabelId p0 = *builder.InternLabel("p0");
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(builder.GetOrAddNode("n" + std::to_string(i)));
  }
  for (size_t i = 0; i + 1 < kNodes; ++i) {
    ASSERT_TRUE(builder.AddEdge(nodes[i], p0, nodes[i + 1]).ok());
  }
  const GraphStore graph = std::move(builder).Finalize();
  const PreparedConjunct prepared = Prepare(graph, "(?X, p0, ?Y)");
  FrontierScanStream scan(&graph, &prepared, EvaluatorOptions{});
  Answer answer;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(scan.Next(&answer));
  EXPECT_LE(scan.stats().seeds_added, 11u);
  EXPECT_EQ(scan.stats().answers_emitted, 10u);

  // Through the engine, a top-10 first page stays just as lazy.
  QueryEngine engine(&graph, nullptr);
  auto stream = engine.Execute(testing::Qy("(?X, ?Y) <- (?X, p0+, ?Y)"));
  ASSERT_TRUE(stream.ok());
  QueryAnswer row;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE((*stream)->Next(&row));
  EXPECT_LT((*stream)->stats().seeds_added, kNodes / 100);
}

TEST(FrontierScanTest, ExplainMarksScannedLeavesOnly) {
  const GraphStore graph = CyclicGraph(4, 12);
  QueryEngine engine(&graph, nullptr);
  Result<std::string> plan =
      engine.ExplainQuery(testing::Qy("(?X, ?Y) <- (?X, p0+, ?Y)"));
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("(?X, p0+, ?Y) via FrontierScan"), std::string::npos)
      << *plan;
  QueryEngineOptions ranked;
  ranked.use_frontier_scan = false;
  plan = engine.ExplainQuery(testing::Qy("(?X, ?Y) <- (?X, p0+, ?Y)"), ranked);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("FrontierScan"), std::string::npos) << *plan;
  plan = engine.ExplainQuery(testing::Qy("(?X, ?Y) <- APPROX (?X, p0, ?Y)"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("FrontierScan"), std::string::npos) << *plan;
}

}  // namespace
}  // namespace omega
