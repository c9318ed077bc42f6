// Answer checks for the benchmark. The reference side is a set-at-a-time
// evaluation of each conjunct's regular expression written directly over
// GraphStore's public adjacency lists: it walks the regex AST, never builds
// an automaton, and shares no code with src/automata, src/eval, src/plan or
// src/index. Multi-conjunct queries are joined by brute force.
//
// RELAX conjuncts are referenced under RDFS entailment (a property matches
// its sub-properties, `type` matches through the class hierarchy), which is
// what the paper's distance-0 RELAX answers are: the exact answers over the
// closure of the graph under the ontology.
#ifndef OMEGA_PERFBENCH_CHECKER_H_
#define OMEGA_PERFBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/query_engine.h"
#include "ontology/ontology.h"
#include "rpq/query.h"
#include "store/graph_store.h"

namespace perfbench {

using omega::NodeId;

/// Distance-0 answers of one query: packed head tuples, sorted, unique.
/// Heads have one or two variables (the benchmark's queries never project
/// more), packed as (first << 32) | second.
struct ExactAnswers {
  std::vector<uint64_t> heads;
  bool Contains(uint64_t key) const;
  size_t size() const { return heads.size(); }
};

uint64_t PackHead(const std::vector<NodeId>& bindings);

/// Independent evaluator bound to one graph (and its ontology, for RELAX).
class ReferenceEvaluator {
 public:
  ReferenceEvaluator(const omega::GraphStore* graph,
                     const omega::Ontology* ontology);

  /// The exact answers of `query`, with every RELAX conjunct evaluated
  /// under entailment and every APPROX conjunct exactly. Conjuncts must not
  /// have two constant endpoints.
  ExactAnswers Answers(const omega::Query& query) const;

  struct Table;  // a relation over named variables (checker.cc)

 private:
  using NodeSet = std::vector<NodeId>;  // sorted, unique

  NodeSet Step(const omega::RegexNode& r, const NodeSet& from, bool rev,
               bool entail) const;
  Table Relation(const omega::Conjunct& c, const std::string* bound_var,
                 const NodeSet& bound_values) const;

  const omega::GraphStore* graph_;
  // Entailment tables, built from the ontology's parent lists alone.
  std::unordered_map<std::string, std::vector<omega::LabelId>> property_down_;
  std::unordered_map<NodeId, NodeSet> class_up_;    // strict ancestors
  std::unordered_map<NodeId, NodeSet> class_down_;  // descendants, self too
};

/// What a ranked answer list must satisfy against the exact answers.
struct Expectation {
  /// Every conjunct is exact: every answer is at distance 0.
  bool all_exact = false;
  /// Answers requested (0: the stream was drained).
  size_t limit = 0;
};

/// Checks one answer list: non-decreasing distance, no duplicate head,
/// distance-0 answers a subset of `exact`; when `exact` holds at least
/// `limit` answers all of them are at distance 0, otherwise every exact
/// answer appears at distance 0; exact queries return exactly
/// min(limit, |exact|) answers. Returns an empty string when the list
/// passes, else the first violation.
std::string CheckAnswers(const std::vector<omega::QueryAnswer>& answers,
                         const ExactAnswers& exact,
                         const Expectation& expect);

/// Corrupts one answer and, separately, one distance of a list that
/// passed CheckAnswers, and confirms each corruption is caught. Returns
/// an empty string when both are caught.
std::string SelfTest(const std::vector<omega::QueryAnswer>& answers,
                     const ExactAnswers& exact, const Expectation& expect);

}  // namespace perfbench

#endif  // OMEGA_PERFBENCH_CHECKER_H_
