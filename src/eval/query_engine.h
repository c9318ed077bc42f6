// Top-level query execution: compiles each conjunct, wraps it in the
// requested optimisation mode (plain / distance-aware / alternation
// decomposition), plans the join order cost-based (greedy
// selectivity-ordered bushy trees over the shared-variable connectivity
// graph; the seed's textual left-deep order is kept behind plan_mode as the
// reference), compiles the planned rank-join tree, and projects the query
// head with duplicate elimination — answers stream out in non-decreasing
// total distance, matching the paper's incremental result batches.
#ifndef OMEGA_EVAL_QUERY_ENGINE_H_
#define OMEGA_EVAL_QUERY_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "common/pack.h"
#include "eval/bound_join.h"
#include "eval/distance_aware.h"
#include "eval/disjunction.h"
#include "eval/rank_join.h"
#include "index/index_manager.h"
#include "ontology/ontology.h"
#include "plan/planner.h"
#include "rpq/query.h"
#include "store/graph_store.h"

namespace omega {

/// How QueryEngine::Execute orders the rank-join tree.
enum class PlanMode {
  /// Cost-based: greedy selectivity-ordered bushy construction.
  kGreedyBushy,
  /// The seed behaviour: left-deep in textual conjunct order. Kept as the
  /// reference for tests/benches and as an escape hatch.
  kTextual,
};

struct QueryEngineOptions {
  EvaluatorOptions evaluator;

  /// §4.3 "retrieving answers by distance" (APPROX/RELAX conjuncts only).
  bool distance_aware = false;
  DistanceAwareOptions distance_aware_options;

  /// §4.3 "replacing alternation by disjunction" (top-level alternations in
  /// non-exact conjuncts only).
  bool decompose_alternation = false;

  /// Join-order planning mode.
  PlanMode plan_mode = PlanMode::kGreedyBushy;

  /// Gates both index structures (when the engine was built with an
  /// IndexManager): substituting an IndexProbeStream for index-eligible
  /// exact closure conjuncts, and the distance-sketch ψ floor in
  /// distance-aware APPROX retrieval. Off = always walk the NFA product —
  /// the reference behaviour the equivalence property tests compare against.
  bool use_reachability_index = true;

  /// Lets the planner run a variable-to-variable conjunct as the inner
  /// input of a dependent join (BoundJoin, eval/bound_join.h): evaluated
  /// once per value of a variable a constant-rooted subtree binds, instead
  /// of drained over the whole graph and HRJN-joined. Conjuncts wrapped by
  /// decompose_alternation or distance_aware are always drained. Off = plain
  /// HRJN everywhere — the reference behaviour the bound-join property
  /// tests compare against.
  bool use_bound_join = true;

  /// Runs a drained exact-mode variable-to-variable conjunct as a
  /// FrontierScanStream (eval/frontier_scan.h): a per-source scan of the
  /// product automaton with dense visited bitmaps, since all its answers
  /// are at distance 0. Flexible conjuncts, constant-endpoint conjuncts and
  /// BoundJoin inners keep the ranked walk; EXPLAIN marks scanned leaves
  /// ` via FrontierScan`. Off = the ranked walk everywhere — the reference
  /// behaviour the frontier-scan property tests compare against.
  bool use_frontier_scan = true;

  /// Testing/EXPLAIN hook: when non-empty, overrides plan_mode with a
  /// left-deep tree in this conjunct order (a permutation of
  /// [0, conjuncts.size())). The plan-equivalence property tests replay
  /// random permutations through this.
  std::vector<size_t> forced_join_order;
};

/// One projected answer: node bound to each head variable + total distance.
struct QueryAnswer {
  std::vector<NodeId> bindings;  // parallel to Query::head
  Cost distance = 0;

  bool operator==(const QueryAnswer&) const = default;
};

/// Streaming query results (head projection, duplicate head bindings keep
/// their first = cheapest emission). Dedup runs on packed head bindings in a
/// flat-hash set: heads of one or two variables pack exactly into a 64-bit
/// key, wider heads fall back to a flat set of NodeId vectors.
class QueryResultStream {
 public:
  /// `head_slots` holds the compiled VarId of each head variable, parallel
  /// to `head`. `plan` is the annotated operator tree the bindings were
  /// compiled from (its nodes observe the stream tree owned here); may be
  /// null for streams assembled outside the engine.
  QueryResultStream(std::vector<std::string> head,
                    std::vector<VarId> head_slots,
                    std::unique_ptr<BindingStream> bindings,
                    std::unique_ptr<QueryPlan> plan = nullptr);

  bool Next(QueryAnswer* out);
  const Status& status() const { return bindings_->status(); }
  const std::vector<std::string>& head() const { return head_; }
  EvaluatorStats stats() const { return bindings_->stats(); }

  /// The chosen plan, or null.
  const QueryPlan* plan() const { return plan_.get(); }
  /// EXPLAIN ANALYZE-style rendering: the plan tree with estimates and the
  /// per-operator counters accumulated so far. Empty string without a plan.
  std::string ExplainString() const;

 private:
  std::vector<std::string> head_;
  std::vector<VarId> head_slots_;
  std::unique_ptr<BindingStream> bindings_;
  std::unique_ptr<QueryPlan> plan_;
  Binding scratch_;  // pulled row, kept so its slot storage is reused
  FlatHashSet<uint64_t> seen_packed_;                      // heads of <= 2 vars
  FlatHashSet<std::vector<NodeId>, NodeVecHash> seen_wide_;  // wider heads
};

class QueryEngine {
 public:
  /// `ontology` may be null; RELAX queries then fail FailedPrecondition.
  /// `indexes` (optional) enables reachability-index plan substitution and
  /// distance-sketch pruning; it must outlive the engine and any streams it
  /// hands out (a Dataset's IndexManager satisfies this — the service pins
  /// the Dataset per epoch).
  QueryEngine(const GraphStore* graph, const Ontology* ontology,
              const IndexManager* indexes = nullptr);

  /// Compiles and opens a result stream for `query`.
  Result<std::unique_ptr<QueryResultStream>> Execute(
      const Query& query, const QueryEngineOptions& options = {}) const;

  /// Convenience: materialises up to `limit` answers (0 = all). Returns the
  /// stream's error (e.g. kResourceExhausted) if it failed mid-way.
  Result<std::vector<QueryAnswer>> ExecuteTopK(
      const Query& query, size_t limit,
      const QueryEngineOptions& options = {}) const;

  /// EXPLAIN: plans `query` without evaluating it and renders the chosen
  /// tree with per-conjunct cardinality/selectivity estimates. (Per-operator
  /// runtime counters appear in QueryResultStream::ExplainString after
  /// execution.)
  Result<std::string> ExplainQuery(const Query& query,
                                   const QueryEngineOptions& options = {}) const;

  const GraphStore& graph() const { return *graph_; }
  const BoundOntology* bound_ontology() const {
    return bound_ ? &*bound_ : nullptr;
  }

 private:
  /// Compiles the per-query variable catalogue, prepares every conjunct,
  /// estimates it, and builds the operator tree for the requested plan mode.
  Result<std::unique_ptr<QueryPlan>> PlanFor(
      const Query& query, const QueryEngineOptions& options,
      std::vector<std::unique_ptr<PreparedConjunct>>* prepared) const;

  /// Builds the (optimisation-wrapped) binding stream for one conjunct from
  /// its already-prepared automaton; `catalog` is the per-query variable
  /// catalogue (every variable of `conjunct` is already interned). The
  /// decompose-alternation path recompiles per branch and ignores
  /// `prepared`.
  /// The inner input of a BoundJoin on `bound_slot`: the conjunct prepared
  /// from that variable — `prepared` itself when it is the source, the
  /// reversed regex when it is the target.
  Result<BoundConjunct> MakeBoundConjunct(
      const Conjunct& conjunct, std::unique_ptr<PreparedConjunct> prepared,
      VarId bound_slot, const QueryEngineOptions& options,
      const VarCatalog& catalog) const;

  Result<std::unique_ptr<BindingStream>> MakeConjunctStream(
      const Conjunct& conjunct, std::unique_ptr<PreparedConjunct> prepared,
      const QueryEngineOptions& options, const VarCatalog& catalog) const;

  const GraphStore* graph_;
  std::optional<BoundOntology> bound_;
  const IndexManager* indexes_ = nullptr;
};

}  // namespace omega

#endif  // OMEGA_EVAL_QUERY_ENGINE_H_
