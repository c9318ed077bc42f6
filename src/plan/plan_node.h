// The planner's intermediate representation: a binary tree whose leaves are
// prepared conjuncts and whose inner nodes are rank joins. QueryEngine
// compiles a plan into the matching BindingStream tree (any shape, not just
// left-deep) and keeps the annotated plan alive alongside the stream so
// EXPLAIN can render the chosen tree with estimates and, after execution,
// per-operator EvaluatorStats.
#ifndef OMEGA_PLAN_PLAN_NODE_H_
#define OMEGA_PLAN_PLAN_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "eval/rank_join.h"
#include "plan/statistics.h"

namespace omega {

/// How a conjunct can take part in a dependent (bound-input) join. Filled
/// by the engine; the defaults describe a conjunct that can only be drained.
struct BindingProfile {
  /// A constant endpoint roots the conjunct, so its rows do not scale with
  /// the graph: a subtree containing it may drive a BoundJoin.
  bool has_constant = false;
  /// Slots a BoundJoin may bind to evaluate this variable-to-variable
  /// conjunct once per value (kInvalidVar: that endpoint may not be bound).
  VarId bindable_source = kInvalidVar;
  VarId bindable_target = kInvalidVar;
  /// Estimated answer rows per bound value of the source / the target.
  double rows_per_source = 0;
  double rows_per_target = 0;
};

/// One operator of a query plan. Leaves (left == nullptr) evaluate a single
/// conjunct; inner nodes rank-join their children on `join_vars` (empty:
/// ranked cross product) — by HRJN, or, when `bound_var` is set, as a
/// BoundJoin that evaluates the right child (a leaf) once per value of
/// `bound_var` produced by the left child.
struct PlanNode {
  // --- leaf fields ---------------------------------------------------------
  size_t conjunct_index = 0;  ///< index into Query::conjuncts
  std::string description;    ///< conjunct text, e.g. "(?X, a.b-, ?Y)"
  ConjunctEstimate estimate;  ///< leaf-level estimate
  BindingProfile binding;     ///< dependent-join eligibility

  // --- inner fields --------------------------------------------------------
  std::unique_ptr<PlanNode> left;
  std::unique_ptr<PlanNode> right;
  std::vector<VarId> join_vars;  ///< shared slots joined on (sorted)
  VarId bound_var = kInvalidVar;  ///< BoundJoin slot; kInvalidVar = HRJN

  // --- common --------------------------------------------------------------
  std::vector<VarId> variables;   ///< slots bound below this node (sorted)
  double est_cardinality = 0;     ///< estimated rows this operator emits
  /// Observer into the compiled stream tree (owned by the root stream);
  /// set by CompilePlan, null until then. Lets EXPLAIN pull per-operator
  /// EvaluatorStats after execution.
  const BindingStream* stream = nullptr;

  bool is_leaf() const { return left == nullptr; }
};

/// A planned query: the operator tree plus the variable catalogue needed to
/// print slot names.
struct QueryPlan {
  VarCatalog catalog;
  std::unique_ptr<PlanNode> root;
};

/// Multi-line rendering of the plan tree. With `with_stats` (EXPLAIN
/// ANALYZE), nodes that have a compiled stream also print actual row counts
/// from live EvaluatorStats next to the estimate, with a mis-estimate ratio
/// (`err=actual/estimated`) — zeros before execution.
std::string RenderPlanTree(const QueryPlan& plan, bool with_stats);

class TraceRecorder;  // obs/trace.h

/// Emits one trace event per plan operator carrying its pull/emit totals
/// and estimated-vs-actual cardinality (the trace-side view of EXPLAIN
/// ANALYZE). Call after draining the stream; no-op when `trace` is null or
/// the plan was never compiled. Deliberately totals-only: per-pull span
/// recording would put a lock on the rank-join hot path.
void RecordOperatorTrace(const QueryPlan& plan, TraceRecorder* trace);

}  // namespace omega

#endif  // OMEGA_PLAN_PLAN_NODE_H_
