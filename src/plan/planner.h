// Join-order planning for multi-conjunct queries. The planner enumerates
// join orders over the query's shared-variable connectivity graph: greedy
// selectivity-ordered bushy construction (repeatedly join the pair of
// components with the cheapest estimated output, cross products deferred to
// last) or a caller-given left-deep order (the seed's textual order, kept as
// the reference behind QueryEngineOptions::plan_mode). ChooseBoundJoins then
// turns joins of a constant-rooted subtree with a variable-to-variable leaf
// into dependent joins where that is estimated cheaper. CompilePlan turns any
// tree shape into the matching RankJoinStream / BoundJoinStream tree — the
// generalisation of the old left-deep-only BuildJoinTree.
#ifndef OMEGA_PLAN_PLANNER_H_
#define OMEGA_PLAN_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "eval/bound_join.h"
#include "plan/plan_node.h"

namespace omega {

/// Planner input: one prepared conjunct reduced to what ordering needs.
struct PlanLeaf {
  size_t conjunct_index = 0;      ///< index into Query::conjuncts
  std::string description;        ///< conjunct text for EXPLAIN
  std::vector<VarId> variables;   ///< slots the conjunct binds (sorted)
  ConjunctEstimate estimate;
  BindingProfile binding;
};

/// Greedy selectivity-ordered bushy construction: while more than one
/// component remains, join the pair with the smallest estimated output
/// cardinality among pairs that share a variable (or where one side is
/// provably empty — joining against it is free and short-circuits the rest);
/// once no such pair exists, the cheapest ranked cross product. Within a
/// join, the smaller-estimate side becomes the left child, so the operator's
/// first pull lands on the most selective input. Deterministic: ties break
/// on leaf positions.
std::unique_ptr<PlanNode> PlanGreedyBushy(std::vector<PlanLeaf> leaves,
                                          size_t num_graph_nodes);

/// Left-deep tree in the given order over `leaves` positions (identity order
/// == the seed's textual-order BuildJoinTree). `order` must be a permutation
/// of [0, leaves.size()).
std::unique_ptr<PlanNode> PlanLeftDeep(std::vector<PlanLeaf> leaves,
                                       const std::vector<size_t>& order,
                                       size_t num_graph_nodes);

/// Turns joins into dependent (bound-input) joins where that is estimated
/// cheaper. A join qualifies when one child is a subtree rooted at a
/// constant and the other a leaf that child shares a bindable slot with.
/// The bound plan costs est(outer) x (rows per binding + a per-instance
/// open cost); the HRJN plan drains the leaf, which costs at least its
/// candidate sources and its answers. A chosen join gets `bound_var` set and its
/// outer subtree moved to the left. Applied bottom-up, so a chain of
/// variable-to-variable conjuncts hanging off a constant becomes a
/// left-deep chain of dependent joins.
void ChooseBoundJoins(PlanNode* root);

/// Compiles `root` into the matching BindingStream tree, moving each leaf's
/// stream out of `leaf_streams` (indexed by conjunct_index) and recording
/// observer pointers on the plan nodes for EXPLAIN. The inner leaf of a
/// BoundJoin takes its BoundConjunct from `bound_inners` (same indexing)
/// instead of a stream. Every join operator enforces `max_live_tuples` on
/// its own state and polls `cancel`.
std::unique_ptr<BindingStream> CompilePlan(
    PlanNode* root, std::vector<std::unique_ptr<BindingStream>>* leaf_streams,
    size_t max_live_tuples, CancelToken cancel = {},
    std::vector<BoundConjunct>* bound_inners = nullptr);

}  // namespace omega

#endif  // OMEGA_PLAN_PLANNER_H_
