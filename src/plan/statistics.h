// NFA-level cardinality estimation for the cost-based planner: a per-conjunct
// selectivity/cardinality estimate derived from the prepared automaton's
// initial and accepting label sets, priced with the GraphStore's per-label
// statistics (Tails/Heads cardinalities, edge counts). Estimates are about
// *ordering* conjuncts, not predicting exact counts: constant endpoints fall
// out near-1 selectivity, Σ*-heavy regexes at |V|-scale, and a conjunct whose
// required constant or label set is absent from the graph is provably empty.
#ifndef OMEGA_PLAN_STATISTICS_H_
#define OMEGA_PLAN_STATISTICS_H_

#include "eval/conjunct_evaluator.h"
#include "index/index_probe_stream.h"
#include "store/graph_store.h"

namespace omega {

/// Planner-facing estimate of one prepared conjunct.
struct ConjunctEstimate {
  /// Estimated candidate start nodes (1 for a present constant source).
  double sources = 0;
  /// Estimated candidate end nodes (1 for a present constant target).
  double targets = 0;
  /// Estimated answer rows the conjunct stream will emit.
  double cardinality = 0;
  /// cardinality / |domain|, where the domain is |V| per variable endpoint
  /// (so a fully-constant conjunct is a 0-or-1-row filter). In [0, 1].
  double selectivity = 0;
  /// True when the conjunct can be proven empty without evaluation: a
  /// constant endpoint absent from the graph, or an initial/accepting label
  /// set that matches no stored edge.
  bool provably_empty = false;
};

/// Estimates `prepared` against `graph`. Ontology-blind by design: RELAX
/// down-set matching widens label sets beyond what is counted here, so RELAX
/// conjuncts are under-estimated — acceptable for ordering, since relaxation
/// widens every conjunct of the query alike.
ConjunctEstimate EstimateConjunct(const PreparedConjunct& prepared,
                                  const GraphStore& graph);

/// Estimated answer rows of a variable-to-variable conjunct evaluated from
/// one bound value of its source (`from_target` false) or of its target —
/// a dependent join's per-instance work. A single-step label is priced by
/// its mean fan-out from LabelStats (edges / tails, or edges / heads when
/// walked backwards); anything else by the conjunct estimate's cardinality
/// per candidate source (target).
double EstimateRowsPerBinding(const RegexNode& regex,
                              const ConjunctEstimate& estimate,
                              const GraphStore& graph, bool from_target);

/// Prices an index-probe substitution from its precomputed reach set — the
/// exact structure IndexProbeStream will enumerate, so unlike the NFA-level
/// estimate above this one is a true count, not a heuristic: cardinality is
/// the reach-set size (variable target) or a 0/1 containment test (constant
/// target). `reach` may be null (absent label — the set is then extras-only).
ConjunctEstimate EstimateIndexProbe(const IndexProbePlan& plan,
                                    const ProbeReachSet& set,
                                    const LabelReachability* reach,
                                    const GraphStore& graph);

}  // namespace omega

#endif  // OMEGA_PLAN_STATISTICS_H_
