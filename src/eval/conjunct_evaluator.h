// Incremental ranked evaluation of one query conjunct: the paper's Open,
// GetNext and Succ procedures (§3.3–3.4) over the weighted product automaton
// H_R of the (possibly APPROX/RELAX-augmented) query NFA and the data graph.
// Answers stream out in non-decreasing distance; the product is explored
// best-first and never materialised.
#ifndef OMEGA_EVAL_CONJUNCT_EVALUATOR_H_
#define OMEGA_EVAL_CONJUNCT_EVALUATOR_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/flat_hash.h"
#include "common/pack.h"
#include "eval/answer.h"
#include "eval/initial_node_stream.h"
#include "eval/tuple_dictionary.h"
#include "ontology/ontology.h"
#include "rpq/query.h"
#include "store/graph_store.h"

namespace omega {

/// A conjunct compiled to its final automaton. Case 2 of Open — a constant
/// target with variable source — is normalised here by reversing the regex
/// (linear on the AST), so `eval_source`/`eval_target` are the endpoints
/// *after* any reversal: Answer.v always binds eval_source and Answer.n
/// always binds eval_target.
struct PreparedConjunct {
  Nfa nfa;
  Endpoint eval_source;
  Endpoint eval_target;
  ConjunctMode mode = ConjunctMode::kExact;
  bool reversed = false;

  /// Shape analysis of the *evaluated* regex (post-reversal), filled by
  /// PrepareConjunct. `closure_shape` is set when the regex is a
  /// single-atom closure ({a^k : k >= min_hops}) — the shape the
  /// reachability index can answer; `max_exact_path_edges` is the longest
  /// accepted path (nullopt = unbounded), which the distance sketch uses
  /// to turn hop distance into a cost floor.
  std::optional<ClosureShape> closure_shape;
  std::optional<uint32_t> max_exact_path_edges;
};

/// Compiles a conjunct: Thompson construction, weighted ε-removal, then the
/// APPROX (A_R) or RELAX (M^K_R) augmentation. `ontology` is required for
/// RELAX conjuncts and otherwise may be null.
Result<PreparedConjunct> PrepareConjunct(const Conjunct& conjunct,
                                         const GraphStore& graph,
                                         const BoundOntology* ontology,
                                         const EvaluatorOptions& options);

class ConjunctEvaluator : public AnswerStream {
 public:
  /// `prepared` must outlive the evaluator (distance-aware mode re-runs
  /// fresh evaluators over one shared PreparedConjunct).
  ConjunctEvaluator(const GraphStore* graph, const BoundOntology* ontology,
                    const PreparedConjunct* prepared,
                    const EvaluatorOptions& options);

  /// One instance of a variable-source conjunct restricted to source ==
  /// `bound_source` (a dependent join's per-binding evaluation): the
  /// traversal is seeded at that node alone. Unlike the Case-1 constant
  /// Open there is no name lookup and RELAX seeds no sc-ancestors, so the
  /// answers are exactly the unbound conjunct's answers with v ==
  /// bound_source.
  ConjunctEvaluator(const GraphStore* graph, const BoundOntology* ontology,
                    const PreparedConjunct* prepared,
                    const EvaluatorOptions& options, NodeId bound_source);

  /// Seeds D_R (the paper's Open). Idempotent; called lazily by Next() too.
  void Open();

  bool Next(Answer* out) override;
  const Status& status() const override { return status_; }
  EvaluatorStats stats() const override { return stats_; }

  /// True if a move or final weight past options.max_distance led to a
  /// (v, n, s) or an answer the walk had not reached by the end of the
  /// distance level it was found at — i.e. a higher distance ceiling could
  /// still produce more answers. Judged at level ends, so the pop order
  /// among tuples of one distance (which lazy Succ changes) does not move
  /// it; read it once Next() has returned false.
  bool truncated_by_distance() const { return truncated_by_distance_; }

  /// Tuples held against the budget: D_R + visited set + answer map + the
  /// over-ceiling tuples awaiting their level's end.
  size_t live_tuples() const {
    return dict_.size() + visited_.size() + answers_.size() +
           over_ceiling_.size();
  }
  /// Replaces options.max_live_tuples (a dependent join hands each instance
  /// what is left of the one budget all its instances share).
  void set_max_live_tuples(size_t limit) { options_.max_live_tuples = limit; }

 private:
  struct VisitedKey {
    uint64_t vn;  // v << 32 | n
    StateId s;
    bool operator==(const VisitedKey&) const = default;
  };
  struct VisitedKeyHash {
    size_t operator()(const VisitedKey& k) const {
      return static_cast<size_t>(
          HashMix64(k.vn ^ (static_cast<uint64_t>(k.s) *
                            0x9e3779b97f4a7c15ULL)));
    }
  };

  /// Duplicate-answer key: answers are deduplicated on variable bindings, so
  /// for a constant source the v component is normalised — RELAX ancestor
  /// seeds (different v per seed class) must not re-answer the same ?X.
  uint64_t AnswerKey(NodeId v, NodeId n) const {
    return PackPair(prepared_->eval_source.is_variable ? v : kInvalidNode, n);
  }

  /// Adds a tuple unless it violates the distance ceiling (notes it in
  /// over_ceiling_) or the memory budget (fails the evaluator).
  void AddTuple(const EvalTuple& tuple);

  /// True if some noted over-ceiling tuple's (v, n, s), or answer for a
  /// final one, has not been reached.
  bool AnyOverCeilingUnreached() const;

  /// Keeps the invariant that no tuple with d > 0 is popped while unseeded
  /// initial nodes remain (lines 14–17 of GetNext).
  void RefillSeeds();

  /// The Succ function: expands (s, n), adding successor tuples. Eager Succ
  /// pushes every move at once; lazy Succ splits the moves between the
  /// tuple and its deferred twin (EvaluatorOptions::lazy_succ).
  void ExpandTuple(const EvalTuple& tuple);

  /// Pushes tuple's successors over the moves of tuple.s whose cost
  /// `takes(cost)` accepts, each at `base` + cost. Neighbour sets are
  /// fetched once per SameNeighborGroup run that has a member to push.
  template <typename Takes>
  void PushMoves(const EvalTuple& tuple, Cost base, Takes takes);

  /// Appends the (sorted, distinct) neighbours of `n` reachable by `t`.
  void CollectNeighbors(NodeId n, const NfaTransition& t,
                        std::vector<NodeId>* out) const;

  bool TargetMatches(NodeId n) const;
  void CheckBudget();

  const GraphStore* graph_;
  const BoundOntology* ontology_;
  const PreparedConjunct* prepared_;
  EvaluatorOptions options_;

  TupleDictionary dict_;
  FlatHashSet<VisitedKey, VisitedKeyHash> visited_;
  FlatHashMap<uint64_t, Cost> answers_;
  std::unique_ptr<InitialNodeStream> stream_;
  std::vector<NodeId> scratch_neighbors_;

  NodeId bound_source_ = kInvalidNode;  // per-binding instance seed
  std::optional<NodeId> source_node_;  // resolved constant source
  std::optional<NodeId> target_node_;  // resolved constant target
  bool target_is_constant_ = false;

  /// Over-ceiling tuples found while expanding tuples at distance level_,
  /// judged (then cleared) once that level has drained.
  std::vector<EvalTuple> over_ceiling_;
  Cost level_ = 0;  // distance of the last popped tuple

  bool opened_ = false;
  uint32_t cancel_tick_ = 0;  // strided-deadline-check counter
  bool truncated_by_distance_ = false;
  Status status_;
  EvaluatorStats stats_;
};

}  // namespace omega

#endif  // OMEGA_EVAL_CONJUNCT_EVALUATOR_H_
