// Dependent (bound-input) rank join: the outer input is a binding stream
// rooted at a constant, the inner input one variable-to-variable conjunct
// sharing a variable with it. Instead of draining the inner conjunct over
// the whole graph (HRJN, rank_join.h), the operator evaluates it once per
// distinct value x of the shared variable — the RPBounded half of rdf3x's
// RegularPathScan split — and merges the instances' ranked streams on
// (outer distance + instance distance).
//
// Every instance is a ConjunctEvaluator over the one shared
// PreparedConjunct (the automaton is built once), seeded at NodeId x. An
// instance is opened only when an outer row carrying x arrives, and pulled
// only while its head lies within the threshold: outer rows arrive in
// non-decreasing distance and instance distances are >= 0, so no future
// pair can beat the last outer distance seen (the HRJN argument with the
// inner side's bottom fixed at 0).
#ifndef OMEGA_EVAL_BOUND_JOIN_H_
#define OMEGA_EVAL_BOUND_JOIN_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "eval/conjunct_evaluator.h"
#include "eval/rank_join.h"

namespace omega {

/// The inner input of a BoundJoinStream: a variable-to-variable conjunct
/// prepared for evaluation from its bound variable (`prepared->eval_source`
/// is that variable — a conjunct bound at its target is prepared from the
/// reversed regex, as Case 2 of Open is), plus what its instances need.
struct BoundConjunct {
  const GraphStore* graph = nullptr;
  const BoundOntology* ontology = nullptr;
  std::unique_ptr<PreparedConjunct> prepared;
  /// Instance options; max_live_tuples is ignored (the join hands each
  /// instance its share of the join's one budget).
  EvaluatorOptions options;
  VarId bound_slot = kInvalidVar;  ///< slot the outer input binds
  VarId free_slot = kInvalidVar;   ///< == bound_slot for (?X, R, ?X)
};

class BoundJoinStream : public BindingStream {
 public:
  /// `max_live_tuples` bounds the sum of stored outer rows, cached instance
  /// rows, merge-heap cursors, open instances and every open instance's own
  /// live tuples (0 = unlimited); exceeding it fails the stream with
  /// kResourceExhausted. `cancel` is checked whenever an instance is opened
  /// (instances and the outer input poll it per pull themselves).
  BoundJoinStream(std::unique_ptr<BindingStream> outer, BoundConjunct inner,
                  size_t max_live_tuples = 0, CancelToken cancel = {});

  bool Next(Binding* out) override;
  const Status& status() const override { return status_; }
  const std::vector<VarId>& variables() const override { return variables_; }
  EvaluatorStats stats() const override;
  /// This operator's own counters: rows emitted, rows pulled (outer rows
  /// plus instance rows), instances opened and the live high-water.
  EvaluatorStats OperatorStats() const override;

  /// Stats-only view of the inner conjunct for its plan node: stats() sums
  /// every instance's counters; it yields no rows.
  const BindingStream& inner_view() const { return inner_view_; }

 private:
  struct Instance {
    std::unique_ptr<ConjunctEvaluator> evaluator;  // null once exhausted
    std::vector<std::pair<NodeId, Cost>> rows;     // (free value, distance)
    size_t live = 0;  // evaluator's live tuples after its last pull
  };
  /// One outer row's position in its instance's row list. `priority` is
  /// the exact total when rows[k] existed at push time, else a lower bound.
  struct Cursor {
    Cost priority = 0;
    uint32_t outer_row = 0;
    uint32_t instance = 0;
    uint32_t k = 0;
    bool exact = false;
  };
  struct CursorGreater {
    bool operator()(const Cursor& a, const Cursor& b) const {
      return a.priority > b.priority;
    }
  };

  class InnerView : public BindingStream {
   public:
    explicit InnerView(const BoundJoinStream* join) : join_(join) {}
    bool Next(Binding*) override { return false; }
    const Status& status() const override { return join_->status_; }
    const std::vector<VarId>& variables() const override {
      return join_->inner_vars_;
    }
    EvaluatorStats stats() const override { return join_->InstanceStats(); }

   private:
    const BoundJoinStream* join_;
  };

  /// Pulls one outer row, opening its instance on first sight of x.
  void PullOuter();
  /// Pulls one answer from `instance` under the shared budget.
  void PullInstance(uint32_t instance);
  /// Pushes the cursor of `outer_row` at position k of its instance.
  void PushCursor(uint32_t outer_row, uint32_t instance, uint32_t k);
  Cursor PopCursor();
  /// Everything the budget counts (see the constructor).
  size_t LiveTuples() const;
  void CheckBudget();
  EvaluatorStats InstanceStats() const;

  std::unique_ptr<BindingStream> outer_;
  BoundConjunct inner_;
  std::vector<VarId> variables_;
  std::vector<VarId> inner_vars_;
  InnerView inner_view_{this};

  std::vector<Binding> outer_rows_;
  FlatHashMap<NodeId, uint32_t> instance_of_;  // bound value -> instance
  std::vector<Instance> instances_;
  std::vector<Cursor> heap_;  // min-heap on priority via std::*_heap
  Cost outer_top_ = 0;        // last outer distance seen
  bool outer_exhausted_ = false;

  size_t max_live_tuples_ = 0;
  CancelToken cancel_;
  size_t cached_rows_ = 0;     // rows across every instance's list
  size_t open_instances_ = 0;  // instances with a live evaluator
  size_t instance_live_ = 0;   // sum of Instance::live
  size_t peak_live_ = 0;
  size_t emitted_ = 0;
  size_t pulls_ = 0;           // outer rows + instance rows pulled
  EvaluatorStats finished_;    // counters of exhausted (freed) instances
  Status status_;
};

}  // namespace omega

#endif  // OMEGA_EVAL_BOUND_JOIN_H_
