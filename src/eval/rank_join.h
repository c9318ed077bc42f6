// Ranked join for multi-conjunct queries (§3: "performing a ranked join for
// multi-conjunct queries"). Conjunct answer streams are lifted to binding
// streams and combined with binary HRJN operators (Ilyas et al., VLDB 2004)
// composed into the tree shape the cost-based planner chose (src/plan/);
// outputs are emitted in non-decreasing total distance.
//
// The data plane is compiled: QueryEngine::Execute numbers the query's
// variables into dense VarId slots once at compile time, a Binding is a
// fixed-width NodeId slot vector (O(1) lookup, no per-row strings), and the
// per-side hash tables key on packed integers through the flat-hash
// containers. The join enforces EvaluatorOptions::max_live_tuples the same
// way ConjunctEvaluator does: side tables plus the candidate heap count
// toward the budget and exceeding it fails with kResourceExhausted.
#ifndef OMEGA_EVAL_RANK_JOIN_H_
#define OMEGA_EVAL_RANK_JOIN_H_

#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_hash.h"
#include "common/pack.h"
#include "eval/answer.h"
#include "eval/conjunct_evaluator.h"

namespace omega {

/// Dense per-query variable slot (an index into VarCatalog / Binding::slots).
using VarId = uint32_t;
inline constexpr VarId kInvalidVar = std::numeric_limits<VarId>::max();

/// Per-query variable catalogue: names are interned to dense VarId slots
/// once at compile time, so the run-time data plane never touches strings.
/// Linear scans are fine here — catalogues hold a handful of names and are
/// only consulted while compiling the query.
class VarCatalog {
 public:
  /// Slot of `name`, interning it on first use.
  VarId GetOrAdd(std::string_view name);
  /// Slot of `name`, or kInvalidVar if it was never interned.
  VarId Find(std::string_view name) const;

  size_t size() const { return names_.size(); }
  const std::string& NameOf(VarId id) const { return names_[id]; }

 private:
  std::vector<std::string> names_;  // index == VarId
};

/// A (partial) variable assignment with an accumulated distance: one NodeId
/// slot per catalogue variable, kInvalidNode where unbound.
struct Binding {
  std::vector<NodeId> slots;
  Cost distance = 0;

  Binding() = default;
  explicit Binding(size_t width) : slots(width, kInvalidNode) {}

  /// Value bound to `var`, or kInvalidNode.
  NodeId Get(VarId var) const { return slots[var]; }
  /// Inserts or checks consistency; returns false on conflicting value.
  bool Bind(VarId var, NodeId value) {
    if (slots[var] != kInvalidNode) return slots[var] == value;
    slots[var] = value;
    return true;
  }
};

/// Pull stream of bindings in non-decreasing distance. Every binding a
/// stream produces has the full catalogue width and binds exactly the slots
/// listed by variables().
class BindingStream {
 public:
  virtual ~BindingStream() = default;
  virtual bool Next(Binding* out) = 0;
  virtual const Status& status() const = 0;
  /// Variable slots this stream binds (sorted ascending).
  virtual const std::vector<VarId>& variables() const = 0;
  virtual EvaluatorStats stats() const { return {}; }
  /// Counters of this operator alone, children excluded (EXPLAIN renders a
  /// per-operator breakdown; stats() merges the whole subtree).
  virtual EvaluatorStats OperatorStats() const { return stats(); }
};

/// Lifts a conjunct AnswerStream to bindings: Answer.v binds `source_slot`,
/// Answer.n binds `target_slot` (kInvalidVar for a constant endpoint).
/// Conjuncts like (?X, R, ?X) pass the same slot twice and are filtered for
/// endpoint agreement here.
class ConjunctBindingStream : public BindingStream {
 public:
  ConjunctBindingStream(std::unique_ptr<AnswerStream> answers, size_t width,
                        VarId source_slot, VarId target_slot);

  bool Next(Binding* out) override;
  const Status& status() const override { return answers_->status(); }
  const std::vector<VarId>& variables() const override { return variables_; }
  EvaluatorStats stats() const override { return answers_->stats(); }

 private:
  std::unique_ptr<AnswerStream> answers_;
  size_t width_;
  VarId source_slot_;
  VarId target_slot_;
  std::vector<VarId> variables_;
};

/// Binary hash rank join. Maintains per-side flat-hash tables keyed on the
/// packed shared-variable values and a candidate min-heap; a candidate is
/// released once its total distance is <= the HRJN threshold (the best total
/// any future pairing could achieve). With no shared variables it
/// degenerates to a ranked cross product.
class RankJoinStream : public BindingStream {
 public:
  /// `max_live_tuples` bounds stored side-table rows + heap candidates for
  /// this operator (0 = unlimited); exceeding it fails the stream with
  /// kResourceExhausted, mirroring ConjunctEvaluator::CheckBudget. `cancel`
  /// is polled once per child pull, failing the stream with
  /// kDeadlineExceeded / kCancelled (distinct from the budget failure).
  RankJoinStream(std::unique_ptr<BindingStream> left,
                 std::unique_ptr<BindingStream> right,
                 size_t max_live_tuples = 0, CancelToken cancel = {});

  bool Next(Binding* out) override;
  const Status& status() const override { return status_; }
  const std::vector<VarId>& variables() const override { return variables_; }
  EvaluatorStats stats() const override;
  /// This operator's own counters: rows emitted (answers_emitted), rows
  /// pulled from both children (join_pulls) and the tables + heap
  /// high-water (max_join_live).
  EvaluatorStats OperatorStats() const override;

 private:
  struct Side {
    std::unique_ptr<BindingStream> stream;
    FlatHashMap<uint64_t, std::vector<Binding>> table;  // key -> stored rows
    size_t rows = 0;      // rows stored across all table groups
    Cost bottom = 0;      // first distance seen (0 until then: conservative)
    Cost top = 0;         // last distance seen
    bool seen_any = false;
    bool exhausted = false;
  };

  uint64_t KeyFor(const Binding& b) const;
  /// Pulls one binding into `side`, joining it against the other side.
  void Advance(Side* side, Side* other, bool side_is_left);
  /// Smallest total distance a not-yet-formed pair could have.
  Cost Threshold() const;
  /// Fails the stream once stored rows + heap candidates exceed the budget.
  void CheckBudget();
  /// Moves the cheapest candidate out of the heap.
  Binding PopCandidate();

  Side left_;
  Side right_;
  std::vector<VarId> shared_vars_;
  std::vector<VarId> variables_;
  std::vector<Binding> heap_;  // min-heap on distance via std::*_heap
  size_t max_live_tuples_ = 0;
  CancelToken cancel_;
  uint32_t cancel_tick_ = 0;  // strided-deadline-check counter
  size_t peak_live_ = 0;  // high-water mark of stored rows + heap candidates
  size_t emitted_ = 0;    // rows this operator released
  size_t pulls_ = 0;      // rows pulled from both children
  bool pull_left_next_ = true;
  Status status_;
};

/// Composes conjunct binding streams into a left-deep rank-join tree in the
/// given order (a single stream is returned unchanged) — the seed behaviour,
/// kept for direct stream composition; the engine goes through
/// plan::CompilePlan, which executes arbitrary tree shapes. Each join
/// operator in the tree enforces `max_live_tuples` on its own tables and
/// heap.
std::unique_ptr<BindingStream> BuildJoinTree(
    std::vector<std::unique_ptr<BindingStream>> streams,
    size_t max_live_tuples = 0, CancelToken cancel = {});

}  // namespace omega

#endif  // OMEGA_EVAL_RANK_JOIN_H_
