// The D_R dictionary of §3.3: tuples keyed by (distance, final?) with O(1)
// head insertion/removal per bucket. Removal order: lowest distance first;
// at equal distance final tuples before non-final ones "so that answers may
// be returned earlier"; within a list, LIFO — exactly the paper's
// linked-list discipline (vectors replace the C5 linked lists; push/pop at
// the back is the same head discipline with better locality).
//
// Implementation: a monotone bucket queue. GetNext pops in non-decreasing
// distance and Succ only ever adds tuples at d + cost >= d, so the minimum
// distance is (in steady state) non-decreasing; a dense window of buckets
// indexed by (d - base) plus a forward-moving cursor makes Add and Remove
// O(1) amortised, versus the O(log #distances) std::map the seed shipped.
// Distances past the dense window land in a std::map overflow and are
// swapped into the window when the cursor reaches them, so arbitrarily
// large (even non-monotone) cost patterns stay correct.
#ifndef OMEGA_EVAL_TUPLE_DICTIONARY_H_
#define OMEGA_EVAL_TUPLE_DICTIONARY_H_

#include <cassert>
#include <cstdint>
#include <map>
#include <vector>

#include "automata/nfa.h"
#include "store/types.h"

namespace omega {

/// The traversal tuple (v, n, s, d, f) of §3.3.
struct EvalTuple {
  NodeId v = kInvalidNode;   ///< node the traversal started from
  NodeId n = kInvalidNode;   ///< node currently visited
  StateId s = kInvalidState; ///< NFA state
  Cost d = 0;                ///< accumulated distance
  bool is_final = false;     ///< ready to be emitted as an answer
  /// Lazy Succ's deferred twin of an expanded (v, n, s): popping it pushes
  /// s's positive-cost moves, which cost at least d. Never final.
  bool deferred = false;
};

class TupleDictionary {
 public:
  /// `prioritize_final` = the paper's final/non-final refinement; when off,
  /// all tuples of a distance share one LIFO list (ablation mode).
  explicit TupleDictionary(bool prioritize_final = true)
      : prioritize_final_(prioritize_final) {}

  void Add(const EvalTuple& tuple);

  bool Empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Lowest distance present. Precondition: !Empty().
  Cost MinDistance() const {
    assert(!Empty() && "MinDistance() called on an empty TupleDictionary");
    if (min_pos_ < dense_.size()) return base_ + static_cast<Cost>(min_pos_);
    return overflow_.begin()->first;
  }

  /// Removes per the discipline above. Precondition: !Empty().
  EvalTuple Remove();

  void Clear();

 private:
  struct Bucket {
    std::vector<EvalTuple> final_items;
    std::vector<EvalTuple> nonfinal_items;

    bool IsEmpty() const { return final_items.empty() && nonfinal_items.empty(); }
  };

  /// Width of the dense window. Distances in [base_, base_ + kDenseSpan)
  /// index dense_ directly; anything further lands in overflow_.
  static constexpr size_t kDenseSpan = 4096;

  Bucket& BucketFor(Cost d);

  /// Re-anchors the dense window at `new_base`: spills any live dense
  /// buckets to overflow, then pulls every overflow bucket that falls inside
  /// the new window back in. Called when the window drains (new base = the
  /// overflow minimum) and on the pathological non-monotone add below the
  /// current base.
  void Rebase(Cost new_base);

  /// Advances min_pos_ past empty buckets so it lands on the first non-empty
  /// dense bucket, or dense_.size() when the window has drained.
  void AdvanceCursor();

  std::vector<Bucket> dense_;      // dense_[i] holds distance base_ + i
  std::map<Cost, Bucket> overflow_;
  size_t size_ = 0;
  Cost base_ = 0;
  size_t min_pos_ = 0;             // first possibly-non-empty dense bucket
  bool prioritize_final_;
};

}  // namespace omega

#endif  // OMEGA_EVAL_TUPLE_DICTIONARY_H_
