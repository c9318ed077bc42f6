// Weighted non-deterministic finite automaton over graph-edge symbols.
//
// Transitions consume a traversal step in the data graph (an edge with a
// direction), except ε-transitions which consume nothing but may carry a
// positive cost (APPROX deletions). After ε-removal, a state can carry a
// positive *final weight* — the cheapest cost of ε-reaching a final state
// (Droste, Kuich & Vogler, Handbook of Weighted Automata), which is the
// `weight(s)` of the paper's GetNext line 13.
#ifndef OMEGA_AUTOMATA_NFA_H_
#define OMEGA_AUTOMATA_NFA_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "store/label_dictionary.h"
#include "store/types.h"

namespace omega {

using StateId = uint32_t;
using Cost = int32_t;

inline constexpr Cost kInfiniteCost = INT32_MAX / 4;
inline constexpr StateId kInvalidState = static_cast<StateId>(-1);

enum class TransitionKind : uint8_t {
  kEpsilon = 0,          ///< no edge consumed; cost may be > 0 (deletion)
  kLabel,                ///< one edge with a specific label, fixed direction
  kAnyLabel,             ///< `_`: one edge with any label, fixed direction
  kAnyLabelBothDirs,     ///< APPROX `*`: any label, either direction
  kConstrainedType,      ///< RELAX dom/range: forward `type` edge whose target
                         ///< class lies in the down-set of `class_node`
};

struct NfaTransition {
  StateId to = kInvalidState;
  Cost cost = 0;
  TransitionKind kind = TransitionKind::kEpsilon;
  Direction dir = Direction::kOutgoing;  // kLabel / kAnyLabel
  LabelId label = kInvalidLabel;         // kLabel (kInvalidLabel: label not in
                                         // the graph; matches no stored edge)
  NodeId class_node = kInvalidNode;      // kConstrainedType

  /// True if two transitions fetch the same neighbour set (the Succ
  /// optimisation: "identical labels consecutively ... avoiding identical
  /// calls to NeighboursByEdge").
  bool SameNeighborGroup(const NfaTransition& other) const {
    return kind == other.kind && dir == other.dir && label == other.label &&
           class_node == other.class_node;
  }
};

/// The weighted NFA (M_R, A_R or M^K_R of the paper).
class Nfa {
 public:
  StateId AddState();
  size_t NumStates() const { return states_.size(); }
  size_t NumTransitions() const;

  void SetInitial(StateId s) { initial_ = s; }
  StateId initial() const { return initial_; }

  void MakeFinal(StateId s, Cost weight = 0);
  /// Clears the final flag (used by automaton transforms).
  void ClearFinal(StateId s);
  bool IsFinal(StateId s) const { return states_[s].is_final; }
  Cost FinalWeight(StateId s) const { return states_[s].final_weight; }

  void AddTransition(StateId from, NfaTransition t);
  void AddEpsilon(StateId from, StateId to, Cost cost = 0);
  void AddLabel(StateId from, StateId to, LabelId label, Direction dir,
                Cost cost = 0);
  void AddAnyLabel(StateId from, StateId to, Direction dir, Cost cost = 0);
  void AddAnyBothDirs(StateId from, StateId to, Cost cost);
  void AddConstrainedType(StateId from, StateId to, NodeId class_node,
                          Cost cost);

  std::span<const NfaTransition> Out(StateId s) const { return states_[s].out; }

  /// c_min(s): the least positive cost of a transition leaving s
  /// (kInfiniteCost if none) — the step of lazy Succ's deferred tuple.
  Cost MinPositiveMove(StateId s) const { return states_[s].min_positive_move; }

  bool HasEpsilonTransitions() const;

  /// Orders each state's transitions so that SameNeighborGroup members are
  /// adjacent (cheapest first within a group). Call once construction is done.
  void SortTransitions();

  /// φ: the smallest positive transition cost or final weight; the increment
  /// of the distance-aware optimisation. kInfiniteCost if everything is free.
  Cost MinPositiveCost() const;

  // --- conjunct annotations (§3.3: initial/final state constants) ----------
  void SetSourceConstant(std::string c) { source_constant_ = std::move(c); }
  void SetTargetConstant(std::string c) { target_constant_ = std::move(c); }
  const std::optional<std::string>& source_constant() const {
    return source_constant_;
  }
  const std::optional<std::string>& target_constant() const {
    return target_constant_;
  }

  /// RELAX evaluates under RDFS entailment (down-set label matching).
  void SetEntailmentMatching(bool on) { entailment_matching_ = on; }
  bool entailment_matching() const { return entailment_matching_; }

  /// Multi-line human-readable dump for debugging and golden tests.
  std::string DebugString(const LabelDictionary* labels = nullptr) const;

 private:
  struct State {
    bool is_final = false;
    Cost final_weight = 0;
    Cost min_positive_move = kInfiniteCost;
    std::vector<NfaTransition> out;
  };

  std::vector<State> states_;
  StateId initial_ = kInvalidState;
  std::optional<std::string> source_constant_;
  std::optional<std::string> target_constant_;
  bool entailment_matching_ = false;
};

}  // namespace omega

#endif  // OMEGA_AUTOMATA_NFA_H_
