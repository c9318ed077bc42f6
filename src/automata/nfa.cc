#include "automata/nfa.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace omega {

StateId Nfa::AddState() {
  states_.emplace_back();
  return static_cast<StateId>(states_.size() - 1);
}

size_t Nfa::NumTransitions() const {
  size_t total = 0;
  for (const State& s : states_) total += s.out.size();
  return total;
}

void Nfa::MakeFinal(StateId s, Cost weight) {
  State& state = states_[s];
  if (state.is_final) {
    state.final_weight = std::min(state.final_weight, weight);
  } else {
    state.is_final = true;
    state.final_weight = weight;
  }
}

void Nfa::ClearFinal(StateId s) {
  states_[s].is_final = false;
  states_[s].final_weight = 0;
}

void Nfa::AddTransition(StateId from, NfaTransition t) {
  assert(from < states_.size() && t.to < states_.size());
  assert(t.cost >= 0);
  State& state = states_[from];
  if (t.cost > 0) {
    state.min_positive_move = std::min(state.min_positive_move, t.cost);
  }
  state.out.push_back(t);
}

void Nfa::AddEpsilon(StateId from, StateId to, Cost cost) {
  NfaTransition t;
  t.to = to;
  t.cost = cost;
  t.kind = TransitionKind::kEpsilon;
  AddTransition(from, t);
}

void Nfa::AddLabel(StateId from, StateId to, LabelId label, Direction dir,
                   Cost cost) {
  NfaTransition t;
  t.to = to;
  t.cost = cost;
  t.kind = TransitionKind::kLabel;
  t.label = label;
  t.dir = dir;
  AddTransition(from, t);
}

void Nfa::AddAnyLabel(StateId from, StateId to, Direction dir, Cost cost) {
  NfaTransition t;
  t.to = to;
  t.cost = cost;
  t.kind = TransitionKind::kAnyLabel;
  t.dir = dir;
  AddTransition(from, t);
}

void Nfa::AddAnyBothDirs(StateId from, StateId to, Cost cost) {
  NfaTransition t;
  t.to = to;
  t.cost = cost;
  t.kind = TransitionKind::kAnyLabelBothDirs;
  AddTransition(from, t);
}

void Nfa::AddConstrainedType(StateId from, StateId to, NodeId class_node,
                             Cost cost) {
  NfaTransition t;
  t.to = to;
  t.cost = cost;
  t.kind = TransitionKind::kConstrainedType;
  t.class_node = class_node;
  AddTransition(from, t);
}

bool Nfa::HasEpsilonTransitions() const {
  for (const State& s : states_) {
    for (const NfaTransition& t : s.out) {
      if (t.kind == TransitionKind::kEpsilon) return true;
    }
  }
  return false;
}

void Nfa::SortTransitions() {
  for (State& s : states_) {
    std::sort(s.out.begin(), s.out.end(),
              [](const NfaTransition& a, const NfaTransition& b) {
                if (a.kind != b.kind) return a.kind < b.kind;
                if (a.dir != b.dir) return a.dir < b.dir;
                if (a.label != b.label) return a.label < b.label;
                if (a.class_node != b.class_node)
                  return a.class_node < b.class_node;
                if (a.cost != b.cost) return a.cost < b.cost;
                return a.to < b.to;
              });
  }
}

Cost Nfa::MinPositiveCost() const {
  Cost best = kInfiniteCost;
  for (const State& s : states_) {
    if (s.is_final && s.final_weight > 0) {
      best = std::min(best, s.final_weight);
    }
    best = std::min(best, s.min_positive_move);
  }
  return best;
}

std::string Nfa::DebugString(const LabelDictionary* labels) const {
  std::ostringstream out;
  out << "NFA states=" << states_.size() << " initial=" << initial_ << "\n";
  for (StateId s = 0; s < states_.size(); ++s) {
    out << "  s" << s;
    if (s == initial_) out << " [initial]";
    if (states_[s].is_final) {
      out << " [final w=" << states_[s].final_weight << "]";
    }
    out << "\n";
    for (const NfaTransition& t : states_[s].out) {
      out << "    --";
      switch (t.kind) {
        case TransitionKind::kEpsilon:
          out << "eps";
          break;
        case TransitionKind::kLabel:
          if (labels != nullptr && t.label != kInvalidLabel) {
            out << labels->Name(t.label);
          } else {
            out << "label#" << t.label;
          }
          if (t.dir == Direction::kIncoming) out << "-";
          break;
        case TransitionKind::kAnyLabel:
          out << "_";
          if (t.dir == Direction::kIncoming) out << "-";
          break;
        case TransitionKind::kAnyLabelBothDirs:
          out << "*";
          break;
        case TransitionKind::kConstrainedType:
          out << "type{class#" << t.class_node << "}";
          break;
      }
      out << " /" << t.cost << "--> s" << t.to << "\n";
    }
  }
  return out.str();
}

}  // namespace omega
