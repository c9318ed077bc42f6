#include "eval/conjunct_evaluator.h"

#include <algorithm>
#include <cassert>

#include "automata/epsilon_removal.h"
#include "automata/thompson.h"

namespace omega {

Result<PreparedConjunct> PrepareConjunct(const Conjunct& conjunct,
                                         const GraphStore& graph,
                                         const BoundOntology* ontology,
                                         const EvaluatorOptions& options) {
  if (conjunct.regex == nullptr) {
    return Status::InvalidArgument("conjunct has no regular expression");
  }
  if (conjunct.mode == ConjunctMode::kRelax && ontology == nullptr) {
    return Status::FailedPrecondition("RELAX requires an ontology");
  }

  PreparedConjunct prepared;
  prepared.mode = conjunct.mode;

  // Case 2 (§3.3): (?X, R, C) is evaluated as (C, R-, ?X).
  const bool reverse =
      conjunct.source.is_variable && !conjunct.target.is_variable;
  RegexPtr reversed_regex;
  const RegexNode* regex = conjunct.regex.get();
  if (reverse) {
    reversed_regex = ReverseRegex(*conjunct.regex);
    regex = reversed_regex.get();
    prepared.eval_source = conjunct.target;
    prepared.eval_target = conjunct.source;
    prepared.reversed = true;
  } else {
    prepared.eval_source = conjunct.source;
    prepared.eval_target = conjunct.target;
  }

  // Shape analysis on the evaluated (post-reversal) regex: the closure
  // shape drives the planner's index-probe substitution, the max path
  // length the distance sketch's cost floor.
  prepared.closure_shape = RecognizeClosureShape(*regex);
  prepared.max_exact_path_edges = MaxEdgeCount(*regex);

  Nfa exact =
      RemoveEpsilons(BuildThompsonNfa(*regex, graph.labels(), ontology));
  switch (conjunct.mode) {
    case ConjunctMode::kExact:
      prepared.nfa = std::move(exact);
      break;
    case ConjunctMode::kApprox:
      prepared.nfa = BuildApproxAutomaton(exact, options.approx);
      break;
    case ConjunctMode::kRelax:
      prepared.nfa = BuildRelaxAutomaton(exact, *ontology, options.relax);
      break;
  }
  if (!prepared.eval_source.is_variable) {
    prepared.nfa.SetSourceConstant(prepared.eval_source.name);
  }
  if (!prepared.eval_target.is_variable) {
    prepared.nfa.SetTargetConstant(prepared.eval_target.name);
  }
  prepared.nfa.SortTransitions();
  return prepared;
}

ConjunctEvaluator::ConjunctEvaluator(const GraphStore* graph,
                                     const BoundOntology* ontology,
                                     const PreparedConjunct* prepared,
                                     const EvaluatorOptions& options)
    : graph_(graph),
      ontology_(ontology),
      prepared_(prepared),
      options_(options),
      dict_(options.prioritize_final_tuples) {
  assert(prepared_->mode != ConjunctMode::kRelax || ontology_ != nullptr);
}

ConjunctEvaluator::ConjunctEvaluator(const GraphStore* graph,
                                     const BoundOntology* ontology,
                                     const PreparedConjunct* prepared,
                                     const EvaluatorOptions& options,
                                     NodeId bound_source)
    : ConjunctEvaluator(graph, ontology, prepared, options) {
  assert(prepared_->eval_source.is_variable);
  bound_source_ = bound_source;
}

void ConjunctEvaluator::Open() {
  if (opened_) return;
  opened_ = true;
  const Nfa& nfa = prepared_->nfa;
  const StateId s0 = nfa.initial();

  target_is_constant_ = !prepared_->eval_target.is_variable;
  if (target_is_constant_) {
    target_node_ = graph_->FindNode(prepared_->eval_target.name);
    if (!target_node_) return;  // constant absent: conjunct has no answers
  }

  if (bound_source_ != kInvalidNode) {
    // A per-binding instance: the variable source is fixed to one node.
    AddTuple({bound_source_, bound_source_, s0, 0, false});
    ++stats_.seeds_added;
    return;
  }

  if (!prepared_->eval_source.is_variable) {
    // Case 1: begin the traversal at the constant's node.
    source_node_ = graph_->FindNode(prepared_->eval_source.name);
    if (!source_node_) return;
    const NodeId c = *source_node_;
    if (prepared_->mode == ConjunctMode::kRelax && ontology_ != nullptr &&
        ontology_->IsClassNode(c)) {
      // sc rule: also seed every ancestor class, at distance steps * β.
      // Ancestors are added most-general-first so that, on cost ties, the
      // LIFO bucket pops the most specific class first (the GetAncestors
      // ordering rationale of §3.3).
      auto ancestors = ontology_->NodeAncestors(c);
      for (auto it = ancestors.rbegin(); it != ancestors.rend(); ++it) {
        const Cost d = static_cast<Cost>(it->second) * options_.relax.beta;
        AddTuple({it->first, it->first, s0, d, false});
        ++stats_.seeds_added;
      }
    }
    AddTuple({c, c, s0, 0, false});
    ++stats_.seeds_added;
    return;
  }

  // Case 3: (?X, R, ?Y) — batched seeding. When s0 is final, every node of G
  // is a candidate answer at weight(s0), so the stream must eventually yield
  // all nodes (GetAllNodesByLabel); otherwise only nodes with a usable first
  // edge are seeded (GetAllStartNodesByLabel). The visited set and answer
  // map will see on the order of one entry per seed node, so size them from
  // the graph up front instead of rehashing on the way there — capped, so a
  // huge graph queried for a handful of answers doesn't pay gigabytes of
  // upfront table for entries it will never insert.
  constexpr size_t kMaxUpfrontReserve = size_t{1} << 20;
  const size_t reserve_n =
      std::min(static_cast<size_t>(graph_->NumNodes()), kMaxUpfrontReserve);
  if (options_.use_visited_set) visited_.Reserve(reserve_n);
  answers_.Reserve(reserve_n);
  const bool include_remaining = nfa.IsFinal(s0);
  stream_ = std::make_unique<InitialNodeStream>(
      graph_, ontology_, &nfa, include_remaining, options_.batch_size);
  RefillSeeds();
}

void ConjunctEvaluator::AddTuple(const EvalTuple& tuple) {
  if (tuple.d > options_.max_distance) {
    if (!truncated_by_distance_) over_ceiling_.push_back(tuple);
    return;
  }
  dict_.Add(tuple);
  ++stats_.tuples_pushed;
  if (dict_.size() > stats_.max_dictionary_size) {
    stats_.max_dictionary_size = dict_.size();
  }
}

bool ConjunctEvaluator::AnyOverCeilingUnreached() const {
  for (const EvalTuple& t : over_ceiling_) {
    const bool reached =
        t.is_final ? answers_.Contains(AnswerKey(t.v, t.n))
                   : options_.use_visited_set &&
                         visited_.Contains({PackPair(t.v, t.n), t.s});
    if (!reached) return true;
  }
  return false;
}

void ConjunctEvaluator::CheckBudget() {
  if (options_.max_live_tuples == 0) return;
  if (live_tuples() > options_.max_live_tuples) {
    status_ = Status::ResourceExhausted(
        "conjunct evaluation exceeded max_live_tuples=" +
        std::to_string(options_.max_live_tuples));
  }
}

void ConjunctEvaluator::RefillSeeds() {
  if (stream_ == nullptr) return;
  // Pull batches while the dictionary has no distance-0 tuples left, so no
  // d > 0 tuple is ever popped ahead of an unseeded distance-0 start node.
  while (!stream_->Exhausted() &&
         (dict_.Empty() || dict_.MinDistance() > 0)) {
    std::span<const NodeId> batch = stream_->NextBatch();
    if (batch.empty()) break;
    // The stream yields most-promising-first; adding in reverse makes the
    // LIFO bucket pop them in stream order ("we iterate through the set of
    // nodes in order of decreasing cost").
    for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
      AddTuple({*it, *it, prepared_->nfa.initial(), 0, false});
      ++stats_.seeds_added;
    }
  }
}

bool ConjunctEvaluator::TargetMatches(NodeId n) const {
  return !target_is_constant_ || (target_node_ && *target_node_ == n);
}

void ConjunctEvaluator::CollectNeighbors(NodeId n, const NfaTransition& t,
                                         std::vector<NodeId>* out) const {
  auto append = [out](std::span<const NodeId> ids) {
    out->insert(out->end(), ids.begin(), ids.end());
  };
  const bool entail =
      prepared_->nfa.entailment_matching() && ontology_ != nullptr;
  switch (t.kind) {
    case TransitionKind::kEpsilon:
      assert(false && "evaluator requires an ε-free automaton");
      break;
    case TransitionKind::kLabel: {
      if (t.label == kInvalidLabel) break;
      if (entail && t.label != LabelDictionary::kTypeLabel) {
        // RDFS entailment: an edge labelled with any subproperty of t.label
        // satisfies the transition (this is what makes a relaxed
        // relationLocatedByObject transition match happenedIn edges).
        for (LabelId down : ontology_->LabelDownSet(t.label)) {
          append(graph_->Neighbors(n, down, t.dir));
        }
      } else if (entail && t.label == LabelDictionary::kTypeLabel) {
        if (t.dir == Direction::kOutgoing) {
          // (n, type, c) holds for each stored class and its ancestors.
          for (NodeId c : graph_->TypeNeighbors(n, Direction::kOutgoing)) {
            out->push_back(c);
            for (const auto& [ancestor, steps] : ontology_->NodeAncestors(c)) {
              out->push_back(ancestor);
            }
          }
        } else {
          // Reverse type edge from class n: instances of n or of any
          // descendant class.
          const OidSet& down = ontology_->NodeDownSet(n);
          if (down.empty()) {
            append(graph_->TypeNeighbors(n, Direction::kIncoming));
          } else {
            for (NodeId c : down) {
              append(graph_->TypeNeighbors(c, Direction::kIncoming));
            }
          }
        }
      } else {
        append(graph_->Neighbors(n, t.label, t.dir));
      }
      break;
    }
    case TransitionKind::kAnyLabel:
      append(graph_->SigmaNeighbors(n, t.dir));
      append(graph_->TypeNeighbors(n, t.dir));
      break;
    case TransitionKind::kAnyLabelBothDirs:
      append(graph_->SigmaNeighbors(n, Direction::kOutgoing));
      append(graph_->SigmaNeighbors(n, Direction::kIncoming));
      append(graph_->TypeNeighbors(n, Direction::kOutgoing));
      append(graph_->TypeNeighbors(n, Direction::kIncoming));
      break;
    case TransitionKind::kConstrainedType: {
      // Forward type edge whose target class is (a descendant of) the
      // dom/range class recorded on the transition.
      if (ontology_ == nullptr) break;
      const OidSet& allowed = ontology_->NodeDownSet(t.class_node);
      for (NodeId c : graph_->TypeNeighbors(n, Direction::kOutgoing)) {
        if (allowed.Contains(c)) out->push_back(c);
      }
      break;
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

template <typename Takes>
void ConjunctEvaluator::PushMoves(const EvalTuple& tuple, Cost base,
                                  Takes takes) {
  std::span<const NfaTransition> transitions = prepared_->nfa.Out(tuple.s);
  size_t i = 0;
  while (i < transitions.size()) {
    // One neighbour fetch per SameNeighborGroup run (§3.4's U-set reuse),
    // made only when the run has a member this pass pushes.
    bool fetched = false;
    size_t j = i;
    for (; j < transitions.size() &&
           transitions[j].SameNeighborGroup(transitions[i]);
         ++j) {
      const NfaTransition& t = transitions[j];
      if (!takes(t.cost)) continue;
      if (!fetched) {
        scratch_neighbors_.clear();
        CollectNeighbors(tuple.n, t, &scratch_neighbors_);
        ++stats_.neighbor_group_fetches;
        fetched = true;
      }
      for (NodeId m : scratch_neighbors_) {
        if (options_.use_visited_set &&
            visited_.Contains({PackPair(tuple.v, m), t.to})) {
          continue;
        }
        AddTuple({tuple.v, m, t.to, base + t.cost, false});
      }
    }
    i = j;
  }
}

void ConjunctEvaluator::ExpandTuple(const EvalTuple& tuple) {
  const Nfa& nfa = prepared_->nfa;
  ++stats_.succ_expansions;

  if (tuple.deferred) {
    // The twin's positive-cost moves, costed from the twin's distance. Moves
    // past the ceiling were already checked when the twin popped.
    const Cost base = tuple.d - nfa.MinPositiveMove(tuple.s);
    const Cost headroom = options_.max_distance - base;
    PushMoves(tuple, base,
              [headroom](Cost c) { return c > 0 && c <= headroom; });
    return;
  }

  if (!options_.lazy_succ) {
    PushMoves(tuple, tuple.d, [](Cost) { return true; });
  } else {
    // Cost-0 moves now. A positive move past the ceiling pushes nothing but
    // must still set the truncation flag as eager Succ would, so it is
    // checked now, against the visited set eager Succ would see; the rest
    // wait for the deferred twin, which pops no earlier than they would.
    const Cost headroom = options_.max_distance - tuple.d;
    PushMoves(tuple, tuple.d, [this, headroom](Cost c) {
      return c == 0 || (c > headroom && !truncated_by_distance_);
    });
    const Cost step = nfa.MinPositiveMove(tuple.s);
    if (step < kInfiniteCost && step <= headroom) {
      AddTuple({tuple.v, tuple.n, tuple.s, tuple.d + step, false, true});
    }
  }

  // Lines 12–13 of GetNext: re-enqueue as a final tuple, adding weight(s).
  if (nfa.IsFinal(tuple.s) && TargetMatches(tuple.n) &&
      !answers_.Contains(AnswerKey(tuple.v, tuple.n))) {
    AddTuple({tuple.v, tuple.n, tuple.s,
              tuple.d + nfa.FinalWeight(tuple.s), true});
  }
}

bool ConjunctEvaluator::Next(Answer* out) {
  if (!status_.ok()) return false;
  Open();
  for (;;) {
    // Cooperative cancellation at pop granularity: a null token costs one
    // branch, a live one a relaxed flag load per pop plus a strided
    // deadline clock read (see common/cancel.h).
    if (options_.cancel.valid()) {
      Status s = options_.cancel.CheckStrided(&cancel_tick_,
                                              "conjunct evaluation");
      if (!s.ok()) {
        status_ = std::move(s);
        return false;
      }
    }
    RefillSeeds();
    if (!over_ceiling_.empty() &&
        (dict_.Empty() || dict_.MinDistance() > level_)) {
      // Level level_ has drained: whatever it left unreached stays so
      // below the ceiling.
      if (AnyOverCeilingUnreached()) truncated_by_distance_ = true;
      over_ceiling_.clear();
    }
    if (dict_.Empty()) return false;  // exhausted
    const EvalTuple tuple = dict_.Remove();
    ++stats_.tuples_popped;
    level_ = tuple.d;

    if (tuple.is_final) {
      if (!answers_.Insert(AnswerKey(tuple.v, tuple.n), tuple.d)) {
        continue;  // answer already generated at some d'
      }
      ++stats_.answers_emitted;
      *out = Answer{tuple.v, tuple.n, tuple.d};
      return true;
    }

    // A deferred tuple's twin has already passed the visited check.
    if (options_.use_visited_set && !tuple.deferred &&
        !visited_.Insert({PackPair(tuple.v, tuple.n), tuple.s})) {
      continue;  // processed before at a lower-or-equal d
    }
    ExpandTuple(tuple);
    CheckBudget();
    if (!status_.ok()) return false;
  }
}

}  // namespace omega
