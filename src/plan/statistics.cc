#include "plan/statistics.h"

#include <algorithm>
#include <optional>

#include "common/flat_hash.h"
#include "common/pack.h"

namespace omega {
namespace {

/// Packed identity of a transition's neighbour group (SameNeighborGroup
/// collapsed to one word): kind and direction in the high bits, the label or
/// class node in the low 32. Transitions in the same group fetch the same
/// node set, so they must be counted once — APPROX/RELAX automatons repeat
/// each label across many states.
uint64_t GroupTag(const NfaTransition& t) {
  uint64_t tag = (static_cast<uint64_t>(t.kind) << 40) |
                 (static_cast<uint64_t>(t.dir) << 36);
  tag |= t.kind == TransitionKind::kConstrainedType
             ? static_cast<uint64_t>(t.class_node)
             : static_cast<uint64_t>(t.label);
  return tag;
}

/// Tail or head cardinality of `stats` along a traversal direction: a node
/// that can take an edge outgoing is a tail, incoming a head.
double EndpointCount(const LabelStats& stats, Direction dir) {
  return static_cast<double>(dir == Direction::kOutgoing ? stats.num_tails
                                                         : stats.num_heads);
}

/// Candidate start nodes of one transition group — the counting twin of
/// InitialNodeStream::CandidatesFor, priced from the store's LabelStats
/// (cardinalities instead of materialised sets; overlaps between groups
/// over-count, the |V| cap bounds the damage).
double StartCandidates(const GraphStore& g, const NfaTransition& t) {
  switch (t.kind) {
    case TransitionKind::kEpsilon:
      return 0;  // ε-free by construction
    case TransitionKind::kLabel:
      if (t.label == kInvalidLabel) return 0;
      return EndpointCount(g.StatsForLabel(t.label), t.dir);
    case TransitionKind::kAnyLabel:
      return EndpointCount(g.SigmaStats(), t.dir) +
             EndpointCount(g.StatsForLabel(LabelDictionary::kTypeLabel),
                           t.dir);
    case TransitionKind::kAnyLabelBothDirs: {
      const LabelStats sigma = g.SigmaStats();
      const LabelStats type = g.StatsForLabel(LabelDictionary::kTypeLabel);
      return static_cast<double>(sigma.num_tails + sigma.num_heads +
                                 type.num_tails + type.num_heads);
    }
    case TransitionKind::kConstrainedType:
      return EndpointCount(g.StatsForLabel(LabelDictionary::kTypeLabel),
                           Direction::kOutgoing);
  }
  return 0;
}

/// Candidate end nodes after traversing `t`: the node landed on is a head of
/// the edge for outgoing traversal, a tail for incoming.
double EndCandidates(const GraphStore& g, const NfaTransition& t) {
  switch (t.kind) {
    case TransitionKind::kEpsilon:
      return 0;
    case TransitionKind::kLabel:
      if (t.label == kInvalidLabel) return 0;
      return EndpointCount(g.StatsForLabel(t.label), Reverse(t.dir));
    case TransitionKind::kAnyLabel:
      return EndpointCount(g.SigmaStats(), Reverse(t.dir)) +
             EndpointCount(g.StatsForLabel(LabelDictionary::kTypeLabel),
                           Reverse(t.dir));
    case TransitionKind::kAnyLabelBothDirs: {
      const LabelStats sigma = g.SigmaStats();
      const LabelStats type = g.StatsForLabel(LabelDictionary::kTypeLabel);
      return static_cast<double>(sigma.num_tails + sigma.num_heads +
                                 type.num_tails + type.num_heads);
    }
    case TransitionKind::kConstrainedType:
      // Lands on a class node: a head of some stored `type` edge.
      return EndpointCount(g.StatsForLabel(LabelDictionary::kTypeLabel),
                           Direction::kIncoming);
  }
  return 0;
}

}  // namespace

ConjunctEstimate EstimateConjunct(const PreparedConjunct& prepared,
                                  const GraphStore& graph) {
  ConjunctEstimate est;
  const Nfa& nfa = prepared.nfa;
  const double num_nodes = static_cast<double>(graph.NumNodes());
  if (graph.NumNodes() == 0) {
    est.provably_empty = true;
    return est;
  }

  // --- sources: candidate start nodes --------------------------------------
  if (!prepared.eval_source.is_variable) {
    est.sources = graph.FindNode(prepared.eval_source.name) ? 1 : 0;
  } else if (nfa.IsFinal(nfa.initial())) {
    // The empty path is accepted, so every node of G starts an answer (the
    // GetAllNodesByLabel case): Σ*-heavy regexes land here.
    est.sources = num_nodes;
  } else {
    FlatHashSet<uint64_t> seen_groups;
    double total = 0;
    for (const NfaTransition& t : nfa.Out(nfa.initial())) {
      if (!seen_groups.Insert(GroupTag(t))) continue;
      total += StartCandidates(graph, t);
    }
    est.sources = std::min(total, num_nodes);
  }

  // --- targets: candidate end nodes ----------------------------------------
  if (!prepared.eval_target.is_variable) {
    est.targets = graph.FindNode(prepared.eval_target.name) ? 1 : 0;
  } else if (nfa.IsFinal(nfa.initial())) {
    est.targets = num_nodes;  // every source is its own target at the least
  } else {
    FlatHashSet<uint64_t> seen_groups;
    double total = 0;
    for (StateId s = 0; s < nfa.NumStates(); ++s) {
      for (const NfaTransition& t : nfa.Out(s)) {
        if (!nfa.IsFinal(t.to)) continue;
        if (!seen_groups.Insert(GroupTag(t))) continue;
        total += EndCandidates(graph, t);
      }
    }
    est.targets = std::min(total, num_nodes);
  }

  // --- cardinality / selectivity -------------------------------------------
  if (est.sources == 0 || est.targets == 0) {
    est.provably_empty = true;
    return est;
  }
  // Independence model: each candidate source answers among the candidate
  // targets at uniform density targets / |V|. Deliberately naive — skewed
  // degree distributions (hub joins) are under-estimated, but the *relative*
  // order of conjuncts survives, which is all the greedy planner consumes.
  est.cardinality = est.sources * est.targets / num_nodes;
  int variable_endpoints = 0;
  if (prepared.eval_source.is_variable) ++variable_endpoints;
  if (prepared.eval_target.is_variable &&
      !(prepared.eval_source.is_variable &&
        prepared.eval_source.name == prepared.eval_target.name)) {
    ++variable_endpoints;
  }
  double domain = 1;
  for (int i = 0; i < variable_endpoints; ++i) domain *= num_nodes;
  est.selectivity = std::clamp(est.cardinality / domain, 0.0, 1.0);
  return est;
}

double EstimateRowsPerBinding(const RegexNode& regex,
                              const ConjunctEstimate& estimate,
                              const GraphStore& graph, bool from_target) {
  if (regex.op == RegexOp::kLabel) {
    const std::optional<LabelId> label = graph.labels().Find(regex.label);
    if (!label.has_value()) return 0;
    const LabelStats stats = graph.StatsForLabel(*label);
    // Leaving a tail along the edge fans out to its heads, and vice versa.
    const bool from_tail =
        (regex.dir == Direction::kOutgoing) != from_target;
    return from_tail ? stats.AvgOutDegree() : stats.AvgInDegree();
  }
  const double bindings = from_target ? estimate.targets : estimate.sources;
  return bindings > 0 ? estimate.cardinality / bindings : 0;
}

ConjunctEstimate EstimateIndexProbe(const IndexProbePlan& plan,
                                    const ProbeReachSet& set,
                                    const LabelReachability* reach,
                                    const GraphStore& graph) {
  ConjunctEstimate est;
  est.sources = plan.source != kInvalidNode ? 1 : 0;
  if (plan.target_is_constant) {
    // Fully-constant probe: a 0-or-1-row filter, decided right here.
    const bool hit =
        plan.target != kInvalidNode && set.Contains(reach, plan.target);
    est.targets = hit ? 1 : 0;
    est.cardinality = hit ? 1 : 0;
    est.selectivity = hit ? 1 : 0;
    est.provably_empty = !hit;
    return est;
  }
  const double count = static_cast<double>(set.Count(reach));
  est.targets = count;
  est.cardinality = count;  // exact: the stream enumerates this very set
  est.provably_empty = count == 0;
  const double domain = std::max<double>(1.0, graph.NumNodes());
  est.selectivity = std::clamp(count / domain, 0.0, 1.0);
  return est;
}

}  // namespace omega
