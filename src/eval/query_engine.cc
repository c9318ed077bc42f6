#include "eval/query_engine.h"

#include <algorithm>

#include "eval/frontier_scan.h"
#include "index/index_probe_stream.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/statistics.h"

namespace omega {
namespace {

// Probe-vs-fallback counters for the reachability-index substitution.
// Process-global on purpose (every engine shares the per-label indexes);
// the registry lookup happens once per process via the function-local
// static, leaving one relaxed increment per decided conjunct on the hot
// path.
Counter* ProbeSubstitutionCounter() {
  static Counter* const counter = MetricsRegistry::Global()->GetCounter(
      "omega_index_probe_substitutions_total",
      "Conjuncts executed as reachability-index interval probes");
  return counter;
}

Counter* ProbeFallbackCounter() {
  static Counter* const counter = MetricsRegistry::Global()->GetCounter(
      "omega_index_probe_fallbacks_total",
      "Index-eligible conjuncts that fell back to the NFA walk");
  return counter;
}

/// Owns the compiled automaton alongside the stream borrowing it, so the
/// engine can hand out self-contained streams.
class OwningConjunctStream : public AnswerStream {
 public:
  OwningConjunctStream(std::unique_ptr<PreparedConjunct> prepared,
                       std::unique_ptr<AnswerStream> inner)
      : prepared_(std::move(prepared)), inner_(std::move(inner)) {}

  bool Next(Answer* out) override { return inner_->Next(out); }
  const Status& status() const override { return inner_->status(); }
  EvaluatorStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<PreparedConjunct> prepared_;
  std::unique_ptr<AnswerStream> inner_;
};

/// Slot of an endpoint: its compiled VarId, or kInvalidVar for a constant.
VarId SlotOf(const Endpoint& endpoint, const VarCatalog& catalog) {
  return endpoint.is_variable ? catalog.Find(endpoint.name) : kInvalidVar;
}

/// True if `order` is a permutation of [0, n).
bool IsPermutation(const std::vector<size_t>& order, size_t n) {
  if (order.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (const size_t i : order) {
    if (i >= n || seen[i]) return false;
    seen[i] = true;
  }
  return true;
}

/// A committed index-probe substitution: the per-label index to probe (null
/// for an absent label — no edges carry it, so the trivial probe is exact),
/// the compiled probe, and its reach set.
struct IndexProbeDecision {
  const LabelReachability* reach = nullptr;
  IndexProbePlan plan;
  ProbeReachSet set;
};

/// Decides whether `prepared` runs off the reachability index. Deterministic
/// in its inputs: PlanFor (estimates, EXPLAIN) and MakeConjunctStream
/// (execution) both call it with identical arguments, so the plan always
/// describes the stream that actually runs. Eligible shape: an exact-mode
/// single-atom closure with a constant (post-reversal) source. Falls back to
/// the NFA walk (nullopt) when the per-label index is unavailable (over its
/// interval budget) or the min_hops frontier expansion overflows its cap.
std::optional<IndexProbeDecision> DecideIndexProbe(
    const PreparedConjunct& prepared, const GraphStore& graph,
    const IndexManager* indexes, const QueryEngineOptions& options) {
  if (!options.use_reachability_index || indexes == nullptr) {
    return std::nullopt;
  }
  if (prepared.mode != ConjunctMode::kExact) return std::nullopt;
  if (!prepared.closure_shape.has_value()) return std::nullopt;
  if (prepared.eval_source.is_variable) return std::nullopt;
  const ClosureShape& shape = *prepared.closure_shape;

  IndexProbeDecision decision;
  decision.plan.is_wildcard = shape.is_wildcard;
  decision.plan.dir = shape.dir;
  decision.plan.min_hops = shape.min_hops;
  if (shape.is_wildcard) {
    decision.reach =
        indexes->Reachability(ReachabilityIndex::kSigmaLabel, shape.dir);
    if (decision.reach == nullptr) return std::nullopt;
  } else if (const std::optional<LabelId> label =
                 graph.labels().Find(shape.label);
             label.has_value()) {
    decision.plan.label = *label;
    decision.reach = indexes->Reachability(*label, shape.dir);
    if (decision.reach == nullptr) return std::nullopt;
  }
  decision.plan.source =
      graph.FindNode(prepared.eval_source.name).value_or(kInvalidNode);
  if (!prepared.eval_target.is_variable) {
    decision.plan.target_is_constant = true;
    decision.plan.target =
        graph.FindNode(prepared.eval_target.name).value_or(kInvalidNode);
  }
  std::optional<ProbeReachSet> set =
      ComputeProbeReachSet(graph, decision.reach, decision.plan);
  if (!set.has_value()) return std::nullopt;
  decision.set = std::move(*set);
  return decision;
}

/// True when `conjunct` may be the inner input of a BoundJoin: both
/// endpoints are variables and no optimisation wrapper replaces its
/// evaluator (those are drained and HRJN-joined instead).
bool BindableConjunct(const Conjunct& conjunct,
                      const QueryEngineOptions& options) {
  if (!options.use_bound_join || !conjunct.source.is_variable ||
      !conjunct.target.is_variable) {
    return false;
  }
  if (conjunct.mode == ConjunctMode::kExact) return true;
  return !options.distance_aware &&
         !(options.decompose_alternation && CanDecomposeAlternation(conjunct));
}

/// Collects the conjunct index and bound slot of every BoundJoin's inner
/// leaf.
void CollectBoundInners(const PlanNode* node,
                        std::vector<std::pair<size_t, VarId>>* out) {
  if (node->is_leaf()) return;
  if (node->bound_var != kInvalidVar) {
    out->emplace_back(node->right->conjunct_index, node->bound_var);
  }
  CollectBoundInners(node->left.get(), out);
  CollectBoundInners(node->right.get(), out);
}

/// EXPLAIN marker appended to a substituted leaf's description.
std::string IndexProbeMarker(const ClosureShape& shape) {
  std::string marker = " via IndexProbe(";
  marker += shape.is_wildcard ? "_" : shape.label;
  if (shape.dir == Direction::kIncoming) marker += ", incoming";
  if (shape.min_hops > 0) {
    marker += ", min_hops=" + std::to_string(shape.min_hops);
  }
  marker += ")";
  return marker;
}

/// True when a drained (not BoundJoin-inner) conjunct runs as a
/// FrontierScanStream rather than the ranked walk: the rule MakeConjunctStream
/// executes and PlanFor marks in EXPLAIN. Index-probe candidates never
/// qualify (they have a constant source).
bool UsesFrontierScan(const PreparedConjunct& prepared,
                      const QueryEngineOptions& options) {
  return options.use_frontier_scan && FrontierScanEligible(prepared);
}

/// Appends the EXPLAIN marker to every leaf that runs as a frontier scan.
/// BoundJoin inners are skipped: their per-binding instances keep the
/// ranked walk.
void MarkFrontierScans(
    PlanNode* node, bool bound_inner,
    const std::vector<std::unique_ptr<PreparedConjunct>>& prepared,
    const QueryEngineOptions& options) {
  if (node->is_leaf()) {
    if (!bound_inner &&
        UsesFrontierScan(*prepared[node->conjunct_index], options)) {
      node->description += " via FrontierScan";
    }
    return;
  }
  MarkFrontierScans(node->left.get(), false, prepared, options);
  MarkFrontierScans(node->right.get(), node->bound_var != kInvalidVar,
                    prepared, options);
}

}  // namespace

// --- QueryResultStream -------------------------------------------------------

QueryResultStream::QueryResultStream(std::vector<std::string> head,
                                     std::vector<VarId> head_slots,
                                     std::unique_ptr<BindingStream> bindings,
                                     std::unique_ptr<QueryPlan> plan)
    : head_(std::move(head)),
      head_slots_(std::move(head_slots)),
      bindings_(std::move(bindings)),
      plan_(std::move(plan)) {}

std::string QueryResultStream::ExplainString() const {
  return plan_ == nullptr ? std::string()
                          : RenderPlanTree(*plan_, /*with_stats=*/true);
}

bool QueryResultStream::Next(QueryAnswer* out) {
  Binding& binding = scratch_;
  while (bindings_->Next(&binding)) {
    QueryAnswer answer;
    answer.distance = binding.distance;
    answer.bindings.reserve(head_slots_.size());
    for (const VarId slot : head_slots_) {
      answer.bindings.push_back(binding.Get(slot));
    }
    // Head variables are always bound (ValidateQuery requires them in the
    // body), so kInvalidNode never appears in a real second component and
    // the packed one-variable key cannot collide with a two-variable one.
    const bool fresh =
        head_slots_.size() <= 2
            ? seen_packed_.Insert(PackPair(
                  answer.bindings[0], head_slots_.size() == 2
                                          ? answer.bindings[1]
                                          : kInvalidNode))
            : seen_wide_.Insert(answer.bindings);
    if (!fresh) continue;
    *out = std::move(answer);
    return true;
  }
  return false;
}

// --- QueryEngine -------------------------------------------------------------

QueryEngine::QueryEngine(const GraphStore* graph, const Ontology* ontology,
                         const IndexManager* indexes)
    : graph_(graph), indexes_(indexes) {
  if (ontology != nullptr) bound_.emplace(ontology, graph);
}

Result<std::unique_ptr<BindingStream>> QueryEngine::MakeConjunctStream(
    const Conjunct& conjunct, std::unique_ptr<PreparedConjunct> prepared,
    const QueryEngineOptions& options, const VarCatalog& catalog) const {
  const BoundOntology* ontology = bound_ontology();
  const bool flexible = conjunct.mode != ConjunctMode::kExact;
  const size_t width = catalog.size();

  // §4.3(b): decompose a top-level alternation into sub-automata. The
  // decomposition recompiles each branch internally, so the whole-conjunct
  // automaton prepared for planning is not used here.
  if (options.decompose_alternation && flexible &&
      CanDecomposeAlternation(conjunct)) {
    Result<std::unique_ptr<DisjunctionStream>> stream =
        DisjunctionStream::Create(
            conjunct, graph_, ontology, options.evaluator,
            options.distance_aware_options.max_fruitless_rounds);
    if (!stream.ok()) return stream.status();
    // DisjunctionStream normalises Case 2 internally per branch; recompute
    // the post-reversal endpoints the same way.
    const bool reversed =
        conjunct.source.is_variable && !conjunct.target.is_variable;
    return std::unique_ptr<BindingStream>(
        std::make_unique<ConjunctBindingStream>(
            std::move(stream).value(), width,
            SlotOf(reversed ? conjunct.target : conjunct.source, catalog),
            SlotOf(reversed ? conjunct.source : conjunct.target, catalog)));
  }

  const VarId source_slot = SlotOf(prepared->eval_source, catalog);
  const VarId target_slot = SlotOf(prepared->eval_target, catalog);

  // Reachability-index substitution: an eligible exact closure conjunct
  // becomes an interval-containment probe instead of an NFA product walk.
  // Same decision as PlanFor's, so EXPLAIN and execution agree. The
  // substitution/fallback counters and trace events record the decision
  // once per conjunct at stream-construction time, never per pull.
  const bool index_candidate =
      options.use_reachability_index && indexes_ != nullptr &&
      prepared->mode == ConjunctMode::kExact &&
      prepared->closure_shape.has_value() &&
      !prepared->eval_source.is_variable;
  if (std::optional<IndexProbeDecision> probe =
          DecideIndexProbe(*prepared, *graph_, indexes_, options);
      probe.has_value()) {
    ProbeSubstitutionCounter()->Increment();
    if (TraceRecorder* trace = options.evaluator.trace; trace != nullptr) {
      const TraceRecorder::SpanId id = trace->Event("index_probe");
      trace->AnnotateStr(id, "conjunct", ToString(conjunct));
      trace->Annotate(id, "substituted", 1);
    }
    auto stream = std::make_unique<IndexProbeStream>(
        probe->reach, probe->plan, std::move(probe->set));
    return std::unique_ptr<BindingStream>(
        std::make_unique<ConjunctBindingStream>(std::move(stream), width,
                                                source_slot, target_slot));
  }
  if (index_candidate) {
    // Eligible shape, but the per-label index was unavailable (interval
    // budget) or the frontier expansion overflowed — the fallback the
    // metrics exist to make visible.
    ProbeFallbackCounter()->Increment();
    if (TraceRecorder* trace = options.evaluator.trace; trace != nullptr) {
      const TraceRecorder::SpanId id = trace->Event("index_probe");
      trace->AnnotateStr(id, "conjunct", ToString(conjunct));
      trace->Annotate(id, "substituted", 0);
    }
  }

  // §4.3(a): distance-aware retrieval only pays off when operations have
  // positive costs, i.e. for APPROX/RELAX conjuncts.
  const bool use_distance_aware = options.distance_aware && flexible;
  // The distance sketch can only raise the first ψ for an APPROX conjunct
  // with two constant endpoints and a bounded exact language; gate the
  // (lazy, BFS-building) Sketch() call on exactly those conditions.
  const DistanceSketch* sketch = nullptr;
  if (use_distance_aware && options.use_reachability_index &&
      indexes_ != nullptr && prepared->mode == ConjunctMode::kApprox &&
      !prepared->eval_source.is_variable &&
      !prepared->eval_target.is_variable &&
      prepared->max_exact_path_edges.has_value()) {
    sketch = indexes_->Sketch();
  }
  std::unique_ptr<AnswerStream> inner;
  if (UsesFrontierScan(*prepared, options)) {
    inner = std::make_unique<FrontierScanStream>(graph_, prepared.get(),
                                                 options.evaluator);
  } else if (use_distance_aware) {
    inner = std::make_unique<DistanceAwareStream>(
        graph_, ontology, prepared.get(), options.evaluator,
        options.distance_aware_options, sketch);
  } else {
    inner = std::make_unique<ConjunctEvaluator>(graph_, ontology,
                                                prepared.get(),
                                                options.evaluator);
  }
  auto answers = std::make_unique<OwningConjunctStream>(std::move(prepared),
                                                        std::move(inner));
  return std::unique_ptr<BindingStream>(
      std::make_unique<ConjunctBindingStream>(std::move(answers), width,
                                              source_slot, target_slot));
}

Result<BoundConjunct> QueryEngine::MakeBoundConjunct(
    const Conjunct& conjunct, std::unique_ptr<PreparedConjunct> prepared,
    VarId bound_slot, const QueryEngineOptions& options,
    const VarCatalog& catalog) const {
  BoundConjunct inner;
  inner.graph = graph_;
  inner.ontology = bound_ontology();
  inner.options = options.evaluator;
  inner.bound_slot = bound_slot;
  const VarId source_slot = SlotOf(conjunct.source, catalog);
  const VarId target_slot = SlotOf(conjunct.target, catalog);
  if (bound_slot == source_slot) {
    inner.free_slot = target_slot;
    inner.prepared = std::move(prepared);
    return inner;
  }
  // Bound at the target: (?X, R, ?Y) runs from y as (?Y, R-, ?X), the way
  // Case 2 of Open runs (?X, R, C).
  Conjunct reversed;
  reversed.mode = conjunct.mode;
  reversed.source = conjunct.target;
  reversed.target = conjunct.source;
  reversed.regex = ReverseRegex(*conjunct.regex);
  Result<PreparedConjunct> p = PrepareConjunct(reversed, *graph_, inner.ontology,
                                               options.evaluator);
  if (!p.ok()) return p.status();
  inner.free_slot = source_slot;
  inner.prepared = std::make_unique<PreparedConjunct>(std::move(p).value());
  return inner;
}

Result<std::unique_ptr<QueryPlan>> QueryEngine::PlanFor(
    const Query& query, const QueryEngineOptions& options,
    std::vector<std::unique_ptr<PreparedConjunct>>* prepared) const {
  OMEGA_RETURN_NOT_OK(ValidateQuery(query));
  auto plan = std::make_unique<QueryPlan>();
  // Compile the per-query variable catalogue: every body variable gets a
  // dense slot (first-use order, matching Query::BodyVariables), so the
  // streams speak integer slots only.
  for (const Conjunct& conjunct : query.conjuncts) {
    if (conjunct.source.is_variable) {
      plan->catalog.GetOrAdd(conjunct.source.name);
    }
    if (conjunct.target.is_variable) {
      plan->catalog.GetOrAdd(conjunct.target.name);
    }
  }
  // Prepare and estimate every conjunct up front: the planner needs the
  // automaton-level estimates before any stream exists.
  std::vector<PlanLeaf> leaves;
  leaves.reserve(query.conjuncts.size());
  prepared->clear();
  prepared->reserve(query.conjuncts.size());
  for (size_t i = 0; i < query.conjuncts.size(); ++i) {
    const Conjunct& conjunct = query.conjuncts[i];
    Result<PreparedConjunct> p =
        PrepareConjunct(conjunct, *graph_, bound_ontology(), options.evaluator);
    if (!p.ok()) return p.status();
    auto holder = std::make_unique<PreparedConjunct>(std::move(p).value());
    PlanLeaf leaf;
    leaf.conjunct_index = i;
    leaf.description = ToString(conjunct);
    const VarId source_slot = SlotOf(conjunct.source, plan->catalog);
    const VarId target_slot = SlotOf(conjunct.target, plan->catalog);
    if (source_slot != kInvalidVar) leaf.variables.push_back(source_slot);
    if (target_slot != kInvalidVar && target_slot != source_slot) {
      leaf.variables.push_back(target_slot);
    }
    std::sort(leaf.variables.begin(), leaf.variables.end());
    // Index-substituted conjuncts are priced off the actual reach set (an
    // exact count) and marked in the leaf description for EXPLAIN.
    if (const std::optional<IndexProbeDecision> probe =
            DecideIndexProbe(*holder, *graph_, indexes_, options);
        probe.has_value()) {
      leaf.estimate =
          EstimateIndexProbe(probe->plan, probe->set, probe->reach, *graph_);
      leaf.description += IndexProbeMarker(*holder->closure_shape);
    } else {
      leaf.estimate = EstimateConjunct(*holder, *graph_);
    }
    leaf.binding.has_constant =
        !conjunct.source.is_variable || !conjunct.target.is_variable;
    if (BindableConjunct(conjunct, options)) {
      leaf.binding.bindable_source = source_slot;
      leaf.binding.rows_per_source = EstimateRowsPerBinding(
          *conjunct.regex, leaf.estimate, *graph_, /*from_target=*/false);
      // The dom/range rule is not symmetric under reversal: it relaxes an
      // edge to the type of the node it is walked from. With it on, a RELAX
      // conjunct is only ever bound at its source.
      const bool reversible =
          conjunct.mode != ConjunctMode::kRelax ||
          !options.evaluator.relax.enable_domain_range;
      if (target_slot != source_slot && reversible) {
        leaf.binding.bindable_target = target_slot;
        leaf.binding.rows_per_target = EstimateRowsPerBinding(
            *conjunct.regex, leaf.estimate, *graph_, /*from_target=*/true);
      }
    }
    leaves.push_back(std::move(leaf));
    prepared->push_back(std::move(holder));
  }

  if (!options.forced_join_order.empty()) {
    if (!IsPermutation(options.forced_join_order, leaves.size())) {
      return Status::InvalidArgument(
          "forced_join_order must be a permutation of the conjunct indices");
    }
    plan->root = PlanLeftDeep(std::move(leaves), options.forced_join_order,
                              graph_->NumNodes());
  } else if (options.plan_mode == PlanMode::kTextual) {
    std::vector<size_t> order(leaves.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    plan->root = PlanLeftDeep(std::move(leaves), order, graph_->NumNodes());
  } else {
    plan->root = PlanGreedyBushy(std::move(leaves), graph_->NumNodes());
  }
  if (options.use_bound_join) ChooseBoundJoins(plan->root.get());
  MarkFrontierScans(plan->root.get(), /*bound_inner=*/false, *prepared,
                    options);
  return plan;
}

Result<std::unique_ptr<QueryResultStream>> QueryEngine::Execute(
    const Query& query, const QueryEngineOptions& options) const {
  std::vector<std::unique_ptr<PreparedConjunct>> prepared;
  std::unique_ptr<QueryPlan> planned;
  {
    ScopedSpan span(options.evaluator.trace, "plan");
    Result<std::unique_ptr<QueryPlan>> plan =
        PlanFor(query, options, &prepared);
    if (!plan.ok()) return plan.status();
    planned = std::move(*plan);
    span.Annotate("conjuncts", static_cast<int64_t>(query.conjuncts.size()));
    if (planned->root != nullptr) {
      span.Annotate("est_rows",
                    static_cast<int64_t>(planned->root->est_cardinality));
    }
  }
  ScopedSpan compile_span(options.evaluator.trace, "compile");
  const VarCatalog& catalog = planned->catalog;
  std::vector<VarId> head_slots;
  head_slots.reserve(query.head.size());
  for (const std::string& var : query.head) {
    head_slots.push_back(catalog.Find(var));  // bound: ValidateQuery checked
  }
  std::vector<std::pair<size_t, VarId>> bound;
  CollectBoundInners(planned->root.get(), &bound);
  std::vector<BoundConjunct> bound_inners(query.conjuncts.size());
  for (const auto& [i, slot] : bound) {
    Result<BoundConjunct> inner = MakeBoundConjunct(
        query.conjuncts[i], std::move(prepared[i]), slot, options, catalog);
    if (!inner.ok()) return inner.status();
    bound_inners[i] = std::move(inner).value();
  }
  std::vector<std::unique_ptr<BindingStream>> streams(query.conjuncts.size());
  for (size_t i = 0; i < query.conjuncts.size(); ++i) {
    if (bound_inners[i].prepared != nullptr) continue;
    Result<std::unique_ptr<BindingStream>> stream = MakeConjunctStream(
        query.conjuncts[i], std::move(prepared[i]), options, catalog);
    if (!stream.ok()) return stream.status();
    streams[i] = std::move(stream).value();
  }
  std::unique_ptr<BindingStream> tree = CompilePlan(
      planned->root.get(), &streams, options.evaluator.max_live_tuples,
      options.evaluator.cancel, &bound_inners);
  return std::make_unique<QueryResultStream>(query.head, std::move(head_slots),
                                             std::move(tree),
                                             std::move(planned));
}

Result<std::string> QueryEngine::ExplainQuery(
    const Query& query, const QueryEngineOptions& options) const {
  std::vector<std::unique_ptr<PreparedConjunct>> prepared;
  Result<std::unique_ptr<QueryPlan>> plan = PlanFor(query, options, &prepared);
  if (!plan.ok()) return plan.status();
  return RenderPlanTree(**plan, /*with_stats=*/false);
}

Result<std::vector<QueryAnswer>> QueryEngine::ExecuteTopK(
    const Query& query, size_t limit, const QueryEngineOptions& options) const {
  QueryEngineOptions hinted = options;
  if (hinted.evaluator.top_k_hint == 0) hinted.evaluator.top_k_hint = limit;
  Result<std::unique_ptr<QueryResultStream>> stream = Execute(query, hinted);
  if (!stream.ok()) return stream.status();
  std::vector<QueryAnswer> answers;
  QueryAnswer answer;
  while ((limit == 0 || answers.size() < limit) &&
         (*stream)->Next(&answer)) {
    answers.push_back(answer);
  }
  if (!(*stream)->status().ok()) return (*stream)->status();
  return answers;
}

}  // namespace omega
