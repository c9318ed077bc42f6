#include "plan/plan_node.h"

#include <cstdio>

#include "obs/trace.h"

namespace omega {
namespace {

std::string FormatEstimate(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", value);
  return buf;
}

// Mis-estimate ratio actual/estimated for EXPLAIN ANALYZE: 1.00x is a
// perfect estimate, <1 over-estimated, >1 under-estimated (the hub-join
// failure mode the ROADMAP calls out). A zero/negative estimate (provably
// empty, or never estimated) compares against 1 row to stay finite.
std::string FormatMisestimate(uint64_t actual, double estimated) {
  const double denom = estimated > 0 ? estimated : 1.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", static_cast<double>(actual) / denom);
  return buf;
}

std::string VarList(const std::vector<VarId>& vars,
                    const VarCatalog& catalog) {
  std::string out;
  for (const VarId v : vars) {
    if (!out.empty()) out += ", ";
    out += "?" + catalog.NameOf(v);
  }
  return out;
}

/// Operator name of an inner node: the BoundJoin names the variable whose
/// values drive its instances, the HRJN its join variables.
std::string JoinName(const PlanNode& node, const VarCatalog& catalog) {
  if (node.bound_var != kInvalidVar) {
    return "BoundJoin [" + VarList({node.bound_var}, catalog) + "]";
  }
  return node.join_vars.empty()
             ? std::string("CrossProduct")
             : "RankJoin [" + VarList(node.join_vars, catalog) + "]";
}

void AppendNode(const PlanNode& node, const VarCatalog& catalog,
                bool with_stats, const std::string& prefix,
                const std::string& child_prefix, std::string* out) {
  *out += prefix;
  if (node.is_leaf()) {
    *out += "#" + std::to_string(node.conjunct_index) + " " +
            node.description;
    *out += "  est=" + FormatEstimate(node.est_cardinality) + " rows";
    *out += "  sel=" + FormatEstimate(node.estimate.selectivity);
    if (node.estimate.provably_empty) *out += "  [provably empty]";
    if (with_stats && node.stream != nullptr) {
      const EvaluatorStats stats = node.stream->stats();
      *out += "  {act=" + std::to_string(stats.answers_emitted) + " rows" +
              " err=" + FormatMisestimate(stats.answers_emitted,
                                          node.est_cardinality) +
              " popped=" + std::to_string(stats.tuples_popped) +
              " fetches=" + std::to_string(stats.neighbor_group_fetches) +
              "}";
    }
    *out += "\n";
    return;
  }

  *out += JoinName(node, catalog);
  *out += "  est=" + FormatEstimate(node.est_cardinality) + " rows";
  if (with_stats && node.stream != nullptr) {
    const EvaluatorStats stats = node.stream->OperatorStats();
    *out += "  {act=" + std::to_string(stats.answers_emitted) + " rows" +
            " err=" + FormatMisestimate(stats.answers_emitted,
                                        node.est_cardinality) +
            " pulls=" + std::to_string(stats.join_pulls);
    if (node.bound_var != kInvalidVar) {
      *out += " instances=" + std::to_string(stats.instances_opened);
    }
    *out += " live-peak=" + std::to_string(stats.max_join_live) + "}";
  }
  *out += "\n";
  AppendNode(*node.left, catalog, with_stats, child_prefix + "|-- ",
             child_prefix + "|   ", out);
  AppendNode(*node.right, catalog, with_stats, child_prefix + "`-- ",
             child_prefix + "    ", out);
}

}  // namespace

std::string RenderPlanTree(const QueryPlan& plan, bool with_stats) {
  std::string out;
  if (plan.root == nullptr) return out;
  AppendNode(*plan.root, plan.catalog, with_stats, "", "", &out);
  return out;
}

namespace {

void AppendOperatorEvents(const PlanNode& node, const VarCatalog& catalog,
                          TraceRecorder* trace) {
  if (node.stream != nullptr) {
    std::string name;
    EvaluatorStats stats;
    if (node.is_leaf()) {
      name = "op #" + std::to_string(node.conjunct_index) + " " +
             node.description;
      stats = node.stream->stats();
    } else {
      name = "op " + JoinName(node, catalog);
      stats = node.stream->OperatorStats();
    }
    const TraceRecorder::SpanId id = trace->Event(name);
    trace->Annotate(id, "est_rows",
                    static_cast<int64_t>(node.est_cardinality));
    trace->Annotate(id, "act_rows",
                    static_cast<int64_t>(stats.answers_emitted));
    trace->Annotate(id, "pulls",
                    static_cast<int64_t>(node.is_leaf() ? stats.tuples_popped
                                                        : stats.join_pulls));
    trace->Annotate(id, "emits",
                    static_cast<int64_t>(stats.answers_emitted));
    if (node.is_leaf()) {
      trace->Annotate(id, "fetches",
                      static_cast<int64_t>(stats.neighbor_group_fetches));
    } else {
      trace->Annotate(id, "live_peak",
                      static_cast<int64_t>(stats.max_join_live));
      if (node.bound_var != kInvalidVar) {
        trace->Annotate(id, "instances",
                        static_cast<int64_t>(stats.instances_opened));
      }
    }
  }
  if (node.left != nullptr) AppendOperatorEvents(*node.left, catalog, trace);
  if (node.right != nullptr) AppendOperatorEvents(*node.right, catalog, trace);
}

}  // namespace

void RecordOperatorTrace(const QueryPlan& plan, TraceRecorder* trace) {
  if (trace == nullptr || plan.root == nullptr) return;
  AppendOperatorEvents(*plan.root, plan.catalog, trace);
}

}  // namespace omega
