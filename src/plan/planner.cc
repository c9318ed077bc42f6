#include "plan/planner.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>
#include <utility>

namespace omega {
namespace {

std::unique_ptr<PlanNode> MakeLeafNode(PlanLeaf leaf) {
  auto node = std::make_unique<PlanNode>();
  node->conjunct_index = leaf.conjunct_index;
  node->description = std::move(leaf.description);
  node->estimate = leaf.estimate;
  node->binding = leaf.binding;
  node->variables = std::move(leaf.variables);
  node->est_cardinality = leaf.estimate.cardinality;
  return node;
}

/// Estimated output of joining two components: the independence model again
/// — each shared variable divides the pair product by the variable's domain
/// |V|. No shared variable means a plain product (ranked cross product).
double JoinCardinality(const PlanNode& a, const PlanNode& b,
                       size_t num_shared, double num_nodes) {
  double card = a.est_cardinality * b.est_cardinality;
  for (size_t i = 0; i < num_shared && num_nodes > 0; ++i) card /= num_nodes;
  return card;
}

std::unique_ptr<PlanNode> JoinNodes(std::unique_ptr<PlanNode> smaller,
                                    std::unique_ptr<PlanNode> larger,
                                    double num_nodes) {
  auto node = std::make_unique<PlanNode>();
  std::set_intersection(smaller->variables.begin(), smaller->variables.end(),
                        larger->variables.begin(), larger->variables.end(),
                        std::back_inserter(node->join_vars));
  std::set_union(smaller->variables.begin(), smaller->variables.end(),
                 larger->variables.begin(), larger->variables.end(),
                 std::back_inserter(node->variables));
  node->est_cardinality = JoinCardinality(*smaller, *larger,
                                          node->join_vars.size(), num_nodes);
  node->left = std::move(smaller);
  node->right = std::move(larger);
  return node;
}

/// Per-instance cost of a BoundJoin, in answer rows: building an evaluator,
/// seeding it and its first expansion.
constexpr double kInstanceOpenCost = 4;

bool ConstantRooted(const PlanNode& node) {
  return node.is_leaf() ? node.binding.has_constant
                        : ConstantRooted(*node.left) ||
                              ConstantRooted(*node.right);
}

bool Binds(const PlanNode& node, VarId var) {
  return var != kInvalidVar &&
         std::binary_search(node.variables.begin(), node.variables.end(), var);
}

}  // namespace

std::unique_ptr<PlanNode> PlanGreedyBushy(std::vector<PlanLeaf> leaves,
                                          size_t num_graph_nodes) {
  assert(!leaves.empty());
  const double num_nodes = static_cast<double>(num_graph_nodes);
  std::vector<std::unique_ptr<PlanNode>> components;
  components.reserve(leaves.size());
  for (PlanLeaf& leaf : leaves) {
    components.push_back(MakeLeafNode(std::move(leaf)));
  }

  while (components.size() > 1) {
    size_t best_i = 0, best_j = 1;
    bool best_connected = false;
    double best_card = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < components.size(); ++i) {
      for (size_t j = i + 1; j < components.size(); ++j) {
        std::vector<VarId> shared;
        std::set_intersection(components[i]->variables.begin(),
                              components[i]->variables.end(),
                              components[j]->variables.begin(),
                              components[j]->variables.end(),
                              std::back_inserter(shared));
        // A provably-empty side makes even a cross product free (the join
        // short-circuits after one pull), so treat it as connected rather
        // than deferring it behind real work.
        const bool connected = !shared.empty() ||
                               components[i]->est_cardinality == 0 ||
                               components[j]->est_cardinality == 0;
        if (best_connected && !connected) continue;
        const double card = JoinCardinality(*components[i], *components[j],
                                            shared.size(), num_nodes);
        if (connected == best_connected && card >= best_card) continue;
        best_i = i;
        best_j = j;
        best_connected = connected;
        best_card = card;
      }
    }
    std::unique_ptr<PlanNode> a = std::move(components[best_i]);
    std::unique_ptr<PlanNode> b = std::move(components[best_j]);
    // The join operator's round-robin pull starts on its left input: put the
    // most selective side there so an empty or tiny input is discovered
    // before the sibling produces anything.
    if (b->est_cardinality < a->est_cardinality) std::swap(a, b);
    components[best_i] = JoinNodes(std::move(a), std::move(b), num_nodes);
    components.erase(components.begin() + static_cast<ptrdiff_t>(best_j));
  }
  return std::move(components.front());
}

std::unique_ptr<PlanNode> PlanLeftDeep(std::vector<PlanLeaf> leaves,
                                       const std::vector<size_t>& order,
                                       size_t num_graph_nodes) {
  assert(!leaves.empty());
  assert(order.size() == leaves.size());
  const double num_nodes = static_cast<double>(num_graph_nodes);
  std::unique_ptr<PlanNode> tree = MakeLeafNode(std::move(leaves[order[0]]));
  for (size_t i = 1; i < order.size(); ++i) {
    tree = JoinNodes(std::move(tree), MakeLeafNode(std::move(leaves[order[i]])),
                     num_nodes);
  }
  return tree;
}

void ChooseBoundJoins(PlanNode* node) {
  if (node->is_leaf()) return;
  ChooseBoundJoins(node->left.get());
  ChooseBoundJoins(node->right.get());
  double best_cost = std::numeric_limits<double>::infinity();
  bool best_swapped = false;
  for (const bool swapped : {false, true}) {
    const PlanNode& outer = swapped ? *node->right : *node->left;
    const PlanNode& inner = swapped ? *node->left : *node->right;
    if (!inner.is_leaf() || !ConstantRooted(outer)) continue;
    const BindingProfile& b = inner.binding;
    VarId var = kInvalidVar;
    double rows = 0;
    if (Binds(outer, b.bindable_source)) {
      var = b.bindable_source;
      rows = b.rows_per_source;
    } else if (Binds(outer, b.bindable_target)) {
      var = b.bindable_target;
      rows = b.rows_per_target;
    } else {
      continue;
    }
    const double bound_cost =
        outer.est_cardinality * (rows + kInstanceOpenCost);
    const double drain_cost =
        std::max(inner.estimate.cardinality, inner.estimate.sources);
    if (bound_cost >= drain_cost || bound_cost >= best_cost) continue;
    best_cost = bound_cost;
    best_swapped = swapped;
    node->bound_var = var;
  }
  if (node->bound_var != kInvalidVar && best_swapped) {
    std::swap(node->left, node->right);
  }
}

std::unique_ptr<BindingStream> CompilePlan(
    PlanNode* root, std::vector<std::unique_ptr<BindingStream>>* leaf_streams,
    size_t max_live_tuples, CancelToken cancel,
    std::vector<BoundConjunct>* bound_inners) {
  if (root->is_leaf()) {
    std::unique_ptr<BindingStream> stream =
        std::move((*leaf_streams)[root->conjunct_index]);
    assert(stream != nullptr && "leaf stream consumed twice");
    root->stream = stream.get();
    return stream;
  }
  std::unique_ptr<BindingStream> left = CompilePlan(
      root->left.get(), leaf_streams, max_live_tuples, cancel, bound_inners);
  if (root->bound_var != kInvalidVar) {
    assert(bound_inners != nullptr && root->right->is_leaf());
    BoundConjunct& inner = (*bound_inners)[root->right->conjunct_index];
    assert(inner.prepared != nullptr && "bound conjunct consumed twice");
    auto join = std::make_unique<BoundJoinStream>(
        std::move(left), std::move(inner), max_live_tuples, cancel);
    root->stream = join.get();
    root->right->stream = &join->inner_view();
    return join;
  }
  auto join = std::make_unique<RankJoinStream>(
      std::move(left),
      CompilePlan(root->right.get(), leaf_streams, max_live_tuples, cancel,
                  bound_inners),
      max_live_tuples, cancel);
  root->stream = join.get();
  return join;
}

}  // namespace omega
