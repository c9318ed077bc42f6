#include "checker.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <optional>
#include <unordered_set>

#include "store/label_dictionary.h"

namespace perfbench {

using omega::Conjunct;
using omega::ConjunctMode;
using omega::Direction;
using omega::LabelId;
using omega::RegexNode;
using omega::RegexOp;

namespace {

using NodeSet = std::vector<NodeId>;  // sorted, unique

void Normalize(NodeSet* s) {
  std::sort(s->begin(), s->end());
  s->erase(std::unique(s->begin(), s->end()), s->end());
}

NodeSet Union(const NodeSet& a, const NodeSet& b) {
  NodeSet out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

NodeSet Difference(const NodeSet& a, const NodeSet& b) {
  NodeSet out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

int IndexOf(const std::vector<std::string>& vars, const std::string& v) {
  for (size_t i = 0; i < vars.size(); ++i) {
    if (vars[i] == v) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

// Rows of variable bindings, vars.size() NodeIds per row.
struct ReferenceEvaluator::Table {
  std::vector<std::string> vars;
  std::vector<NodeId> cells;
  size_t rows() const { return vars.empty() ? 0 : cells.size() / vars.size(); }
};

namespace {

using Table = ReferenceEvaluator::Table;

Table Join(const Table& a, const Table& b) {
  if (a.vars.empty()) return b;
  Table out;
  out.vars = a.vars;
  std::vector<size_t> shared_a, shared_b, extra_b;
  for (size_t j = 0; j < b.vars.size(); ++j) {
    const int in_a = IndexOf(a.vars, b.vars[j]);
    if (in_a >= 0) {
      shared_a.push_back(static_cast<size_t>(in_a));
      shared_b.push_back(j);
    } else {
      extra_b.push_back(j);
      out.vars.push_back(b.vars[j]);
    }
  }
  auto key_of = [](const NodeId* row, const std::vector<size_t>& cols) {
    uint64_t k = 1469598103934665603ull;
    for (size_t c : cols) k = (k ^ row[c]) * 1099511628211ull;
    return k;
  };
  const size_t wa = a.vars.size(), wb = b.vars.size();
  std::unordered_multimap<uint64_t, size_t> index;
  for (size_t i = 0; i < b.rows(); ++i) {
    index.emplace(key_of(&b.cells[i * wb], shared_b), i);
  }
  for (size_t i = 0; i < a.rows(); ++i) {
    const NodeId* ra = &a.cells[i * wa];
    auto [lo, hi] = index.equal_range(key_of(ra, shared_a));
    for (auto it = lo; it != hi; ++it) {
      const NodeId* rb = &b.cells[it->second * wb];
      bool match = true;
      for (size_t s = 0; s < shared_a.size(); ++s) {
        match = match && ra[shared_a[s]] == rb[shared_b[s]];
      }
      if (!match) continue;
      out.cells.insert(out.cells.end(), ra, ra + wa);
      for (size_t e : extra_b) out.cells.push_back(rb[e]);
    }
  }
  return out;
}

}  // namespace

bool ExactAnswers::Contains(uint64_t key) const {
  return std::binary_search(heads.begin(), heads.end(), key);
}

uint64_t PackHead(const std::vector<NodeId>& bindings) {
  if (bindings.empty() || bindings.size() > 2) {
    std::fprintf(stderr, "perfbench: heads must project 1 or 2 variables\n");
    std::abort();
  }
  const uint64_t hi = static_cast<uint64_t>(bindings[0]) << 32;
  return bindings.size() == 1 ? hi : hi | bindings[1];
}

ReferenceEvaluator::ReferenceEvaluator(const omega::GraphStore* graph,
                                       const omega::Ontology* ontology)
    : graph_(graph) {
  if (ontology == nullptr) return;
  const auto& labels = graph_->labels();
  // Property down-sets: invert the parent lists, close transitively.
  const size_t np = ontology->NumProperties();
  std::vector<std::vector<uint32_t>> children(np);
  for (uint32_t p = 0; p < np; ++p) {
    for (uint32_t parent : ontology->PropertyParents(p)) {
      children[parent].push_back(p);
    }
  }
  for (uint32_t p = 0; p < np; ++p) {
    std::vector<LabelId>& down =
        property_down_[std::string(ontology->PropertyName(p))];
    std::vector<bool> seen(np, false);
    std::deque<uint32_t> todo = {p};
    seen[p] = true;
    while (!todo.empty()) {
      const uint32_t q = todo.front();
      todo.pop_front();
      if (auto id = labels.Find(ontology->PropertyName(q))) {
        down.push_back(*id);
      }
      for (uint32_t c : children[q]) {
        if (!seen[c]) {
          seen[c] = true;
          todo.push_back(c);
        }
      }
    }
  }
  // Class ancestors and down-sets, as graph nodes.
  const size_t nc = ontology->NumClasses();
  std::vector<std::optional<NodeId>> node_of(nc);
  for (uint32_t c = 0; c < nc; ++c) {
    node_of[c] = graph_->FindNode(ontology->ClassName(c));
  }
  for (uint32_t c = 0; c < nc; ++c) {
    if (!node_of[c]) continue;
    std::vector<bool> seen(nc, false);
    std::deque<uint32_t> todo(ontology->ClassParents(c).begin(),
                              ontology->ClassParents(c).end());
    NodeSet up;
    while (!todo.empty()) {
      const uint32_t a = todo.front();
      todo.pop_front();
      if (seen[a] || a == c) continue;
      seen[a] = true;
      if (node_of[a]) {
        up.push_back(*node_of[a]);
        class_down_[*node_of[a]].push_back(*node_of[c]);
      }
      for (uint32_t p : ontology->ClassParents(a)) todo.push_back(p);
    }
    Normalize(&up);
    class_up_[*node_of[c]] = std::move(up);
    class_down_[*node_of[c]].push_back(*node_of[c]);
  }
  for (auto& [node, down] : class_down_) Normalize(&down);
}

// One regex step from every node of `from`; `rev` walks the regex
// backwards (edges reversed, concatenations in reverse order).
ReferenceEvaluator::NodeSet ReferenceEvaluator::Step(const RegexNode& r,
                                                     const NodeSet& from,
                                                     bool rev,
                                                     bool entail) const {
  const LabelId type = omega::LabelDictionary::kTypeLabel;
  auto append = [this](NodeId x, LabelId l, Direction dir, NodeSet* out) {
    const auto span = graph_->Neighbors(x, l, dir);
    out->insert(out->end(), span.begin(), span.end());
  };
  NodeSet out;
  switch (r.op) {
    case RegexOp::kEpsilon:
      return from;
    case RegexOp::kLabel: {
      const Direction dir = rev ? omega::Reverse(r.dir) : r.dir;
      if (r.label == omega::kTypeLabelName) {
        for (NodeId x : from) {
          if (!entail) {
            append(x, type, dir, &out);
          } else if (dir == Direction::kOutgoing) {
            // (x, type, c) holds for each stored class and its ancestors.
            for (NodeId c : graph_->Neighbors(x, type, dir)) {
              out.push_back(c);
              if (auto it = class_up_.find(c); it != class_up_.end()) {
                out.insert(out.end(), it->second.begin(), it->second.end());
              }
            }
          } else if (auto it = class_down_.find(x); it != class_down_.end()) {
            // Instances of x or of any class below it.
            for (NodeId d : it->second) append(d, type, dir, &out);
          } else {
            append(x, type, dir, &out);
          }
        }
        break;
      }
      std::vector<LabelId> labels;
      if (auto it = property_down_.find(r.label);
          entail && it != property_down_.end()) {
        labels = it->second;
      }
      if (auto id = graph_->labels().Find(r.label)) labels.push_back(*id);
      for (NodeId x : from) {
        for (LabelId l : labels) append(x, l, dir, &out);
      }
      break;
    }
    case RegexOp::kWildcard: {
      const Direction dir = rev ? omega::Reverse(r.dir) : r.dir;
      const LabelId n = static_cast<LabelId>(graph_->labels().size());
      for (NodeId x : from) {
        for (LabelId l = 0; l < n; ++l) append(x, l, dir, &out);
      }
      break;
    }
    case RegexOp::kConcat: {
      NodeSet cur = from;
      const size_t k = r.children.size();
      for (size_t i = 0; i < k && !cur.empty(); ++i) {
        cur = Step(*r.children[rev ? k - 1 - i : i], cur, rev, entail);
      }
      return cur;
    }
    case RegexOp::kAlternation:
      for (const auto& child : r.children) {
        out = Union(out, Step(*child, from, rev, entail));
      }
      return out;
    case RegexOp::kStar:
    case RegexOp::kPlus: {
      NodeSet reached = Step(*r.children[0], from, rev, entail);
      NodeSet frontier = reached;
      while (!frontier.empty()) {
        frontier = Difference(Step(*r.children[0], frontier, rev, entail),
                              reached);
        reached = Union(reached, frontier);
      }
      return r.op == RegexOp::kStar ? Union(reached, from) : reached;
    }
  }
  Normalize(&out);
  return out;
}

// The relation of one conjunct over its variables. When `bound_var` names
// one of them, only its `bound_values` are expanded.
ReferenceEvaluator::Table ReferenceEvaluator::Relation(
    const Conjunct& c, const std::string* bound_var,
    const NodeSet& bound_values) const {
  const bool entail = c.mode == ConjunctMode::kRelax;
  const RegexNode& r = *c.regex;
  const auto& src = c.source;
  const auto& dst = c.target;
  Table t;
  if (!src.is_variable && !dst.is_variable) {
    std::fprintf(stderr, "perfbench: constant-to-constant conjunct\n");
    std::abort();
  }
  if (!src.is_variable || !dst.is_variable) {
    // One constant: walk from it (backwards when it is the target).
    const bool from_target = !dst.is_variable;
    t.vars = {from_target ? src.name : dst.name};
    if (auto n = graph_->FindNode(from_target ? dst.name : src.name)) {
      t.cells = Step(r, NodeSet{*n}, from_target, entail);
    }
    return t;
  }
  const bool same = src.name == dst.name;
  t.vars = same ? std::vector<std::string>{src.name}
                : std::vector<std::string>{src.name, dst.name};
  const bool from_target =
      bound_var != nullptr && !same && *bound_var == dst.name;
  auto emit = [&](NodeId x) {
    const NodeSet img = Step(r, NodeSet{x}, from_target, entail);
    if (same) {
      if (std::binary_search(img.begin(), img.end(), x)) t.cells.push_back(x);
      return;
    }
    for (NodeId y : img) {
      t.cells.push_back(from_target ? y : x);
      t.cells.push_back(from_target ? x : y);
    }
  };
  if (bound_var != nullptr) {
    for (NodeId x : bound_values) emit(x);
  } else {
    const NodeId n = static_cast<NodeId>(graph_->NumNodes());
    for (NodeId x = 0; x < n; ++x) emit(x);
  }
  return t;
}

ExactAnswers ReferenceEvaluator::Answers(const omega::Query& q) const {
  // Constant-anchored conjuncts first, then conjuncts that share a bound
  // variable (expanded only from its bound values), then the rest.
  std::vector<bool> done(q.conjuncts.size(), false);
  Table acc;
  for (size_t step = 0; step < q.conjuncts.size(); ++step) {
    size_t pick = 0;
    int best = -1;
    const std::string* bound_var = nullptr;
    for (size_t i = 0; i < q.conjuncts.size(); ++i) {
      if (done[i]) continue;
      const Conjunct& c = q.conjuncts[i];
      int score = 0;
      const std::string* bv = nullptr;
      if (!c.source.is_variable || !c.target.is_variable) {
        score = 3;
      } else if (IndexOf(acc.vars, c.source.name) >= 0) {
        score = 2;
        bv = &c.source.name;
      } else if (IndexOf(acc.vars, c.target.name) >= 0) {
        score = 2;
        bv = &c.target.name;
      }
      if (score > best) {
        best = score;
        pick = i;
        bound_var = bv;
      }
    }
    done[pick] = true;
    NodeSet values;
    if (bound_var != nullptr) {
      const size_t col = static_cast<size_t>(IndexOf(acc.vars, *bound_var));
      for (size_t i = 0; i < acc.rows(); ++i) {
        values.push_back(acc.cells[i * acc.vars.size() + col]);
      }
      Normalize(&values);
    }
    acc = Join(acc, Relation(q.conjuncts[pick], bound_var, values));
    if (acc.rows() == 0) break;
  }
  ExactAnswers out;
  std::vector<int> cols;
  for (const std::string& h : q.head) cols.push_back(IndexOf(acc.vars, h));
  std::vector<NodeId> head(cols.size());
  for (size_t i = 0; i < acc.rows(); ++i) {
    bool ok = true;
    for (size_t c = 0; c < cols.size(); ++c) {
      ok = ok && cols[c] >= 0;
      if (ok) head[c] = acc.cells[i * acc.vars.size() + cols[c]];
    }
    if (ok) out.heads.push_back(PackHead(head));
  }
  std::sort(out.heads.begin(), out.heads.end());
  out.heads.erase(std::unique(out.heads.begin(), out.heads.end()),
                  out.heads.end());
  return out;
}

std::string CheckAnswers(const std::vector<omega::QueryAnswer>& answers,
                         const ExactAnswers& exact,
                         const Expectation& expect) {
  char buf[160];
  std::unordered_set<uint64_t> seen;
  seen.reserve(answers.size());
  size_t at_zero = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    const omega::QueryAnswer& a = answers[i];
    if (a.distance < 0 || (i > 0 && a.distance < answers[i - 1].distance)) {
      std::snprintf(buf, sizeof(buf), "answer %zu: distance %d out of order",
                    i, a.distance);
      return buf;
    }
    const uint64_t key = PackHead(a.bindings);
    if (!seen.insert(key).second) {
      std::snprintf(buf, sizeof(buf), "answer %zu: duplicate head", i);
      return buf;
    }
    if (a.distance == 0) {
      ++at_zero;
      if (!exact.Contains(key)) {
        std::snprintf(buf, sizeof(buf),
                      "answer %zu: distance 0 but not an exact answer", i);
        return buf;
      }
    } else if (expect.all_exact) {
      std::snprintf(buf, sizeof(buf), "answer %zu: exact query at distance %d",
                    i, a.distance);
      return buf;
    }
  }
  if (expect.limit > 0 && answers.size() > expect.limit) {
    std::snprintf(buf, sizeof(buf), "%zu answers for a limit of %zu",
                  answers.size(), expect.limit);
    return buf;
  }
  const size_t want =
      expect.limit == 0 ? exact.size() : std::min(expect.limit, exact.size());
  if (at_zero != want) {
    std::snprintf(buf, sizeof(buf),
                  "%zu answers at distance 0, expected %zu (of %zu exact)",
                  at_zero, want, exact.size());
    return buf;
  }
  return "";
}

std::string SelfTest(const std::vector<omega::QueryAnswer>& answers,
                     const ExactAnswers& exact, const Expectation& expect) {
  if (!CheckAnswers(answers, exact, expect).empty()) {
    return "self-test input does not pass the check";
  }
  size_t zero = answers.size();
  for (size_t i = 0; i < answers.size(); ++i) {
    if (answers[i].distance == 0) {
      zero = i;
      break;
    }
  }
  if (answers.size() < 2 || zero == answers.size()) {
    return "self-test input needs two answers, one at distance 0";
  }
  // A wrong answer: one distance-0 head rebound to a node pair that is
  // not an exact answer and not already in the list.
  std::vector<omega::QueryAnswer> wrong = answers;
  std::vector<NodeId>& b = wrong[zero].bindings;
  do {
    ++b.back();
  } while (exact.Contains(PackHead(b)));
  if (CheckAnswers(wrong, exact, expect).empty()) {
    return "a corrupted answer list passed the check";
  }
  // A wrong distance: the first answer ranked after the last one.
  std::vector<omega::QueryAnswer> misranked = answers;
  misranked.front().distance = misranked.back().distance + 1;
  if (CheckAnswers(misranked, exact, expect).empty()) {
    return "a corrupted distance passed the check";
  }
  return "";
}

}  // namespace perfbench
