#include "eval/rank_join.h"

#include <algorithm>
#include <cassert>

namespace omega {
namespace {

/// Min-heap comparator for std::push_heap / std::pop_heap over candidates.
struct HeapGreater {
  bool operator()(const Binding& a, const Binding& b) const {
    return a.distance > b.distance;
  }
};

}  // namespace

// --- VarCatalog --------------------------------------------------------------

VarId VarCatalog::GetOrAdd(std::string_view name) {
  const VarId found = Find(name);
  if (found != kInvalidVar) return found;
  names_.emplace_back(name);
  return static_cast<VarId>(names_.size() - 1);
}

VarId VarCatalog::Find(std::string_view name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<VarId>(i);
  }
  return kInvalidVar;
}

// --- ConjunctBindingStream ---------------------------------------------------

ConjunctBindingStream::ConjunctBindingStream(
    std::unique_ptr<AnswerStream> answers, size_t width, VarId source_slot,
    VarId target_slot)
    : answers_(std::move(answers)),
      width_(width),
      source_slot_(source_slot),
      target_slot_(target_slot) {
  if (source_slot_ != kInvalidVar) variables_.push_back(source_slot_);
  if (target_slot_ != kInvalidVar && target_slot_ != source_slot_) {
    variables_.push_back(target_slot_);
  }
  std::sort(variables_.begin(), variables_.end());
}

bool ConjunctBindingStream::Next(Binding* out) {
  Answer answer;
  while (answers_->Next(&answer)) {
    // Built in place, so a caller that keeps one Binding across pulls
    // reuses its slot storage instead of paying an allocation per answer.
    out->slots.assign(width_, kInvalidNode);
    out->distance = answer.distance;
    bool consistent = true;
    if (source_slot_ != kInvalidVar) {
      consistent = out->Bind(source_slot_, answer.v);
    }
    if (consistent && target_slot_ != kInvalidVar) {
      consistent = out->Bind(target_slot_, answer.n);
    }
    if (!consistent) continue;  // (?X, R, ?X) with v != n
    return true;
  }
  return false;
}

// --- RankJoinStream ----------------------------------------------------------

RankJoinStream::RankJoinStream(std::unique_ptr<BindingStream> left,
                               std::unique_ptr<BindingStream> right,
                               size_t max_live_tuples, CancelToken cancel)
    : max_live_tuples_(max_live_tuples), cancel_(std::move(cancel)) {
  left_.stream = std::move(left);
  right_.stream = std::move(right);
  std::set_intersection(left_.stream->variables().begin(),
                        left_.stream->variables().end(),
                        right_.stream->variables().begin(),
                        right_.stream->variables().end(),
                        std::back_inserter(shared_vars_));
  std::set_union(left_.stream->variables().begin(),
                 left_.stream->variables().end(),
                 right_.stream->variables().begin(),
                 right_.stream->variables().end(),
                 std::back_inserter(variables_));
}

uint64_t RankJoinStream::KeyFor(const Binding& b) const {
  // Exact for joins sharing at most two variables (every join with a
  // single-conjunct input); bushy plans can join two subtrees on wider
  // shared sets, which fold FNV-style. Folding can only over-group — the
  // merge in Advance re-checks per-variable consistency, so a folded
  // collision costs a wasted probe, never a wrong row.
  if (shared_vars_.size() <= 2) {
    return PackPair(
        shared_vars_.empty() ? kInvalidNode : b.Get(shared_vars_[0]),
        shared_vars_.size() < 2 ? kInvalidNode : b.Get(shared_vars_[1]));
  }
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const VarId var : shared_vars_) {
    h = (h ^ b.Get(var)) * 0x100000001b3ULL;
  }
  return h;
}

void RankJoinStream::Advance(Side* side, Side* other, bool side_is_left) {
  Binding binding;
  if (!side->stream->Next(&binding)) {
    side->exhausted = true;
    if (!side->stream->status().ok()) status_ = side->stream->status();
    return;
  }
  ++pulls_;
  if (!side->seen_any) {
    side->seen_any = true;
    side->bottom = binding.distance;
  }
  side->top = binding.distance;

  const uint64_t key = KeyFor(binding);
  // Join the new arrival against everything stored on the other side. The
  // merged row copies the (wide) left row and binds the right conjunct's few
  // variables on top.
  const std::vector<VarId>& right_vars = right_.stream->variables();
  if (const std::vector<Binding>* matches = other->table.Find(key)) {
    for (const Binding& match : *matches) {
      const Binding& left_row = side_is_left ? binding : match;
      const Binding& right_row = side_is_left ? match : binding;
      Binding merged = left_row;
      bool ok = true;
      for (const VarId var : right_vars) {
        if (!merged.Bind(var, right_row.Get(var))) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;  // folded-key collision (see KeyFor)
      merged.distance = binding.distance + match.distance;
      heap_.push_back(std::move(merged));
      std::push_heap(heap_.begin(), heap_.end(), HeapGreater{});
    }
  }
  // A stored row is only ever probed by future arrivals on the other side;
  // once that side is exhausted the row can never match again, so the copy
  // into the table is skipped entirely.
  if (!other->exhausted) {
    side->table.FindOrInsert(key).push_back(std::move(binding));
    ++side->rows;
  }
  CheckBudget();
}

Cost RankJoinStream::Threshold() const {
  // A future pair involves a new left row (distance >= left.top) with any
  // seen-or-future right row (>= right.bottom), or vice versa. Before a side
  // produces anything its bottom is 0 (conservative lower bound).
  Cost via_new_left = kInfiniteCost;
  Cost via_new_right = kInfiniteCost;
  if (!left_.exhausted) via_new_left = left_.top + right_.bottom;
  if (!right_.exhausted) via_new_right = right_.top + left_.bottom;
  return std::min(via_new_left, via_new_right);
}

void RankJoinStream::CheckBudget() {
  const size_t live = left_.rows + right_.rows + heap_.size();
  if (live > peak_live_) peak_live_ = live;
  if (max_live_tuples_ == 0 || !status_.ok()) return;
  if (live > max_live_tuples_) {
    status_ = Status::ResourceExhausted(
        "rank join exceeded max_live_tuples=" +
        std::to_string(max_live_tuples_));
  }
}

Binding RankJoinStream::PopCandidate() {
  std::pop_heap(heap_.begin(), heap_.end(), HeapGreater{});
  Binding out = std::move(heap_.back());
  heap_.pop_back();
  return out;
}

bool RankJoinStream::Next(Binding* out) {
  if (!status_.ok()) return false;
  for (;;) {
    // Polled per child pull: children check their own token too, but a join
    // over already-exhausted-table probes must also notice expiry itself.
    // Null tokens (every non-service caller) cost one branch.
    if (cancel_.valid()) {
      Status s = cancel_.CheckStrided(&cancel_tick_, "rank join");
      if (!s.ok()) {
        status_ = std::move(s);
        return false;
      }
    }
    // A side that is exhausted with nothing stored can never pair with a
    // future arrival, so the candidate set is final: drain the heap and stop
    // without pulling the sibling any further (the zero-answer
    // short-circuit — an empty most-selective input must not make the join
    // drain its live side to exhaustion).
    const bool left_dead = left_.exhausted && left_.rows == 0;
    const bool right_dead = right_.exhausted && right_.rows == 0;
    if (left_dead || right_dead) {
      if (heap_.empty()) return false;
      *out = PopCandidate();
      ++emitted_;
      return true;
    }
    if (!heap_.empty() && heap_.front().distance <= Threshold()) {
      *out = PopCandidate();
      ++emitted_;
      return true;
    }
    if (left_.exhausted && right_.exhausted) {
      if (heap_.empty()) return false;
      *out = PopCandidate();
      ++emitted_;
      return true;
    }
    // Alternate pulls, preferring the side that is behind (HRJN's simple
    // round-robin policy), skipping exhausted sides.
    const bool pick_left =
        right_.exhausted || (!left_.exhausted && pull_left_next_);
    pull_left_next_ = !pick_left;
    Advance(pick_left ? &left_ : &right_, pick_left ? &right_ : &left_,
            pick_left);
    if (!status_.ok()) return false;
  }
}

EvaluatorStats RankJoinStream::stats() const {
  EvaluatorStats total = left_.stream->stats();
  total.MergeFrom(right_.stream->stats());
  total.join_pulls += pulls_;
  if (peak_live_ > total.max_join_live) total.max_join_live = peak_live_;
  return total;
}

EvaluatorStats RankJoinStream::OperatorStats() const {
  EvaluatorStats own;
  own.answers_emitted = emitted_;
  own.max_join_live = peak_live_;
  own.join_pulls = pulls_;
  return own;
}

std::unique_ptr<BindingStream> BuildJoinTree(
    std::vector<std::unique_ptr<BindingStream>> streams,
    size_t max_live_tuples, CancelToken cancel) {
  assert(!streams.empty());
  std::unique_ptr<BindingStream> tree = std::move(streams[0]);
  for (size_t i = 1; i < streams.size(); ++i) {
    tree = std::make_unique<RankJoinStream>(std::move(tree),
                                            std::move(streams[i]),
                                            max_live_tuples, cancel);
  }
  return tree;
}

}  // namespace omega
