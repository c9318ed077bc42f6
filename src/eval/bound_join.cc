#include "eval/bound_join.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace omega {

BoundJoinStream::BoundJoinStream(std::unique_ptr<BindingStream> outer,
                                 BoundConjunct inner, size_t max_live_tuples,
                                 CancelToken cancel)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      max_live_tuples_(max_live_tuples),
      cancel_(std::move(cancel)) {
  // Instances get their share of max_live_tuples_ per pull instead.
  inner_.options.max_live_tuples = 0;
  inner_vars_.push_back(inner_.bound_slot);
  if (inner_.free_slot != inner_.bound_slot) {
    inner_vars_.push_back(inner_.free_slot);
  }
  std::sort(inner_vars_.begin(), inner_vars_.end());
  std::set_union(outer_->variables().begin(), outer_->variables().end(),
                 inner_vars_.begin(), inner_vars_.end(),
                 std::back_inserter(variables_));
}

void BoundJoinStream::PushCursor(uint32_t outer_row, uint32_t instance,
                                 uint32_t k) {
  const Instance& inst = instances_[instance];
  Cursor cursor{0, outer_row, instance, k, k < inst.rows.size()};
  if (!cursor.exact && inst.evaluator == nullptr) return;  // spent
  // An instance emits in non-decreasing distance, so its next row costs at
  // least its last one (or 0 before its first).
  const Cost next = cursor.exact        ? inst.rows[k].second
                    : inst.rows.empty() ? 0
                                        : inst.rows.back().second;
  cursor.priority = outer_rows_[outer_row].distance + next;
  heap_.push_back(cursor);
  std::push_heap(heap_.begin(), heap_.end(), CursorGreater{});
}

BoundJoinStream::Cursor BoundJoinStream::PopCursor() {
  std::pop_heap(heap_.begin(), heap_.end(), CursorGreater{});
  const Cursor cursor = heap_.back();
  heap_.pop_back();
  return cursor;
}

void BoundJoinStream::PullOuter() {
  Binding row;
  if (!outer_->Next(&row)) {
    outer_exhausted_ = true;
    if (!outer_->status().ok()) status_ = outer_->status();
    return;
  }
  ++pulls_;
  outer_top_ = row.distance;
  const NodeId x = row.Get(inner_.bound_slot);
  assert(x != kInvalidNode && "the outer input binds the shared variable");
  uint32_t instance;
  if (const uint32_t* found = instance_of_.Find(x)) {
    instance = *found;
  } else {
    if (cancel_.valid()) {
      Status s = cancel_.Check("bound join");
      if (!s.ok()) {
        status_ = std::move(s);
        return;
      }
    }
    instance = static_cast<uint32_t>(instances_.size());
    instance_of_.Insert(x, instance);
    Instance opened;
    opened.evaluator = std::make_unique<ConjunctEvaluator>(
        inner_.graph, inner_.ontology, inner_.prepared.get(), inner_.options,
        x);
    instances_.push_back(std::move(opened));
    ++open_instances_;
  }
  outer_rows_.push_back(std::move(row));
  PushCursor(static_cast<uint32_t>(outer_rows_.size() - 1), instance, 0);
  CheckBudget();
}

void BoundJoinStream::PullInstance(uint32_t instance) {
  Instance& inst = instances_[instance];
  ConjunctEvaluator& evaluator = *inst.evaluator;
  if (max_live_tuples_ != 0) {
    // The instance may grow only into what the rest of the join leaves of
    // the one budget.
    const size_t others = LiveTuples() - inst.live;
    evaluator.set_max_live_tuples(
        others < max_live_tuples_ ? max_live_tuples_ - others : 1);
  }
  Answer answer;
  const bool got = evaluator.Next(&answer);
  instance_live_ -= inst.live;
  inst.live = evaluator.live_tuples();
  instance_live_ += inst.live;
  if (got) {
    ++pulls_;
    inst.rows.emplace_back(answer.n, answer.distance);
    ++cached_rows_;
    CheckBudget();
    return;
  }
  if (!evaluator.status().ok()) {
    status_ = evaluator.status().code() == StatusCode::kResourceExhausted
                  ? Status::ResourceExhausted(
                        "bound join exceeded max_live_tuples=" +
                        std::to_string(max_live_tuples_))
                  : evaluator.status();
    return;
  }
  // Exhausted: its rows stay cached for later outer rows with the same
  // value, its search state is freed.
  finished_.MergeFrom(evaluator.stats());
  instance_live_ -= inst.live;
  inst.live = 0;
  inst.evaluator.reset();
  --open_instances_;
}

size_t BoundJoinStream::LiveTuples() const {
  return outer_rows_.size() + cached_rows_ + heap_.size() + open_instances_ +
         instance_live_;
}

void BoundJoinStream::CheckBudget() {
  const size_t live = LiveTuples();
  if (live > peak_live_) peak_live_ = live;
  if (max_live_tuples_ == 0 || !status_.ok()) return;
  if (live > max_live_tuples_) {
    status_ = Status::ResourceExhausted("bound join exceeded max_live_tuples=" +
                                        std::to_string(max_live_tuples_));
  }
}

bool BoundJoinStream::Next(Binding* out) {
  if (!status_.ok()) return false;
  for (;;) {
    // Any future outer row costs at least outer_top_ and pairs with an
    // instance row costing at least 0: a cursor at or below that total is
    // safe to act on.
    if (heap_.empty() ||
        (!outer_exhausted_ && heap_.front().priority > outer_top_)) {
      if (outer_exhausted_) return false;
      PullOuter();
      if (!status_.ok()) return false;
      continue;
    }
    const Cursor cursor = PopCursor();
    Instance& inst = instances_[cursor.instance];
    if (cursor.k == inst.rows.size()) {
      if (inst.evaluator == nullptr) continue;  // exhausted: cursor spent
      PullInstance(cursor.instance);
      if (!status_.ok()) return false;
    }
    if (!cursor.exact) {
      // Its row exists now (or the instance ran dry): re-queue at the
      // exact total.
      PushCursor(cursor.outer_row, cursor.instance, cursor.k);
      continue;
    }
    PushCursor(cursor.outer_row, cursor.instance, cursor.k + 1);
    const auto [value, distance] = inst.rows[cursor.k];
    Binding merged = outer_rows_[cursor.outer_row];
    // Fails for (?X, R, ?X) rows with n != x, and where the outer input
    // already binds the free variable to another value.
    if (!merged.Bind(inner_.free_slot, value)) continue;
    merged.distance += distance;
    ++emitted_;
    *out = std::move(merged);
    return true;
  }
}

EvaluatorStats BoundJoinStream::InstanceStats() const {
  EvaluatorStats total = finished_;
  for (const Instance& inst : instances_) {
    if (inst.evaluator != nullptr) total.MergeFrom(inst.evaluator->stats());
  }
  return total;
}

EvaluatorStats BoundJoinStream::stats() const {
  EvaluatorStats total = outer_->stats();
  total.MergeFrom(InstanceStats());
  const EvaluatorStats own = OperatorStats();
  total.join_pulls += own.join_pulls;
  total.instances_opened += own.instances_opened;
  if (own.max_join_live > total.max_join_live) {
    total.max_join_live = own.max_join_live;
  }
  return total;
}

EvaluatorStats BoundJoinStream::OperatorStats() const {
  EvaluatorStats own;
  own.answers_emitted = emitted_;
  own.max_join_live = peak_live_;
  own.join_pulls = pulls_;
  own.instances_opened = instances_.size();
  return own;
}

}  // namespace omega
