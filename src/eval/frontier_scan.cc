#include "eval/frontier_scan.h"

#include <algorithm>
#include <string>

namespace omega {

bool FrontierScanEligible(const PreparedConjunct& prepared) {
  if (prepared.mode != ConjunctMode::kExact ||
      !prepared.eval_source.is_variable ||
      !prepared.eval_target.is_variable) {
    return false;
  }
  const Nfa& nfa = prepared.nfa;
  if (nfa.entailment_matching()) return false;
  for (StateId s = 0; s < nfa.NumStates(); ++s) {
    if (nfa.IsFinal(s) && nfa.FinalWeight(s) != 0) return false;
    for (const NfaTransition& t : nfa.Out(s)) {
      if (t.cost != 0) return false;
      if (t.kind != TransitionKind::kLabel &&
          t.kind != TransitionKind::kAnyLabel) {
        return false;
      }
    }
  }
  return true;
}

FrontierScanStream::FrontierScanStream(const GraphStore* graph,
                                       const PreparedConjunct* prepared,
                                       const EvaluatorOptions& options)
    : graph_(graph), prepared_(prepared), options_(options) {}

void FrontierScanStream::Open() {
  if (opened_) return;
  opened_ = true;
  const Nfa& nfa = prepared_->nfa;
  const size_t num_nodes = graph_->NumNodes();
  visited_.resize(nfa.NumStates());
  for (Bitmap& bits : visited_) bits.Resize(num_nodes);
  answered_.Resize(num_nodes);
  // A final start state makes every node answer itself, so every node is a
  // source (GetAllNodesByLabel); otherwise only nodes with a usable first
  // edge are (GetAllStartNodesByLabel).
  sources_ = std::make_unique<InitialNodeStream>(
      graph_, /*ontology=*/nullptr, &nfa, nfa.IsFinal(nfa.initial()),
      options_.batch_size);
}

EvaluatorStats FrontierScanStream::stats() const {
  EvaluatorStats out = stats_;
  out.max_dictionary_size =
      std::max<uint64_t>(out.max_dictionary_size, reached_.size());
  return out;
}

bool FrontierScanStream::OpenNextSource() {
  // The reached list only grows while a source is scanned, so its final
  // size is that source's peak.
  stats_.max_dictionary_size =
      std::max<uint64_t>(stats_.max_dictionary_size, reached_.size());
  for (const Entry& e : reached_) visited_[e.s].Clear(e.n);
  reached_.clear();
  cursor_ = 0;
  for (const NodeId n : answered_nodes_) answered_.Clear(n);
  answered_nodes_.clear();

  if (batch_pos_ == batch_.size()) {
    batch_ = sources_->NextBatch();
    batch_pos_ = 0;
    if (batch_.empty()) return false;
  }
  source_ = batch_[batch_pos_++];
  ++stats_.seeds_added;
  Visit(prepared_->nfa.initial(), source_);
  return true;
}

void FrontierScanStream::Expand(const Entry& entry) {
  ++stats_.tuples_popped;
  ++stats_.succ_expansions;
  const std::span<const NfaTransition> transitions =
      prepared_->nfa.Out(entry.s);
  size_t i = 0;
  while (i < transitions.size()) {
    // One neighbour fetch per SameNeighborGroup run, as in the ranked
    // walk's Succ; the spans are read in place, the bitmaps deduplicate.
    const NfaTransition& group = transitions[i];
    std::span<const NodeId> labelled;
    std::span<const NodeId> typed;
    if (group.kind == TransitionKind::kAnyLabel) {
      labelled = graph_->SigmaNeighbors(entry.n, group.dir);
      typed = graph_->TypeNeighbors(entry.n, group.dir);
    } else if (group.label != kInvalidLabel) {
      labelled = graph_->Neighbors(entry.n, group.label, group.dir);
    }
    ++stats_.neighbor_group_fetches;
    size_t j = i;
    for (; j < transitions.size() && transitions[j].SameNeighborGroup(group);
         ++j) {
      const StateId to = transitions[j].to;
      for (const NodeId m : labelled) Visit(to, m);
      for (const NodeId m : typed) Visit(to, m);
    }
    i = j;
  }
}

bool FrontierScanStream::Next(Answer* out) {
  if (!status_.ok() || exhausted_) return false;
  Open();
  const Nfa& nfa = prepared_->nfa;
  for (;;) {
    if (cursor_ == reached_.size() && !OpenNextSource()) {
      exhausted_ = true;
      return false;
    }
    if (options_.cancel.valid()) {
      Status s = options_.cancel.CheckStrided(&cancel_tick_, "frontier scan");
      if (!s.ok()) {
        status_ = std::move(s);
        return false;
      }
    }
    const Entry entry = reached_[cursor_++];
    Expand(entry);
    if (options_.max_live_tuples != 0 &&
        reached_.size() > options_.max_live_tuples) {
      status_ = Status::ResourceExhausted(
          "frontier scan exceeded max_live_tuples=" +
          std::to_string(options_.max_live_tuples));
      return false;
    }
    if (nfa.IsFinal(entry.s) && answered_.TestAndSet(entry.n)) {
      answered_nodes_.push_back(entry.n);
      ++stats_.answers_emitted;
      *out = Answer{source_, entry.n, 0};
      return true;
    }
  }
}

}  // namespace omega
