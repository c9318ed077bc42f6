// Exact-mode evaluation of a variable-to-variable conjunct without the
// ranked machinery. Every answer of an exact conjunct lies at distance 0,
// so the best-first Open/GetNext/Succ walk (§3.3–3.4) — bucket queue D_R,
// the (v, n, s) visited hash, the answer map — only re-derives
// reachability there. This stream answers the same question with one
// frontier scan per source node over the product of the conjunct's
// automaton and the graph.
//
// Visited state is dense: one node bitmap per NFA state. The list of
// (s, n) pairs the current source has reached is at once its BFS queue
// and the undo log that clears exactly those bits before the next source,
// so a source costs the states and edges it reaches, never O(|V|).
// Sources come from the InitialNodeStream the ranked walk seeds from, and
// the scan resumes lazily across Next() calls: a top-k pull opens only as
// many sources as its answers need.
#ifndef OMEGA_EVAL_FRONTIER_SCAN_H_
#define OMEGA_EVAL_FRONTIER_SCAN_H_

#include <memory>
#include <span>
#include <vector>

#include "eval/answer.h"
#include "eval/conjunct_evaluator.h"
#include "eval/initial_node_stream.h"
#include "store/bitmap.h"
#include "store/graph_store.h"

namespace omega {

/// True when `prepared` can run as a frontier scan: an exact-mode conjunct
/// whose two (post-reversal) endpoints are variables, and whose automaton
/// carries no cost anywhere and steps only over plain edges (a label or
/// `_`, no RDFS entailment) — so every answer is at distance 0.
bool FrontierScanEligible(const PreparedConjunct& prepared);

class FrontierScanStream : public AnswerStream {
 public:
  /// `prepared` must satisfy FrontierScanEligible and outlive the stream.
  FrontierScanStream(const GraphStore* graph, const PreparedConjunct* prepared,
                     const EvaluatorOptions& options);

  /// Emits each (v, n) once, the first time a final state reaches n from v.
  /// Fails with kResourceExhausted when the current source's reached pairs
  /// exceed options.max_live_tuples, and with the cancel token's status
  /// when it expires (polled on the token's stride, once per expansion).
  bool Next(Answer* out) override;
  const Status& status() const override { return status_; }
  /// sources -> seeds_added, (s, n) expansions -> tuples_popped and
  /// succ_expansions, frontier inserts -> tuples_pushed, peak reached
  /// pairs of one source (frontier plus visited) -> max_dictionary_size.
  EvaluatorStats stats() const override;

 private:
  struct Entry {
    StateId s;
    NodeId n;
  };

  /// Sizes the per-state bitmaps and starts the source stream.
  void Open();
  /// Clears the finished source's marks and starts the next source; false
  /// once every source has been scanned.
  bool OpenNextSource();
  /// Marks (s, n) reached and queues it, unless the source reached it
  /// before.
  void Visit(StateId s, NodeId n) {
    if (!visited_[s].TestAndSet(n)) return;
    reached_.push_back({s, n});
    ++stats_.tuples_pushed;
  }
  /// Queues every unvisited successor of `entry` over the product.
  void Expand(const Entry& entry);

  const GraphStore* graph_;
  const PreparedConjunct* prepared_;
  EvaluatorOptions options_;

  std::unique_ptr<InitialNodeStream> sources_;
  std::span<const NodeId> batch_;  // current source batch
  size_t batch_pos_ = 0;
  NodeId source_ = kInvalidNode;

  std::vector<Bitmap> visited_;  // per NFA state, over node ids
  std::vector<Entry> reached_;   // this source's pairs in visit order;
                                 // reached_[cursor_..] is the frontier
  size_t cursor_ = 0;
  Bitmap answered_;                     // targets this source has emitted
  std::vector<NodeId> answered_nodes_;  // their ids, to clear the bits

  bool opened_ = false;
  bool exhausted_ = false;
  uint32_t cancel_tick_ = 0;  // strided-deadline-check counter
  Status status_;
  EvaluatorStats stats_;
};

}  // namespace omega

#endif  // OMEGA_EVAL_FRONTIER_SCAN_H_
