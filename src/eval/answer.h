// Shared types for incremental ranked evaluation: conjunct answers, the
// pull-based answer stream interface, evaluator options and statistics.
#ifndef OMEGA_EVAL_ANSWER_H_
#define OMEGA_EVAL_ANSWER_H_

#include <cstdint>

#include "automata/approx.h"
#include "automata/nfa.h"
#include "automata/relax.h"
#include "common/cancel.h"
#include "common/status.h"
#include "store/types.h"

namespace omega {
class TraceRecorder;  // obs/trace.h; carried by pointer only
}

namespace omega {

/// One conjunct answer: X bound to `v`, Y bound to `n`, at edit/relaxation
/// distance `distance` (the paper's triple (v, n, d)).
struct Answer {
  NodeId v = kInvalidNode;
  NodeId n = kInvalidNode;
  Cost distance = 0;

  bool operator==(const Answer&) const = default;
};

/// Counters exposed by evaluators; benches report these to explain the
/// paper's intermediate-result blow-ups.
struct EvaluatorStats {
  uint64_t tuples_popped = 0;
  uint64_t tuples_pushed = 0;
  /// Non-final tuples expanded. Under lazy Succ a deferred pop counts too,
  /// so one (v, n, s) with positive-cost moves may count twice.
  uint64_t succ_expansions = 0;
  /// NeighboursByEdge-equivalent calls: one per SameNeighborGroup run that
  /// has a member in the pass being expanded. Under lazy Succ a group that
  /// mixes cost-0 and positive-cost members is fetched by both passes.
  uint64_t neighbor_group_fetches = 0;
  uint64_t answers_emitted = 0;
  uint64_t seeds_added = 0;
  uint64_t max_dictionary_size = 0;
  uint64_t max_join_live = 0;          ///< rank-join tables + heap high-water
  uint64_t rounds = 0;                 ///< distance-aware restarts
  uint64_t join_pulls = 0;             ///< rows join operators pulled
  uint64_t instances_opened = 0;       ///< bound-join conjunct instances

  void MergeFrom(const EvaluatorStats& other) {
    tuples_popped += other.tuples_popped;
    tuples_pushed += other.tuples_pushed;
    succ_expansions += other.succ_expansions;
    neighbor_group_fetches += other.neighbor_group_fetches;
    answers_emitted += other.answers_emitted;
    seeds_added += other.seeds_added;
    if (other.max_dictionary_size > max_dictionary_size) {
      max_dictionary_size = other.max_dictionary_size;
    }
    if (other.max_join_live > max_join_live) {
      max_join_live = other.max_join_live;
    }
    rounds += other.rounds;
    join_pulls += other.join_pulls;
    instances_opened += other.instances_opened;
  }
};

/// Pull-based stream of conjunct answers in non-decreasing distance order
/// (RocksDB-iterator style). Next() returns false on exhaustion *or* error;
/// check status() to distinguish.
class AnswerStream {
 public:
  virtual ~AnswerStream() = default;

  /// Produces the next answer. Returns false when exhausted or failed.
  virtual bool Next(Answer* out) = 0;

  /// OK while streaming / exhausted; kResourceExhausted when the evaluator
  /// hit its memory budget (the paper's '?' cells in Fig. 10).
  virtual const Status& status() const = 0;

  virtual EvaluatorStats stats() const { return {}; }
};

/// Knobs for a single conjunct evaluation. Defaults follow the paper's
/// configuration (§3.3–§4.1).
struct EvaluatorOptions {
  /// Coroutine batch size for (?X, R, ?Y) seeding ("the default is 100").
  size_t batch_size = 100;

  /// Pop final tuples before non-final ones at equal distance (§3.3); can be
  /// disabled for the ablation bench.
  bool prioritize_final_tuples = true;

  /// Never re-expand a (v, n, s) triple (§3.4); disabling this reverts to
  /// unmemoized search (ablation only — expect blow-ups on cyclic data).
  bool use_visited_set = true;

  /// Upper bound on live tuples (D_R + visited + answers); 0 = unlimited.
  /// Exceeding it fails the query with kResourceExhausted, reproducing the
  /// paper's out-of-memory '?' results without taking the process down.
  size_t max_live_tuples = 0;

  /// Lazy Succ (lazy edge relaxation in Dijkstra's sense): popping a
  /// non-final (v, n, s, d) pushes only s's cost-0 moves plus one deferred
  /// tuple at d + c_min(s), the least positive cost leaving s; popping that
  /// tuple pushes the positive-cost moves. Answers and distances are those
  /// of the eager Succ of §3.4 (false, the reference path); only the order
  /// among answers at equal distance may differ.
  bool lazy_succ = true;

  /// Distance ceiling ψ for distance-aware retrieval; tuples costlier than
  /// this are never materialised (kInfiniteCost = unbounded).
  Cost max_distance = kInfiniteCost;

  /// How many answers the caller ultimately wants (0 = unknown). Round-based
  /// optimisations use it to stop a round early once the quota is covered —
  /// the disjunction optimisation's reason for adaptive branch ordering:
  /// cheap branches fill the quota so expensive ones are never evaluated.
  size_t top_k_hint = 0;

  /// Cooperative cancellation / deadline token, polled at stream-pull
  /// granularity by ConjunctEvaluator and RankJoinStream, and at every
  /// instance open by BoundJoinStream. A null (default)
  /// token costs one branch per pull. Expiry fails the stream with
  /// kDeadlineExceeded / kCancelled — distinct from the kResourceExhausted
  /// budget failures above.
  CancelToken cancel;

  /// Optional per-query trace sink (obs/trace.h): when non-null, the engine
  /// records plan/compile spans and index-probe substitution decisions, and
  /// the service adds queue-wait / cache / execute spans. Not owned; must
  /// outlive the evaluation. Null (default) costs one branch per site.
  TraceRecorder* trace = nullptr;

  ApproxOptions approx;
  RelaxOptions relax;
};

}  // namespace omega

#endif  // OMEGA_EVAL_ANSWER_H_
