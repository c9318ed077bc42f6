// Aggregate serving statistics: admission / completion counters, cache
// counters, and per-query-class aggregates (queue wait, execution time,
// cache hit rate, merged evaluator counters and rank-join operator rows) —
// what the concurrent shell driver's `.stats` prints and what bench_service
// reports alongside throughput.
//
// Plain value types, not a store: QueryService::stats() fills one from
// reads of the metrics registry the service counts in.
#ifndef OMEGA_SERVICE_SERVICE_STATS_H_
#define OMEGA_SERVICE_SERVICE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "eval/answer.h"
#include "rpq/query.h"

namespace omega {

/// Coarse workload class of a query, used to bucket serving aggregates.
/// A query holding both APPROX and RELAX conjuncts is kMixed.
enum class QueryClass : uint8_t {
  kExact = 0,
  kApprox = 1,
  kRelax = 2,
  kMixed = 3,
};
inline constexpr size_t kNumQueryClasses = 4;

const char* QueryClassToString(QueryClass c);

/// Buckets `query` by the flexible-operator modes it uses.
QueryClass ClassifyQuery(const Query& query);

/// Cache counters of the current generation; `entries` is resident now.
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
};

/// Per-class serving aggregate. `eval` merges the whole-stream counters of
/// executed (cache-miss) queries (the join tables+heap high-water is
/// `eval.max_join_live`); `join_rows` sums the rows the compiled plan's
/// rank joins released.
struct ClassAggregate {
  uint64_t queries = 0;      ///< completed requests (hits + misses), any status
  /// Cache-generation counters: completed requests that consulted the
  /// result cache and how many of them were served from it. Both restart
  /// when the cache generation turns over — QueryService::InvalidateCache()
  /// and SwapDataset() — so the hit rate always describes the cache that is
  /// actually serving (a rate diluted by pre-invalidation lookups would be
  /// misleading).
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  uint64_t executed = 0;     ///< requests that reached the engine (a
                             ///< queued-dead request is neither hit nor
                             ///< executed)
  uint64_t failures = 0;     ///< non-OK completions (deadline/cancel/budget/...)
  double queue_ms = 0;       ///< total admission-queue wait
  double exec_ms = 0;        ///< total engine execution time (executed only)
  EvaluatorStats eval;       ///< merged stream stats of executed queries
  uint64_t join_rows = 0;    ///< rows released by rank-join operators

  /// Hit rate over cache lookups of the current cache generation (see the
  /// counter comment above; not over `queries`, which also counts
  /// cache-bypassing and pre-invalidation requests).
  double CacheHitRate() const {
    return cache_lookups == 0 ? 0.0
                              : static_cast<double>(cache_hits) /
                                    static_cast<double>(cache_lookups);
  }
  double AvgQueueMs() const {
    return queries == 0 ? 0.0 : queue_ms / static_cast<double>(queries);
  }
  /// Mean over requests that actually ran the engine.
  double AvgExecMs() const {
    return executed == 0 ? 0.0 : exec_ms / static_cast<double>(executed);
  }
};

/// Snapshot returned by QueryService::stats().
struct ServiceStats {
  uint64_t submitted = 0;          ///< admitted submissions (incl. hits)
  uint64_t rejected = 0;           ///< admission-queue-full rejections
  uint64_t completed = 0;          ///< completions with OK status
  uint64_t cancelled = 0;          ///< completions with kCancelled
  uint64_t deadline_exceeded = 0;  ///< completions with kDeadlineExceeded
  uint64_t failed = 0;             ///< completions with any other error
  uint64_t dataset_epoch = 0;      ///< id of the serving epoch (0 = initial)
  uint64_t dataset_swaps = 0;      ///< SwapDataset() calls so far
  /// Point-in-time gauges sampled when stats() is called (not registry
  /// reads like the counters above): requests waiting in the
  /// admission queue and requests currently executing on workers.
  uint64_t queue_depth = 0;
  uint64_t in_flight = 0;
  /// Epoch lifecycle timing. An epoch is *retired* when SwapDataset()
  /// unpublishes it and *drained* when the last in-flight query drops its
  /// pin and the dataset is actually released — the gap is how long old
  /// queries kept the old substrate (and its mmap) alive.
  double swap_ms_total = 0;        ///< total SwapDataset publish time
  uint64_t epochs_retired = 0;
  uint64_t epochs_drained = 0;
  double drain_ms_total = 0;       ///< retire -> last-pin-drop, drained epochs
  double drain_ms_max = 0;
  /// See ClassAggregate::cache_hits for the generation.
  ResultCacheStats cache;
  ClassAggregate per_class[kNumQueryClasses];

  /// Multi-line human-readable rendering (the shell's `.stats` table).
  std::string ToString() const;
};

}  // namespace omega

#endif  // OMEGA_SERVICE_SERVICE_STATS_H_
