// Concurrent query serving on a frozen dataset: a QueryService owns a
// QueryEngine over a shared GraphStore/Ontology snapshot and executes
// submitted queries on a fixed pool of worker threads behind a bounded
// admission queue, with per-query deadlines, cooperative cancellation, and
// a sharded LRU cache of top-k ranked results in front of the engine.
//
// Why this is safe: the store and ontology are deeply immutable after
// construction (the frozen-store contract in store/graph_store.h and
// ontology/ontology.h) and every per-query structure — automata, tuple
// dictionaries, join tables, the result stream — is built per request, so
// worker threads share only const data plus the internally-locked cache and
// queue and the lock-free metrics instruments.
//
// Accounting: every serving fact is counted once, lock-free, in the
// service's metrics registry (injected, or its own); stats() builds a
// ServiceStats from reads of it.
//
// Dataset hot-swap: the frozen substrate lives in a *serving epoch* — a
// DatasetEpoch bundling the dataset, the engine bound to it, and a result
// cache whose entries are only meaningful for that dataset. SwapDataset()
// builds a fresh epoch (binding the new ontology and starting an empty
// cache) and atomically publishes it: every subsequent admission pins the
// new epoch, while requests already admitted keep a shared_ptr to the old
// one and drain against the exact substrate they were admitted under — no
// request ever sees half a swap, and cache invalidation is implicit in the
// epoch turnover (an old-epoch execution can only fill the old epoch's
// dying cache). The old dataset (and, for snapshot-backed datasets, its
// file mapping) is released when the last in-flight reference drops.
//
// Deadline semantics: the deadline clock starts at Submit(), so time spent
// waiting in the admission queue counts against it — a request that expires
// while queued completes with kDeadlineExceeded without ever executing.
// Cancellation is cooperative: Cancel() flips the request's CancelToken,
// which the evaluators poll at stream-pull granularity. A queued request
// that is already dead — cancelled or past its deadline — is purged (and
// its admission slot released) the next time the queue is full at
// Submit(), or sooner, when a worker reaches it.
#ifndef OMEGA_SERVICE_QUERY_SERVICE_H_
#define OMEGA_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/atomics.h"
#include "common/cancel.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "eval/query_engine.h"
#include "ontology/ontology.h"
#include "service/result_cache.h"
#include "service/service_stats.h"
#include "snapshot/dataset.h"
#include "store/graph_store.h"

namespace omega {

class MetricsRegistry;      // obs/metrics.h
class FlightRecorder;       // obs/flight_recorder.h
class EventLog;             // obs/event_log.h

/// One serving generation of the dataset: the frozen substrate, the engine
/// bound to it (ontology binding happens here, once per swap, not per
/// query), and the epoch's own result cache. Published as
/// shared_ptr<const DatasetEpoch>; tickets pin it from admission to
/// completion. `dataset` is null for the epoch the service constructor
/// borrows from caller-owned graph/ontology pointers.
///
/// Concurrency: immutable after construction except `cache`, which is
/// internally locked (ResultCache's per-shard mutexes), and the lock-free
/// `retired_at_ns` — which is why the epoch needs no capability of its own
/// and is shared across workers as a const object.
struct DatasetEpoch {
  DatasetEpoch(uint64_t id_in, std::shared_ptr<const Dataset> dataset_in,
               const GraphStore* graph, const Ontology* ontology,
               std::unique_ptr<ResultCache> cache_in)
      : id(id_in),
        dataset(std::move(dataset_in)),
        // The dataset's IndexManager (snapshot-preloaded or lazily built)
        // feeds index substitution; a borrowed-pointer epoch 0 has no
        // dataset and thus no index.
        engine(graph, ontology,
               dataset == nullptr ? nullptr : dataset->indexes()),
        cache(std::move(cache_in)) {}

  uint64_t id;
  std::shared_ptr<const Dataset> dataset;
  QueryEngine engine;
  /// Per-epoch: entries can never outlive the dataset they were computed
  /// on. Null when caching is disabled. The pointee is internally locked
  /// (safe to use through a const epoch).
  std::unique_ptr<ResultCache> cache;
  /// steady_clock ns when SwapDataset() unpublished the epoch (0 while
  /// live); set before the swap drops its reference, which orders it
  /// before the deleter's read.
  mutable RelaxedAtomic<int64_t> retired_at_ns;
};

struct QueryServiceOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency() (min 1).
  size_t num_workers = 0;

  /// Bounded admission queue: submissions beyond this many pending requests
  /// are rejected with kResourceExhausted (min 1).
  size_t max_queue = 64;

  /// Top-k result cache capacity in entries across all shards; 0 disables
  /// the cache entirely.
  size_t cache_entries = 1024;
  size_t cache_shards = 8;

  /// Deadline applied to requests that do not set their own (0 = none).
  std::chrono::milliseconds default_deadline{0};

  /// Base engine configuration for every request (plan mode, optimisation
  /// toggles, evaluator budgets, APPROX/RELAX costs). Immutable for the
  /// service's lifetime — which is what lets the result cache key on query
  /// text + k alone. Per-request cancel tokens and top-k hints are layered
  /// on top per execution.
  QueryEngineOptions engine;

  /// Registry the service counts into; nullptr makes the service own one.
  /// An injected registry must outlive the service and every epoch it
  /// published (epochs record drain durations as they die); services that
  /// share one share their counts.
  MetricsRegistry* metrics = nullptr;

  /// Flight recorder (obs/flight_recorder.h) appended to at every
  /// completion: one mutex-guarded flat-struct append, plus trace-JSON
  /// capture for completions over the slow threshold. nullptr disables
  /// recording entirely (the bench_obs `_RecorderOff` baseline). Not
  /// owned; must outlive the service.
  FlightRecorder* flight_recorder = nullptr;

  /// Lifecycle event journal (obs/event_log.h): dataset swaps, epoch
  /// retire/drain, admission rejections, cancelled/expired completions.
  /// nullptr selects EventLog::Global(). Must outlive the service and
  /// every epoch it published (drains are journaled as epochs die).
  EventLog* events = nullptr;
};

struct QueryRequest {
  Query query;
  /// Answers to retrieve (0 = drain the stream).
  size_t top_k = 10;
  /// Per-request deadline from submission time; 0 = use the service default.
  std::chrono::milliseconds deadline{0};
  /// Skip cache lookup and fill for this request (cache-cold measurement).
  bool bypass_cache = false;
  /// Optional per-query trace sink (obs/trace.h). When non-null, the
  /// service records admission/queue-wait/cache/execute spans and the
  /// engine adds plan, compile, index-probe and per-operator events. Not
  /// owned; must stay alive until the ticket completes (the recorder is
  /// written from the worker thread and is internally locked).
  TraceRecorder* trace = nullptr;
};

struct QueryResponse {
  Status status;
  std::vector<std::string> head;       ///< projected head variable names
  std::vector<QueryAnswer> answers;    ///< ranked, non-decreasing distance
  bool cache_hit = false;
  bool exhausted = false;              ///< stream drained before top_k
  double queue_ms = 0;                 ///< admission-queue wait
  double exec_ms = 0;                  ///< engine execution (0 on cache hit)
  /// Serving epoch the answers came from (pinned at admission): every
  /// answer in one response is consistent with exactly this epoch's
  /// dataset, even if SwapDataset() ran mid-execution.
  uint64_t epoch = 0;
};

/// Handle to an in-flight submission. Tickets are shared with the worker
/// that executes them; they stay valid after the service is destroyed
/// (destruction completes unprocessed tickets with kCancelled).
class QueryTicket {
 public:
  /// Requests cooperative cancellation; evaluation stops at the next
  /// stream-pull poll. Idempotent, callable from any thread.
  void Cancel() { cancel_.Cancel(); }

  /// Blocks until the request completes; returns the response (valid for
  /// the ticket's lifetime). Reading through the returned reference without
  /// a lock is safe: `done_` is a latch — once set under mu_, the response
  /// is never written again.
  const QueryResponse& Wait() OMEGA_EXCLUDES(mu_);

  /// Blocks like Wait() but moves the response out (no answer-vector copy).
  /// Call at most once; Wait() afterwards sees a moved-from response.
  QueryResponse TakeResponse() OMEGA_EXCLUDES(mu_);

  bool done() const OMEGA_EXCLUDES(mu_);

  /// The request's cancel token (tests observe deadline propagation).
  CancelToken token() const { return cancel_.token(); }

 private:
  friend class QueryService;

  mutable Mutex mu_;
  CondVar cv_;
  bool done_ OMEGA_GUARDED_BY(mu_) = false;
  QueryResponse response_ OMEGA_GUARDED_BY(mu_);

  // Deliberately outside the capability system: written by Submit() before
  // the ticket is visible to any other thread and immutable afterwards.
  // Publication to the worker happens through the queue under
  // QueryService::mu_ (and ticket completion through mu_ above), so every
  // reader observes the fully-written values. cancel_'s interior flag is
  // the one field that stays mutable; it is lock-free by design (cancel.h).
  QueryRequest request_;
  CancelSource cancel_;
  QueryClass query_class_ = QueryClass::kExact;
  std::string cache_key_;
  bool used_cache_ = false;  ///< consulted the epoch's cache at Submit()
  /// The serving epoch pinned at admission: the worker executes against
  /// this epoch's engine/cache regardless of later swaps, and the pin keeps
  /// the (possibly mmap-backed) dataset alive until completion.
  std::shared_ptr<const DatasetEpoch> epoch_;
  std::chrono::steady_clock::time_point enqueued_at_;
};

class QueryService {
 public:
  /// `graph` must be finalized and, with `ontology` (nullable: RELAX then
  /// fails per engine semantics), must outlive the service (or, more
  /// precisely, outlive epoch 0: after a SwapDataset the initial pointers
  /// are only needed until the last epoch-0 query drains and the epoch is
  /// dropped). Both are treated as frozen: the service never mutates them
  /// and caches results under that assumption.
  QueryService(const GraphStore* graph, const Ontology* ontology,
               QueryServiceOptions options = {});

  /// Serves `dataset` (e.g. a mapped snapshot from SnapshotReader::Open)
  /// as epoch 0, keeping it alive for as long as the service or any
  /// in-flight query references it.
  QueryService(std::shared_ptr<const Dataset> dataset,
               QueryServiceOptions options = {});

  /// Fast shutdown: cancels queries that are still executing (they stop at
  /// their next cancellation poll), joins the workers, and completes
  /// queued-but-unprocessed requests with kCancelled.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Validates and enqueues `request`. Fails with kInvalidArgument (bad
  /// query), kResourceExhausted (admission queue full), or
  /// kFailedPrecondition (service shutting down). A fresh cache hit is
  /// served synchronously on the calling thread: the returned ticket is
  /// already done. Otherwise the ticket completes on a worker thread.
  Result<std::shared_ptr<QueryTicket>> Submit(QueryRequest request)
      OMEGA_EXCLUDES(mu_, epoch_mu_);

  /// Blocking convenience: Submit + Wait, with rejections folded into the
  /// response's status.
  QueryResponse Execute(QueryRequest request);

  /// Hot-swaps the serving dataset: publishes a new epoch around `dataset`
  /// (binding its ontology and starting a fresh, empty result cache) so
  /// that every admission from here on runs against it, while already
  /// admitted queries drain on the epoch they pinned. Also starts a new
  /// cache-accounting generation (the cache counters in stats() restart —
  /// see InvalidateCache). Thread-safe; callable at any time, including
  /// under full query load.
  Status SwapDataset(std::shared_ptr<const Dataset> dataset)
      OMEGA_EXCLUDES(epoch_mu_, generation_mu_);

  /// Invalidation hook: drops every cached result of the current epoch and
  /// starts a fresh cache-accounting generation. Semantics: after this
  /// call (a) no response is served from a pre-invalidation cache fill —
  /// modulo requests already past their cache probe — and (b) the cache
  /// counters in stats() (ServiceStats::cache, per-class cache_hits /
  /// cache_lookups) restart from zero, so hit rates describe only the
  /// current generation instead of being diluted by a cache that no longer
  /// exists (they are deltas of the registry's monotonic counters). Call it
  /// when cached answers should no longer be served; SwapDataset()
  /// supersedes it for dataset changes (the new epoch's cache is born
  /// empty).
  void InvalidateCache() OMEGA_EXCLUDES(epoch_mu_, generation_mu_);

  /// Registry reads plus sampled queue gauges; never shows a completion
  /// without its submission or a drain without its swap.
  ServiceStats stats() const OMEGA_EXCLUDES(generation_mu_, epoch_mu_, mu_);

  /// Test seam for that guarantee: when set, every registry read calls it
  /// after the completion and drain reads and before the submission and
  /// swap reads, so a test can land a whole request or swap in between.
  /// Set it only while no other thread calls stats().
  static inline void (*stats_read_gap_hook)() = nullptr;

  /// Test seam: when set, the completing thread calls it right after it
  /// hands a response to its ticket, so a test can hold a worker at the
  /// point where its client already has the response. Set it only while
  /// the service is idle, and clear it only after the service is destroyed.
  static inline void (*response_published_hook)() = nullptr;

  size_t num_workers() const { return workers_.size(); }
  size_t queue_depth() const OMEGA_EXCLUDES(mu_);

  /// Id of the epoch new admissions currently pin (0 until the first swap).
  uint64_t dataset_epoch() const OMEGA_EXCLUDES(epoch_mu_);

  /// True while the service accepts submissions; false once destruction has
  /// begun. The ops plane's /readyz readiness derives from this.
  bool accepting() const OMEGA_EXCLUDES(mu_);

  /// The registry this service counts into (injected, else its own; never
  /// null). `.metrics` and /metrics render it after the process-wide one.
  MetricsRegistry* metrics_registry() const;
  /// The attached flight recorder (null when disabled).
  FlightRecorder* flight_recorder() const;
  /// The journal lifecycle events go to (never null).
  EventLog* event_log() const { return events_; }

 private:
  /// Per-execution counters booked into the per-class instruments: the
  /// result stream's merged EvaluatorStats plus the rows the rank-join
  /// operators released, gathered by walking the compiled plan.
  struct ExecutionStats {
    EvaluatorStats eval;
    uint64_t join_rows = 0;
  };

  /// `worker_index` of a completion that did not run on a worker.
  static constexpr size_t kNoWorker = static_cast<size_t>(-1);

  void WorkerLoop(size_t worker_index) OMEGA_EXCLUDES(mu_);
  /// Executes (or short-circuits) one ticket on worker `worker_index` and
  /// completes it.
  void RunTask(const std::shared_ptr<QueryTicket>& ticket,
               size_t worker_index) OMEGA_EXCLUDES(mu_);
  /// Completes `ticket` from a cache entry (shared by the synchronous
  /// Submit fast path and the worker re-probe).
  void ServeHit(const std::shared_ptr<QueryTicket>& ticket,
                const CachedResult& entry, double queue_ms,
                size_t worker_index = kNoWorker) OMEGA_EXCLUDES(mu_);
  /// Books the completion in the registry (no service lock), releases the
  /// worker that ran it (its running_ slot and the in-flight gauge), then
  /// hands the response to the ticket.
  void Complete(const std::shared_ptr<QueryTicket>& ticket,
                QueryResponse response, const ExecutionStats* exec = nullptr,
                size_t worker_index = kNoWorker) OMEGA_EXCLUDES(mu_);
  /// Removes dead (cancelled or deadline-expired) tickets from the queue;
  /// returns them for completion outside the lock.
  std::vector<std::shared_ptr<QueryTicket>> PurgeDeadLocked()
      OMEGA_REQUIRES(mu_);

  /// Shared constructor body: builds epoch 0 (owning `dataset` when
  /// non-null, else borrowing the caller's pointers) and starts the pool.
  QueryService(const GraphStore* graph, const Ontology* ontology,
               std::shared_ptr<const Dataset> dataset,
               QueryServiceOptions options);

  /// The epoch new admissions pin right now (one shared-lock pointer copy:
  /// admissions on many threads read concurrently, only SwapDataset writes).
  std::shared_ptr<const DatasetEpoch> CurrentEpoch() const
      OMEGA_EXCLUDES(epoch_mu_);
  /// Builds an epoch (engine bind + fresh cache) around the given substrate.
  std::shared_ptr<const DatasetEpoch> MakeEpoch(
      uint64_t id, std::shared_ptr<const Dataset> dataset,
      const GraphStore* graph, const Ontology* ontology) const;
  /// Every ServiceStats field that is a registry read, as totals.
  ServiceStats ReadInstruments() const;
  /// Captures the totals stats() reports the cache fields as deltas from.
  void StartCacheGeneration() OMEGA_EXCLUDES(generation_mu_);

  /// Immutable after construction (clamped worker/queue bounds, engine
  /// config): read by every worker without synchronisation.
  QueryServiceOptions options_;

  /// The registry (owned, or a handle on the injected one) and its cached
  /// instruments; co-owned by every published epoch. Never null; immutable.
  struct ServiceMetrics;
  std::shared_ptr<const ServiceMetrics> metrics_;

  /// The journal lifecycle events go to: immutable, never null.
  EventLog* events_ = nullptr;

  /// Guards the epoch pointer only — a leaf lock by construction: taken for
  /// one shared_ptr copy (shared) or one pointer swap (exclusive), never
  /// while holding, or before acquiring, another lock. Reader/writer
  /// because admissions outnumber swaps by orders of magnitude.
  mutable SharedMutex epoch_mu_;
  std::shared_ptr<const DatasetEpoch> epoch_ OMEGA_GUARDED_BY(epoch_mu_);

  /// Guards the admission queue and worker bookkeeping.
  mutable Mutex mu_;
  CondVar work_cv_;
  std::deque<std::shared_ptr<QueryTicket>> queue_ OMEGA_GUARDED_BY(mu_);
  /// Ticket each worker is currently executing (null when idle); lets the
  /// destructor cancel in-flight queries for fast shutdown.
  std::vector<std::shared_ptr<QueryTicket>> running_ OMEGA_GUARDED_BY(mu_);
  bool stopping_ OMEGA_GUARDED_BY(mu_) = false;

  /// ReadInstruments() when the cache generation began. A leaf lock, never
  /// taken on the completion path.
  mutable Mutex generation_mu_;
  ServiceStats generation_start_ OMEGA_GUARDED_BY(generation_mu_);

  /// Joined in the destructor; written only at construction.
  std::vector<std::thread> workers_;
};

}  // namespace omega

#endif  // OMEGA_SERVICE_QUERY_SERVICE_H_
