#include "service/query_service.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <optional>
#include <span>
#include <type_traits>

#include "common/timer.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan_node.h"

namespace omega {

namespace {

/// One series per EvaluatorStats member, labelled by query class: summed
/// members are `_total` counters, the two high-water members max-gauges.
struct EvalSeries {
  const char* name;
  uint64_t EvaluatorStats::*field;
  bool high_water;
};
#define OMEGA_EVAL_SERIES(field, high_water) \
  {"omega_service_eval_" #field, &EvaluatorStats::field, high_water}
constexpr EvalSeries kEvalSeries[] = {
    OMEGA_EVAL_SERIES(tuples_popped, false),
    OMEGA_EVAL_SERIES(tuples_pushed, false),
    OMEGA_EVAL_SERIES(succ_expansions, false),
    OMEGA_EVAL_SERIES(neighbor_group_fetches, false),
    OMEGA_EVAL_SERIES(answers_emitted, false),
    OMEGA_EVAL_SERIES(seeds_added, false),
    OMEGA_EVAL_SERIES(max_dictionary_size, true),
    OMEGA_EVAL_SERIES(max_join_live, true),
    OMEGA_EVAL_SERIES(rounds, false),
    OMEGA_EVAL_SERIES(join_pulls, false),
    OMEGA_EVAL_SERIES(instances_opened, false),
};
#undef OMEGA_EVAL_SERIES
constexpr size_t kNumEvalSeries = std::size(kEvalSeries);
// A new EvaluatorStats member needs a row above, or it is counted nowhere.
static_assert(sizeof(EvaluatorStats) == kNumEvalSeries * sizeof(uint64_t));

/// omega_service_completed_total series, in ServiceStats field order.
constexpr const char* kStatusLabels[] = {
    "status=\"ok\"", "status=\"cancelled\"", "status=\"deadline\"",
    "status=\"error\""};
size_t StatusIndex(const Status& status) {
  if (status.ok()) return 0;
  if (status.IsCancelled()) return 1;
  return status.IsDeadlineExceeded() ? 2 : 3;
}

/// Nearest whole microsecond: summed observations stay unbiased.
uint64_t ToUs(double ms) { return static_cast<uint64_t>(ms * 1000.0 + 0.5); }
double ToMs(uint64_t us) { return static_cast<double>(us) / 1000.0; }

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

/// Cached instrument pointers, resolved once at construction: hot paths
/// (Submit, WorkerLoop, Complete) do atomic adds through these and never
/// touch the registry map. Immutable; every published epoch's deleter
/// co-owns it, with the registry, because the last pin on a retired epoch
/// may outlive the service.
struct QueryService::ServiceMetrics {
  /// Every completion observes its queue wait: the count is the queries.
  struct PerClass {
    Histogram* queue_wait_us;
    Histogram* exec_us;
    Counter* failures;
    Counter* cache_hits;    ///< completed requests served from the cache
    Counter* cache_misses;  ///< ... that consulted it and were not
    Counter* join_rows;
    /// kEvalSeries order; a counter or (high-water rows) a max-gauge.
    Counter* eval_sum[kNumEvalSeries] = {};
    Gauge* eval_max[kNumEvalSeries] = {};
  };

  ServiceMetrics(std::shared_ptr<MetricsRegistry> owned, EventLog* events_in)
      : registry(std::move(owned)), events(events_in) {
    submitted = registry->GetCounter("omega_service_submitted_total",
                                     "Admitted submissions (incl. hits)");
    rejected = registry->GetCounter("omega_service_rejected_total",
                                    "Admission-queue-full rejections");
    for (size_t i = 0; i < std::size(kStatusLabels); ++i) {
      completed[i] = registry->GetCounter("omega_service_completed_total",
                                          "Request completions by status",
                                          kStatusLabels[i]);
    }
    queue_depth = registry->GetGauge("omega_service_queue_depth",
                                     "Requests waiting in the admission "
                                     "queue");
    in_flight = registry->GetGauge("omega_service_in_flight",
                                   "Requests currently executing on workers");
    for (size_t i = 0; i < kNumQueryClasses; ++i) {
      const std::string labels =
          std::string("class=\"") +
          QueryClassToString(static_cast<QueryClass>(i)) + "\"";
      auto counter = [&](std::string_view name, std::string_view help) {
        return registry->GetCounter(name, help, labels);
      };
      PerClass& c = per_class[i];
      c.queue_wait_us = registry->GetHistogram(
          "omega_service_queue_wait_us",
          "Admission-queue wait by class, observed at every completion",
          labels);
      c.exec_us = registry->GetHistogram(
          "omega_service_exec_us", "Engine execution time by query class",
          labels);
      c.failures = counter("omega_service_failures_total",
                           "Non-OK completions by query class");
      c.cache_hits = counter("omega_service_cache_hits_total",
                             "Completed requests served from the cache");
      c.cache_misses = counter("omega_service_cache_misses_total",
                               "Completed requests that consulted the "
                               "cache and were not served from it");
      c.join_rows = counter("omega_service_join_rows_total",
                            "Rows released by rank-join operators");
      for (size_t f = 0; f < kNumEvalSeries; ++f) {
        const std::string name = kEvalSeries[f].name;
        if (kEvalSeries[f].high_water) {
          c.eval_max[f] = registry->GetGauge(
              name, "Evaluator high-water mark", labels);
        } else {
          c.eval_sum[f] = counter(name + "_total",
                                  "Evaluator counter of executed queries");
        }
      }
    }
    cache_hits = registry->GetCounter("omega_cache_hits_total",
                                      "Result-cache hits");
    cache_misses = registry->GetCounter("omega_cache_misses_total",
                                        "Result-cache misses");
    cache_insertions = registry->GetCounter("omega_cache_insertions_total",
                                            "Result-cache insertions");
    cache_evictions = registry->GetCounter(
        "omega_cache_evictions_total",
        "Result-cache evictions (LRU pressure + invalidations)");
    workers = registry->GetGauge("omega_service_workers",
                                 "Query worker pool size");
    swaps = registry->GetCounter("omega_service_swaps_total",
                                 "Dataset hot-swaps published");
    swap_us = registry->GetHistogram("omega_service_swap_us",
                                     "SwapDataset publish time");
    epoch_drain_us = registry->GetHistogram(
        "omega_service_epoch_drain_us",
        "Retired-epoch drain time (retire to last pin drop)");
    epoch_drain_ns = registry->GetCounter(
        "omega_service_epoch_drain_ns_total",
        "Summed retired-epoch drain time in nanoseconds");
    epoch_drain_max_ns = registry->GetGauge(
        "omega_service_epoch_drain_max_ns",
        "Longest retired-epoch drain in nanoseconds");
  }

  /// Epoch-deleter body: the last pin on `epoch` just dropped. The live
  /// epoch at service destruction was never retired and is skipped.
  void RecordDrain(const DatasetEpoch& epoch) const {
    const int64_t retired_at = epoch.retired_at_ns.Load();
    if (retired_at == 0) return;
    // Drains often take a microsecond or two, so their time is summed in
    // nanoseconds; the histogram buckets them and its count comes last.
    const int64_t ns = SteadyNowNs() - retired_at;
    const double ms = static_cast<double>(ns) / 1e6;
    epoch_drain_ns->Increment(static_cast<uint64_t>(ns));
    epoch_drain_max_ns->SetMax(ns);
    epoch_drain_us->Observe(ToUs(ms));
    char msg[96];
    std::snprintf(msg, sizeof(msg), "epoch %llu drained after %.1f ms",
                  static_cast<unsigned long long>(epoch.id), ms);
    events->Record(EventSeverity::kInfo, "service", msg);
  }

  const std::shared_ptr<MetricsRegistry> registry;  ///< keeps all alive
  EventLog* const events;                           ///< never null
  Counter* submitted;
  Counter* rejected;
  Counter* completed[std::size(kStatusLabels)];  ///< by StatusIndex()
  Gauge* queue_depth;
  Gauge* in_flight;
  PerClass per_class[kNumQueryClasses];
  Counter* cache_hits;
  Counter* cache_misses;
  Counter* cache_insertions;
  Counter* cache_evictions;
  Gauge* workers;
  Counter* swaps;
  Histogram* swap_us;
  Histogram* epoch_drain_us;
  Counter* epoch_drain_ns;
  Gauge* epoch_drain_max_ns;
};

namespace {

// Compile-time spot-checks of the frozen-store thread-safety contract: the
// read paths the evaluators hit during concurrent serving must be const
// member functions (see the contract comments on GraphStore, LabelDictionary
// and BoundOntology). If one of these loses its const — say a lazy cache
// sneaks back in — serving over a shared store stops being provably safe
// and this file stops compiling.
static_assert(
    std::is_same_v<decltype(&GraphStore::Neighbors),
                   std::span<const NodeId> (GraphStore::*)(
                       NodeId, LabelId, Direction) const>);
static_assert(
    std::is_same_v<decltype(&GraphStore::SigmaNeighbors),
                   std::span<const NodeId> (GraphStore::*)(NodeId, Direction)
                       const>);
static_assert(
    std::is_same_v<decltype(&GraphStore::FindNode),
                   std::optional<NodeId> (GraphStore::*)(std::string_view)
                       const>);
static_assert(
    std::is_same_v<decltype(&LabelDictionary::Find),
                   std::optional<LabelId> (LabelDictionary::*)(
                       std::string_view) const>);
static_assert(
    std::is_same_v<decltype(&BoundOntology::LabelDownSet),
                   const std::vector<LabelId>& (BoundOntology::*)(LabelId)
                       const>);
static_assert(
    std::is_same_v<decltype(&BoundOntology::NodeDownSet),
                   const OidSet& (BoundOntology::*)(NodeId) const>);

/// Sums the rows the rank-join operators released over the compiled plan
/// tree (leaves report through the merged stream stats instead).
uint64_t SumJoinRows(const PlanNode* node) {
  if (node == nullptr || node->is_leaf()) return 0;
  const uint64_t own =
      node->stream != nullptr ? node->stream->OperatorStats().answers_emitted
                              : 0;
  return own + SumJoinRows(node->left.get()) + SumJoinRows(node->right.get());
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

// --- QueryTicket -------------------------------------------------------------

const QueryResponse& QueryTicket::Wait() {
  MutexLock lock(mu_);
  while (!done_) cv_.Wait(mu_);
  return response_;
}

QueryResponse QueryTicket::TakeResponse() {
  MutexLock lock(mu_);
  while (!done_) cv_.Wait(mu_);
  return std::move(response_);
}

bool QueryTicket::done() const {
  MutexLock lock(mu_);
  return done_;
}

// --- QueryService ------------------------------------------------------------

QueryService::QueryService(const GraphStore* graph, const Ontology* ontology,
                           std::shared_ptr<const Dataset> dataset,
                           QueryServiceOptions options)
    : options_(std::move(options)) {
  if (options_.num_workers == 0) {
    options_.num_workers =
        std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  options_.max_queue = std::max<size_t>(options_.max_queue, 1);
  events_ =
      options_.events != nullptr ? options_.events : EventLog::Global();
  // An injected registry is borrowed (its owner keeps it alive past every
  // epoch); otherwise the service and its epochs co-own a private one.
  metrics_ = std::make_shared<const ServiceMetrics>(
      options_.metrics != nullptr
          ? std::shared_ptr<MetricsRegistry>(options_.metrics,
                                             [](MetricsRegistry*) {})
          : std::make_shared<MetricsRegistry>(),
      events_);
  metrics_->workers->Set(static_cast<int64_t>(options_.num_workers));
  epoch_ = MakeEpoch(/*id=*/0, std::move(dataset), graph, ontology);
  running_.resize(options_.num_workers);
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&QueryService::WorkerLoop, this, i);
  }
}

QueryService::QueryService(const GraphStore* graph, const Ontology* ontology,
                           QueryServiceOptions options)
    : QueryService(graph, ontology, /*dataset=*/nullptr,
                   std::move(options)) {}

QueryService::QueryService(std::shared_ptr<const Dataset> dataset,
                           QueryServiceOptions options)
    : QueryService(&dataset->graph(), dataset->ontology(), dataset,
                   std::move(options)) {}

std::shared_ptr<const DatasetEpoch> QueryService::MakeEpoch(
    uint64_t id, std::shared_ptr<const Dataset> dataset,
    const GraphStore* graph, const Ontology* ontology) const {
  std::unique_ptr<ResultCache> cache;
  if (options_.cache_entries > 0) {
    cache = std::make_unique<ResultCache>(options_.cache_entries,
                                          options_.cache_shards);
  }
  // QueryEngine's constructor binds the ontology against the graph
  // (BoundOntology precompute) — per epoch, not per query.
  auto epoch = std::make_unique<DatasetEpoch>(id, std::move(dataset), graph,
                                              ontology, std::move(cache));
  // Custom deleter so the last pin drop on a retired epoch records the
  // drain, possibly after the service is gone (a client may hold a ticket).
  return std::shared_ptr<const DatasetEpoch>(
      epoch.release(), [metrics = metrics_](const DatasetEpoch* e) {
        metrics->RecordDrain(*e);
        delete e;
      });
}

std::shared_ptr<const DatasetEpoch> QueryService::CurrentEpoch() const {
  ReaderMutexLock lock(epoch_mu_);
  return epoch_;
}

uint64_t QueryService::dataset_epoch() const { return CurrentEpoch()->id; }

Status QueryService::SwapDataset(std::shared_ptr<const Dataset> dataset) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("SwapDataset requires a dataset");
  }
  const GraphStore* graph = &dataset->graph();
  const Ontology* ontology = dataset->ontology();
  const Timer swap_timer;
  std::shared_ptr<const DatasetEpoch> retired;
  {
    WriterMutexLock lock(epoch_mu_);
    // Building the epoch outside the lock would allow two concurrent swaps
    // to publish the same id; binds are cheap relative to swap frequency.
    auto next = MakeEpoch(epoch_->id + 1, std::move(dataset), graph, ontology);
    retired = std::move(epoch_);
    epoch_ = std::move(next);
  }
  const double swap_ms = swap_timer.ElapsedMs();
  const uint64_t retired_id = retired->id;
  // Record the retirement *before* dropping our reference: if no query has
  // the old epoch pinned, reset() runs the drain deleter immediately and it
  // must find the retire timestamp in place, and the swap counted (so no
  // stats() snapshot shows a drain without its swap).
  retired->retired_at_ns.Store(SteadyNowNs());
  metrics_->swap_us->Observe(ToUs(swap_ms));
  metrics_->swaps->Increment();
  // The retired epoch (dataset, engine, cache entries) lives on in the
  // tickets that pinned it and dies with the last of them; dropping our
  // reference here is what makes the swap an invalidation.
  retired.reset();
  StartCacheGeneration();
  {
    char msg[112];
    std::snprintf(msg, sizeof(msg),
                  "dataset swap published: epoch %llu -> %llu (%.1f ms)",
                  static_cast<unsigned long long>(retired_id),
                  static_cast<unsigned long long>(retired_id + 1), swap_ms);
    events_->Record(EventSeverity::kInfo, "service", msg);
  }
  return Status::OK();
}

QueryService::~QueryService() {
  std::deque<std::shared_ptr<QueryTicket>> leftovers;
  std::vector<std::shared_ptr<QueryTicket>> in_flight;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    leftovers.swap(queue_);
    in_flight = running_;
  }
  // Fast shutdown: in-flight queries stop at their next cancellation poll
  // and complete with kCancelled before their worker exits.
  for (const std::shared_ptr<QueryTicket>& ticket : in_flight) {
    if (ticket != nullptr) ticket->cancel_.Cancel();
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  // The queue was drained into `leftovers` above; don't leave a stale
  // non-zero depth behind in a shared registry. (in_flight needs no reset:
  // it is delta-based and every worker balanced its Add(1) before joining.)
  metrics_->queue_depth->Set(0);
  for (const std::shared_ptr<QueryTicket>& ticket : leftovers) {
    QueryResponse response;
    response.status = Status::Cancelled("query service is shutting down");
    response.epoch = ticket->epoch_->id;
    response.queue_ms = MsSince(ticket->enqueued_at_);
    Complete(ticket, std::move(response));
  }
}

Result<std::shared_ptr<QueryTicket>> QueryService::Submit(
    QueryRequest request) {
  OMEGA_RETURN_NOT_OK(ValidateQuery(request.query));
  auto ticket = std::make_shared<QueryTicket>();
  ticket->request_ = std::move(request);
  ticket->query_class_ = ClassifyQuery(ticket->request_.query);
  const std::chrono::milliseconds deadline =
      ticket->request_.deadline.count() > 0 ? ticket->request_.deadline
                                            : options_.default_deadline;
  if (deadline.count() > 0) {
    ticket->cancel_ = CancelSource::WithTimeout(deadline);
  }
  ticket->enqueued_at_ = std::chrono::steady_clock::now();

  // Pin the serving epoch at admission: the request executes against this
  // epoch's engine and cache no matter how many swaps happen while it
  // waits, and the pin keeps the dataset alive until completion.
  ticket->epoch_ = CurrentEpoch();
  TraceRecorder* const trace = ticket->request_.trace;
  if (trace != nullptr) {
    const TraceRecorder::SpanId pin = trace->Event("epoch_pin");
    trace->Annotate(pin, "epoch", static_cast<int64_t>(ticket->epoch_->id));
    trace->AnnotateStr(pin, "class",
                       QueryClassToString(ticket->query_class_));
  }
  const bool use_cache =
      ticket->epoch_->cache != nullptr && !ticket->request_.bypass_cache;
  ticket->used_cache_ = use_cache;
  if (use_cache || options_.flight_recorder != nullptr) {
    // Canonical query text + k identifies the artifact: the engine options
    // (the other input that shapes the answer sequence) are fixed for this
    // service's lifetime, and the cache dies with its epoch. The flight
    // recorder needs it even on cache-bypass requests — its records key on
    // the hash of this string.
    ticket->cache_key_ = ticket->request_.query.CanonicalKey() + "|k=" +
                         std::to_string(ticket->request_.top_k);
  }
  if (use_cache) {
    // Fresh hits are served synchronously on the submitting thread: no
    // queueing, no worker hand-off — this is the latency the cache exists
    // to buy.
    const Timer lookup_timer;
    std::shared_ptr<const CachedResult> entry =
        ticket->epoch_->cache->Lookup(ticket->cache_key_);
    if (trace != nullptr) {
      const TraceRecorder::SpanId lookup =
          trace->RecordComplete("cache_lookup", lookup_timer.ElapsedUs());
      trace->Annotate(lookup, "hit", entry != nullptr ? 1 : 0);
    }
    if (entry != nullptr) {
      metrics_->cache_hits->Increment();
      // Counted before ServeHit completes the request on this thread.
      metrics_->submitted->Increment();
      ServeHit(ticket, *entry, /*queue_ms=*/0);
      return ticket;
    }
    metrics_->cache_misses->Increment();
  }

  std::vector<std::shared_ptr<QueryTicket>> purged;
  bool admitted = false;
  {
    MutexLock lock(mu_);
    if (stopping_) {
      return Status::FailedPrecondition("query service is shutting down");
    }
    if (queue_.size() >= options_.max_queue) {
      // Queued requests that are already cancelled or past their deadline
      // hold admission slots they will never use; release them before
      // deciding to reject. Completion runs after mu_ is dropped —
      // Complete takes the ticket lock, which must stay a leaf lock.
      purged = PurgeDeadLocked();
    }
    if (queue_.size() < options_.max_queue) {
      // Counted before a worker can pop the ticket, so before any of the
      // completion's increments (see stats()).
      metrics_->submitted->Increment();
      queue_.push_back(ticket);
      admitted = true;
    }
    metrics_->queue_depth->Set(static_cast<int64_t>(queue_.size()));
  }
  for (const std::shared_ptr<QueryTicket>& p : purged) {
    QueryResponse response;
    response.epoch = p->epoch_->id;
    response.status = p->cancel_.token().Check("queued query");
    if (response.status.ok()) {  // raced with Cancel/clock: treat as cancelled
      response.status = Status::Cancelled("queued query was cancelled");
    }
    response.queue_ms = MsSince(p->enqueued_at_);
    Complete(p, std::move(response));
  }
  if (!admitted) {
    metrics_->rejected->Increment();
    events_->Record(EventSeverity::kWarn, "service",
                    "admission rejected: queue full (max_queue=" +
                        std::to_string(options_.max_queue) + ")");
    return Status::ResourceExhausted(
        "admission queue is full (max_queue=" +
        std::to_string(options_.max_queue) + ")");
  }
  work_cv_.NotifyOne();
  return ticket;
}

QueryResponse QueryService::Execute(QueryRequest request) {
  Result<std::shared_ptr<QueryTicket>> ticket = Submit(std::move(request));
  if (!ticket.ok()) {
    QueryResponse response;
    response.status = ticket.status();
    return response;
  }
  // The local shared_ptr is this caller's only handle: move the response
  // out instead of deep-copying the answers vector.
  return (*ticket)->TakeResponse();
}

void QueryService::InvalidateCache() {
  // See the header comment for the intended semantics: entries are dropped
  // AND the cache-accounting generation restarts — a hit rate that mixes
  // generations would overstate a cache that no longer holds anything.
  const std::shared_ptr<const DatasetEpoch> epoch = CurrentEpoch();
  if (epoch->cache != nullptr) {
    metrics_->cache_evictions->Increment(epoch->cache->Clear());
  }
  StartCacheGeneration();
}

void QueryService::StartCacheGeneration() {
  MutexLock lock(generation_mu_);
  generation_start_ = ReadInstruments();
}

ServiceStats QueryService::ReadInstruments() const {
  const ServiceMetrics& m = *metrics_;
  // Completions and drains first, then submissions and swaps: with release
  // increments and acquire loads the later reads only come out larger
  // (obs/metrics.h).
  ServiceStats out;
  out.completed = m.completed[0]->Value();
  out.cancelled = m.completed[1]->Value();
  out.deadline_exceeded = m.completed[2]->Value();
  out.failed = m.completed[3]->Value();
  for (size_t i = 0; i < kNumQueryClasses; ++i) {
    const ServiceMetrics::PerClass& c = m.per_class[i];
    ClassAggregate& agg = out.per_class[i];
    agg.queries = c.queue_wait_us->Count();
    agg.queue_ms = ToMs(c.queue_wait_us->Sum());
    agg.executed = c.exec_us->Count();
    agg.exec_ms = ToMs(c.exec_us->Sum());
    agg.failures = c.failures->Value();
    agg.cache_hits = c.cache_hits->Value();
    agg.cache_lookups = agg.cache_hits + c.cache_misses->Value();
    agg.join_rows = c.join_rows->Value();
    for (size_t f = 0; f < kNumEvalSeries; ++f) {
      agg.eval.*kEvalSeries[f].field =
          kEvalSeries[f].high_water
              ? static_cast<uint64_t>(c.eval_max[f]->Value())
              : c.eval_sum[f]->Value();
    }
  }
  out.epochs_drained = m.epoch_drain_us->Count();
  out.drain_ms_total = static_cast<double>(m.epoch_drain_ns->Value()) / 1e6;
  out.drain_ms_max = static_cast<double>(m.epoch_drain_max_ns->Value()) / 1e6;

  if (stats_read_gap_hook != nullptr) stats_read_gap_hook();
  out.submitted = m.submitted->Value();
  out.rejected = m.rejected->Value();
  out.dataset_swaps = m.swaps->Value();
  out.epochs_retired = out.dataset_swaps;
  out.swap_ms_total = ToMs(m.swap_us->Sum());
  out.cache.hits = m.cache_hits->Value();
  out.cache.misses = m.cache_misses->Value();
  out.cache.insertions = m.cache_insertions->Value();
  out.cache.evictions = m.cache_evictions->Value();
  return out;
}

ServiceStats QueryService::stats() const {
  ServiceStats start;
  {
    MutexLock lock(generation_mu_);
    start = generation_start_;
  }
  ServiceStats out = ReadInstruments();
  // The cache counters describe the current generation only.
  out.cache.hits -= start.cache.hits;
  out.cache.misses -= start.cache.misses;
  out.cache.insertions -= start.cache.insertions;
  out.cache.evictions -= start.cache.evictions;
  for (size_t i = 0; i < kNumQueryClasses; ++i) {
    out.per_class[i].cache_hits -= start.per_class[i].cache_hits;
    out.per_class[i].cache_lookups -= start.per_class[i].cache_lookups;
  }
  {
    MutexLock lock(mu_);
    out.queue_depth = queue_.size();
    for (const std::shared_ptr<QueryTicket>& t : running_) {
      if (t != nullptr) ++out.in_flight;
    }
  }
  const std::shared_ptr<const DatasetEpoch> epoch = CurrentEpoch();
  out.dataset_epoch = epoch->id;
  if (epoch->cache != nullptr) out.cache.entries = epoch->cache->size();
  return out;
}

size_t QueryService::queue_depth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

bool QueryService::accepting() const {
  MutexLock lock(mu_);
  return !stopping_;
}

MetricsRegistry* QueryService::metrics_registry() const {
  return metrics_->registry.get();
}

FlightRecorder* QueryService::flight_recorder() const {
  return options_.flight_recorder;
}

std::vector<std::shared_ptr<QueryTicket>> QueryService::PurgeDeadLocked() {
  std::vector<std::shared_ptr<QueryTicket>> purged;
  for (auto it = queue_.begin(); it != queue_.end();) {
    // Dead = explicitly cancelled or deadline already expired: either way
    // the ticket is guaranteed to complete without executing, so its slot
    // can be handed to a live request.
    if (!(*it)->cancel_.token().Check("queued query").ok()) {
      purged.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return purged;
}

void QueryService::WorkerLoop(size_t worker_index) {
  for (;;) {
    std::shared_ptr<QueryTicket> ticket;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) work_cv_.Wait(mu_);
      if (stopping_) return;  // leftovers are completed by the destructor
      ticket = std::move(queue_.front());
      queue_.pop_front();
      running_[worker_index] = ticket;
      metrics_->queue_depth->Set(static_cast<int64_t>(queue_.size()));
    }
    metrics_->in_flight->Add(1);
    // Complete() takes the ticket off running_ and balances the gauge.
    RunTask(ticket, worker_index);
  }
}

void QueryService::RunTask(const std::shared_ptr<QueryTicket>& ticket,
                           size_t worker_index) {
  // Everything below runs against the epoch the ticket pinned at Submit():
  // a swap that lands mid-execution changes nothing for this request.
  const DatasetEpoch& epoch = *ticket->epoch_;
  QueryResponse response;
  response.epoch = epoch.id;
  response.queue_ms = MsSince(ticket->enqueued_at_);
  TraceRecorder* const trace = ticket->request_.trace;
  if (trace != nullptr) {
    // The wait started at Submit(), before this worker had the recorder, so
    // the span is back-dated from the measured duration.
    trace->RecordComplete("queue_wait", response.queue_ms * 1000.0);
  }

  // The deadline clock started at Submit(), so a request can expire (or be
  // cancelled) before it ever executes.
  const CancelToken token = ticket->cancel_.token();
  response.status = token.Check("queued query");
  if (!response.status.ok()) {
    Complete(ticket, std::move(response), nullptr, worker_index);
    return;
  }

  const bool use_cache =
      epoch.cache != nullptr && !ticket->request_.bypass_cache;
  // An identical request may have completed while this one queued. Submit
  // already counted this request's miss, so only a hit is counted here.
  if (use_cache) {
    const Timer lookup_timer;
    std::shared_ptr<const CachedResult> entry =
        epoch.cache->Lookup(ticket->cache_key_);
    if (trace != nullptr) {
      const TraceRecorder::SpanId lookup =
          trace->RecordComplete("cache_reprobe", lookup_timer.ElapsedUs());
      trace->Annotate(lookup, "hit", entry != nullptr ? 1 : 0);
    }
    if (entry != nullptr) {
      metrics_->cache_hits->Increment();
      ServeHit(ticket, *entry, response.queue_ms, worker_index);
      return;
    }
  }

  Timer timer;
  QueryEngineOptions options = options_.engine;
  options.evaluator.cancel = token;
  // Hand the ticket's recorder to the engine: plan / compile spans and
  // index-probe events land in the same per-query trace as the service
  // spans above.
  options.evaluator.trace = trace;
  if (options.evaluator.top_k_hint == 0) {
    options.evaluator.top_k_hint = ticket->request_.top_k;
  }
  TraceRecorder::SpanId exec_span = 0;
  if (trace != nullptr) exec_span = trace->Begin("execute");
  Result<std::unique_ptr<QueryResultStream>> stream =
      epoch.engine.Execute(ticket->request_.query, options);
  if (!stream.ok()) {
    if (trace != nullptr) {
      trace->Annotate(exec_span, "ok", 0);
      trace->End(exec_span);
    }
    response.status = stream.status();
    response.exec_ms = timer.ElapsedMs();
    const ExecutionStats exec;  // reached the engine, no stream counters
    Complete(ticket, std::move(response), &exec, worker_index);
    return;
  }

  const size_t k = ticket->request_.top_k;
  QueryAnswer answer;
  bool drained = false;
  while (k == 0 || response.answers.size() < k) {
    if (!(*stream)->Next(&answer)) {
      drained = true;
      break;
    }
    response.answers.push_back(std::move(answer));
  }
  response.exec_ms = timer.ElapsedMs();
  response.status = (*stream)->status();
  response.head = (*stream)->head();
  response.exhausted = drained && response.status.ok();

  ExecutionStats exec;
  exec.eval = (*stream)->stats();
  if ((*stream)->plan() != nullptr) {
    exec.join_rows = SumJoinRows((*stream)->plan()->root.get());
  }
  if (trace != nullptr) {
    trace->Annotate(exec_span, "ok", response.status.ok() ? 1 : 0);
    trace->Annotate(exec_span, "answers",
                    static_cast<int64_t>(response.answers.size()));
    trace->Annotate(exec_span, "exhausted", response.exhausted ? 1 : 0);
    // Per-operator pull/emit totals, recorded after draining so the
    // counters are final.
    if ((*stream)->plan() != nullptr) {
      RecordOperatorTrace(*(*stream)->plan(), trace);
    }
    trace->End(exec_span);
  }

  if (use_cache && response.status.ok()) {
    auto entry = std::make_shared<CachedResult>();
    entry->answers = response.answers;
    entry->exhausted = response.exhausted;
    // Fills go to the *pinned* epoch's cache: after a swap this is the
    // retired cache dying with its epoch, so a stale result can never be
    // served to post-swap admissions (they pin the new epoch).
    const size_t evicted = epoch.cache->Insert(ticket->cache_key_,
                                               std::move(entry));
    metrics_->cache_insertions->Increment();
    if (evicted > 0) metrics_->cache_evictions->Increment(evicted);
  }
  Complete(ticket, std::move(response), &exec, worker_index);
}

void QueryService::ServeHit(const std::shared_ptr<QueryTicket>& ticket,
                            const CachedResult& entry, double queue_ms,
                            size_t worker_index) {
  QueryResponse response;
  response.epoch = ticket->epoch_->id;
  // Entries are shared across alpha-renamed queries, so the column labels
  // come from the query as submitted, not from whoever filled the cache.
  response.head = ticket->request_.query.head;
  response.answers = entry.answers;
  response.exhausted = entry.exhausted;
  response.cache_hit = true;
  response.queue_ms = queue_ms;
  Complete(ticket, std::move(response), nullptr, worker_index);
}

void QueryService::Complete(const std::shared_ptr<QueryTicket>& ticket,
                            QueryResponse response, const ExecutionStats* exec,
                            size_t worker_index) {
  if (options_.flight_recorder != nullptr) {
    // One mutex-guarded flat append per completion (near-free: see the
    // bench_obs _RecorderOn/_RecorderOff gate pair). Trace JSON is captured
    // inside only for completions over the slow threshold.
    QueryFlightRecord record;
    record.query_class = QueryClassToString(ticket->query_class_);
    record.status = response.status.code();
    record.key_hash = ticket->cache_key_.empty()
                          ? 0
                          : FlightRecorder::HashKey(ticket->cache_key_);
    record.queue_us = ToUs(response.queue_ms);
    record.exec_us = ToUs(response.exec_ms);
    record.epoch = response.epoch;
    record.answers = static_cast<uint32_t>(response.answers.size());
    record.cache_hit = response.cache_hit;
    options_.flight_recorder->Record(record, ticket->request_.trace);
  }
  if (response.status.IsCancelled() || response.status.IsDeadlineExceeded()) {
    // Lifecycle journal: cancellations and deadline expiries are the
    // completions an operator reconstructs after the fact.
    events_->Record(EventSeverity::kWarn, "service",
                    std::string(StatusCodeToString(response.status.code())) +
                        ": " + response.status.message());
  }
  // Every fact of this completion is booked once, here, without a service
  // lock; Submit counted the submission before the ticket could complete.
  const ServiceMetrics::PerClass& c =
      metrics_->per_class[static_cast<size_t>(ticket->query_class_)];
  if (response.cache_hit) {
    c.cache_hits->Increment();
  } else if (ticket->used_cache_) {
    c.cache_misses->Increment();
  }
  // exec is non-null exactly when the request reached the engine; a
  // queued-dead completion counts toward neither hits nor exec time.
  if (exec != nullptr) {
    c.exec_us->Observe(ToUs(response.exec_ms));
    if (exec->join_rows > 0) c.join_rows->Increment(exec->join_rows);
    for (size_t f = 0; f < kNumEvalSeries; ++f) {
      const uint64_t value = exec->eval.*kEvalSeries[f].field;
      if (value == 0) continue;
      if (kEvalSeries[f].high_water) {
        c.eval_max[f]->SetMax(static_cast<int64_t>(value));
      } else {
        c.eval_sum[f]->Increment(value);
      }
    }
  }
  metrics_->completed[StatusIndex(response.status)]->Increment();
  if (!response.status.ok()) c.failures->Increment();
  c.queue_wait_us->Observe(ToUs(response.queue_ms));
  if (worker_index != kNoWorker) {
    // The worker leaves the running set before its client can see the
    // response, so stats() read after the last response counts nothing in
    // flight.
    {
      MutexLock lock(mu_);
      running_[worker_index] = nullptr;
    }
    metrics_->in_flight->Add(-1);
  }
  {
    MutexLock lock(ticket->mu_);
    ticket->response_ = std::move(response);
    ticket->done_ = true;
  }
  ticket->cv_.NotifyAll();
  if (response_published_hook != nullptr) response_published_hook();
}

}  // namespace omega
