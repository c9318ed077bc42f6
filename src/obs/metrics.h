// Metrics registry: named counters, gauges, and fixed-bucket histograms
// with a Prometheus-style text exposition (RenderText). It is the only
// store of serving facts: a QueryService counts into one registry and
// builds ServiceStats from reads of it. Process-wide families (process,
// snapshot, index, engine, admin) live in Global().
//
// Concurrency model, on the annotated lock layer:
//  - Instrument values are lock-free atomics: a hot-path Increment() is one
//    atomic add — no lock, no allocation.
//  - Counter increments and histogram counts are release RMWs read with
//    acquire loads (common/atomics.h OrderedCounter); Observe() adds the
//    bucket and sum before the count. QueryService relies on this: each
//    submission (swap) is counted before its completion (drain), and
//    stats() reads completions and drains first, so no snapshot shows a
//    completion without its submission or a drain without its swap.
//  - Gauges and histogram buckets/sums are RelaxedAtomic: any interleaving
//    is a correct outcome.
//  - The name -> instrument map is OMEGA_GUARDED_BY(mu_). GetOrCreate*() is
//    a setup-path operation (service construction, first use of a family);
//    callers cache the returned pointer and never touch the map on the hot
//    path. Returned pointers are stable for the registry's lifetime.
//
// Histograms are integer-valued on purpose: latencies are observed in
// microseconds and cardinalities in rows, so every cell stays a lock-free
// integer instead of an atomic<double> read-modify-write.
#ifndef OMEGA_OBS_METRICS_H_
#define OMEGA_OBS_METRICS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/atomics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace omega {

/// Monotonic counter: release increments, acquire reads (see above).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t delta = 1) { value_.FetchAdd(delta); }
  uint64_t Value() const { return value_.Load(); }

 private:
  OrderedCounter value_;
};

/// Signed level gauge (queue depth, mapped bytes), or a max-gauge raised
/// only through SetMax().
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { value_.Store(value); }
  void Add(int64_t delta) { value_.FetchAdd(delta); }
  void SetMax(int64_t value) { value_.StoreMax(value); }
  int64_t Value() const { return value_.Load(); }

 private:
  // RelaxedAtomic: advisory level readout; no cross-thread ordering implied.
  RelaxedAtomic<int64_t> value_;
};

/// Fixed-bucket histogram over non-negative integer samples (microseconds
/// for latencies, rows for cardinalities). Bucket bounds are immutable after
/// construction, so Observe() is a read-only scan over `bounds_` plus three
/// atomic adds — lock-free and allocation-free.
class Histogram {
 public:
  /// `bounds` are inclusive upper bounds, strictly ascending; an implicit
  /// +Inf bucket is appended.
  explicit Histogram(std::vector<uint64_t> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(uint64_t value);

  uint64_t Count() const { return count_.Load(); }
  uint64_t Sum() const { return sum_.Load(); }
  /// Count in bucket `i` (i == bounds().size() is the +Inf bucket).
  uint64_t BucketCount(size_t i) const { return buckets_[i].Load(); }
  const std::vector<uint64_t>& bounds() const { return bounds_; }

  /// Default bounds for microsecond latencies: 50us .. 1s.
  static std::vector<uint64_t> LatencyBoundsUs();

 private:
  const std::vector<uint64_t> bounds_;  // immutable after construction
  // Added before count_: a render may see an observation in a bucket but
  // not yet in the count, an acceptable in-flight skew for an exposition.
  std::vector<RelaxedAtomic<uint64_t>> buckets_;  // bounds_.size() + 1
  RelaxedAtomic<uint64_t> sum_;
  OrderedCounter count_;
};

/// Owns instruments keyed by (name, labels) and renders them in the
/// Prometheus text exposition format. Instrument pointers returned by
/// GetOrCreate*() remain valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registry of the process-wide families (never destroyed: a snapshot
  /// mapping may be released, updating its gauge, during static teardown).
  /// A QueryService counts into it only when it is injected.
  static MetricsRegistry* Global();

  /// `labels` is a raw Prometheus label body, e.g. `class="EXACT"` (empty
  /// for an unlabelled series). Same (name, labels) returns the same
  /// instrument; a kind mismatch on an existing name is a programming error
  /// and asserts in debug builds (returns the existing instrument's family
  /// slot as nullptr in release).
  Counter* GetCounter(std::string_view name, std::string_view help = {},
                      std::string_view labels = {}) OMEGA_EXCLUDES(mu_);
  Gauge* GetGauge(std::string_view name, std::string_view help = {},
                  std::string_view labels = {}) OMEGA_EXCLUDES(mu_);
  /// Empty `bounds` selects LatencyBoundsUs().
  Histogram* GetHistogram(std::string_view name, std::string_view help = {},
                          std::string_view labels = {},
                          std::vector<uint64_t> bounds = {})
      OMEGA_EXCLUDES(mu_);

  /// Prometheus text exposition: `# HELP` / `# TYPE` per family, then one
  /// line per series (histograms expand to _bucket{le=...}/_sum/_count).
  std::string RenderText() const OMEGA_EXCLUDES(mu_);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    std::string labels;
    std::string help;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreateLocked(std::string_view name, std::string_view help,
                            std::string_view labels, Kind kind)
      OMEGA_REQUIRES(mu_);

  mutable Mutex mu_;
  // unique_ptr entries: the vector may reallocate on registration, but the
  // instruments it owns never move — that is the pointer-stability contract.
  std::vector<std::unique_ptr<Entry>> entries_ OMEGA_GUARDED_BY(mu_);
};

}  // namespace omega

#endif  // OMEGA_OBS_METRICS_H_
