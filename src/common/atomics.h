// Documented lock-free atomics for the few sites that intentionally live
// outside the capability system (common/thread_annotations.h): monotonic
// statistics counters and advisory flags, where every interleaving of
// relaxed loads and stores is a correct outcome and a mutex would put a
// serialisation point on a hot path.
//
// RelaxedAtomic pins the memory order to `relaxed` at the type level, which
// is the whole point: a bare std::atomic invites ad-hoc per-call orderings,
// and a reviewer can't tell a deliberate relaxed counter from a forgotten
// acquire/release pair. A RelaxedAtomic declares "no cross-thread ordering
// is implied by this variable" — anything needing publication order
// (handing an object to another thread) must go through a Mutex or a
// release-ordered primitive instead, and should say why in a comment.
// OrderedCounter below is that primitive for monotonic counters.
#ifndef OMEGA_COMMON_ATOMICS_H_
#define OMEGA_COMMON_ATOMICS_H_

#include <atomic>
#include <cstdint>
#include <type_traits>

namespace omega {

/// Lock-free scalar with all operations pinned to std::memory_order_relaxed.
/// Safe concurrent use requires that readers tolerate any stale value —
/// counters, generation numbers, cancellation flags. Not a publication
/// mechanism: nothing written before a Store() is guaranteed visible to a
/// thread that observes it.
template <typename T>
class RelaxedAtomic {
  static_assert(std::is_trivially_copyable_v<T>,
                "RelaxedAtomic requires a trivially copyable scalar");
  // The "lock-free" in the class contract is load-bearing: if std::atomic<T>
  // fell back to a hidden lock (oversized T, exotic target), the sites using
  // this type would silently reintroduce the serialisation they exist to
  // avoid — fail the build instead.
  static_assert(std::atomic<T>::is_always_lock_free,
                "RelaxedAtomic<T> must be lock-free on every supported "
                "target; use a Mutex-guarded field for wider state");

 public:
  constexpr RelaxedAtomic() = default;
  explicit constexpr RelaxedAtomic(T value) : value_(value) {}

  RelaxedAtomic(const RelaxedAtomic&) = delete;
  RelaxedAtomic& operator=(const RelaxedAtomic&) = delete;

  T Load() const { return value_.load(std::memory_order_relaxed); }
  void Store(T value) { value_.store(value, std::memory_order_relaxed); }

  /// Returns the previous value. Only instantiable for integral T.
  T FetchAdd(T delta) {
    return value_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Returns the previous value.
  T Exchange(T value) {
    return value_.exchange(value, std::memory_order_relaxed);
  }

  /// Raises the value to `value` if that is larger.
  void StoreMax(T value) {
    T seen = Load();
    while (seen < value && !value_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<T> value_{};
};

/// Lock-free monotonic counter whose increments publish: FetchAdd is a
/// release RMW and Load an acquire load. All increments are RMWs, so a Load
/// returning N synchronises with each of the N increments and sees what
/// their threads did before them. So when every increment of counter B
/// follows one of counter A, reading B and then A never shows more B.
class OrderedCounter {
 public:
  OrderedCounter() = default;
  OrderedCounter(const OrderedCounter&) = delete;
  OrderedCounter& operator=(const OrderedCounter&) = delete;

  uint64_t Load() const { return value_.load(std::memory_order_acquire); }
  void FetchAdd(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_release);
  }

 private:
  static_assert(std::atomic<uint64_t>::is_always_lock_free);
  std::atomic<uint64_t> value_{0};
};

}  // namespace omega

#endif  // OMEGA_COMMON_ATOMICS_H_
