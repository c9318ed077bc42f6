// Sharded LRU cache of top-k ranked query results. A completed top-k answer
// list is a small artifact (the ranked stream produces answers with bounded
// per-answer work, so k answers are a few hundred bytes), which makes
// caching it in front of the engine the cheapest form of serving
// infrastructure: repeated queries skip evaluation entirely.
//
// Keys are opaque strings built by QueryService from Query::CanonicalKey()
// + k (sufficient because the engine options that also shape the answer
// sequence are fixed for the owning service's lifetime — a cache shared
// across configurations would need them in the key). Values are
// shared_ptr<const ...> snapshots, so a hit never copies under the shard
// lock and an eviction never invalidates a response already handed out.
//
// The cache keeps no counters: Insert() and Clear() return what they
// evicted, and QueryService books hits, misses, insertions and evictions in
// its metrics registry at the call sites.
//
// Thread-safety: every method is safe to call concurrently; each shard has
// its own capability-annotated mutex guarding its LRU list + index.
#ifndef OMEGA_SERVICE_RESULT_CACHE_H_
#define OMEGA_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "eval/query_engine.h"

namespace omega {

/// One cached top-k result: the answers in emission order plus whether the
/// stream was exhausted before reaching k (an exhausted entry also answers
/// any larger k; QueryService keys on k, so this is informational). Head
/// variable *names* are deliberately not stored: entries are shared across
/// alpha-renamed queries (CanonicalKey), so each response labels the
/// columns with its own query's head.
struct CachedResult {
  std::vector<QueryAnswer> answers;
  bool exhausted = false;
};

class ResultCache {
 public:
  /// `capacity` bounds resident entries across all shards (>= 1 enforced);
  /// `num_shards` spreads lock contention (clamped to [1, capacity]).
  ResultCache(size_t capacity, size_t num_shards);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached value and refreshes its recency, or null on miss.
  std::shared_ptr<const CachedResult> Lookup(const std::string& key);

  /// Inserts or replaces `key`, evicting the shard's least-recently-used
  /// entry when the shard is at capacity. Returns the number of entries
  /// evicted (0 or 1).
  size_t Insert(const std::string& key,
                std::shared_ptr<const CachedResult> value);

  /// Invalidation hook: drops every entry. Returns how many were dropped.
  size_t Clear();

  /// Resident entries across all shards.
  size_t size() const;

 private:
  struct Shard {
    Mutex mu;
    /// Front = most recently used. The index stores its own key copy (kept
    /// in sync with the list node's) — simple over clever; keys are a few
    /// hundred bytes at most.
    std::list<std::pair<std::string, std::shared_ptr<const CachedResult>>> lru
        OMEGA_GUARDED_BY(mu);
    std::unordered_map<std::string, decltype(lru)::iterator> index
        OMEGA_GUARDED_BY(mu);
  };

  Shard& ShardFor(const std::string& key);

  size_t per_shard_capacity_;  ///< immutable after construction
  std::vector<std::unique_ptr<Shard>> shards_;  ///< vector itself immutable
};

}  // namespace omega

#endif  // OMEGA_SERVICE_RESULT_CACHE_H_
