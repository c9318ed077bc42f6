#include "service/result_cache.h"

#include <algorithm>
#include <functional>

namespace omega {

ResultCache::ResultCache(size_t capacity, size_t num_shards) {
  capacity = std::max<size_t>(capacity, 1);
  num_shards = std::clamp<size_t>(num_shards, 1, capacity);
  // Ceil-divide so the total resident bound is >= the requested capacity
  // even when it does not divide evenly.
  per_shard_capacity_ = (capacity + num_shards - 1) / num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::shared_ptr<const CachedResult> ResultCache::Lookup(
    const std::string& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

size_t ResultCache::Insert(const std::string& key,
                           std::shared_ptr<const CachedResult> value) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return 0;
  }
  size_t evicted = 0;
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evicted = 1;
  }
  shard.lru.emplace_front(key, std::move(value));
  shard.index.emplace(key, shard.lru.begin());
  return evicted;
}

size_t ResultCache::Clear() {
  size_t dropped = 0;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    dropped += shard.lru.size();
    shard.index.clear();
    shard.lru.clear();
  }
  return dropped;
}

size_t ResultCache::size() const {
  size_t entries = 0;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    entries += shard.lru.size();
  }
  return entries;
}

}  // namespace omega
