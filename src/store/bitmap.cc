#include "store/bitmap.h"

#include <cassert>

namespace omega {

Bitmap::Bitmap(size_t universe_size) { Resize(universe_size); }

void Bitmap::Resize(size_t universe_size) {
  universe_size_ = universe_size;
  words_.assign((universe_size + 63) / 64, 0);
}

size_t Bitmap::Count() const {
  size_t total = 0;
  for (uint64_t w : words_) total += static_cast<size_t>(__builtin_popcountll(w));
  return total;
}

void Bitmap::ClearAll() { words_.assign(words_.size(), 0); }

void Bitmap::UnionWith(const Bitmap& other) {
  assert(universe_size_ == other.universe_size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void Bitmap::IntersectWith(const Bitmap& other) {
  assert(universe_size_ == other.universe_size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

void Bitmap::SubtractFrom(const Bitmap& other) {
  assert(universe_size_ == other.universe_size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
}

std::vector<NodeId> Bitmap::ToVector() const {
  std::vector<NodeId> out;
  out.reserve(Count());
  ForEach([&](NodeId id) { out.push_back(id); });
  return out;
}

}  // namespace omega
