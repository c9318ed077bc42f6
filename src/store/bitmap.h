// Dense bitmap over node ids. Sparksee's storage layer is built on bitmap
// vectors (Martinez-Bazan et al., IDEAS 2012); we use the same structure for
// per-label node membership and for bulk dedup during seeding.
#ifndef OMEGA_STORE_BITMAP_H_
#define OMEGA_STORE_BITMAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "store/types.h"

namespace omega {

/// Fixed-universe bitset with set algebra and set-bit iteration.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t universe_size);

  void Resize(size_t universe_size);
  size_t universe_size() const { return universe_size_; }

  // The single-bit operations are inline: per-node scans (seeding, the
  // frontier scan's visited marks) call them once per node or edge.
  void Set(NodeId id) {
    assert(id < universe_size_);
    words_[id / 64] |= (1ULL << (id % 64));
  }
  void Clear(NodeId id) {
    assert(id < universe_size_);
    words_[id / 64] &= ~(1ULL << (id % 64));
  }
  bool Test(NodeId id) const {
    if (id >= universe_size_) return false;
    return (words_[id / 64] >> (id % 64)) & 1ULL;
  }
  /// Sets the bit and reports whether it was previously clear.
  bool TestAndSet(NodeId id) {
    assert(id < universe_size_);
    uint64_t& word = words_[id / 64];
    const uint64_t mask = 1ULL << (id % 64);
    const bool was_clear = (word & mask) == 0;
    word |= mask;
    return was_clear;
  }

  /// Number of set bits (popcount over words).
  size_t Count() const;

  void ClearAll();

  /// In-place algebra; both operands must share a universe size.
  void UnionWith(const Bitmap& other);
  void IntersectWith(const Bitmap& other);
  void SubtractFrom(const Bitmap& other);  // this &= ~other

  /// Applies `fn(NodeId)` to every set bit in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        const int lsb = __builtin_ctzll(bits);
        fn(static_cast<NodeId>(w * 64 + static_cast<size_t>(lsb)));
        bits &= bits - 1;
      }
    }
  }

  /// Materialises set bits as a sorted id vector.
  std::vector<NodeId> ToVector() const;

 private:
  size_t universe_size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace omega

#endif  // OMEGA_STORE_BITMAP_H_
