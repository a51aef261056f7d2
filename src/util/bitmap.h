// Fixed-size bitmap over 64-bit words, built for the scheduler's
// occupancy sets: testing whether an M-wide window of virtual disks
// (modulo D) is entirely free must cost O(M/64), not O(M), and single
// bit flips must cost O(1).  Wrap-around windows split into at most two
// linear ranges; each linear range is checked with word-level masks.
// The same masks drive the first/last-free scans of the virtual-disk
// searches, over a cyclic sub-block ("ring") of the bitmap.

#ifndef STAGGER_UTIL_BITMAP_H_
#define STAGGER_UTIL_BITMAP_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/hot_path.h"

namespace stagger {

/// \brief Dense bitset of `size` bits with modular window queries.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(int32_t size) { Resize(size); }

  /// Resizes to `size` bits, clearing every bit.
  void Resize(int32_t size) {
    STAGGER_CHECK(size >= 0);
    size_ = size;
    // The uint32_t hop bounds the word count for the optimizer (GCC 12
    // otherwise reports a bogus stringop-overflow through std::fill).
    words_.assign((static_cast<uint32_t>(size) + 63u) / 64u, 0);
  }

  int32_t size() const { return size_; }

  STAGGER_HOT_PATH bool Test(int32_t i) const {
    STAGGER_DCHECK(i >= 0 && i < size_);
    return (words_[static_cast<size_t>(i >> 6)] >>
            (static_cast<uint32_t>(i) & 63)) & 1;
  }

  STAGGER_HOT_PATH void Set(int32_t i) {
    STAGGER_DCHECK(i >= 0 && i < size_);
    words_[static_cast<size_t>(i >> 6)] |=
        uint64_t{1} << (static_cast<uint32_t>(i) & 63);
  }

  STAGGER_HOT_PATH void Clear(int32_t i) {
    STAGGER_DCHECK(i >= 0 && i < size_);
    words_[static_cast<size_t>(i >> 6)] &=
        ~(uint64_t{1} << (static_cast<uint32_t>(i) & 63));
  }

  void ClearAll() { std::fill(words_.begin(), words_.end(), 0); }

  /// Sets every bit in the linear range [begin, end).  O(range/64).
  STAGGER_HOT_PATH void SetRange(int32_t begin, int32_t end) {
    STAGGER_DCHECK(begin >= 0 && begin <= end && end <= size_);
    if (begin >= end) return;
    const int32_t first_word = begin >> 6;
    const int32_t last_word = (end - 1) >> 6;  // inclusive
    const uint64_t head_mask = ~uint64_t{0}
                               << (static_cast<uint32_t>(begin) & 63);
    const uint64_t tail_mask =
        ~uint64_t{0} >> (63 - ((static_cast<uint32_t>(end - 1)) & 63));
    if (first_word == last_word) {
      words_[static_cast<size_t>(first_word)] |= head_mask & tail_mask;
      return;
    }
    words_[static_cast<size_t>(first_word)] |= head_mask;
    for (int32_t w = first_word + 1; w < last_word; ++w) {
      words_[static_cast<size_t>(w)] = ~uint64_t{0};
    }
    words_[static_cast<size_t>(last_word)] |= tail_mask;
  }

  /// Sets every bit in the modular window [start, start + len)
  /// (mod size).  len in [0, size].
  STAGGER_HOT_PATH void SetWindow(int32_t start, int32_t len) {
    STAGGER_DCHECK(start >= 0 && start < size_);
    STAGGER_DCHECK(len >= 0 && len <= size_);
    const int32_t tail = size_ - start;
    if (len <= tail) {
      SetRange(start, start + len);
      return;
    }
    SetRange(start, size_);
    SetRange(0, len - tail);
  }

  /// Number of set bits.
  int32_t CountSet() const {
    int32_t count = 0;
    for (uint64_t w : words_) count += std::popcount(w);
    return count;
  }

  /// Calls `fn(i)` for every set bit, in ascending order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        fn(static_cast<int32_t>((w << 6) +
                                static_cast<size_t>(std::countr_zero(bits))));
        bits &= bits - 1;
      }
    }
  }

  /// True when none of the bits in the modular window
  /// [start, start + len) (mod size) is set.  len in [0, size].
  STAGGER_HOT_PATH bool WindowClear(int32_t start, int32_t len) const {
    STAGGER_DCHECK(start >= 0 && start < size_);
    STAGGER_DCHECK(len >= 0 && len <= size_);
    const int32_t tail = size_ - start;
    if (len <= tail) return RangeClear(start, start + len);
    return RangeClear(start, size_) && RangeClear(0, len - tail);
  }

  // --- masked ring scans ------------------------------------------------
  //
  // The ring is the block of `n` bits [base, base + n) read cyclically;
  // offset i of the modular range [start, start + len) is bit
  // base + (start + i) mod n.  A position is free when its bit is clear
  // in both *this and `other` (same size).  Requires 0 <= start < n,
  // 0 <= len <= n and base + n <= size.  O(len/64) words.

  /// Smallest offset i in [0, len) whose position is free, or -1.
  STAGGER_HOT_PATH int32_t FirstClearInRing(const Bitmap& other, int32_t base,
                                            int32_t n, int32_t start,
                                            int32_t len) const {
    STAGGER_DCHECK(other.size_ == size_);
    STAGGER_DCHECK(base >= 0 && n >= 1 && base + n <= size_);
    STAGGER_DCHECK(start >= 0 && start < n && len >= 0 && len <= n);
    const int32_t tail = n - start;
    const int32_t lo = base + start;
    const int32_t hit = FirstClearInRange(other, lo, lo + std::min(len, tail));
    if (hit >= 0) return hit - lo;
    if (len <= tail) return -1;
    const int32_t wrapped = FirstClearInRange(other, base, base + len - tail);
    return wrapped < 0 ? -1 : wrapped - base + tail;
  }

  /// Largest offset i in [0, len) whose position is free, or -1.
  STAGGER_HOT_PATH int32_t LastClearInRing(const Bitmap& other, int32_t base,
                                           int32_t n, int32_t start,
                                           int32_t len) const {
    STAGGER_DCHECK(other.size_ == size_);
    STAGGER_DCHECK(base >= 0 && n >= 1 && base + n <= size_);
    STAGGER_DCHECK(start >= 0 && start < n && len >= 0 && len <= n);
    const int32_t tail = n - start;
    if (len > tail) {
      const int32_t wrapped = LastClearInRange(other, base, base + len - tail);
      if (wrapped >= 0) return wrapped - base + tail;
    }
    const int32_t lo = base + start;
    const int32_t hit = LastClearInRange(other, lo, lo + std::min(len, tail));
    return hit < 0 ? -1 : hit - lo;
  }

 private:
  static constexpr uint64_t kAllOnes = ~uint64_t{0};

  /// Lowest index in the linear range [begin, end) clear in both *this
  /// and `other`, or -1.
  STAGGER_HOT_PATH int32_t FirstClearInRange(const Bitmap& other, int32_t begin,
                                             int32_t end) const {
    if (begin >= end) return -1;
    const int32_t last_word = (end - 1) >> 6;  // inclusive
    uint64_t mask = kAllOnes << (static_cast<uint32_t>(begin) & 63);
    for (int32_t w = begin >> 6;; ++w) {
      const size_t i = static_cast<size_t>(w);
      uint64_t clear = ~(words_[i] | other.words_[i]) & mask;
      if (w == last_word) {
        clear &= kAllOnes >> (63 - (static_cast<uint32_t>(end - 1) & 63));
        if (clear == 0) return -1;
      }
      if (clear != 0) return (w << 6) + std::countr_zero(clear);
      mask = kAllOnes;
    }
  }

  /// Highest index in the linear range [begin, end) clear in both *this
  /// and `other`, or -1.
  STAGGER_HOT_PATH int32_t LastClearInRange(const Bitmap& other, int32_t begin,
                                            int32_t end) const {
    if (begin >= end) return -1;
    const int32_t first_word = begin >> 6;
    uint64_t mask = kAllOnes >> (63 - (static_cast<uint32_t>(end - 1) & 63));
    for (int32_t w = (end - 1) >> 6;; --w) {
      const size_t i = static_cast<size_t>(w);
      uint64_t clear = ~(words_[i] | other.words_[i]) & mask;
      if (w == first_word) {
        clear &= kAllOnes << (static_cast<uint32_t>(begin) & 63);
        if (clear == 0) return -1;
      }
      if (clear != 0) return (w << 6) + 63 - std::countl_zero(clear);
      mask = kAllOnes;
    }
  }

  /// True when no bit in the linear range [begin, end) is set.
  STAGGER_HOT_PATH bool RangeClear(int32_t begin, int32_t end) const {
    if (begin >= end) return true;
    const int32_t first_word = begin >> 6;
    const int32_t last_word = (end - 1) >> 6;  // inclusive
    const uint64_t head_mask = ~uint64_t{0} << (static_cast<uint32_t>(begin) & 63);
    const uint64_t tail_mask =
        ~uint64_t{0} >> (63 - ((static_cast<uint32_t>(end - 1)) & 63));
    if (first_word == last_word) {
      return (words_[static_cast<size_t>(first_word)] & head_mask &
              tail_mask) == 0;
    }
    if (words_[static_cast<size_t>(first_word)] & head_mask) return false;
    for (int32_t w = first_word + 1; w < last_word; ++w) {
      if (words_[static_cast<size_t>(w)]) return false;
    }
    return (words_[static_cast<size_t>(last_word)] & tail_mask) == 0;
  }

  std::vector<uint64_t> words_;
  int32_t size_ = 0;
};

}  // namespace stagger

#endif  // STAGGER_UTIL_BITMAP_H_
