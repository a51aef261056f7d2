// Fixed-size bitmap over 64-bit words, built for the scheduler's
// occupancy sets: testing whether an M-wide window of virtual disks
// (modulo D) is entirely free must cost O(M/64), not O(M), and single
// bit flips must cost O(1).  Wrap-around windows split into at most two
// linear ranges; each linear range is checked with word-level masks.
// The same masks drive the first/last-free scans of the virtual-disk
// searches, over a cyclic sub-block ("ring") of the bitmap.  A rotated
// OR (OrRotated) maps the scheduler's virtual-disk sets onto physical
// disks a word at a time.  Callers that fold several bitmaps into one
// scan (the disk array's idle-and-available queries) read the backing
// words directly.

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

  /// Backing words: word w holds bits [64w, 64w + 64); bits at or past
  /// size() read 0.  For callers combining several bitmaps word-wise.
  int32_t num_words() const { return static_cast<int32_t>(words_.size()); }
  STAGGER_HOT_PATH uint64_t word(int32_t w) const {
    STAGGER_DCHECK(w >= 0 && w < num_words());
    return words_[static_cast<size_t>(w)];
  }

  /// ORs `bits` into word w; bits at or past size() must be clear.
  STAGGER_HOT_PATH void OrWord(int32_t w, uint64_t bits) {
    STAGGER_DCHECK(w >= 0 && w < num_words());
    STAGGER_DCHECK(w < num_words() - 1 || (size_ & 63) == 0 ||
                   (bits >> (size_ & 63)) == 0);
    words_[static_cast<size_t>(w)] |= bits;
  }

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

  /// ORs `src` rotated by `shift` into the first n = src.size() bits:
  /// bit (i + shift) mod n is set for every set bit i of `src`.
  /// Requires n <= size() and shift in [0, n).  One pass over the
  /// O(n/64) destination words: the rotation splits into two linear
  /// runs, each a funnel shift of source word pairs.
  STAGGER_HOT_PATH void OrRotated(const Bitmap& src, int32_t shift) {
    const int32_t n = src.size_;
    STAGGER_DCHECK(n <= size_ && shift >= 0 && (shift < n || n == 0));
    OrShifted(src, 0, shift, n - shift);
    OrShifted(src, n - shift, 0, shift);
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

  /// Lowest set bit at or after `from`, or -1.  from in [0, size].
  /// O((size - from)/64) words.
  STAGGER_HOT_PATH int32_t NextSet(int32_t from) const {
    STAGGER_DCHECK(from >= 0 && from <= size_);
    if (from >= size_) return -1;
    size_t w = static_cast<size_t>(from >> 6);
    uint64_t bits = words_[w] & (kAllOnes << (static_cast<uint32_t>(from) & 63));
    while (bits == 0) {
      if (++w == words_.size()) return -1;
      bits = words_[w];
    }
    return static_cast<int32_t>((w << 6) +
                                static_cast<size_t>(std::countr_zero(bits)));
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

  /// The 64 bits [pos, pos + 64), pos > -64; bits outside the backing
  /// words read 0.
  STAGGER_HOT_PATH uint64_t BitsFrom(int32_t pos) const {
    const int32_t w = pos >> 6;  // floor division, also for pos < 0
    const uint32_t shift = static_cast<uint32_t>(pos) & 63;
    const uint64_t lo = w >= 0 && w < num_words() ? word(w) : 0;
    if (shift == 0) return lo;
    const uint64_t hi = w + 1 < num_words() ? word(w + 1) : 0;
    return (lo >> shift) | (hi << (64 - shift));
  }

  /// ORs bits [from, from + len) of `src` into bits [to, to + len).
  STAGGER_HOT_PATH void OrShifted(const Bitmap& src, int32_t from, int32_t to,
                                  int32_t len) {
    if (len <= 0) return;
    const int32_t first_word = to >> 6;
    const int32_t last_word = (to + len - 1) >> 6;  // inclusive
    const uint64_t head_mask = kAllOnes << (static_cast<uint32_t>(to) & 63);
    const uint64_t tail_mask =
        kAllOnes >> (63 - (static_cast<uint32_t>(to + len - 1) & 63));
    // Destination bit p takes source bit p + (from - to), so word w
    // takes the 64 source bits from 64w + (from - to).  For every word
    // but the first and last those bits lie inside [from, from + len),
    // so only the two edge words need the bounds-checked read.
    const int32_t delta = from - to;
    if (first_word == last_word) {
      words_[static_cast<size_t>(first_word)] |=
          src.BitsFrom((first_word << 6) + delta) & head_mask & tail_mask;
      return;
    }
    words_[static_cast<size_t>(first_word)] |=
        src.BitsFrom((first_word << 6) + delta) & head_mask;
    const int32_t word_delta = delta >> 6;  // floor division
    const uint32_t shift = static_cast<uint32_t>(delta) & 63;
    for (int32_t w = first_word + 1; w < last_word; ++w) {
      const size_t i = static_cast<size_t>(w + word_delta);
      words_[static_cast<size_t>(w)] |=
          shift == 0 ? src.words_[i]
                     : (src.words_[i] >> shift) |
                           (src.words_[i + 1] << (64 - shift));
    }
    words_[static_cast<size_t>(last_word)] |=
        src.BitsFrom((last_word << 6) + delta) & tail_mask;
  }

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
