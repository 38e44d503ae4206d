#ifndef WHYNOT_COMMON_DENSE_BITMAP_H_
#define WHYNOT_COMMON_DENSE_BITMAP_H_

#include <cstdint>
#include <vector>

#include "whynot/common/value.h"

namespace whynot {

// ---- representation thresholds -------------------------------------------
//
// Every layer that chooses between sparse and dense set forms shares these
// measured constants (they used to live independently in dense_bitmap.cc
// and ext_set.cc, which is how they drift apart).

/// Minimum word count for the SIMD lanes: below 8 words (512 bits) the
/// runtime-dispatch overhead plus the scalar tail dominate — the plain word
/// loop is already a few cycles total. Measured on the PR-1 kernel
/// microbenches (bench_bitmap) on both AVX2 and NEON hosts.
inline constexpr size_t kSimdMinWords = 8;

/// Dense-mirror crossover: a dense form costs universe_words * 8 bytes, a
/// sorted-id array ~4 bytes per element with log-time probes. The PR-1
/// ExtSet measurements put the size/speed crossover near 8 universe words
/// per element — sparser than that, dense is pure waste; denser, it is both
/// smaller and faster.
inline constexpr size_t kDenseMirrorMaxWordsPerElement = 8;

/// Universes at or below this many words always take the dense form: the
/// mirror costs at most 128 bytes and probes are one shift+mask, so the
/// per-element heuristic isn't worth evaluating.
inline constexpr size_t kDenseMirrorMinWords = 16;

/// A dense bitmap over ValueIds, packed into 64-bit words. The word-parallel
/// kernel shared by onto::ExtSet and the relational column indexes: Contains
/// is one shift+mask, SubsetOf and Intersect process 64 ids per instruction.
/// Words past the stored prefix are implicitly zero, so bitmaps sized for
/// different universes compose.
class DenseBitmap {
 public:
  DenseBitmap() = default;

  /// Bitmap of `sorted_ids` (all non-negative), sized to at least
  /// `universe` bits (0 = size from the largest id).
  explicit DenseBitmap(const std::vector<ValueId>& sorted_ids,
                       int32_t universe = 0);

  /// The full prefix {0, ..., n-1}: n ones, trailing bits of the last
  /// word zero (so Count/popcount stay exact).
  static DenseBitmap AllSet(int32_t n);

  bool empty() const { return words_.empty(); }
  size_t num_words() const { return words_.size(); }
  const std::vector<uint64_t>& words() const { return words_; }

  /// True iff any bit is set (no popcount, early exit).
  bool Any() const {
    for (uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  bool Test(ValueId id) const {
    size_t w = static_cast<size_t>(id) / 64;
    if (w >= words_.size()) return false;
    return (words_[w] >> (static_cast<size_t>(id) % 64)) & 1u;
  }

  /// Sets bit `id`, growing the word vector as needed (incremental index
  /// maintenance appends distinct ids without a full rebuild).
  void Set(ValueId id) {
    size_t w = static_cast<size_t>(id) / 64;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    words_[w] |= uint64_t{1} << (static_cast<size_t>(id) % 64);
  }

  /// Word-parallel containment: every bit of *this is set in `other`.
  bool SubsetOf(const DenseBitmap& other) const;

  /// Word-parallel intersection.
  static DenseBitmap Intersect(const DenseBitmap& a, const DenseBitmap& b);

  /// Raw word-level in-place AND through the same runtime SIMD dispatch:
  /// acc[i] &= words[i] for i < n. Aliasing is fine. For callers that keep
  /// their own word buffers (the explain layer's running cover ANDs).
  static void AndWordsInPlace(uint64_t* acc, const uint64_t* words, size_t n);

  /// popcount over raw words through the runtime SIMD dispatch.
  static size_t PopcountWords(const uint64_t* words, size_t n);

  /// Fused popcount(a ∧ b) without materializing the intermediate words —
  /// the counting-containment form of the answer-cover kernel ANDs two
  /// covers and immediately popcounts, so the AND result never needs a
  /// buffer. One pass, SIMD lanes AND in-register and feed the popcount
  /// directly.
  static size_t AndCountWords(const uint64_t* a, const uint64_t* b, size_t n);

  /// Number of set bits (popcount over words).
  size_t Count() const;

  /// The set bits as a sorted id vector.
  std::vector<ValueId> ToIds() const;

  /// Heap + object bytes this bitmap occupies (the BENCH memory column
  /// aggregates these through every container layer).
  size_t MemoryBytes() const {
    return sizeof(*this) + words_.capacity() * sizeof(uint64_t);
  }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace whynot

#endif  // WHYNOT_COMMON_DENSE_BITMAP_H_
