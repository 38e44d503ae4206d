#include "whynot/common/dense_bitmap.h"

#include <algorithm>
#include <cassert>

// SIMD word kernels behind a runtime-dispatch shim. On x86-64 the AVX2
// functions carry the target attribute themselves, so the file builds
// without -mavx2 and dispatch tests the CPU at runtime. On aarch64 NEON is
// part of the baseline ISA, so the lane needs no runtime test — the shim
// just routes sizes past the threshold to it. The scalar loops remain the
// portable fallback everywhere else.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WHYNOT_BITMAP_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define WHYNOT_BITMAP_NEON 1
#include <arm_neon.h>
#endif

namespace whynot {

namespace {

size_t WordsFor(int32_t universe) {
  return (static_cast<size_t>(universe) + 63) / 64;
}

// ---- scalar kernels (portable fallback) -----------------------------------

bool SubsetOfScalar(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i] & ~b[i]) return false;
  }
  return true;
}

void AndScalar(const uint64_t* a, const uint64_t* b, uint64_t* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] & b[i];
}

size_t CountScalar(const uint64_t* w, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(__builtin_popcountll(w[i]));
  }
  return count;
}

size_t AndCountScalar(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return count;
}

// kSimdMinWords (the dispatch threshold) now lives in dense_bitmap.h next
// to the other representation constants.

#ifdef WHYNOT_BITMAP_AVX2

bool HasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

__attribute__((target("avx2"))) bool SubsetOfAvx2(const uint64_t* a,
                                                  const uint64_t* b,
                                                  size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i excess = _mm256_andnot_si256(vb, va);  // va & ~vb
    if (!_mm256_testz_si256(excess, excess)) return false;
  }
  return SubsetOfScalar(a + i, b + i, n - i);
}

__attribute__((target("avx2"))) void AndAvx2(const uint64_t* a,
                                             const uint64_t* b, uint64_t* out,
                                             size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_and_si256(va, vb));
  }
  AndScalar(a + i, b + i, out + i, n - i);
}

// Mula's nibble-LUT popcount: per-byte counts via pshufb, horizontally
// summed into 64-bit lanes with sad_epu8.
__attribute__((target("avx2"))) size_t CountAvx2(const uint64_t* w, size_t n) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    __m256i lo = _mm256_and_si256(v, low_mask);
    __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
    __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                  _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, _mm256_setzero_si256()));
  }
  uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] + CountScalar(w + i, n - i);
}

// Fused AND + Mula popcount: the AND happens in-register and feeds the
// nibble LUT directly — no intermediate word buffer.
__attribute__((target("avx2"))) size_t AndCountAvx2(const uint64_t* a,
                                                    const uint64_t* b,
                                                    size_t n) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i v = _mm256_and_si256(va, vb);
    __m256i lo = _mm256_and_si256(v, low_mask);
    __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
    __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                  _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, _mm256_setzero_si256()));
  }
  uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] +
         AndCountScalar(a + i, b + i, n - i);
}

#endif  // WHYNOT_BITMAP_AVX2

#ifdef WHYNOT_BITMAP_NEON

// 128-bit NEON lanes, two q-registers (4 words) per iteration for ILP.

bool SubsetOfNeon(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    uint64x2_t a0 = vld1q_u64(a + i);
    uint64x2_t a1 = vld1q_u64(a + i + 2);
    uint64x2_t b0 = vld1q_u64(b + i);
    uint64x2_t b1 = vld1q_u64(b + i + 2);
    // excess = a & ~b, nonzero iff some bit of a is missing from b.
    uint64x2_t excess = vorrq_u64(vbicq_u64(a0, b0), vbicq_u64(a1, b1));
    if (vgetq_lane_u64(excess, 0) | vgetq_lane_u64(excess, 1)) return false;
  }
  return SubsetOfScalar(a + i, b + i, n - i);
}

void AndNeon(const uint64_t* a, const uint64_t* b, uint64_t* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_u64(out + i, vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
    vst1q_u64(out + i + 2,
              vandq_u64(vld1q_u64(a + i + 2), vld1q_u64(b + i + 2)));
  }
  AndScalar(a + i, b + i, out + i, n - i);
}

// vcnt counts per byte; the widening pairwise adds fold bytes up to one
// 64-bit count per lane, accumulated across iterations.
size_t CountNeon(const uint64_t* w, size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint8x16_t bytes = vreinterpretq_u8_u64(vld1q_u64(w + i));
    uint8x16_t cnt = vcntq_u8(bytes);
    acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(cnt))));
  }
  size_t count = static_cast<size_t>(vgetq_lane_u64(acc, 0)) +
                 static_cast<size_t>(vgetq_lane_u64(acc, 1));
  return count + CountScalar(w + i, n - i);
}

// Fused AND + vcnt popcount, same widening pairwise fold as CountNeon.
size_t AndCountNeon(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64x2_t v = vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
    uint8x16_t cnt = vcntq_u8(vreinterpretq_u8_u64(v));
    acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(cnt))));
  }
  size_t count = static_cast<size_t>(vgetq_lane_u64(acc, 0)) +
                 static_cast<size_t>(vgetq_lane_u64(acc, 1));
  return count + AndCountScalar(a + i, b + i, n - i);
}

#endif  // WHYNOT_BITMAP_NEON

// ---- dispatch shim --------------------------------------------------------

bool SubsetOfWordsDispatch(const uint64_t* a, const uint64_t* b, size_t n) {
#ifdef WHYNOT_BITMAP_AVX2
  if (n >= kSimdMinWords && HasAvx2()) return SubsetOfAvx2(a, b, n);
#elif defined(WHYNOT_BITMAP_NEON)
  if (n >= kSimdMinWords) return SubsetOfNeon(a, b, n);
#endif
  return SubsetOfScalar(a, b, n);
}

void AndWordsDispatch(const uint64_t* a, const uint64_t* b, uint64_t* out,
                      size_t n) {
#ifdef WHYNOT_BITMAP_AVX2
  if (n >= kSimdMinWords && HasAvx2()) {
    AndAvx2(a, b, out, n);
    return;
  }
#elif defined(WHYNOT_BITMAP_NEON)
  if (n >= kSimdMinWords) {
    AndNeon(a, b, out, n);
    return;
  }
#endif
  AndScalar(a, b, out, n);
}

size_t CountWords(const uint64_t* w, size_t n) {
#ifdef WHYNOT_BITMAP_AVX2
  if (n >= kSimdMinWords && HasAvx2()) return CountAvx2(w, n);
#elif defined(WHYNOT_BITMAP_NEON)
  if (n >= kSimdMinWords) return CountNeon(w, n);
#endif
  return CountScalar(w, n);
}

size_t AndCountWordsDispatch(const uint64_t* a, const uint64_t* b, size_t n) {
#ifdef WHYNOT_BITMAP_AVX2
  if (n >= kSimdMinWords && HasAvx2()) return AndCountAvx2(a, b, n);
#elif defined(WHYNOT_BITMAP_NEON)
  if (n >= kSimdMinWords) return AndCountNeon(a, b, n);
#endif
  return AndCountScalar(a, b, n);
}

}  // namespace

DenseBitmap::DenseBitmap(const std::vector<ValueId>& sorted_ids,
                         int32_t universe) {
  int32_t max_id = sorted_ids.empty() ? -1 : sorted_ids.back();
  if (universe <= max_id) universe = max_id + 1;
  words_.assign(WordsFor(universe), 0);
  for (ValueId id : sorted_ids) {
    assert(id >= 0);
    words_[static_cast<size_t>(id) / 64] |= uint64_t{1}
                                            << (static_cast<size_t>(id) % 64);
  }
}

DenseBitmap DenseBitmap::AllSet(int32_t n) {
  DenseBitmap out;
  if (n <= 0) return out;
  size_t full = static_cast<size_t>(n) / 64;
  size_t rest = static_cast<size_t>(n) % 64;
  out.words_.assign(WordsFor(n), ~uint64_t{0});
  if (rest != 0) out.words_[full] = (uint64_t{1} << rest) - 1;
  return out;
}

bool DenseBitmap::SubsetOf(const DenseBitmap& other) const {
  size_t common = std::min(words_.size(), other.words_.size());
  if (!SubsetOfWordsDispatch(words_.data(), other.words_.data(), common)) {
    return false;
  }
  for (size_t w = common; w < words_.size(); ++w) {
    if (words_[w]) return false;
  }
  return true;
}

void DenseBitmap::AndWordsInPlace(uint64_t* acc, const uint64_t* words,
                                  size_t n) {
  AndWordsDispatch(acc, words, acc, n);
}

size_t DenseBitmap::PopcountWords(const uint64_t* words, size_t n) {
  return CountWords(words, n);
}

size_t DenseBitmap::AndCountWords(const uint64_t* a, const uint64_t* b,
                                  size_t n) {
  return AndCountWordsDispatch(a, b, n);
}

DenseBitmap DenseBitmap::Intersect(const DenseBitmap& a, const DenseBitmap& b) {
  DenseBitmap out;
  size_t common = std::min(a.words_.size(), b.words_.size());
  out.words_.resize(common);
  AndWordsDispatch(a.words_.data(), b.words_.data(), out.words_.data(), common);
  return out;
}

size_t DenseBitmap::Count() const {
  return CountWords(words_.data(), words_.size());
}

std::vector<ValueId> DenseBitmap::ToIds() const {
  std::vector<ValueId> ids;
  ids.reserve(Count());
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t word = words_[w];
    while (word != 0) {
      int bit = __builtin_ctzll(word);
      ids.push_back(static_cast<ValueId>(w * 64 + static_cast<size_t>(bit)));
      word &= word - 1;
    }
  }
  return ids;
}

}  // namespace whynot
