#ifndef TOPODB_QUERY_CELLSET_H_
#define TOPODB_QUERY_CELLSET_H_

#include <bit>
#include <cstdint>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace topodb {

// A set of cells of one arrangement, packed 64 cells per word. This is the
// value type of the Section-7 evaluator (eval.cc): every atom of the
// region language reduces to word-parallel AND/OR/subset/emptiness tests
// over these, so evaluation cost per atom is O(cells / 64) instead of the
// byte-per-cell loops of the reference evaluator (tests/reference_eval.h).
//
// The word kernels (Intersects, IsSubsetOf, Count, bulk AND/OR/ANDNOT)
// additionally carry an AVX2 path processing four words per step with a
// scalar tail — the same pattern as the box-overlap broad phase
// (src/arrangement/broadphase.cc). The SIMD paths compute bit-identical
// verdicts to the scalar loops (pure bitwise algebra, no reassociation of
// anything order-sensitive), which the differential property suite asserts.
//
// All binary operations require both operands to have the same size_bits()
// (they always describe the same arrangement); trailing bits of the last
// word are kept zero so count/equality never see garbage.
class CellSet {
 public:
  CellSet() = default;
  explicit CellSet(int bits)
      : bits_(bits), words_((static_cast<size_t>(bits) + 63) / 64, 0) {}

  int size_bits() const { return bits_; }
  size_t size_words() const { return words_.size(); }
  // Raw word access (word i covers cells [64*i, 64*i+64)).
  uint64_t word(size_t i) const { return words_[i]; }
  // Raw word write; the caller must keep trailing bits beyond size_bits()
  // zero (count/equality assume it).
  void set_word(size_t i, uint64_t value) { words_[i] = value; }

  void Assign(int bits) {
    bits_ = bits;
    words_.assign((static_cast<size_t>(bits) + 63) / 64, 0);
  }
  void Clear() {
    for (uint64_t& w : words_) w = 0;
  }

  void Set(int i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Reset(int i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  bool Test(int i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }

  bool Any() const {
    const size_t n = words_.size();
    size_t i = 0;
#if defined(__AVX2__)
    for (; i + 4 <= n; i += 4) {
      const __m256i v = LoadWords(i);
      if (!_mm256_testz_si256(v, v)) return true;
    }
#endif
    for (; i < n; ++i) {
      if (words_[i]) return true;
    }
    return false;
  }
  bool None() const { return !Any(); }

  int Count() const {
    const size_t n = words_.size();
    size_t i = 0;
    int count = 0;
#if defined(__AVX2__)
    // Nibble-table popcount (Mula): per-byte counts via two PSHUFB lookups,
    // horizontally summed into 64-bit lanes by PSADBW each iteration, so no
    // byte counter can saturate.
    if (n >= 4) {
      const __m256i lookup = _mm256_setr_epi8(
          0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
          0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
      const __m256i low_mask = _mm256_set1_epi8(0x0f);
      const __m256i zero = _mm256_setzero_si256();
      __m256i acc = zero;
      for (; i + 4 <= n; i += 4) {
        const __m256i v = LoadWords(i);
        const __m256i lo = _mm256_and_si256(v, low_mask);
        const __m256i hi =
            _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
        const __m256i per_byte =
            _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                            _mm256_shuffle_epi8(lookup, hi));
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(per_byte, zero));
      }
      alignas(32) uint64_t lanes[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
      count = static_cast<int>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
    }
#endif
    for (; i < n; ++i) count += std::popcount(words_[i]);
    return count;
  }

  // Nonempty intersection, without materializing it.
  bool Intersects(const CellSet& other) const {
    const size_t n = words_.size();
    size_t i = 0;
#if defined(__AVX2__)
    for (; i + 4 <= n; i += 4) {
      if (!_mm256_testz_si256(LoadWords(i), other.LoadWords(i))) return true;
    }
#endif
    for (; i < n; ++i) {
      if (words_[i] & other.words_[i]) return true;
    }
    return false;
  }

  bool IsSubsetOf(const CellSet& other) const {
    const size_t n = words_.size();
    size_t i = 0;
#if defined(__AVX2__)
    for (; i + 4 <= n; i += 4) {
      // VPTEST sets CF iff (~other & this) == 0, i.e. these words of this
      // are covered by other.
      if (!_mm256_testc_si256(other.LoadWords(i), LoadWords(i))) return false;
    }
#endif
    for (; i < n; ++i) {
      if (words_[i] & ~other.words_[i]) return false;
    }
    return true;
  }

  CellSet& operator|=(const CellSet& other) {
    const size_t n = words_.size();
    size_t i = 0;
#if defined(__AVX2__)
    for (; i + 4 <= n; i += 4) {
      StoreWords(i, _mm256_or_si256(LoadWords(i), other.LoadWords(i)));
    }
#elif defined(__SSE2__)
    for (; i + 2 <= n; i += 2) {
      StoreWords(i, _mm_or_si128(LoadWords(i), other.LoadWords(i)));
    }
#endif
    for (; i < n; ++i) words_[i] |= other.words_[i];
    return *this;
  }
  CellSet& operator&=(const CellSet& other) {
    const size_t n = words_.size();
    size_t i = 0;
#if defined(__AVX2__)
    for (; i + 4 <= n; i += 4) {
      StoreWords(i, _mm256_and_si256(LoadWords(i), other.LoadWords(i)));
    }
#elif defined(__SSE2__)
    for (; i + 2 <= n; i += 2) {
      StoreWords(i, _mm_and_si128(LoadWords(i), other.LoadWords(i)));
    }
#endif
    for (; i < n; ++i) words_[i] &= other.words_[i];
    return *this;
  }
  // this := this \ other.
  CellSet& AndNot(const CellSet& other) {
    const size_t n = words_.size();
    size_t i = 0;
#if defined(__AVX2__)
    for (; i + 4 <= n; i += 4) {
      // andnot computes (~first) & second.
      StoreWords(i, _mm256_andnot_si256(other.LoadWords(i), LoadWords(i)));
    }
#elif defined(__SSE2__)
    for (; i + 2 <= n; i += 2) {
      StoreWords(i, _mm_andnot_si128(other.LoadWords(i), LoadWords(i)));
    }
#endif
    for (; i < n; ++i) words_[i] &= ~other.words_[i];
    return *this;
  }

  friend bool operator==(const CellSet& a, const CellSet& b) {
    return a.bits_ == b.bits_ && a.words_ == b.words_;
  }

  // Calls fn(i) for every set bit in ascending order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w) {
        const int b = std::countr_zero(w);
        fn(static_cast<int>(wi * 64) + b);
        w &= w - 1;
      }
    }
  }

  // Conversions to/from the byte-per-cell encoding of the reference
  // evaluator (tests/reference_eval.h).
  std::vector<char> ToCharVector() const {
    std::vector<char> out(bits_, 0);
    ForEachSetBit([&](int i) { out[i] = 1; });
    return out;
  }
  static CellSet FromCharVector(const std::vector<char>& v) {
    CellSet s(static_cast<int>(v.size()));
    for (size_t i = 0; i < v.size(); ++i) {
      if (v[i]) s.Set(static_cast<int>(i));
    }
    return s;
  }

 private:
#if defined(__AVX2__)
  __m256i LoadWords(size_t i) const {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&words_[i]));
  }
  void StoreWords(size_t i, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&words_[i]), v);
  }
#elif defined(__SSE2__)
  __m128i LoadWords(size_t i) const {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(&words_[i]));
  }
  void StoreWords(size_t i, __m128i v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&words_[i]), v);
  }
#endif

  int bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace topodb

#endif  // TOPODB_QUERY_CELLSET_H_
