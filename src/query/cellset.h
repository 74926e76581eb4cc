#ifndef TOPODB_QUERY_CELLSET_H_
#define TOPODB_QUERY_CELLSET_H_

#include <bit>
#include <cstdint>
#include <vector>

namespace topodb {

// A set of cells of one arrangement, packed 64 cells per word. This is the
// value type of the Section-7 evaluator (eval.cc): every atom of the
// region language reduces to word-parallel AND/OR/subset/emptiness tests
// over these, so evaluation cost per atom is O(cells / 64) instead of the
// byte-per-cell loops of the reference evaluator (tests/reference_eval.h).
//
// Each operation is one plain loop over the words; at -O3 the compiler
// vectorizes the bulk ones (|=, &=, AndNot) by itself.
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

  void Assign(int bits) {
    bits_ = bits;
    words_.assign((static_cast<size_t>(bits) + 63) / 64, 0);
  }

  void Set(int i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Reset(int i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  bool Test(int i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }

  bool Any() const {
    for (uint64_t w : words_) {
      if (w) return true;
    }
    return false;
  }
  bool None() const { return !Any(); }

  int Count() const {
    int count = 0;
    for (uint64_t w : words_) count += std::popcount(w);
    return count;
  }

  // Nonempty intersection, without materializing it.
  bool Intersects(const CellSet& other) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] & other.words_[i]) return true;
    }
    return false;
  }

  bool IsSubsetOf(const CellSet& other) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] & ~other.words_[i]) return false;
    }
    return true;
  }

  CellSet& operator|=(const CellSet& other) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
  }
  CellSet& operator&=(const CellSet& other) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
  }
  // this := this \ other.
  CellSet& AndNot(const CellSet& other) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
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
  int bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace topodb

#endif  // TOPODB_QUERY_CELLSET_H_
