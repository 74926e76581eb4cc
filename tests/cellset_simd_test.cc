// Differential fuzz for the vectorized CellSet word kernels
// (src/query/cellset.h): every SIMD path must produce byte-identical
// results to a plain scalar reference evaluated through the raw word
// accessors. Sizes straddle the 4-word (AVX2) and 2-word (SSE2) strides so
// both the vector body and the scalar tail are exercised, including the
// empty set, single-word sets, and exact multiples of the stride.

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/query/cellset.h"

namespace topodb {
namespace {

// --- scalar reference implementations over the raw words ------------------

int RefCount(const CellSet& s) {
  int n = 0;
  for (size_t i = 0; i < s.size_words(); ++i) n += std::popcount(s.word(i));
  return n;
}

bool RefAny(const CellSet& s) {
  for (size_t i = 0; i < s.size_words(); ++i) {
    if (s.word(i)) return true;
  }
  return false;
}

bool RefIntersects(const CellSet& a, const CellSet& b) {
  for (size_t i = 0; i < a.size_words(); ++i) {
    if (a.word(i) & b.word(i)) return true;
  }
  return false;
}

bool RefIsSubsetOf(const CellSet& a, const CellSet& b) {
  for (size_t i = 0; i < a.size_words(); ++i) {
    if (a.word(i) & ~b.word(i)) return false;
  }
  return true;
}

enum class BulkOp { kOr, kAnd, kAndNot };

CellSet RefBulk(const CellSet& a, const CellSet& b, BulkOp op) {
  CellSet out(a.size_bits());
  for (size_t i = 0; i < a.size_words(); ++i) {
    switch (op) {
      case BulkOp::kOr: out.set_word(i, a.word(i) | b.word(i)); break;
      case BulkOp::kAnd: out.set_word(i, a.word(i) & b.word(i)); break;
      case BulkOp::kAndNot: out.set_word(i, a.word(i) & ~b.word(i)); break;
    }
  }
  return out;
}

// Random set; density picks between near-empty, mixed and near-full so the
// early-exit kernels (Any/Intersects/IsSubsetOf) see both outcomes often.
CellSet RandomSet(std::mt19937_64& rng, int bits) {
  CellSet s(bits);
  const int density = static_cast<int>(rng() % 3);
  for (int i = 0; i < bits; ++i) {
    const bool set = density == 0 ? (rng() % 97 == 0)
                    : density == 1 ? (rng() & 1)
                                   : (rng() % 97 != 0);
    if (set) s.Set(i);
  }
  return s;
}

void ExpectWordsEqual(const CellSet& got, const CellSet& want) {
  ASSERT_EQ(got.size_bits(), want.size_bits());
  for (size_t i = 0; i < want.size_words(); ++i) {
    EXPECT_EQ(got.word(i), want.word(i)) << "word " << i;
  }
}

// Bit widths straddling every stride boundary: 0..2 words, exactly 4 words
// (one AVX2 step, no tail), 4 words + tail, two steps, and larger.
const int kSizes[] = {0,  1,   63,  64,  65,  127, 128, 129, 191, 192,
                      255, 256, 257, 319, 320, 500, 512, 513, 1000, 1024};

TEST(CellSetSimdTest, CountAnyMatchScalarReference) {
  std::mt19937_64 rng(41);
  for (int bits : kSizes) {
    for (int iter = 0; iter < 30; ++iter) {
      const CellSet s = RandomSet(rng, bits);
      EXPECT_EQ(s.Count(), RefCount(s)) << "bits=" << bits;
      EXPECT_EQ(s.Any(), RefAny(s)) << "bits=" << bits;
      EXPECT_EQ(s.None(), !RefAny(s)) << "bits=" << bits;
    }
    // The all-zero and all-one patterns are the kernels' edge cases.
    CellSet zero(bits);
    EXPECT_EQ(zero.Count(), 0);
    EXPECT_FALSE(zero.Any());
    CellSet full(bits);
    for (int i = 0; i < bits; ++i) full.Set(i);
    EXPECT_EQ(full.Count(), bits);
    EXPECT_EQ(full.Any(), bits > 0);
  }
}

TEST(CellSetSimdTest, IntersectsMatchesScalarReference) {
  std::mt19937_64 rng(42);
  for (int bits : kSizes) {
    for (int iter = 0; iter < 30; ++iter) {
      const CellSet a = RandomSet(rng, bits);
      const CellSet b = RandomSet(rng, bits);
      EXPECT_EQ(a.Intersects(b), RefIntersects(a, b)) << "bits=" << bits;
      EXPECT_EQ(b.Intersects(a), RefIntersects(b, a)) << "bits=" << bits;
      // Disjoint by construction: b with a's bits removed.
      CellSet c = b;
      c.AndNot(a);
      EXPECT_FALSE(c.Intersects(a)) << "bits=" << bits;
      // A single shared bit deep in the tail must be found.
      if (bits > 0) {
        const int pos = bits - 1;
        CellSet x(bits), y(bits);
        x.Set(pos);
        y.Set(pos);
        EXPECT_TRUE(x.Intersects(y));
      }
    }
  }
}

TEST(CellSetSimdTest, IsSubsetOfMatchesScalarReference) {
  std::mt19937_64 rng(43);
  for (int bits : kSizes) {
    for (int iter = 0; iter < 30; ++iter) {
      const CellSet a = RandomSet(rng, bits);
      const CellSet b = RandomSet(rng, bits);
      EXPECT_EQ(a.IsSubsetOf(b), RefIsSubsetOf(a, b)) << "bits=" << bits;
      EXPECT_TRUE(a.IsSubsetOf(a));
      // A true subset built by intersecting.
      CellSet inter = a;
      inter &= b;
      EXPECT_TRUE(inter.IsSubsetOf(a)) << "bits=" << bits;
      EXPECT_TRUE(inter.IsSubsetOf(b)) << "bits=" << bits;
      // One extra bit outside b breaks the subset relation.
      if (bits > 0) {
        CellSet c = b;
        int clear_pos = -1;
        for (int i = bits - 1; i >= 0; --i) {
          if (!c.Test(i)) {
            clear_pos = i;
            break;
          }
        }
        if (clear_pos >= 0) {
          CellSet d = inter;
          d.Set(clear_pos);
          EXPECT_FALSE(d.IsSubsetOf(b)) << "bits=" << bits;
        }
      }
    }
  }
}

TEST(CellSetSimdTest, BulkOpsMatchScalarReference) {
  std::mt19937_64 rng(44);
  for (int bits : kSizes) {
    for (int iter = 0; iter < 30; ++iter) {
      const CellSet a = RandomSet(rng, bits);
      const CellSet b = RandomSet(rng, bits);
      CellSet o = a;
      o |= b;
      ExpectWordsEqual(o, RefBulk(a, b, BulkOp::kOr));
      CellSet n = a;
      n &= b;
      ExpectWordsEqual(n, RefBulk(a, b, BulkOp::kAnd));
      CellSet d = a;
      d.AndNot(b);
      ExpectWordsEqual(d, RefBulk(a, b, BulkOp::kAndNot));
      // Algebra the evaluator relies on: (a&b) | (a\b) == a.
      CellSet recon = n;
      recon |= d;
      ExpectWordsEqual(recon, a);
      EXPECT_TRUE(recon == a);
    }
  }
}

TEST(CellSetSimdTest, RoundTripAndEnumerationStayConsistent) {
  std::mt19937_64 rng(45);
  for (int bits : kSizes) {
    const CellSet s = RandomSet(rng, bits);
    const CellSet back = CellSet::FromCharVector(s.ToCharVector());
    EXPECT_TRUE(back == s) << "bits=" << bits;
    int prev = -1, seen = 0;
    s.ForEachSetBit([&](int i) {
      EXPECT_GT(i, prev);
      EXPECT_TRUE(s.Test(i));
      prev = i;
      ++seen;
    });
    EXPECT_EQ(seen, s.Count());
  }
}

}  // namespace
}  // namespace topodb
