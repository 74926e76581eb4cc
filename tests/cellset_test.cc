// Tests for CellSet's word loops (src/query/cellset.h): every operation
// is checked against a per-bit reference built from Test and Set alone,
// on sizes that straddle word boundaries (including the empty set) and on
// near-empty, mixed and near-full sets.

#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/query/cellset.h"

namespace topodb {
namespace {

// --- per-bit reference implementations ------------------------------------

int RefCount(const CellSet& s) {
  int n = 0;
  for (int i = 0; i < s.size_bits(); ++i) n += s.Test(i);
  return n;
}

bool RefIntersects(const CellSet& a, const CellSet& b) {
  for (int i = 0; i < a.size_bits(); ++i) {
    if (a.Test(i) && b.Test(i)) return true;
  }
  return false;
}

bool RefIsSubsetOf(const CellSet& a, const CellSet& b) {
  for (int i = 0; i < a.size_bits(); ++i) {
    if (a.Test(i) && !b.Test(i)) return false;
  }
  return true;
}

enum class BulkOp { kOr, kAnd, kAndNot };

CellSet RefBulk(const CellSet& a, const CellSet& b, BulkOp op) {
  CellSet out(a.size_bits());
  for (int i = 0; i < a.size_bits(); ++i) {
    const bool x = a.Test(i), y = b.Test(i);
    const bool bit = op == BulkOp::kOr    ? x || y
                     : op == BulkOp::kAnd ? x && y
                                          : x && !y;
    if (bit) out.Set(i);
  }
  return out;
}

// Random set; density picks between near-empty, mixed and near-full so the
// early-exit operations (Any/Intersects/IsSubsetOf) see both outcomes often.
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

void ExpectBitsEqual(const CellSet& got, const CellSet& want) {
  ASSERT_EQ(got.size_bits(), want.size_bits());
  for (int i = 0; i < want.size_bits(); ++i) {
    EXPECT_EQ(got.Test(i), want.Test(i)) << "bit " << i;
  }
  EXPECT_TRUE(got == want);
}

// Bit widths on both sides of word boundaries, from the empty set to 16
// words.
const int kSizes[] = {0,  1,   63,  64,  65,  127, 128, 129, 191, 192,
                      255, 256, 257, 319, 320, 500, 512, 513, 1000, 1024};

TEST(CellSetTest, CountAnyMatchPerBitReference) {
  std::mt19937_64 rng(41);
  for (int bits : kSizes) {
    for (int iter = 0; iter < 30; ++iter) {
      const CellSet s = RandomSet(rng, bits);
      EXPECT_EQ(s.Count(), RefCount(s)) << "bits=" << bits;
      EXPECT_EQ(s.Any(), RefCount(s) > 0) << "bits=" << bits;
      EXPECT_EQ(s.None(), RefCount(s) == 0) << "bits=" << bits;
    }
    CellSet zero(bits);
    EXPECT_EQ(zero.Count(), 0);
    EXPECT_FALSE(zero.Any());
    CellSet full(bits);
    for (int i = 0; i < bits; ++i) full.Set(i);
    EXPECT_EQ(full.Count(), bits);
    EXPECT_EQ(full.Any(), bits > 0);
  }
}

TEST(CellSetTest, IntersectsMatchesPerBitReference) {
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
      // A single shared bit in the last word must be found.
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

TEST(CellSetTest, IsSubsetOfMatchesPerBitReference) {
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
      for (int i = bits - 1; i >= 0; --i) {
        if (!b.Test(i)) {
          CellSet d = inter;
          d.Set(i);
          EXPECT_FALSE(d.IsSubsetOf(b)) << "bits=" << bits;
          break;
        }
      }
    }
  }
}

TEST(CellSetTest, BulkOpsMatchPerBitReference) {
  std::mt19937_64 rng(44);
  for (int bits : kSizes) {
    for (int iter = 0; iter < 30; ++iter) {
      const CellSet a = RandomSet(rng, bits);
      const CellSet b = RandomSet(rng, bits);
      CellSet o = a;
      o |= b;
      ExpectBitsEqual(o, RefBulk(a, b, BulkOp::kOr));
      CellSet n = a;
      n &= b;
      ExpectBitsEqual(n, RefBulk(a, b, BulkOp::kAnd));
      CellSet d = a;
      d.AndNot(b);
      ExpectBitsEqual(d, RefBulk(a, b, BulkOp::kAndNot));
      // Algebra the evaluator relies on: (a&b) | (a\b) == a.
      CellSet recon = n;
      recon |= d;
      ExpectBitsEqual(recon, a);
    }
  }
}

TEST(CellSetTest, RoundTripAndEnumerationStayConsistent) {
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
