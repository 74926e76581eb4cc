// Differential fuzz for BigInt's 64/128-bit small-value fast paths, its
// general limb algorithms and the in-place compound assignments. Every
// operation whose operands the fast paths take (at most 2 limbs; for
// division, a dividend of at most 4) is checked against __int128 /
// unsigned __int128 arithmetic written here. Divisions beyond that —
// Knuth's Algorithm D and the single-limb divisor path — are checked
// against a base-10 long division built from BigInt's public +, -, * and
// Compare alone, and larger gcds against Euclid's remainder chain.
// Results are compared as decimal strings (ToString renders the canonical
// sign/magnitude form). Inputs concentrate on the limb-transition
// boundaries — 2^32, 2^64, 2^96, 2^128 plus/minus a few — where a fast
// path that mis-detects overflow would first diverge.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/bigint.h"
#include "src/base/rational.h"

namespace topodb {
namespace {

using i128 = __int128;
using u128 = unsigned __int128;

// All values straddling the representation boundaries the fast paths
// branch on, both signs.
std::vector<BigInt> BoundaryValues() {
  std::vector<BigInt> out;
  out.push_back(BigInt(0));
  for (int k : {1, 5, 31, 32, 33, 52, 53, 63, 64, 65, 95, 96, 97, 127, 128,
                129, 160, 200}) {
    const BigInt p = BigInt(1).ShiftLeft(k);
    for (int64_t d : {-2, -1, 0, 1, 2}) {
      const BigInt v = p + BigInt(d);
      out.push_back(v);
      out.push_back(BigInt(0) - v);
    }
  }
  return out;
}

BigInt RandomValue(std::mt19937_64& rng) {
  // 1..5 limbs: spans strictly-inside-fast-path through just-beyond.
  const int limbs = 1 + static_cast<int>(rng() % 5);
  BigInt v(0);
  for (int i = 0; i < limbs; ++i) {
    v = v.ShiftLeft(32) + BigInt(static_cast<int64_t>(rng() & 0xffffffffu));
  }
  return (rng() & 1) ? BigInt(0) - v : v;
}

// Decimal rendering of sign * magnitude, in BigInt::ToString's format.
std::string Decimal(int sign, u128 magnitude) {
  if (magnitude == 0) return "0";
  std::string digits;
  for (; magnitude != 0; magnitude /= 10) {
    digits.push_back(static_cast<char>('0' + static_cast<int>(magnitude % 10)));
  }
  if (sign < 0) digits.push_back('-');
  return std::string(digits.rbegin(), digits.rend());
}

std::string Decimal(i128 value) {
  return value < 0 ? Decimal(-1, u128(0) - u128(value)) : Decimal(1, value);
}

// |v| for a value of at most 128 bits, read off its decimal rendering.
u128 Magnitude(const BigInt& v) {
  u128 magnitude = 0;
  for (char c : v.Abs().ToString()) magnitude = magnitude * 10 + (c - '0');
  return magnitude;
}

// Signed value of at most 127 bits.
i128 Value(const BigInt& v) {
  const i128 magnitude = static_cast<i128>(Magnitude(v));
  return v.is_negative() ? -magnitude : magnitude;
}

u128 EuclidGcd(u128 x, u128 y) {
  while (y != 0) {
    const u128 t = x % y;
    x = y;
    y = t;
  }
  return x;
}

// Euclid's remainder chain over BigInt's own %, a different algorithm
// from the binary gcd BigInt::Gcd runs on multi-limb operands.
BigInt EuclidGcd(BigInt x, BigInt y) {
  x = x.Abs();
  y = y.Abs();
  while (!y.is_zero()) {
    BigInt t = x % y;
    x = y;
    y = t;
  }
  return x;
}

// Truncating division by base-10 long division over |a|'s digits, using
// only BigInt's public +, -, * and Compare: the quotient takes a's sign
// times b's, the remainder a's sign.
void LongDivision(const BigInt& a, const BigInt& b, BigInt* quotient,
                  BigInt* remainder) {
  const BigInt divisor = b.Abs();
  BigInt q(0), r(0);
  for (char c : a.Abs().ToString()) {
    r = r * BigInt(10) + BigInt(c - '0');
    int digit = 0;
    for (; r.Compare(divisor) >= 0; ++digit) r = r - divisor;
    q = q * BigInt(10) + BigInt(digit);
  }
  *quotient = a.sign() * b.sign() < 0 ? BigInt(0) - q : q;
  *remainder = a.is_negative() ? BigInt(0) - r : r;
}

// 2^k for k in [0, 140), by repeated doubling.
const std::vector<BigInt>& PowersOfTwo() {
  static const std::vector<BigInt> powers = [] {
    std::vector<BigInt> out = {BigInt(1)};
    while (out.size() < 140) out.push_back(out.back() + out.back());
    return out;
  }();
  return powers;
}

// Every binary operation on (a, b), and a << shift_bits, against the
// oracles above.
void ExpectMatchesReference(const BigInt& a, const BigInt& b, int shift_bits) {
  const bool small_a = a.BitLength() <= 64;   // At most 2 limbs.
  const bool small_b = b.BitLength() <= 64;
  const std::string sum = (a + b).ToString();
  const std::string diff = (a - b).ToString();
  const std::string prod = (a * b).ToString();
  if (small_a && small_b) {
    const i128 x = Value(a), y = Value(b);
    EXPECT_EQ(sum, Decimal(x + y)) << a << " + " << b;
    EXPECT_EQ(diff, Decimal(x - y)) << a << " - " << b;
    EXPECT_EQ(prod, Decimal(a.sign() * b.sign(), Magnitude(a) * Magnitude(b)))
        << a << " * " << b;
    EXPECT_EQ(a.Compare(b), (x > y) - (x < y)) << a << " <=> " << b;
  } else {
    EXPECT_EQ(((a + b) - b).ToString(), a.ToString()) << a << " + " << b;
    EXPECT_EQ(((a - b) + b).ToString(), a.ToString()) << a << " - " << b;
    EXPECT_EQ(a.Compare(b), (a - b).sign()) << a << " <=> " << b;
  }
  if (!b.is_zero()) {
    BigInt q, m;
    BigInt::DivMod(a, b, &q, &m);
    // Division identity and C remainder semantics, whichever path ran.
    EXPECT_EQ((q * b + m).ToString(), a.ToString());
    EXPECT_LT(m.Abs().Compare(b.Abs()), 0);
    if (!m.is_zero()) {
      EXPECT_EQ(m.sign(), a.sign());
    }
    if (small_b && a.BitLength() <= 128) {
      const u128 am = Magnitude(a), bm = Magnitude(b);
      EXPECT_EQ(q.ToString(), Decimal(a.sign() * b.sign(), am / bm))
          << a << " / " << b;
      EXPECT_EQ(m.ToString(), Decimal(a.sign(), am % bm)) << a << " % " << b;
    } else {
      BigInt qr, mr;
      LongDivision(a, b, &qr, &mr);
      EXPECT_EQ(q.ToString(), qr.ToString()) << a << " / " << b;
      EXPECT_EQ(m.ToString(), mr.ToString()) << a << " % " << b;
    }
    if (!small_a || !small_b) {
      BigInt pq, pm;
      BigInt::DivMod(a * b, b, &pq, &pm);
      EXPECT_EQ(pq.ToString(), a.ToString()) << a << " * " << b << " / " << b;
      EXPECT_TRUE(pm.is_zero()) << a << " * " << b << " % " << b;
    }
  }
  const std::string gcd = BigInt::Gcd(a, b).ToString();
  if (small_a && small_b) {
    EXPECT_EQ(gcd, Decimal(1, EuclidGcd(Magnitude(a), Magnitude(b))))
        << "gcd(" << a << ", " << b << ")";
  } else {
    EXPECT_EQ(gcd, EuclidGcd(a, b).ToString())
        << "gcd(" << a << ", " << b << ")";
  }
  const std::string shifted = a.ShiftLeft(shift_bits).ToString();
  if (small_a && a.BitLength() + shift_bits <= 127) {
    EXPECT_EQ(shifted, Decimal(a.sign(), Magnitude(a) << shift_bits))
        << a << " << " << shift_bits;
  } else {
    EXPECT_EQ(shifted, (a * PowersOfTwo()[shift_bits]).ToString())
        << a << " << " << shift_bits;
  }
}

TEST(BigIntFastPathTest, BoundaryPairsMatchGeneralPath) {
  std::mt19937_64 rng(31);
  const std::vector<BigInt> values = BoundaryValues();
  for (const BigInt& a : values) {
    for (const BigInt& b : values) {
      ExpectMatchesReference(a, b, static_cast<int>(rng() % 140));
    }
  }
}

TEST(BigIntFastPathTest, RandomPairsMatchGeneralPath) {
  std::mt19937_64 rng(32);
  for (int iter = 0; iter < 3000; ++iter) {
    const BigInt a = RandomValue(rng);
    const BigInt b = RandomValue(rng);
    ExpectMatchesReference(a, b, static_cast<int>(rng() % 140));
  }
}

TEST(BigIntFastPathTest, PromotionAcrossLimbBoundaries) {
  // Repeated += 1 walks a value across 2^32 and 2^64; repeated doubling
  // walks the inline buffer to its spill point and beyond. Every step is
  // checked against the same walk in 128-bit arithmetic while it fits.
  BigInt v = BigInt(1).ShiftLeft(32) - BigInt(3);
  i128 expect_v = (i128{1} << 32) - 3;
  for (int i = 0; i < 8; ++i) {
    v += BigInt(1);
    ++expect_v;
    EXPECT_EQ(v.ToString(), Decimal(expect_v));
  }
  BigInt w = BigInt(1).ShiftLeft(64) - BigInt(3);
  i128 expect_w = (i128{1} << 64) - 3;
  for (int i = 0; i < 8; ++i) {
    w += BigInt(1);
    ++expect_w;
    EXPECT_EQ(w.ToString(), Decimal(expect_w));
  }
  EXPECT_EQ(w.ToString(), Decimal((i128{1} << 64) + 5));
  BigInt d(3);
  i128 expect_d = 3;
  for (int i = 0; i < 300; ++i) {  // Far past inline capacity.
    d *= BigInt(2);
    if (i < 120) {
      expect_d *= 2;
      EXPECT_EQ(d.ToString(), Decimal(expect_d)) << i;
    }
  }
  EXPECT_EQ(d.ToString(), (BigInt(3).ShiftLeft(300)).ToString());
}

TEST(BigIntInPlaceTest, CompoundAssignmentsMatchBinaryOperators) {
  std::mt19937_64 rng(33);
  const std::vector<BigInt> boundary = BoundaryValues();
  for (int iter = 0; iter < 2000; ++iter) {
    const BigInt a = (iter % 3 == 0) ? boundary[rng() % boundary.size()]
                                     : RandomValue(rng);
    const BigInt b = (iter % 5 == 0) ? boundary[rng() % boundary.size()]
                                     : RandomValue(rng);
    BigInt s = a;
    s += b;
    EXPECT_EQ(s.ToString(), (a + b).ToString()) << a << " += " << b;
    BigInt d = a;
    d -= b;
    EXPECT_EQ(d.ToString(), (a - b).ToString()) << a << " -= " << b;
    BigInt p = a;
    p *= b;
    EXPECT_EQ(p.ToString(), (a * b).ToString()) << a << " *= " << b;
  }
}

TEST(BigIntInPlaceTest, SelfAliasingCompoundAssignments) {
  const std::vector<BigInt> values = BoundaryValues();
  for (const BigInt& v : values) {
    BigInt s = v;
    s += s;
    EXPECT_EQ(s.ToString(), (v + v).ToString()) << v;
    BigInt d = v;
    d -= d;
    EXPECT_TRUE(d.is_zero()) << v;
    BigInt p = v;
    p *= p;
    EXPECT_EQ(p.ToString(), (v * v).ToString()) << v;
  }
}

TEST(RationalInPlaceTest, CompoundAssignmentsMatchBinaryOperators) {
  std::mt19937_64 rng(35);
  const auto random_rational = [&rng]() {
    BigInt num(static_cast<int64_t>(rng() % 2000001) - 1000000);
    BigInt den(static_cast<int64_t>(rng() % 999) + 1);
    // A third of the time, push numerator or denominator past 64 bits.
    if (rng() % 3 == 0) num = num * BigInt(1).ShiftLeft(40 + static_cast<int>(rng() % 60));
    if (rng() % 3 == 0) den = den * (BigInt(1).ShiftLeft(40 + static_cast<int>(rng() % 60)) + BigInt(1));
    return Rational(num, den);
  };
  for (int iter = 0; iter < 1500; ++iter) {
    const Rational a = random_rational();
    const Rational b = random_rational();
    Rational s = a;
    s += b;
    EXPECT_EQ(s.ToString(), (a + b).ToString());
    Rational d = a;
    d -= b;
    EXPECT_EQ(d.ToString(), (a - b).ToString());
    Rational p = a;
    p *= b;
    EXPECT_EQ(p.ToString(), (a * b).ToString());
    if (b.sign() != 0) {
      Rational q = a;
      q /= b;
      EXPECT_EQ(q.ToString(), (a / b).ToString());
    }
    // Equal-denominator shortcut: force a shared denominator.
    const Rational c(BigInt(static_cast<int64_t>(rng() % 1000)), b.den());
    Rational e(a.num(), b.den());
    const Rational e0 = e;
    e += c;
    EXPECT_EQ(e.ToString(), (e0 + c).ToString());
  }
}

TEST(RationalInPlaceTest, SelfAliasingCompoundAssignments) {
  const Rational values[] = {Rational(0), Rational(7, 3), Rational(-22, 8),
                             Rational(BigInt(1).ShiftLeft(100), BigInt(9)),
                             Rational(BigInt(-13), BigInt(1).ShiftLeft(90))};
  for (const Rational& v : values) {
    Rational s = v;
    s += s;
    EXPECT_EQ(s.ToString(), (v + v).ToString()) << v.ToString();
    Rational d = v;
    d -= d;
    EXPECT_EQ(d.sign(), 0) << v.ToString();
    Rational p = v;
    p *= p;
    EXPECT_EQ(p.ToString(), (v * v).ToString()) << v.ToString();
    if (v.sign() != 0) {
      Rational q = v;
      q /= q;
      EXPECT_EQ(q.ToString(), Rational(1).ToString()) << v.ToString();
    }
  }
}

}  // namespace
}  // namespace topodb
