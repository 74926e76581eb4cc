// src/base/interval.h: the certified enclosures behind the arrangement
// builder's cut-point sort keys and boundary-cycle area signs. The property
// under test everywhere is containment — an interval op must return an
// interval enclosing the exact real result — plus the tightness properties
// that keep those signs off the exact rational path (exact inputs stay
// points through exact operations).

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <random>

#include <gtest/gtest.h>

#include "src/base/interval.h"
#include "src/base/rational.h"

namespace topodb {
namespace {

// Exact conversion of a finite double. Every finite double is
// mantissa * 2^e with an integral 53-bit mantissa, so the result is a
// perfect rational oracle for interval containment checks.
Rational ExactRational(double v) {
  int exp = 0;
  const double m = std::frexp(v, &exp);
  const auto mant = static_cast<int64_t>(std::ldexp(m, 53));
  exp -= 53;
  if (exp >= 0) return Rational(BigInt(mant).ShiftLeft(exp));
  return Rational(BigInt(mant), BigInt(1).ShiftLeft(-exp));
}

TEST(NextDownUpTest, StepsOneUlpInEachDirection) {
  EXPECT_LT(NextDown(1.0), 1.0);
  EXPECT_GT(NextUp(1.0), 1.0);
  EXPECT_EQ(NextUp(NextDown(1.0)), 1.0);
  EXPECT_EQ(NextDown(NextUp(-3.5)), -3.5);
  // Matches the libm reference on both signs and across magnitudes.
  for (double v : {1.0, -1.0, 0.5, -0.5, 1e300, -1e300, 1e-300, -1e-300,
                   DBL_MAX, -DBL_MAX, 0x1p-1074, -0x1p-1074}) {
    EXPECT_EQ(NextDown(v), std::nextafter(v, -HUGE_VAL)) << v;
    EXPECT_EQ(NextUp(v), std::nextafter(v, HUGE_VAL)) << v;
  }
}

TEST(NextDownUpTest, ZeroAndBoundaryCases) {
  EXPECT_EQ(NextDown(0.0), -0x1p-1074);
  EXPECT_EQ(NextDown(-0.0), -0x1p-1074);
  EXPECT_EQ(NextUp(0.0), 0x1p-1074);
  EXPECT_EQ(NextUp(-0.0), 0x1p-1074);
  // The infinities are absorbing in their own direction and step onto
  // DBL_MAX in the other.
  EXPECT_EQ(NextDown(-HUGE_VAL), -HUGE_VAL);
  EXPECT_EQ(NextUp(HUGE_VAL), HUGE_VAL);
  EXPECT_EQ(NextDown(HUGE_VAL), DBL_MAX);
  EXPECT_EQ(NextUp(-HUGE_VAL), -DBL_MAX);
  EXPECT_EQ(NextUp(DBL_MAX), HUGE_VAL);
}

TEST(IntervalTest, ExactValuesStayPointsThroughExactArithmetic) {
  const IntervalDouble a = IntervalDouble::Exact(3.0);
  const IntervalDouble b = IntervalDouble::Exact(0.25);
  const IntervalDouble sum = a + b;
  EXPECT_TRUE(sum.IsPoint());
  EXPECT_EQ(sum.lo(), 3.25);
  const IntervalDouble diff = a - b;
  EXPECT_TRUE(diff.IsPoint());
  EXPECT_EQ(diff.lo(), 2.75);
  // Products widen by one ulp each side even when exact (documented
  // tradeoff: no FMA residual check), except for the absorbed zero.
  const IntervalDouble z = IntervalDouble::Exact(0.0) * a;
  EXPECT_TRUE(z.IsPoint());
  EXPECT_EQ(z.lo(), 0.0);
}

TEST(IntervalTest, CertifiedSignReadsOnlyDecidedIntervals) {
  int sign = 99;
  EXPECT_TRUE(IntervalDouble::FromBounds(0.5, 2.0).CertifiedSign(&sign));
  EXPECT_EQ(sign, 1);
  EXPECT_TRUE(IntervalDouble::FromBounds(-2.0, -0.5).CertifiedSign(&sign));
  EXPECT_EQ(sign, -1);
  EXPECT_TRUE(IntervalDouble().CertifiedSign(&sign));
  EXPECT_EQ(sign, 0);
  // Straddling zero — including half-open touches of zero — is uncertain:
  // the exact value could be 0 or could be the nonzero side.
  EXPECT_FALSE(IntervalDouble::FromBounds(-1.0, 1.0).CertifiedSign(&sign));
  EXPECT_FALSE(IntervalDouble::FromBounds(0.0, 1.0).CertifiedSign(&sign));
  EXPECT_FALSE(IntervalDouble::FromBounds(-1.0, 0.0).CertifiedSign(&sign));
}

TEST(IntervalTest, SumsNearOverflowSaturateButStayContained) {
  const IntervalDouble big = IntervalDouble::Exact(DBL_MAX);
  const IntervalDouble sum = big + big;
  // The exact value 2*DBL_MAX exceeds every finite double; the certified
  // enclosure must put it above DBL_MAX without inventing a finite upper
  // bound.
  EXPECT_EQ(sum.lo(), DBL_MAX);
  EXPECT_EQ(sum.hi(), HUGE_VAL);
  const IntervalDouble neg = (-big) + (-big);
  EXPECT_EQ(neg.lo(), -HUGE_VAL);
  EXPECT_EQ(neg.hi(), -DBL_MAX);
  int sign = 0;
  EXPECT_TRUE(sum.CertifiedSign(&sign));
  EXPECT_EQ(sign, 1);
}

// Containment fuzz: evaluate (a op b) in exact rational arithmetic and
// check the interval result encloses it. Operands are doubles (hence
// exactly representable as rationals), so Rational is a perfect oracle.
TEST(IntervalTest, RandomizedContainmentAgainstRationalOracle) {
  std::mt19937_64 rng(20260809);
  std::uniform_real_distribution<double> mag(-1e9, 1e9);
  std::uniform_int_distribution<int> scale(-60, 60);
  for (int i = 0; i < 500; ++i) {
    const double x = std::ldexp(mag(rng), scale(rng));
    const double y = std::ldexp(mag(rng), scale(rng));
    const Rational rx = ExactRational(x);
    const Rational ry = ExactRational(y);
    const IntervalDouble ix = IntervalDouble::Exact(x);
    const IntervalDouble iy = IntervalDouble::Exact(y);

    const IntervalDouble sum = ix + iy;
    const Rational rs = rx + ry;
    EXPECT_LE(ExactRational(sum.lo()).Compare(rs), 0) << x << "+" << y;
    EXPECT_GE(ExactRational(sum.hi()).Compare(rs), 0) << x << "+" << y;

    const IntervalDouble diff = ix - iy;
    const Rational rd = rx - ry;
    EXPECT_LE(ExactRational(diff.lo()).Compare(rd), 0);
    EXPECT_GE(ExactRational(diff.hi()).Compare(rd), 0);

    const IntervalDouble prod = ix * iy;
    const Rational rp = rx * ry;
    if (std::isfinite(prod.lo())) {
      EXPECT_LE(ExactRational(prod.lo()).Compare(rp), 0)
          << x << "*" << y;
    }
    if (std::isfinite(prod.hi())) {
      EXPECT_GE(ExactRational(prod.hi()).Compare(rp), 0)
          << x << "*" << y;
    }
  }
}

TEST(IntervalTest, WideOperandProductsKeepAllCorners) {
  // A straddling interval times a negative one: the true range is
  // [2 * -5, -3 * -5] = [-10, 15]; corner enumeration plus the ulp step
  // must cover it regardless of sign pattern.
  const IntervalDouble a = IntervalDouble::FromBounds(-3.0, 2.0);
  const IntervalDouble b = IntervalDouble::FromBounds(-5.0, -5.0);
  const IntervalDouble p = a * b;
  EXPECT_LE(p.lo(), -10.0);
  EXPECT_GE(p.hi(), 15.0);
}

// --- Rational::ToIntervalDouble ------------------------------------------

void ExpectEncloses(const IntervalDouble& iv, const Rational& r,
                    const std::string& what) {
  if (std::isfinite(iv.lo())) {
    EXPECT_LE(ExactRational(iv.lo()).Compare(r), 0) << what;
  }
  if (std::isfinite(iv.hi())) {
    EXPECT_GE(ExactRational(iv.hi()).Compare(r), 0) << what;
  }
  EXPECT_LE(iv.lo(), iv.hi()) << what;
}

TEST(ToIntervalDoubleTest, RepresentableValuesAreExactPoints) {
  for (double v : {0.0, 1.0, -1.0, 0.5, -2.75, 1e300, 0x1p-900}) {
    const IntervalDouble iv = ExactRational(v).ToIntervalDouble();
    EXPECT_TRUE(iv.IsPoint()) << v;
    EXPECT_EQ(iv.lo(), v) << v;
  }
  // Deep subnormals sit outside the conservative exact-shift guard, so the
  // smallest double gets a (tight, correct) enclosure instead of a point.
  const IntervalDouble denorm =
      ExactRational(0x1p-1074).ToIntervalDouble();
  ExpectEncloses(denorm, ExactRational(0x1p-1074), "denorm_min");
  int sign = 0;
  EXPECT_FALSE(denorm.CertifiedSign(&sign) && sign == 0);
}

TEST(ToIntervalDoubleTest, NonRepresentableValuesGetTightEnclosures) {
  const Rational third(1, 3);
  const IntervalDouble iv = third.ToIntervalDouble();
  EXPECT_FALSE(iv.IsPoint());
  ExpectEncloses(iv, third, "1/3");
  // The truncated quotient brackets the value within one grid step (two
  // ulps when the quotient has 52 bits), and each bound takes one outward
  // ulp step: at most 4 ulps wide.
  EXPECT_LE(iv.hi(), NextUp(NextUp(NextUp(NextUp(iv.lo())))));
}

Rational PowerOfTen(int exp) {
  Rational ten(10);
  Rational r(1);
  for (int i = 0; i < std::abs(exp); ++i) r = r * ten;
  if (exp < 0) return Rational(1) / r;
  return r;
}

TEST(ToIntervalDoubleTest, OverflowSaturatesWithCorrectDirection) {
  const Rational huge = PowerOfTen(400);  // Far above DBL_MAX ~ 1.8e308.
  const IntervalDouble iv = huge.ToIntervalDouble();
  EXPECT_EQ(iv.hi(), HUGE_VAL);
  EXPECT_GE(iv.lo(), DBL_MAX);
  int sign = 0;
  ASSERT_TRUE(iv.CertifiedSign(&sign));
  EXPECT_EQ(sign, 1);

  const IntervalDouble neg = (Rational(0) - huge).ToIntervalDouble();
  EXPECT_EQ(neg.lo(), -HUGE_VAL);
  EXPECT_LE(neg.hi(), -DBL_MAX);
  ASSERT_TRUE(neg.CertifiedSign(&sign));
  EXPECT_EQ(sign, -1);
}

TEST(ToIntervalDoubleTest, UnderflowStaysNonZeroSided) {
  // 10^-400 is below the smallest subnormal: it must round to an interval
  // that does NOT certify sign 0 (the value is positive, not zero).
  const Rational tiny = PowerOfTen(-400);
  const IntervalDouble iv = tiny.ToIntervalDouble();
  ExpectEncloses(iv, tiny, "1e-400");
  int sign = 99;
  if (iv.CertifiedSign(&sign)) {
    EXPECT_EQ(sign, 1) << "an underflowed positive must never certify 0";
  }
  EXPECT_GE(iv.lo(), 0.0);
  EXPECT_GT(iv.hi(), 0.0);
}

TEST(ToIntervalDoubleTest, FastVariantContainsTheTightVariant) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int64_t> num(-1'000'000'000, 1'000'000'000);
  std::uniform_int_distribution<int64_t> den(1, 1'000'000'000);
  for (int i = 0; i < 300; ++i) {
    const Rational r(num(rng), den(rng));
    const IntervalDouble tight = r.ToIntervalDouble();
    const IntervalDouble fast = r.ToIntervalDoubleFast();
    ExpectEncloses(fast, r, r.ToString());
    // Fast may be wider, never narrower.
    EXPECT_LE(fast.lo(), tight.lo()) << r.ToString();
    EXPECT_GE(fast.hi(), tight.hi()) << r.ToString();
  }
}

TEST(ToIntervalDoubleTest, FastVariantHandlesHugeBitLengths) {
  // Over the 512-bit static cap the fast path must still return a valid
  // (possibly saturated) enclosure rather than garbage.
  BigInt factor(1);
  for (int i = 0; i < 700; ++i) factor = factor * BigInt(2);
  const Rational big(factor, BigInt(3));
  ExpectEncloses(big.ToIntervalDoubleFast(), big, "2^700/3 fast");
  ExpectEncloses(big.ToIntervalDouble(), big, "2^700/3");
  const Rational inv(BigInt(3), factor);
  ExpectEncloses(inv.ToIntervalDoubleFast(), inv, "3/2^700 fast");
  ExpectEncloses(inv.ToIntervalDouble(), inv, "3/2^700");
}

}  // namespace
}  // namespace topodb
