#ifndef TOPODB_BASE_INTERVAL_H_
#define TOPODB_BASE_INTERVAL_H_

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>

namespace topodb {

// One-ulp steps along the IEEE-754 double grid, used for directed rounding:
// after a round-to-nearest operation whose error direction is unknown, one
// outward step yields a certified bound. Implemented with the bit ordering
// of IEEE doubles rather than std::nextafter so the innermost predicate
// loops pay no libm call.
inline double NextDown(double v) {
  if (std::isnan(v) || v == -HUGE_VAL) return v;
  if (v == 0.0) return -0x1p-1074;  // Largest double below both +0 and -0.
  uint64_t bits = std::bit_cast<uint64_t>(v);
  bits += (v > 0.0) ? uint64_t{0} - 1 : 1;  // Toward zero / away from zero.
  return std::bit_cast<double>(bits);
}

inline double NextUp(double v) { return -NextDown(-v); }

// Closed interval [lo, hi] of doubles certified to contain one exact real
// value. The arrangement builder (src/arrangement/cell_complex.cc) keys its
// cut-point sorts and boundary-cycle area signs on these, falling back to
// exact rationals only when an interval straddles zero: arithmetic on
// intervals rounds every bound outward, so a sign read off an interval is a
// sign of the exact value — the interval may only ever say "uncertain",
// never report a wrong sign.
//
// Directed rounding is implemented without touching the FPU rounding mode:
// each bound is computed round-to-nearest, then the exact residual of the
// operation (Knuth TwoSum for +/-) decides whether an outward one-ulp step
// is needed. Exact operations therefore keep intervals tight, and a
// degenerate [0, 0] stays exactly zero through sums and products, so
// exactly-representable inputs certify exact zeros instead of falling back
// to rationals.
//
// Invariants: lo <= hi, lo < +inf, hi > -inf (overflowed bounds saturate to
// +/-DBL_MAX on the finite side and +/-inf on the outward side). NaN never
// enters: the constructors reject it via TOPODB-side usage (bounds come from
// Rational::ToIntervalDouble or arithmetic below, both NaN-free).
class IntervalDouble {
 public:
  constexpr IntervalDouble() : lo_(0.0), hi_(0.0) {}

  static constexpr IntervalDouble Exact(double v) {
    return IntervalDouble(v, v);
  }
  // Caller-certified bounds (lo <= true value <= hi).
  static constexpr IntervalDouble FromBounds(double lo, double hi) {
    return IntervalDouble(lo, hi);
  }

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  bool IsPoint() const { return lo_ == hi_; }

  // Certifies the sign of the contained value: +1 when the whole interval is
  // positive, -1 when negative, 0 only for the degenerate [0, 0]. Returns
  // false when the interval straddles zero (sign uncertain).
  bool CertifiedSign(int* sign) const {
    if (lo_ > 0.0) {
      *sign = 1;
      return true;
    }
    if (hi_ < 0.0) {
      *sign = -1;
      return true;
    }
    if (lo_ == 0.0 && hi_ == 0.0) {
      *sign = 0;
      return true;
    }
    return false;
  }

  friend IntervalDouble operator-(const IntervalDouble& a) {
    return IntervalDouble(-a.hi_, -a.lo_);
  }

  friend IntervalDouble operator+(const IntervalDouble& a,
                                  const IntervalDouble& b) {
    return IntervalDouble(SumDown(a.lo_, b.lo_), SumUp(a.hi_, b.hi_));
  }

  friend IntervalDouble operator-(const IntervalDouble& a,
                                  const IntervalDouble& b) {
    return IntervalDouble(SumDown(a.lo_, -b.hi_), SumUp(a.hi_, -b.lo_));
  }

  friend IntervalDouble operator*(const IntervalDouble& a,
                                  const IntervalDouble& b) {
    // An exact zero absorbs: keeps [0,0] * anything == [0,0], which the
    // corner enumeration below would smear into [-ulp, +ulp].
    if ((a.lo_ == 0.0 && a.hi_ == 0.0) || (b.lo_ == 0.0 && b.hi_ == 0.0)) {
      return IntervalDouble();
    }
    const double c1 = MulCorner(a.lo_, b.lo_);
    const double c2 = MulCorner(a.lo_, b.hi_);
    const double c3 = MulCorner(a.hi_, b.lo_);
    const double c4 = MulCorner(a.hi_, b.hi_);
    double lo = c1 < c2 ? c1 : c2;
    if (c3 < lo) lo = c3;
    if (c4 < lo) lo = c4;
    double hi = c1 > c2 ? c1 : c2;
    if (c3 > hi) hi = c3;
    if (c4 > hi) hi = c4;
    // Products round with unknown direction; one outward ulp step on each
    // bound certifies containment. (A residual check via FMA could keep
    // exact products tight, but correctness only needs the widening.)
    return IntervalDouble(NextDown(lo), NextUp(hi));
  }

 private:
  constexpr IntervalDouble(double lo, double hi) : lo_(lo), hi_(hi) {}

  // Certified lower bound of the exact sum x + y: compute round-to-nearest,
  // then step down one ulp only if the TwoSum residual shows the rounded
  // result landed above the exact sum. A sum that rounds to +inf exceeded
  // DBL_MAX, so DBL_MAX is a valid lower bound; -inf stays -inf.
  static double SumDown(double x, double y) {
    const double s = x + y;
    if (!std::isfinite(s)) return s > 0 ? DBL_MAX : s;
    const double r = TwoSumResidual(x, y, s);
    return r < 0.0 ? NextDown(s) : s;  // NaN residual cannot occur: s finite.
  }

  static double SumUp(double x, double y) {
    const double s = x + y;
    if (!std::isfinite(s)) return s < 0 ? -DBL_MAX : s;
    const double r = TwoSumResidual(x, y, s);
    return r > 0.0 ? NextUp(s) : s;
  }

  // Exact error of the rounded sum s = fl(x + y) (Knuth TwoSum): returns
  // (x + y) - s computed exactly. Free of spurious overflow whenever s is
  // finite (Boldo et al.).
  static double TwoSumResidual(double x, double y, double s) {
    const double yv = s - x;
    const double xv = s - yv;
    return (y - yv) + (x - xv);
  }

  // Corner product with the standard interval convention 0 * inf == 0: an
  // exact zero endpoint contributes the limit toward zero, which preserves
  // containment of the true product set.
  static double MulCorner(double x, double y) {
    if (x == 0.0 || y == 0.0) return 0.0;
    return x * y;
  }

  double lo_;
  double hi_;
};

}  // namespace topodb

#endif  // TOPODB_BASE_INTERVAL_H_
