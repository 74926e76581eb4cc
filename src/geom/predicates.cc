#include "src/geom/predicates.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/base/check.h"

namespace topodb {

namespace {

thread_local PredicateFilterStats tls_stats;
thread_local PredicateMode tls_mode = PredicateMode::kFiltered;

// ---------------------------------------------------------------------------
// Stage 1: semi-static double filter.
//
// Each quantity is carried as a double approximation plus a certified
// absolute error bound; a sign is conclusive when the approximation clears
// its bound. As a special case, exact small integers are tracked by bit
// length so that differences and products that provably fit in 53 bits keep
// error zero — for the integer-coordinate workloads that dominate ingest,
// the whole orientation determinant stays exact, zeros included.
// ---------------------------------------------------------------------------

// One rounding of a double operation: |fl(x op y) - (x op y)| <= kU*|fl(...)|.
constexpr double kU = 0x1p-52;

// Certified relative error of StaticApprox's double conversion: ToDouble
// accumulates <= kMaxStaticBits/32 limbs in long double (64-bit mantissa on
// x86), then one double rounding for the cast and one for the division —
// comfortably under 2^-50 for operands capped at kMaxStaticBits bits.
constexpr int kMaxStaticBits = 512;
constexpr double kEpsConv = 0x1p-50;

// Absolute slack added to every certified bound before a sign decision. It
// absorbs (a) the rounding of the error-bound arithmetic itself and (b)
// subnormal intermediates, where relative rounding bounds do not hold. With
// inputs capped at kMaxStaticBits bits every intermediate magnitude is
// either 0 or >= 2^-1026, far above this slack, so adding it never masks a
// legitimate sign — it only widens "uncertain".
constexpr double kErrInflate = 1.0 + 0x1p-40;
constexpr double kAbsSlack = 0x1p-960;

// A filtered scalar: double approximation `v` with certified absolute error
// `err`. `bits >= 0` additionally certifies that v is an exact integer with
// |v| < 2^bits (and err == 0), which lets derived values stay exact.
struct FErr {
  double v = 0.0;
  double err = 0.0;
  int bits = -1;
};

FErr FSub(const FErr& a, const FErr& b) {
  FErr r;
  r.v = a.v - b.v;
  if (a.bits >= 0 && b.bits >= 0) {
    const int bits = std::max(a.bits, b.bits) + 1;
    if (bits <= 53) {
      r.bits = bits;
      return r;  // Integer difference fits in 53 bits: exact, err stays 0.
    }
  }
  r.err = a.err + b.err + kU * std::fabs(r.v);
  return r;
}

FErr FAdd(const FErr& a, const FErr& b) {
  FErr r;
  r.v = a.v + b.v;
  if (a.bits >= 0 && b.bits >= 0) {
    const int bits = std::max(a.bits, b.bits) + 1;
    if (bits <= 53) {
      r.bits = bits;
      return r;
    }
  }
  r.err = a.err + b.err + kU * std::fabs(r.v);
  return r;
}

FErr FMul(const FErr& a, const FErr& b) {
  FErr r;
  r.v = a.v * b.v;
  if (a.bits >= 0 && b.bits >= 0) {
    const int bits = a.bits + b.bits;
    if (bits <= 53) {
      r.bits = bits;
      return r;
    }
  }
  r.err = std::fabs(a.v) * b.err + std::fabs(b.v) * a.err + a.err * b.err +
          kU * std::fabs(r.v);
  return r;
}

// Certified sign of a filtered scalar; false when uncertain. err == 0 means
// every rounding term along the way was exactly zero, so v is the exact
// value and its sign — including 0 — is conclusive.
bool FSign(const FErr& x, int* sign) {
  if (!std::isfinite(x.v)) return false;
  if (x.err == 0.0) {
    *sign = (x.v > 0.0) - (x.v < 0.0);
    return true;
  }
  const double slack = x.err * kErrInflate + kAbsSlack;
  if (x.v > slack) {
    *sign = 1;
    return true;
  }
  if (x.v < -slack) {
    *sign = -1;
    return true;
  }
  return false;
}

// Approximates one rational coordinate for the static stage. Returns false
// when no bound can be certified (operands too large for the conversion
// error analysis above); the caller then falls back to the exact rational
// evaluation.
bool StaticApprox(const Rational& r, FErr* out) {
  if (r.is_zero()) {
    *out = FErr{0.0, 0.0, 0};
    return true;
  }
  const int nbits = r.num().BitLength();
  // den is positive and reduced, so BitLength() == 1 means den == 1. Any
  // integer up to 53 bits converts exactly; FSub/FMul re-check bit growth
  // per operation, so a wide `bits` here never certifies an inexact result.
  if (r.den().BitLength() == 1 && nbits <= 53) {
    *out = FErr{r.num().ToDouble(), 0.0, nbits};
    return true;
  }
  if (nbits > kMaxStaticBits || r.den().BitLength() > kMaxStaticBits) {
    return false;
  }
  const double v = r.num().ToDouble() / r.den().ToDouble();
  *out = FErr{v, std::fabs(v) * kEpsConv, -1};
  return true;
}

// det(p1 - p0, p2 - p0) as a filtered scalar; the orientation kernel.
bool StaticOrientationSign(const Point& p0, const Point& p1, const Point& p2,
                           int* sign) {
  FErr ax, ay, bx, by, cx, cy;
  if (!StaticApprox(p0.x, &ax) || !StaticApprox(p0.y, &ay) ||
      !StaticApprox(p1.x, &bx) || !StaticApprox(p1.y, &by) ||
      !StaticApprox(p2.x, &cx) || !StaticApprox(p2.y, &cy)) {
    return false;
  }
  const FErr det = FSub(FMul(FSub(bx, ax), FSub(cy, ay)),
                        FMul(FSub(by, ay), FSub(cx, ax)));
  return FSign(det, sign);
}

// Sign of u.x*v.y - u.y*v.x (cross product of two direction vectors).
bool StaticCrossSign(const Point& u, const Point& v, int* sign) {
  FErr ux, uy, vx, vy;
  if (!StaticApprox(u.x, &ux) || !StaticApprox(u.y, &uy) ||
      !StaticApprox(v.x, &vx) || !StaticApprox(v.y, &vy)) {
    return false;
  }
  return FSign(FSub(FMul(ux, vy), FMul(uy, vx)), sign);
}

// Sign of u.x*v.x + u.y*v.y (dot product of two direction vectors).
bool StaticDotSign(const Point& u, const Point& v, int* sign) {
  FErr ux, uy, vx, vy;
  if (!StaticApprox(u.x, &ux) || !StaticApprox(u.y, &uy) ||
      !StaticApprox(v.x, &vx) || !StaticApprox(v.y, &vy)) {
    return false;
  }
  return FSign(FAdd(FMul(ux, vx), FMul(uy, vy)), sign);
}

// Sign of (p.x-q.x)*d.x + (p.y-q.y)*d.y.
bool StaticAlongSign(const Point& p, const Point& q, const Point& d,
                     int* sign) {
  FErr px, py, qx, qy, dx, dy;
  if (!StaticApprox(p.x, &px) || !StaticApprox(p.y, &py) ||
      !StaticApprox(q.x, &qx) || !StaticApprox(q.y, &qy) ||
      !StaticApprox(d.x, &dx) || !StaticApprox(d.y, &dy)) {
    return false;
  }
  return FSign(FAdd(FMul(FSub(px, qx), dx), FMul(FSub(py, qy), dy)), sign);
}

// Sign of the sum of Cross(walk[i], walk[i + 1]) around the closed walk;
// each point is converted once.
bool StaticWalkAreaSign(const std::vector<Point>& walk, int* sign) {
  FErr x0, y0;
  if (walk.empty() || !StaticApprox(walk[0].x, &x0) ||
      !StaticApprox(walk[0].y, &y0)) {
    return false;
  }
  FErr area{0.0, 0.0, 0};
  FErr x = x0, y = y0;
  for (size_t i = 1; i <= walk.size(); ++i) {
    FErr nx = x0, ny = y0;
    if (i < walk.size() && (!StaticApprox(walk[i].x, &nx) ||
                            !StaticApprox(walk[i].y, &ny))) {
      return false;
    }
    area = FAdd(area, FSub(FMul(x, ny), FMul(y, nx)));
    x = nx;
    y = ny;
  }
  return FSign(area, sign);
}

// Sign of a - b for scalar coordinates.
bool StaticCompare(const Rational& a, const Rational& b, int* sign) {
  FErr fa, fb;
  if (!StaticApprox(a, &fa) || !StaticApprox(b, &fb)) return false;
  return FSign(FSub(fa, fb), sign);
}

// ---------------------------------------------------------------------------
// Filtered sign dispatch: the static stage, then the exact rational
// evaluation, with per-stage bookkeeping. The exact evaluation is passed as
// a callable so the rational temporaries are only materialized on
// fallback.
// ---------------------------------------------------------------------------

template <typename StaticStage, typename ExactStage>
int FilteredSign(const StaticStage& stage, const ExactStage& exact) {
  if (tls_mode == PredicateMode::kExact) return exact();
  int sign = 0;
  if (stage(&sign)) {
    ++tls_stats.static_hits;
    return sign;
  }
  ++tls_stats.exact_fallbacks;
  return exact();
}

// Filtered comparison of two rational scalars (sign of a - b).
int CompareFiltered(const Rational& a, const Rational& b) {
  return FilteredSign([&](int* s) { return StaticCompare(a, b, s); },
                      [&] { return a.Compare(b); });
}

// p.x (resp. y) within the closed coordinate range spanned by a and b,
// expressed via sign products so no rational Min/Max copies are made.
bool BoundingBoxContains(const Point& p, const Point& a, const Point& b) {
  const int cx1 = CompareFiltered(p.x, a.x);
  const int cx2 = CompareFiltered(p.x, b.x);
  if (cx1 * cx2 > 0) return false;  // Strictly outside [min, max] in x.
  const int cy1 = CompareFiltered(p.y, a.y);
  const int cy2 = CompareFiltered(p.y, b.y);
  return cy1 * cy2 <= 0;
}

int HalfPlaneRank(const Point& u);

}  // namespace

const PredicateFilterStats& LocalPredicateFilterStats() { return tls_stats; }

PredicateMode CurrentPredicateMode() { return tls_mode; }

// The rational Compare fast path follows the predicate mode so that
// kExact really measures the pure cross-multiplication baseline.
ScopedPredicateMode::ScopedPredicateMode(PredicateMode mode)
    : saved_(tls_mode) {
  tls_mode = mode;
  SetRationalCompareFilterEnabled(mode == PredicateMode::kFiltered);
}

ScopedPredicateMode::~ScopedPredicateMode() {
  tls_mode = saved_;
  SetRationalCompareFilterEnabled(saved_ == PredicateMode::kFiltered);
}

int OrientationExact(const Point& a, const Point& b, const Point& c) {
  return Cross(b - a, c - a).sign();
}

int Orientation(const Point& a, const Point& b, const Point& c) {
  return FilteredSign(
      [&](int* s) { return StaticOrientationSign(a, b, c, s); },
      [&] { return OrientationExact(a, b, c); });
}

bool OnSegmentExact(const Point& p, const Point& a, const Point& b) {
  if (OrientationExact(a, b, p) != 0) return false;
  // Collinear: check the bounding box.
  return Rational::Min(a.x, b.x) <= p.x && p.x <= Rational::Max(a.x, b.x) &&
         Rational::Min(a.y, b.y) <= p.y && p.y <= Rational::Max(a.y, b.y);
}

bool OnSegment(const Point& p, const Point& a, const Point& b) {
  if (tls_mode == PredicateMode::kExact) return OnSegmentExact(p, a, b);
  if (Orientation(a, b, p) != 0) return false;
  // Collinear: check the bounding box.
  return BoundingBoxContains(p, a, b);
}

bool StrictlyInsideSegmentExact(const Point& p, const Point& a,
                                const Point& b) {
  return OnSegmentExact(p, a, b) && p != a && p != b;
}

bool StrictlyInsideSegment(const Point& p, const Point& a, const Point& b) {
  if (tls_mode == PredicateMode::kExact) {
    return StrictlyInsideSegmentExact(p, a, b);
  }
  if (!OnSegment(p, a, b)) return false;
  const bool ne_a =
      CompareFiltered(p.x, a.x) != 0 || CompareFiltered(p.y, a.y) != 0;
  if (!ne_a) return false;
  return CompareFiltered(p.x, b.x) != 0 || CompareFiltered(p.y, b.y) != 0;
}

SegmentIntersection IntersectSegmentsExact(const Point& a, const Point& b,
                                           const Point& c, const Point& d) {
  SegmentIntersection result;
  const Point r = b - a;
  const Point s = d - c;
  const Point q = c - a;
  const Rational denom = Cross(r, s);
  const Rational qp_cross_r = Cross(q, r);

  if (denom.is_zero()) {
    if (!qp_cross_r.is_zero()) return result;  // Parallel, non-collinear.
    // Collinear: project endpoints on the carrier line and intersect the
    // parameter intervals. Degenerate (point) segments fall out naturally.
    auto param = [&](const Point& p) -> Rational {
      // Monotone along the segment direction; avoids division.
      return Dot(p - a, r);
    };
    Rational t0 = param(a), t1 = param(b);
    Rational u0 = param(c), u1 = param(d);
    if (t1 < t0) std::swap(t0, t1);
    Point pa = a, pb = b;
    if (param(pb) < param(pa)) std::swap(pa, pb);
    Point pc = c, pd = d;
    if (u1 < u0) {
      std::swap(u0, u1);
      std::swap(pc, pd);
    }
    if (r.x.is_zero() && r.y.is_zero()) {
      // [a,b] is a single point.
      if (OnSegmentExact(a, c, d)) {
        result.kind = SegmentIntersection::Kind::kPoint;
        result.p0 = a;
      }
      return result;
    }
    const Rational lo = Rational::Max(t0, u0);
    const Rational hi = Rational::Min(t1, u1);
    if (lo > hi) return result;
    const Point plo = (t0 >= u0) ? pa : pc;
    const Point phi = (t1 <= u1) ? pb : pd;
    if (lo == hi) {
      result.kind = SegmentIntersection::Kind::kPoint;
      result.p0 = plo;
    } else {
      result.kind = SegmentIntersection::Kind::kOverlap;
      result.p0 = plo;
      result.p1 = phi;
    }
    return result;
  }

  // Non-parallel carrier lines: a + t r = c + u s with
  //   t = Cross(q, s) / denom,   u = Cross(q, r) / denom.
  // Both parameters are range-tested on their undivided numerators — n/denom
  // lies in [0, 1] iff n is zero, or n shares denom's sign and |n| <= |denom|
  // — so a miss divides nothing and a hit materializes only t, which the
  // intersection point needs anyway; u is never divided or reduced.
  const Rational t_num = Cross(q, s);
  const int denom_sign = denom.sign();
  const auto in_unit_range = [&](const Rational& n) {
    const int ns = n.sign();
    if (ns == 0) return true;
    if (ns != denom_sign) return false;
    // Same sign, so |n| <= |denom| needs no absolute values.
    return denom_sign > 0 ? n <= denom : denom <= n;
  };
  if (!in_unit_range(t_num) || !in_unit_range(qp_cross_r)) return result;
  result.kind = SegmentIntersection::Kind::kPoint;
  result.p0 = a + r * (t_num / denom);
  return result;
}

SegmentIntersection IntersectSegments(const Point& a, const Point& b,
                                      const Point& c, const Point& d) {
  if (tls_mode == PredicateMode::kExact) {
    return IntersectSegmentsExact(a, b, c, d);
  }
  // Filtered early rejection: when c and d lie strictly on the same side of
  // line (a, b), or a and b strictly on the same side of line (c, d), the
  // closed segments are disjoint. These four orientation signs are exact
  // (filtered), so the rejection is a decision, not a heuristic; everything
  // that survives — actual intersections, touches, collinear overlaps —
  // falls through to the exact rational evaluation, which also computes the
  // intersection coordinates. Degenerate (point) segments make every
  // orientation against them 0 and survive rejection, as they must.
  //
  // The four orientations share the eight coordinates, so the static stage
  // converts each coordinate once and evaluates all four determinants on
  // the batch; a sign the batch cannot certify falls back to the filtered
  // Orientation for that determinant alone.
  FErr ax, ay, bx, by, cx, cy, dx, dy;
  const bool stat =
      StaticApprox(a.x, &ax) && StaticApprox(a.y, &ay) &&
      StaticApprox(b.x, &bx) && StaticApprox(b.y, &by) &&
      StaticApprox(c.x, &cx) && StaticApprox(c.y, &cy) &&
      StaticApprox(d.x, &dx) && StaticApprox(d.y, &dy);
  // Harmless on a partially-converted batch: the results are only read
  // when `stat` holds.
  const FErr rx = FSub(bx, ax), ry = FSub(by, ay);
  const FErr sx = FSub(dx, cx), sy = FSub(dy, cy);
  const auto orient = [&](const FErr& ux, const FErr& uy, const FErr& vx,
                          const FErr& vy, const Point& p0, const Point& p1,
                          const Point& p2) {
    int s;
    if (stat && FSign(FSub(FMul(ux, vy), FMul(uy, vx)), &s)) {
      ++tls_stats.static_hits;
      return s;
    }
    return Orientation(p0, p1, p2);
  };
  const int o1 = orient(rx, ry, FSub(cx, ax), FSub(cy, ay), a, b, c);
  const int o2 = orient(rx, ry, FSub(dx, ax), FSub(dy, ay), a, b, d);
  if (o1 * o2 > 0) return SegmentIntersection{};
  const int o3 = orient(sx, sy, FSub(ax, cx), FSub(ay, cy), c, d, a);
  const int o4 = orient(sx, sy, FSub(bx, cx), FSub(by, cy), c, d, b);
  if (o3 * o4 > 0) return SegmentIntersection{};
  return IntersectSegmentsExact(a, b, c, d);
}

namespace {

// Half-plane rank for the sweep starting at the positive x-axis going
// counterclockwise: rank 0 covers angles [0, pi) starting at +x (i.e. y > 0,
// or y == 0 && x > 0); rank 1 covers [pi, 2*pi). Coordinate signs are free
// on rationals, so this needs no filtering.
int HalfPlaneRank(const Point& u) {
  int ys = u.y.sign();
  if (ys > 0) return 0;
  if (ys < 0) return 1;
  return u.x.sign() > 0 ? 0 : 1;
}

int CrossSignFiltered(const Point& u, const Point& v) {
  return FilteredSign([&](int* s) { return StaticCrossSign(u, v, s); },
                      [&] { return Cross(u, v).sign(); });
}

int DotSignFiltered(const Point& u, const Point& v) {
  return FilteredSign([&](int* s) { return StaticDotSign(u, v, s); },
                      [&] { return Dot(u, v).sign(); });
}

}  // namespace

bool CcwDirectionLessExact(const Point& u, const Point& v) {
  TOPODB_CHECK_MSG(!(u.x.is_zero() && u.y.is_zero()), "zero direction");
  TOPODB_CHECK_MSG(!(v.x.is_zero() && v.y.is_zero()), "zero direction");
  int ru = HalfPlaneRank(u);
  int rv = HalfPlaneRank(v);
  if (ru != rv) return ru < rv;
  // Same half-plane: u before v iff turning from u to v is counterclockwise.
  return Cross(u, v).sign() > 0;
}

bool CcwDirectionLess(const Point& u, const Point& v) {
  TOPODB_CHECK_MSG(!(u.x.is_zero() && u.y.is_zero()), "zero direction");
  TOPODB_CHECK_MSG(!(v.x.is_zero() && v.y.is_zero()), "zero direction");
  int ru = HalfPlaneRank(u);
  int rv = HalfPlaneRank(v);
  if (ru != rv) return ru < rv;
  if (tls_mode == PredicateMode::kExact) return Cross(u, v).sign() > 0;
  return CrossSignFiltered(u, v) > 0;
}

bool SameDirectionExact(const Point& u, const Point& v) {
  return Cross(u, v).is_zero() && Dot(u, v).sign() > 0;
}

bool SameDirection(const Point& u, const Point& v) {
  if (tls_mode == PredicateMode::kExact) return SameDirectionExact(u, v);
  return CrossSignFiltered(u, v) == 0 && DotSignFiltered(u, v) > 0;
}

int CompareAlongDirectionExact(const Point& p, const Point& q,
                               const Point& dir) {
  return Dot(p - q, dir).sign();
}

int CompareAlongDirection(const Point& p, const Point& q, const Point& dir) {
  return FilteredSign(
      [&](int* s) { return StaticAlongSign(p, q, dir, s); },
      [&] { return CompareAlongDirectionExact(p, q, dir); });
}

void SortAlongDirectionExact(std::vector<Point>* points, const Point& dir) {
  std::sort(points->begin(), points->end(),
            [&dir](const Point& p, const Point& q) {
              return CompareAlongDirectionExact(p, q, dir) < 0;
            });
}

void SortAlongDirection(std::vector<Point>* points, const Point& dir) {
  if (tls_mode == PredicateMode::kExact) {
    SortAlongDirectionExact(points, dir);
    return;
  }
  // Sorts indices with their keys rather than the points, so each point
  // moves once. A point the static stage cannot convert gets a NaN key,
  // which certifies no comparison.
  struct Keyed {
    FErr key;
    uint32_t index;
  };
  std::vector<Point>& pts = *points;
  FErr dx, dy;
  const bool dir_ok = StaticApprox(dir.x, &dx) && StaticApprox(dir.y, &dy);
  std::vector<Keyed> keyed(pts.size());
  for (uint32_t i = 0; i < keyed.size(); ++i) {
    FErr px, py;
    keyed[i].index = i;
    if (dir_ok && StaticApprox(pts[i].x, &px) && StaticApprox(pts[i].y, &py)) {
      keyed[i].key = FAdd(FMul(px, dx), FMul(py, dy));
    } else {
      keyed[i].key.v = std::numeric_limits<double>::quiet_NaN();
    }
  }
  std::sort(keyed.begin(), keyed.end(), [&](const Keyed& a, const Keyed& b) {
    int sign;
    if (FSign(FSub(a.key, b.key), &sign)) return sign < 0;
    return CompareAlongDirection(pts[a.index], pts[b.index], dir) < 0;
  });
  std::vector<Point> sorted;
  sorted.reserve(pts.size());
  for (const Keyed& k : keyed) sorted.push_back(std::move(pts[k.index]));
  pts = std::move(sorted);
}

int WalkAreaSignExact(const std::vector<Point>& walk) {
  Rational area(0);
  for (size_t i = 0; i < walk.size(); ++i) {
    area += Cross(walk[i], walk[(i + 1) % walk.size()]);
  }
  return area.sign();
}

int WalkAreaSign(const std::vector<Point>& walk) {
  return FilteredSign(
      [&](int* s) { return StaticWalkAreaSign(walk, s); },
      [&] { return WalkAreaSignExact(walk); });
}

}  // namespace topodb
