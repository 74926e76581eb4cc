// Differential fuzz for the two-tier predicate filter (DESIGN.md §5e-f):
// every filtered predicate must return bit-for-bit the decision of its
// *Exact variant, on exactly the input families where a buggy filter would
// diverge — collinear triples (the zero a static filter must never
// mis-certify), one-ulp perturbations of collinear configurations (signs
// far below double noise), small-denominator rationals with wide
// numerators, stretch-scaled coordinates past the filter's exact-integer
// range, and coordinates that overflow or underflow double range entirely.
// The cut-point sort and the walk area sign, the arrangement's two
// many-point predicates, run against their exact twins on the same
// families.

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/bigint.h"
#include "src/base/rational.h"
#include "src/geom/point.h"
#include "src/geom/predicates.h"

namespace topodb {
namespace {

// The filtered sort must produce a permutation of its input whose keys
// Dot(p, dir) run exactly as its exact twin's; points with equal keys may
// differ in order.
void ExpectSortsAgree(std::vector<Point> points, const Point& dir) {
  std::vector<Point> exact = points;
  SortAlongDirection(&points, dir);
  SortAlongDirectionExact(&exact, dir);
  ASSERT_EQ(points.size(), exact.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(Dot(points[i], dir), Dot(exact[i], dir))
        << i << ": " << points[i].ToString() << " vs " << exact[i].ToString();
  }
  std::sort(points.begin(), points.end());
  std::sort(exact.begin(), exact.end());
  EXPECT_TRUE(points == exact);
}

// One comparison of every predicate on a triple/quadruple of points.
void ExpectAllPredicatesAgree(const Point& a, const Point& b, const Point& c,
                              const Point& d) {
  ASSERT_EQ(CurrentPredicateMode(), PredicateMode::kFiltered);
  EXPECT_EQ(Orientation(a, b, c), OrientationExact(a, b, c))
      << a.ToString() << " " << b.ToString() << " " << c.ToString();
  EXPECT_EQ(OnSegment(c, a, b), OnSegmentExact(c, a, b));
  EXPECT_EQ(StrictlyInsideSegment(c, a, b),
            StrictlyInsideSegmentExact(c, a, b));
  if (!(a == b) && !(c == d)) {
    const Point u = b - a;
    const Point v = d - c;
    EXPECT_EQ(CcwDirectionLess(u, v), CcwDirectionLessExact(u, v));
    EXPECT_EQ(CcwDirectionLess(v, u), CcwDirectionLessExact(v, u));
    EXPECT_EQ(SameDirection(u, v), SameDirectionExact(u, v));
    EXPECT_EQ(CompareAlongDirection(a, c, u),
              CompareAlongDirectionExact(a, c, u));
    ExpectSortsAgree({a, b, c, d, a, c}, u);
  }
  EXPECT_EQ(WalkAreaSign({a, b, c}), WalkAreaSignExact({a, b, c}));
  EXPECT_EQ(WalkAreaSign({a, b, c, d}), WalkAreaSignExact({a, b, c, d}));
  const SegmentIntersection filtered = IntersectSegments(a, b, c, d);
  const SegmentIntersection exact = IntersectSegmentsExact(a, b, c, d);
  EXPECT_EQ(static_cast<int>(filtered.kind), static_cast<int>(exact.kind))
      << a.ToString() << "-" << b.ToString() << " x " << c.ToString() << "-"
      << d.ToString();
  if (filtered.kind == exact.kind &&
      exact.kind != SegmentIntersection::Kind::kNone) {
    // Bit-for-bit: the same exact rational point, not merely an equal one.
    EXPECT_EQ(filtered.p0.x.num().ToString(), exact.p0.x.num().ToString());
    EXPECT_EQ(filtered.p0.x.den().ToString(), exact.p0.x.den().ToString());
    EXPECT_EQ(filtered.p0.y.num().ToString(), exact.p0.y.num().ToString());
    if (exact.kind == SegmentIntersection::Kind::kOverlap) {
      EXPECT_EQ(filtered.p1 == exact.p1, true);
    }
  }
}

// Numerator up to 2^61 over a fixed set of small denominators: too wide
// for the filter's exact-integer shortcut, so every sign either clears a
// certified error bound or goes to the exact tier.
Rational SmallDenominatorCoord(std::mt19937_64& rng) {
  static const int64_t dens[] = {1, 2, 3, 4, 5, 6, 7, 15, 16, 255};
  const int64_t num =
      static_cast<int64_t>(rng() % (uint64_t{1} << 62)) - (int64_t{1} << 61);
  return Rational(num, dens[rng() % (sizeof(dens) / sizeof(dens[0]))]);
}

TEST(PredicateFilterDifferentialTest, CollinearTriples) {
  // Exact collinearity is the adversarial case for the static stage: the
  // determinant is exactly zero, and any filter that certifies a nonzero
  // sign from rounding noise breaks the arrangement. Points are a + t*dir
  // for rational t, over directions with small and large slopes.
  std::mt19937_64 rng(1);
  const Point dirs[] = {{1, 0}, {0, 1}, {1, 1}, {3, -7}, {1000003, 999999},
                        {-5, 12}, {1, -1}};
  for (const Point& dir : dirs) {
    for (int iter = 0; iter < 40; ++iter) {
      const Point origin(static_cast<int64_t>(rng() % 2001) - 1000,
                         static_cast<int64_t>(rng() % 2001) - 1000);
      const auto t = [&rng]() {
        return Rational(static_cast<int64_t>(rng() % 41) - 20,
                        static_cast<int64_t>(rng() % 16) + 1);
      };
      const Point p = origin + dir * t();
      const Point q = origin + dir * t();
      const Point r = origin + dir * t();
      EXPECT_EQ(Orientation(p, q, r), 0) << p.ToString();
      ExpectAllPredicatesAgree(p, q, r, origin);
    }
  }
}

TEST(PredicateFilterDifferentialTest, OneUlpPerturbations) {
  // Start from a collinear triple, then push one coordinate off the line
  // by +/- 1/2^k for k up to far beyond double precision. The true sign is
  // the perturbation's sign; doubles see zero from k ~ 60 on, so a filter
  // that trusts an uncertified double result inverts or zeroes these.
  std::mt19937_64 rng(2);
  for (int iter = 0; iter < 200; ++iter) {
    const int64_t x0 = static_cast<int64_t>(rng() % 201) - 100;
    const int64_t y0 = static_cast<int64_t>(rng() % 201) - 100;
    const int64_t dx = static_cast<int64_t>(rng() % 9) + 1;
    const int64_t dy = static_cast<int64_t>(rng() % 9) - 4;
    const Point a(x0, y0);
    const Point b(x0 + dx, y0 + dy);
    const Point mid = a + (b - a) * Rational(1, 2);
    const int k = 40 + static_cast<int>(rng() % 120);  // 2^-40 .. 2^-159.
    const Rational eps(BigInt((rng() % 2) ? 1 : -1),
                       BigInt(1).ShiftLeft(k));
    const Point off(mid.x, mid.y + eps);
    // The sign is decided by eps (b-a has positive x component).
    EXPECT_EQ(Orientation(a, b, off), eps.sign() > 0 ? 1 : -1)
        << "k=" << k;
    EXPECT_FALSE(OnSegment(off, a, b));
    ExpectAllPredicatesAgree(a, b, off, mid);
    ExpectAllPredicatesAgree(a, off, b, mid);
  }
}

TEST(PredicateFilterDifferentialTest, OverflowAndUnderflowCoordinates) {
  // Coordinates far outside double range: 10^400 overflows to inf, 10^-400
  // underflows to 0. The static stage must decline (bit-length caps), and
  // decisions still match the exact path.
  Rational huge(1);
  const Rational ten(10);
  for (int i = 0; i < 400; ++i) huge = huge * ten;
  const Rational tiny = Rational(1) / huge;

  std::mt19937_64 rng(3);
  const Rational scales[] = {huge, tiny};
  for (const Rational& s : scales) {
    for (int iter = 0; iter < 8; ++iter) {
      const auto coord = [&]() {
        return Rational(static_cast<int64_t>(rng() % 2001) - 1000,
                        static_cast<int64_t>(rng() % 64) + 1) * s;
      };
      const Point a(coord(), coord());
      const Point b(coord(), coord());
      const Point c(coord(), coord());
      const Point d(coord(), coord());
      ExpectAllPredicatesAgree(a, b, c, d);
      // Mixed magnitudes: one tiny point among huge ones (and vice versa)
      // mixes declined and certifiable coordinates in one predicate.
      const Point m(coord() * tiny, coord());
      ExpectAllPredicatesAgree(a, b, m, d);
    }
  }
  // Doubly-extreme scales (10^800): exact intersection points at this
  // magnitude cost seconds of bigint gcd each, so stick to the sign
  // predicates, which are the filter stages under test anyway.
  for (const Rational& s : {huge * huge, tiny * tiny}) {
    for (int iter = 0; iter < 4; ++iter) {
      const auto coord = [&]() {
        return Rational(static_cast<int64_t>(rng() % 2001) - 1000,
                        static_cast<int64_t>(rng() % 64) + 1) * s;
      };
      const Point a(coord(), coord());
      const Point b(coord(), coord());
      const Point c(coord(), coord());
      EXPECT_EQ(Orientation(a, b, c), OrientationExact(a, b, c));
      EXPECT_EQ(OnSegment(c, a, b), OnSegmentExact(c, a, b));
      EXPECT_EQ(StrictlyInsideSegment(c, a, b),
                StrictlyInsideSegmentExact(c, a, b));
    }
  }
  // Degenerate-but-extreme: collinear triples at overflow scale.
  const Point p(huge, huge);
  const Point q(huge * Rational(2), huge * Rational(2));
  const Point r(huge * Rational(3), huge * Rational(3));
  EXPECT_EQ(Orientation(p, q, r), 0);
  ExpectAllPredicatesAgree(p, q, r, p);
  EXPECT_TRUE(OnSegment(q, p, r));
  EXPECT_TRUE(StrictlyInsideSegment(q, p, r));
}

TEST(PredicateFilterDifferentialTest, SmallDenominatorRationals) {
  // Random small-denominator points. Midpoints of the same base points add
  // exact collinear triples, and a shared endpoint makes points compare
  // with themselves, which must come out equal, not merely close.
  std::mt19937_64 rng(21);
  const auto coord = [&rng]() { return SmallDenominatorCoord(rng); };
  for (int iter = 0; iter < 500; ++iter) {
    const Point a(coord(), coord());
    const Point b(coord(), coord());
    const Point c(coord(), coord());
    const Point d(coord(), coord());
    ExpectAllPredicatesAgree(a, b, c, d);
    const Point mid = a + (b - a) * Rational(1, 2);
    EXPECT_EQ(Orientation(a, b, mid), 0);
    ExpectAllPredicatesAgree(a, b, mid, c);
    ExpectAllPredicatesAgree(a, b, a, c);
    EXPECT_EQ(CompareAlongDirection(a, a, b - a), 0);
  }
}

TEST(PredicateFilterDifferentialTest, SmallDenominatorCrossDotAlongCompare) {
  // The direction and coordinate predicates on small-denominator inputs,
  // each checked against the rational formula whose sign it decides:
  // cross (CcwDirectionLess), cross and dot (SameDirection), along
  // (CompareAlongDirection) and compare (Rational::Compare). Exact
  // multiples of u make the cross zero, so the dot sign alone decides.
  std::mt19937_64 rng(23);
  const auto coord = [&rng]() { return SmallDenominatorCoord(rng); };
  for (int iter = 0; iter < 500; ++iter) {
    const Point u(coord(), coord());
    const Point v(coord(), coord());
    const Point p(coord(), coord());
    const Rational cross = u.x * v.y - u.y * v.x;
    const Rational dot = u.x * v.x + u.y * v.y;
    EXPECT_EQ(CcwDirectionLess(u, v), CcwDirectionLessExact(u, v));
    EXPECT_EQ(SameDirection(u, v), cross.is_zero() && dot.sign() > 0);
    EXPECT_EQ(CompareAlongDirection(p, u, v),
              ((p.x - u.x) * v.x + (p.y - u.y) * v.y).sign());
    EXPECT_EQ(p.x.Compare(u.x), (p.x - u.x).sign());
    // Equal values must compare zero, not merely small.
    EXPECT_EQ(p.x.Compare(p.x), 0);
    EXPECT_EQ(CompareAlongDirection(p, p, v), 0);
    const Rational k(1 + static_cast<int64_t>(rng() % 255),
                     1 + static_cast<int64_t>(rng() % 255));
    EXPECT_TRUE(SameDirection(u, u * k));
    EXPECT_FALSE(SameDirection(u, u * -k));
    EXPECT_FALSE(CcwDirectionLess(u, u * k));
    // As points: u - 0 and v - p are the two directions compared above.
    ExpectAllPredicatesAgree(Point(0, 0), u, p, p + v);
  }
}

TEST(PredicateFilterDifferentialTest, TinyPerturbationsOfWideTriples) {
  // Collinear triples spanning up to 10^6 pushed off the line by ±1/2^k,
  // k up to 50: invisible to a plain double evaluation from k ≈ 30 on, so
  // the filter must decline and leave the sign to the exact tier.
  std::mt19937_64 rng(22);
  for (int iter = 0; iter < 500; ++iter) {
    const int64_t x0 = static_cast<int64_t>(rng() % 2001) - 1000;
    const int64_t y0 = static_cast<int64_t>(rng() % 2001) - 1000;
    const int64_t dx = 1 + static_cast<int64_t>(rng() % 1000000);
    const int64_t dy = static_cast<int64_t>(rng() % 2000001) - 1000000;
    const Point a(x0, y0);
    const Point b(x0 + dx, y0 + dy);
    const Point mid = a + (b - a) * Rational(1, 2);
    const int k = 1 + static_cast<int>(rng() % 50);
    const int eps_sign = (rng() & 1) ? 1 : -1;
    const Rational eps(BigInt(eps_sign), BigInt(1).ShiftLeft(k));
    const Point off(mid.x, mid.y + eps);
    // dx > 0, so the orientation sign equals the perturbation sign.
    EXPECT_EQ(Orientation(a, b, off), eps_sign) << "k=" << k;
    ExpectAllPredicatesAgree(a, b, off, mid);
    ExpectAllPredicatesAgree(off, mid, a, b);
  }
}

TEST(PredicateFilterDifferentialTest, StretchScaledNearCollinearTriples) {
  // Integer points scaled by 2^64/3, the coordinate family of the
  // stretch-* bench rows: numerators past 53 bits with a non-unit
  // denominator, and exact collinear midpoints, so the filter cannot
  // certify the zeros and the exact tier decides them.
  const Rational stretch(BigInt(1).ShiftLeft(64), BigInt(3));
  std::mt19937_64 rng(24);
  for (int iter = 0; iter < 50; ++iter) {
    const int64_t x0 = static_cast<int64_t>(rng() % 201) - 100;
    const int64_t dx = 1 + static_cast<int64_t>(rng() % 9);
    const int64_t dy = static_cast<int64_t>(rng() % 9) - 4;
    const Point a(Rational(x0) * stretch, Rational(x0 + 1) * stretch);
    const Point b(Rational(x0 + dx) * stretch,
                  Rational(x0 + 1 + dy) * stretch);
    const Point mid = a + (b - a) * Rational(1, 2);
    EXPECT_EQ(Orientation(a, b, mid), 0);
    ExpectAllPredicatesAgree(a, b, mid, a);
    ExpectAllPredicatesAgree(a, mid, b, Point(mid.x, mid.y + stretch));
  }
  const Point a(Rational(3) * stretch, Rational(4) * stretch);
  const Point b(Rational(11) * stretch, Rational(7) * stretch);
  const Point mid = a + (b - a) * Rational(1, 2);
  EXPECT_EQ(Orientation(a, b, mid), 0);
  ExpectAllPredicatesAgree(a, b, mid, b);
}

TEST(PredicateFilterDifferentialTest, CutPointsAndWalksAtEveryScale) {
  // The arrangement's two uses: cut points of one segment (collinear, with
  // duplicates, so equal keys are equal points and the sorted sequences
  // must match point for point), and closed walks around faces, with
  // collinear runs and a degenerate (zero-area) walk. At scale 1 the
  // filter decides most pairs and signs; stretched, huge and tiny scales
  // push them to the exact tier.
  Rational huge(1);
  for (int i = 0; i < 400; ++i) huge = huge * Rational(10);
  // Exact sums at 10^+-400 cost milliseconds each, so fewer rounds there.
  const std::pair<Rational, int> scales[] = {
      {Rational(1), 40},
      {Rational(BigInt(1).ShiftLeft(64), BigInt(3)), 40},
      {huge, 4},
      {Rational(1) / huge, 4}};
  std::mt19937_64 rng(25);
  for (const auto& [s, rounds] : scales) {
    for (int iter = 0; iter < rounds; ++iter) {
      const auto coord = [&]() {
        return Rational(static_cast<int64_t>(rng() % 2001) - 1000) * s;
      };
      const Point a(coord(), coord());
      Point b(coord(), coord());
      if (a == b) b = Point(a.x + s, a.y);
      std::vector<Point> cuts = {a, b};
      for (int k = 0; k < 10; ++k) {
        cuts.push_back(a + (b - a) * Rational(static_cast<int64_t>(rng() % 17),
                                              16));
      }
      std::vector<Point> filtered = cuts;
      SortAlongDirection(&filtered, b - a);
      SortAlongDirectionExact(&cuts, b - a);
      EXPECT_TRUE(filtered == cuts) << s.ToString();
      ExpectSortsAgree(filtered, a - b);
      const Point c(coord(), coord());
      const Point mid = a + (b - a) * Rational(1, 2);
      for (const std::vector<Point>& walk :
           std::vector<std::vector<Point>>{{a, b, c},
                                           {a, mid, b, c},
                                           {c, b, mid, a},
                                           {a, mid, b},
                                           {a, b, a, c, mid}}) {
        EXPECT_EQ(WalkAreaSign(walk), WalkAreaSignExact(walk))
            << s.ToString();
      }
    }
  }
}

TEST(PredicateFilterDifferentialTest, RandomSegmentPairsAndDegeneracies) {
  // Broad random sweep plus the classic degeneracies: shared endpoints,
  // T-junctions, containment, identical segments, zero-length segments.
  std::mt19937_64 rng(4);
  const auto coord = [&rng]() {
    return Rational(static_cast<int64_t>(rng() % 401) - 200,
                    static_cast<int64_t>(rng() % 8) + 1);
  };
  for (int iter = 0; iter < 300; ++iter) {
    const Point a(coord(), coord());
    const Point b(coord(), coord());
    const Point c(coord(), coord());
    const Point d(coord(), coord());
    ExpectAllPredicatesAgree(a, b, c, d);
    ExpectAllPredicatesAgree(a, b, b, c);  // Shared endpoint.
    ExpectAllPredicatesAgree(a, b, a, b);  // Identical segments.
    ExpectAllPredicatesAgree(a, a, c, d);  // Degenerate first segment.
    const Point mid = a + (b - a) * Rational(1, 3);
    ExpectAllPredicatesAgree(a, b, mid, c);  // T-junction at 1/3.
    ExpectAllPredicatesAgree(a, b, mid, mid);
  }
}

TEST(PredicateFilterStatsTest, StagesActuallyResolveWork) {
  // Sanity on the observability contract: easy integer inputs are resolved
  // by the static stage; adversarial perturbations reach the exact stage.
  const PredicateFilterStats before = LocalPredicateFilterStats();
  EXPECT_EQ(Orientation(Point(0, 0), Point(10, 0), Point(5, 3)), 1);
  const PredicateFilterStats after_easy = LocalPredicateFilterStats();
  EXPECT_EQ(after_easy.static_hits, before.static_hits + 1);
  EXPECT_EQ(after_easy.exact_fallbacks, before.exact_fallbacks);

  // det = 10 * (1/2 + eps) - 1 * 5 = 10 * eps with eps = 2^-200: far below
  // the static stage's certified error bound, so only the exact stage can
  // decide the sign.
  const Rational eps(BigInt(1), BigInt(1).ShiftLeft(200));
  const Point off(Rational(5), Rational(1, 2) + eps);
  EXPECT_EQ(Orientation(Point(0, 0), Point(10, 1), off), 1);
  const PredicateFilterStats after_hard = LocalPredicateFilterStats();
  EXPECT_EQ(after_hard.static_hits, after_easy.static_hits);
  EXPECT_EQ(after_hard.exact_fallbacks, after_easy.exact_fallbacks + 1);

  // Every filtered sign is settled by exactly one of the two stages: no
  // sign goes uncounted and none is counted twice.
  const Rational stretch(BigInt(1).ShiftLeft(64), BigInt(3));
  const Point sa(Rational(3) * stretch, Rational(4) * stretch);
  const Point sb(Rational(11) * stretch, Rational(7) * stretch);
  const Point smid = sa + (sb - sa) * Rational(1, 2);
  const auto settled = [] {
    const PredicateFilterStats& now = LocalPredicateFilterStats();
    return now.static_hits + now.exact_fallbacks;
  };
  const auto expect_one_sign = [&](const char* what, const auto& predicate) {
    const uint64_t start = settled();
    predicate();
    EXPECT_EQ(settled(), start + 1) << what;
  };
  for (const Point& c : {Point(5, 3), off, smid}) {
    expect_one_sign("Orientation", [&] { Orientation(sa, sb, c); });
    expect_one_sign("Orientation",
                    [&] { Orientation(Point(0, 0), Point(10, 1), c); });
    expect_one_sign("CompareAlongDirection",
                    [&] { CompareAlongDirection(c, sa, sb - sa); });
    // Both directions point into the upper half-plane, so the order needs
    // the cross-product sign rather than the half-plane rank alone.
    expect_one_sign("CcwDirectionLess", [&] {
      CcwDirectionLess(Point(1, 1), Point(c.x + 1, Rational(1) + c.y.Abs()));
    });
    expect_one_sign("WalkAreaSign", [&] { WalkAreaSign({sa, sb, c}); });
    expect_one_sign("WalkAreaSign",
                    [&] { WalkAreaSign({Point(0, 0), Point(10, 1), c}); });
  }
  // The sort counts only the comparisons it defers: distinct integer keys
  // are all decided in doubles, while equal stretched points cannot be
  // told apart there and every deferral reaches the exact tier.
  std::vector<Point> easy = {Point(3, 1), Point(0, 1), Point(2, 1)};
  const uint64_t before_sort = settled();
  SortAlongDirection(&easy, Point(1, 0));
  EXPECT_EQ(settled(), before_sort);
  EXPECT_EQ(easy[0], Point(0, 1));
  std::vector<Point> ties = {smid, smid, smid};
  const PredicateFilterStats before_ties = LocalPredicateFilterStats();
  SortAlongDirection(&ties, sb - sa);
  EXPECT_EQ(LocalPredicateFilterStats().static_hits, before_ties.static_hits);
  EXPECT_GT(LocalPredicateFilterStats().exact_fallbacks,
            before_ties.exact_fallbacks);
  EXPECT_GT(LocalPredicateFilterStats().exact_fallbacks,
            after_hard.exact_fallbacks);
}

TEST(PredicateFilterModeTest, ExactModeBypassesFilters) {
  ScopedPredicateMode exact_mode(PredicateMode::kExact);
  ASSERT_EQ(CurrentPredicateMode(), PredicateMode::kExact);
  const PredicateFilterStats before = LocalPredicateFilterStats();
  EXPECT_EQ(Orientation(Point(0, 0), Point(10, 0), Point(5, 3)), 1);
  EXPECT_TRUE(OnSegment(Point(5, 0), Point(0, 0), Point(10, 0)));
  EXPECT_EQ(WalkAreaSign({Point(0, 0), Point(10, 0), Point(5, 3)}), 1);
  std::vector<Point> cuts = {Point(5, 0), Point(5, 0), Point(0, 0)};
  SortAlongDirection(&cuts, Point(1, 0));
  EXPECT_EQ(cuts[0], Point(0, 0));
  const PredicateFilterStats after = LocalPredicateFilterStats();
  // Exact mode runs pure rational arithmetic without touching the stats.
  EXPECT_EQ(after.static_hits, before.static_hits);
  EXPECT_EQ(after.exact_fallbacks, before.exact_fallbacks);
}

}  // namespace
}  // namespace topodb
