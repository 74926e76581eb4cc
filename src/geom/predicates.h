#ifndef TOPODB_GEOM_PREDICATES_H_
#define TOPODB_GEOM_PREDICATES_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/geom/point.h"

namespace topodb {

// Exact geometric predicates. Every return value is a decision, never an
// approximation; robustness of the whole cell-complex pipeline rests here.
//
// Each predicate runs in two tiers (DESIGN.md §5e-f):
//   1. semi-static double filter — evaluate in doubles alongside a certified
//      absolute error bound; conclusive when |value| exceeds the bound (or
//      when every input is a small exact integer, in which case the double
//      result is the exact value, zero included);
//   2. exact rational evaluation — the arbitrary-precision path, which
//      decides every sign the filter leaves uncertain.
// The filter may only ever answer "certain" or "uncertain", never a wrong
// sign, so every predicate below returns the same decision the pure
// rational evaluation would — only faster. The *Exact variants skip the
// filter entirely and are kept callable for differential testing.
//
// CellComplex::Build decides every sign through these predicates or
// through Rational comparisons (whose own certified fast path follows the
// same mode switch), so this filter is the overlay's only certified double
// arithmetic; the grid broad phase's padded boxes are a superset prefilter,
// not a decision.

// Sign of the signed area of triangle (a, b, c):
//   +1  c lies to the left of directed line a->b (counterclockwise turn),
//    0  collinear,
//   -1  right / clockwise turn.
int Orientation(const Point& a, const Point& b, const Point& c);
int OrientationExact(const Point& a, const Point& b, const Point& c);

// True iff p lies on the closed segment [a, b] (degenerate segments allowed).
bool OnSegment(const Point& p, const Point& a, const Point& b);
bool OnSegmentExact(const Point& p, const Point& a, const Point& b);

// True iff p lies strictly inside the open segment (a, b).
bool StrictlyInsideSegment(const Point& p, const Point& a, const Point& b);
bool StrictlyInsideSegmentExact(const Point& p, const Point& a,
                                const Point& b);

// Result of intersecting two closed segments.
struct SegmentIntersection {
  enum class Kind {
    kNone,     // disjoint
    kPoint,    // exactly one common point (stored in p0)
    kOverlap,  // collinear overlap along [p0, p1], p0 != p1
  };
  Kind kind = Kind::kNone;
  Point p0;
  Point p1;
};

// Exact intersection of closed segments [a,b] and [c,d]. The filtered entry
// point rejects the common disjoint case from orientation signs alone; any
// pair that actually intersects falls through to exact rational arithmetic,
// so reported intersection points are always exact.
SegmentIntersection IntersectSegments(const Point& a, const Point& b,
                                      const Point& c, const Point& d);
SegmentIntersection IntersectSegmentsExact(const Point& a, const Point& b,
                                           const Point& c, const Point& d);

// Strict cyclic counterclockwise order on direction vectors (nonzero).
// Directions are ranked starting from the positive x-axis, sweeping
// counterclockwise; ties (equal directions) compare false both ways.
// This is the comparator that builds rotation systems around vertices.
bool CcwDirectionLess(const Point& u, const Point& v);
bool CcwDirectionLessExact(const Point& u, const Point& v);

// True iff the two direction vectors are positive multiples of each other.
bool SameDirection(const Point& u, const Point& v);
bool SameDirectionExact(const Point& u, const Point& v);

// Sign of Dot(p - q, dir): orders points along a carrier direction without
// materializing the rational difference. This is the comparator used to
// sort cut points along a segment.
int CompareAlongDirection(const Point& p, const Point& q, const Point& dir);
int CompareAlongDirectionExact(const Point& p, const Point& q,
                               const Point& dir);

// Sorts points by Dot(p, dir), the order CompareAlongDirection decides;
// points with equal keys end up adjacent, in unspecified order. The
// filtered sort computes each point's filtered Dot(p, dir) once and orders
// a pair from the two keys when their certified error bands are disjoint;
// every other pair goes to CompareAlongDirection, and only those deferrals
// count in the stats.
void SortAlongDirection(std::vector<Point>* points, const Point& dir);
void SortAlongDirectionExact(std::vector<Point>* points, const Point& dir);

// Sign of the signed area of the closed walk walk[0], walk[1], ...,
// walk[0] (the sum of Cross(walk[i], walk[i + 1])): +1 counterclockwise,
// -1 clockwise, 0 degenerate.
int WalkAreaSign(const std::vector<Point>& walk);
int WalkAreaSignExact(const std::vector<Point>& walk);

// --- Filter observability ------------------------------------------------

// Per-thread tallies of how each filtered sign evaluation was resolved.
// Monotone counters; callers snapshot before/after a region of work and
// publish the deltas (the arrangement builder exports them as the
// predicates.* counters in topodb.metrics.v2). Thread-local so concurrent
// pipeline workers never contend or cross-pollute.
struct PredicateFilterStats {
  uint64_t static_hits = 0;      // resolved by the semi-static double filter
  uint64_t exact_fallbacks = 0;  // required the exact rational evaluation
};
const PredicateFilterStats& LocalPredicateFilterStats();

// --- Evaluation mode ------------------------------------------------------

// Per-thread predicate evaluation mode. In kExact mode the filtered entry
// points above skip the filter and run pure rational arithmetic
// (without touching the stats), so a differential test or an arrangement
// built under ScopedPredicateMode(PredicateMode::kExact) exercises the
// exact path end to end — including predicates reached indirectly, e.g.
// through Polygon::Locate. A CellComplex::Build runs in the mode of the
// thread that calls it; this is the one switch.
enum class PredicateMode { kFiltered, kExact };

PredicateMode CurrentPredicateMode();

// Installs a predicate mode for the lifetime of the scope (this thread).
class ScopedPredicateMode {
 public:
  explicit ScopedPredicateMode(PredicateMode mode);
  ~ScopedPredicateMode();
  ScopedPredicateMode(const ScopedPredicateMode&) = delete;
  ScopedPredicateMode& operator=(const ScopedPredicateMode&) = delete;

 private:
  PredicateMode saved_;
};

}  // namespace topodb

#endif  // TOPODB_GEOM_PREDICATES_H_
