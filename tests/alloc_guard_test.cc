// Proof that the small-value predicate path never touches the heap. Global
// operator new/delete are replaced with counting versions; each measured
// region runs real predicate and arithmetic workloads and asserts an
// allocation delta of exactly zero. The guarantee rests on the inline
// LimbVec buffer (8 limbs) and the 64/128-bit BigInt fast paths, which
// serve both predicate tiers: the semi-static double filter and the exact
// rational evaluation behind it. A regression in either shows up here as a
// nonzero count.
//
// Measured regions contain only the operations under test: no gtest
// assertions, no ToString, no container growth. Every input is constructed
// (and every code path warmed, for lazily-initialized thread-locals)
// before counting starts.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/bigint.h"
#include "src/base/rational.h"
#include "src/geom/point.h"
#include "src/geom/predicates.h"

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace topodb {
namespace {

// Runs fn once to warm lazy state, then measures the second run.
template <typename Fn>
uint64_t AllocationsIn(Fn&& fn) {
  fn();
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  fn();
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(AllocGuardTest, CountingHookIsLive) {
  // Sanity: the overridden operator new is actually the one in effect.
  // Called directly (not via a new-expression) so the compiler cannot
  // elide the allocation as a paired new/delete.
  const uint64_t n = AllocationsIn([] {
    void* p = ::operator new(16);
    ::operator delete(p);
  });
  EXPECT_GE(n, 1u);
}

TEST(AllocGuardTest, SmallBigIntArithmeticIsAllocationFree) {
  const BigInt a(123456789), b(-987654321), c(715827883);
  volatile int sink = 0;
  const uint64_t n = AllocationsIn([&] {
    BigInt acc(1);
    for (int i = 0; i < 100; ++i) {
      acc = a * b + c;
      acc += a;
      acc -= b;
      acc *= c;
      BigInt q, r;
      BigInt::DivMod(acc, c, &q, &r);
      acc = BigInt::Gcd(q, r);
      sink = sink + acc.sign() + acc.Compare(b);
    }
  });
  EXPECT_EQ(n, 0u) << "small BigInt ops hit the allocator";
}

TEST(AllocGuardTest, SmallRationalArithmeticIsAllocationFree) {
  const Rational a(355, 113), b(-22, 7), c(1, 3);
  volatile int sink = 0;
  const uint64_t n = AllocationsIn([&] {
    Rational acc(1);
    for (int i = 0; i < 100; ++i) {
      acc = a * b + c;
      acc += a;
      acc -= b;
      acc *= c;
      acc /= a;
      sink = sink + acc.sign();
    }
  });
  EXPECT_EQ(n, 0u) << "small Rational ops hit the allocator";
}

TEST(AllocGuardTest, SmallIntegerPredicatesAreAllocationFree) {
  // Integer coordinates resolved by the static filter stage: the hot path
  // of every grid/chain/random-rect arrangement build.
  const Point a(0, 0), b(10, 0), c(5, 3), d(5, -3), col(5, 0);
  const Point u = b - a, v = c - d;
  const std::vector<Point> walk = {a, b, c, col};
  volatile int sink = 0;
  const uint64_t n = AllocationsIn([&] {
    for (int i = 0; i < 100; ++i) {
      sink = sink + Orientation(a, b, c) + Orientation(a, b, col);
      sink = sink + WalkAreaSign(walk);
      sink = sink + (OnSegment(col, a, b) ? 1 : 0);
      sink = sink + (StrictlyInsideSegment(col, a, b) ? 1 : 0);
      sink = sink + (CcwDirectionLess(u, v) ? 1 : 0);
      sink = sink + (SameDirection(u, v) ? 1 : 0);
      sink = sink + CompareAlongDirection(a, c, u);
    }
  });
  EXPECT_EQ(n, 0u) << "small-integer predicate path hit the allocator";
}

TEST(AllocGuardTest, SmallIntegerSegmentIntersectionIsAllocationFree) {
  // A disjoint pair (the overwhelmingly common broad-phase outcome) and a
  // crossing pair whose intersection point has single-limb coordinates.
  const Point a(0, 0), b(10, 0), c(2, -5), d(2, 5), e(20, 1), f(30, 2);
  volatile int sink = 0;
  const uint64_t n = AllocationsIn([&] {
    for (int i = 0; i < 100; ++i) {
      const SegmentIntersection miss = IntersectSegments(a, b, e, f);
      const SegmentIntersection hit = IntersectSegments(a, b, c, d);
      sink = sink + static_cast<int>(miss.kind) + static_cast<int>(hit.kind) +
             hit.p0.x.sign();
    }
  });
  EXPECT_EQ(n, 0u) << "small-integer segment intersection hit the allocator";
}

TEST(AllocGuardTest, StretchScaledPredicatesAreAllocationFree) {
  // Stretch-scaled near-collinear inputs: the double filter declines and
  // the exact rational evaluation decides. Its 3-limb operands and the
  // products and gcds it forms stay inside the inline LimbVec buffer, so
  // the fallback must be allocation-free too.
  const Rational stretch(BigInt(1).ShiftLeft(64), BigInt(3));
  const Point a(Rational(3) * stretch, Rational(4) * stretch);
  const Point b(Rational(11) * stretch, Rational(7) * stretch);
  const Point mid = a + (b - a) * Rational(1, 2);
  ASSERT_EQ(Orientation(a, b, mid), 0);
  const std::vector<Point> walk = {a, mid, b};  // Zero area.
  const PredicateFilterStats before = LocalPredicateFilterStats();
  volatile int sink = 0;
  const uint64_t n = AllocationsIn([&] {
    for (int i = 0; i < 50; ++i) {
      sink = sink + Orientation(a, b, mid) + WalkAreaSign(walk);
    }
  });
  const PredicateFilterStats after = LocalPredicateFilterStats();
  ASSERT_GT(after.exact_fallbacks, before.exact_fallbacks);  // Right tier.
  EXPECT_EQ(n, 0u) << "stretch-scaled predicate path hit the allocator";
}

TEST(AllocGuardTest, ExactModeSmallPredicatesAreAllocationFree) {
  // Even the pure rational path must stay allocation-free on small inputs:
  // differential (exact-mode) builds run entirely through it.
  ScopedPredicateMode exact(PredicateMode::kExact);
  const Point a(0, 0), b(10, 0), c(5, 3), col(5, 0);
  const std::vector<Point> walk = {a, b, c, col};
  volatile int sink = 0;
  const uint64_t n = AllocationsIn([&] {
    for (int i = 0; i < 100; ++i) {
      sink = sink + Orientation(a, b, c) + Orientation(a, b, col);
      sink = sink + WalkAreaSign(walk);
    }
  });
  EXPECT_EQ(n, 0u) << "exact-mode small predicate path hit the allocator";
}

}  // namespace
}  // namespace topodb
