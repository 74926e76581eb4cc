#ifndef TOPODB_BASE_RATIONAL_H_
#define TOPODB_BASE_RATIONAL_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "src/base/bigint.h"

namespace topodb {

// Exact rational number: numerator / denominator with denominator > 0 and
// gcd(|num|, den) == 1. All planar coordinates in the library are Rational,
// which makes every geometric predicate exact (see bigint.h).
class Rational {
 public:
  Rational() : num_(0), den_(1) {}
  Rational(int64_t value) : num_(value), den_(1) {}  // NOLINT: implicit
  Rational(BigInt value) : num_(std::move(value)), den_(1) {}  // NOLINT
  Rational(BigInt numerator, BigInt denominator);
  Rational(int64_t numerator, int64_t denominator)
      : Rational(BigInt(numerator), BigInt(denominator)) {}

  // Parses a rational literal. The three surface forms share one grammar:
  //
  //   rational := sign? (digits | digits '/' digits | digits? '.' digits)
  //   sign     := '-' | '+'
  //   digits   := [0-9]+
  //
  // The one optional sign comes first and applies to the whole value; the
  // '/' denominator is unsigned and must be nonzero. Leading zeros are
  // accepted ("007", "0.50"); a decimal may omit the integer part (".5")
  // but never the fractional part ("1." is malformed). Everything else —
  // empty input, whitespace, a signed denominator ("1/-2"), a bare sign
  // ("-", "-."), repeated dots — is rejected. Returns false on malformed
  // input or zero denominator.
  static bool FromString(std::string_view text, Rational* out);

  const BigInt& num() const { return num_; }
  const BigInt& den() const { return den_; }

  bool is_zero() const { return num_.is_zero(); }
  // -1, 0 or +1.
  int sign() const { return num_.sign(); }
  bool is_integer() const { return den_ == BigInt(1); }

  // Three-way comparison: -1, 0 or +1. Runs a certified double fast path
  // first (see RationalCompareFilterEnabled below) and falls back to exact
  // cross-multiplication whenever the fast path cannot certify the order,
  // so the result is always exact. That fast path and the predicate filter
  // (src/geom/predicates.h) are the library's only certified double
  // arithmetic; rationals offer no other double enclosure.
  int Compare(const Rational& other) const;

  Rational operator-() const;
  Rational operator+(const Rational& other) const;
  Rational operator-(const Rational& other) const;
  Rational operator*(const Rational& other) const;
  // other must be nonzero.
  Rational operator/(const Rational& other) const;

  // Compound assignments operate in place on num_/den_ (no whole-Rational
  // temporary), so small values never leave BigInt's inline limb buffers.
  Rational& operator+=(const Rational& o);
  Rational& operator-=(const Rational& o);
  Rational& operator*=(const Rational& o);
  // o must be nonzero.
  Rational& operator/=(const Rational& o);

  Rational Abs() const;

  static Rational Min(const Rational& a, const Rational& b) {
    return a.Compare(b) <= 0 ? a : b;
  }
  static Rational Max(const Rational& a, const Rational& b) {
    return a.Compare(b) >= 0 ? a : b;
  }

  double ToDouble() const;

  // "num" when integral, otherwise "num/den".
  std::string ToString() const;

  friend bool operator==(const Rational& a, const Rational& b) {
    return a.Compare(b) == 0;
  }
  friend bool operator!=(const Rational& a, const Rational& b) {
    return a.Compare(b) != 0;
  }
  friend bool operator<(const Rational& a, const Rational& b) {
    return a.Compare(b) < 0;
  }
  friend bool operator<=(const Rational& a, const Rational& b) {
    return a.Compare(b) <= 0;
  }
  friend bool operator>(const Rational& a, const Rational& b) {
    return a.Compare(b) > 0;
  }
  friend bool operator>=(const Rational& a, const Rational& b) {
    return a.Compare(b) >= 0;
  }

  friend std::ostream& operator<<(std::ostream& os, const Rational& value);

  size_t Hash() const;

 private:
  void Reduce();

  BigInt num_;
  BigInt den_;  // Always positive.
};

// Thread-local switch for the certified fast paths inside Rational::Compare
// (equal-denominator shortcut and double comparison with a proven error
// bound) and for the equal-denominator shortcut in operator+ / operator-.
// Both settings return identical values — the fast paths answer only when
// the result is certified — so the switch exists purely to keep the
// disabled state a plain textbook implementation: the unaccelerated
// baseline for benchmarks and the independent oracle for differential
// tests. ScopedPredicateMode
// (src/geom/predicates.h) keeps it in sync with the predicate filter mode;
// prefer that RAII over calling the setter directly. Defaults to enabled.
void SetRationalCompareFilterEnabled(bool enabled);
bool RationalCompareFilterEnabled();

}  // namespace topodb

#endif  // TOPODB_BASE_RATIONAL_H_
