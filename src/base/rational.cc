#include "src/base/rational.h"

#include <cmath>
#include <ostream>

#include "src/base/check.h"

namespace topodb {

namespace {

bool AllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

}  // namespace

Rational::Rational(BigInt numerator, BigInt denominator)
    : num_(std::move(numerator)), den_(std::move(denominator)) {
  TOPODB_CHECK_MSG(!den_.is_zero(), "Rational with zero denominator");
  Reduce();
}

void Rational::Reduce() {
  if (den_.is_negative()) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_.is_zero()) {
    den_ = BigInt(1);
    return;
  }
  if (den_ == BigInt(1)) return;  // Integers are already reduced.
  BigInt g = BigInt::Gcd(num_, den_);
  if (g != BigInt(1)) {
    num_ = num_ / g;
    den_ = den_ / g;
  }
}

bool Rational::FromString(std::string_view text, Rational* out) {
  // One grammar for all three forms (see rational.h): a single optional
  // leading sign applies to the whole value; every digit run is validated
  // here rather than delegated, so no branch accepts stray signs or empty
  // parts the others reject.
  bool negative = false;
  if (!text.empty() && (text[0] == '-' || text[0] == '+')) {
    negative = text[0] == '-';
    text.remove_prefix(1);
  }
  if (text.empty()) return false;

  const size_t slash = text.find('/');
  if (slash != std::string_view::npos) {
    const std::string_view num_part = text.substr(0, slash);
    const std::string_view den_part = text.substr(slash + 1);
    if (!AllDigits(num_part) || !AllDigits(den_part)) return false;
    BigInt num(num_part), den(den_part);
    if (den.is_zero()) return false;
    if (negative) num = -num;
    *out = Rational(std::move(num), std::move(den));
    return true;
  }

  const size_t dot = text.find('.');
  if (dot != std::string_view::npos) {
    const std::string_view int_part = text.substr(0, dot);
    const std::string_view frac = text.substr(dot + 1);
    // The integer part may be empty (".5"); the fractional part may not.
    if (!int_part.empty() && !AllDigits(int_part)) return false;
    if (!AllDigits(frac)) return false;
    std::string joined(int_part);
    joined.append(frac);
    BigInt num(joined);
    BigInt den(1);
    for (size_t i = 0; i < frac.size(); ++i) den = den * BigInt(10);
    if (negative) num = -num;
    *out = Rational(std::move(num), std::move(den));
    return true;
  }

  if (!AllDigits(text)) return false;
  BigInt num{text};
  if (negative) num = -num;
  *out = Rational(std::move(num));
  return true;
}

namespace {
thread_local bool tls_compare_filter = true;
}  // namespace

void SetRationalCompareFilterEnabled(bool enabled) {
  tls_compare_filter = enabled;
}

bool RationalCompareFilterEnabled() { return tls_compare_filter; }

int Rational::Compare(const Rational& other) const {
  // Signs first: avoids big multiplications in the common case.
  int s1 = num_.sign();
  int s2 = other.num_.sign();
  if (s1 != s2) return s1 < s2 ? -1 : 1;
  if (tls_compare_filter) {
    if (s1 == 0) return 0;
    // Equal denominators order by numerator alone; since values are kept
    // reduced, this also decides equality exactly. Catches every integer
    // pair and every pair on the same subdivision grid.
    if (den_.Compare(other.den_) == 0) return num_.Compare(other.num_);
    // Certified double stage, the same bound the static predicate filter
    // uses (src/geom/predicates.cc): for operands under 512 bits the
    // quotient of the two ToDouble() conversions carries relative error
    // below 2^-50, so a gap wider than 1.5 * 2^-50 * (|x| + |y|) certifies
    // the sign. Magnitudes stay inside [2^-513, 2^513], hence the quotients
    // and the tolerance can neither overflow nor go subnormal.
    if (num_.BitLength() <= 512 && den_.BitLength() <= 512 &&
        other.num_.BitLength() <= 512 && other.den_.BitLength() <= 512) {
      const double x = num_.ToDouble() / den_.ToDouble();
      const double y = other.num_.ToDouble() / other.den_.ToDouble();
      const double tol = 0x1.8p-50 * (std::fabs(x) + std::fabs(y));
      const double diff = x - y;
      if (diff > tol) return 1;
      if (diff < -tol) return -1;
    }
  }
  // Denominators are positive, so cross-multiplication preserves order.
  return (num_ * other.den_).Compare(other.num_ * den_);
}

Rational Rational::operator-() const {
  Rational result = *this;
  result.num_ = -result.num_;
  return result;
}

Rational Rational::operator+(const Rational& other) const {
  // Equal denominators (all integer pairs included) need no cross products;
  // the constructor's Reduce absorbs any common factor the sum introduces.
  // Gated with the compare filter so the disabled state stays the plain
  // textbook implementation the differential tests use as their oracle.
  if (tls_compare_filter && den_.Compare(other.den_) == 0) {
    return Rational(num_ + other.num_, den_);
  }
  return Rational(num_ * other.den_ + other.num_ * den_, den_ * other.den_);
}

Rational Rational::operator-(const Rational& other) const {
  if (tls_compare_filter && den_.Compare(other.den_) == 0) {
    return Rational(num_ - other.num_, den_);
  }
  return Rational(num_ * other.den_ - other.num_ * den_, den_ * other.den_);
}

Rational Rational::operator*(const Rational& other) const {
  return Rational(num_ * other.num_, den_ * other.den_);
}

Rational Rational::operator/(const Rational& other) const {
  TOPODB_CHECK_MSG(!other.is_zero(), "Rational division by zero");
  return Rational(num_ * other.den_, den_ * other.num_);
}

Rational& Rational::operator+=(const Rational& o) {
  if (this == &o) {
    // x += x doubles in place: the denominator is unchanged and the reduced
    // form stays reduced unless the doubled numerator shares a factor 2.
    num_ += num_;
    Reduce();
    return *this;
  }
  // Mirrors operator+ including the filter gating, so both spellings stay
  // bit-identical under either filter setting.
  if (tls_compare_filter && den_.Compare(o.den_) == 0) {
    num_ += o.num_;
  } else {
    num_ *= o.den_;
    num_ += o.num_ * den_;
    den_ *= o.den_;
  }
  Reduce();
  return *this;
}

Rational& Rational::operator-=(const Rational& o) {
  if (this == &o) {
    num_ = BigInt();
    den_ = BigInt(1);
    return *this;
  }
  if (tls_compare_filter && den_.Compare(o.den_) == 0) {
    num_ -= o.num_;
  } else {
    num_ *= o.den_;
    num_ -= o.num_ * den_;
    den_ *= o.den_;
  }
  Reduce();
  return *this;
}

Rational& Rational::operator*=(const Rational& o) {
  // Alias-safe: BigInt::operator*= reads both operands before writing.
  num_ *= o.num_;
  den_ *= o.den_;
  Reduce();
  return *this;
}

Rational& Rational::operator/=(const Rational& o) {
  TOPODB_CHECK_MSG(!o.is_zero(), "Rational division by zero");
  if (this == &o) {
    num_ = BigInt(1);
    den_ = BigInt(1);
    return *this;
  }
  num_ *= o.den_;
  den_ *= o.num_;
  Reduce();
  return *this;
}

Rational Rational::Abs() const {
  Rational result = *this;
  result.num_ = result.num_.Abs();
  return result;
}

double Rational::ToDouble() const {
  return num_.ToDouble() / den_.ToDouble();
}

std::string Rational::ToString() const {
  if (is_integer()) return num_.ToString();
  return num_.ToString() + "/" + den_.ToString();
}

std::ostream& operator<<(std::ostream& os, const Rational& value) {
  return os << value.ToString();
}

size_t Rational::Hash() const {
  return num_.Hash() * 1000003u + den_.Hash();
}

}  // namespace topodb
