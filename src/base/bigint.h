#ifndef TOPODB_BASE_BIGINT_H_
#define TOPODB_BASE_BIGINT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "src/base/limbvec.h"

namespace topodb {

// Arbitrary-precision signed integer.
//
// Exact integer arithmetic is the bedrock of the whole library: every
// topological decision made while building the cell complex (orientation of
// three points, ordering of edges around a vertex, coincidence of
// intersection points) reduces to the sign of an integer expression, and a
// single wrong sign produces a wrong invariant. Coordinates are rationals
// over BigInt (see rational.h), so all such signs are computed exactly.
//
// Representation: sign (-1/0/+1) and little-endian base-2^32 magnitude with
// no leading zero limbs; sign_ == 0 iff limbs_ is empty. Limbs live in a
// LimbVec (limbvec.h): up to 8 limbs (256 bits) are stored inline in the
// object, so the one- and two-limb values the geometry pipeline
// overwhelmingly produces never touch the allocator, and every arithmetic
// operator has a branch-predictable 64/128-bit fast path that promotes to
// the general limb algorithms only on overflow. The general algorithms
// favour simplicity and correctness over asymptotics: schoolbook
// multiplication and Knuth's Algorithm D division.
class BigInt {
 public:
  BigInt() : sign_(0) {}
  BigInt(int64_t value);  // NOLINT: implicit by design (numeric literal use)

  // Parses an optionally signed decimal string. Aborts on malformed input;
  // use FromString for fallible parsing.
  explicit BigInt(std::string_view decimal);

  // Returns false on malformed input.
  static bool FromString(std::string_view decimal, BigInt* out);

  bool is_zero() const { return sign_ == 0; }
  bool is_negative() const { return sign_ < 0; }
  bool is_positive() const { return sign_ > 0; }
  // -1, 0 or +1.
  int sign() const { return sign_; }

  // Returns -1/0/+1 as *this is less than / equal to / greater than other.
  int Compare(const BigInt& other) const;

  BigInt operator-() const;
  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  // Truncated division (C semantics): quotient rounds toward zero and the
  // remainder has the sign of the dividend. other must be nonzero.
  BigInt operator/(const BigInt& other) const;
  BigInt operator%(const BigInt& other) const;

  // Compound assignments operate in place: small values stay in the inline
  // limb buffer, larger same-sign additions reuse the existing storage.
  // (Multiplication of multi-limb values still builds a fresh product
  // buffer — schoolbook multiplication cannot run in place.)
  BigInt& operator+=(const BigInt& other) {
    return AddInPlace(other.sign_, other.limbs_);
  }
  BigInt& operator-=(const BigInt& other) {
    return AddInPlace(-other.sign_, other.limbs_);
  }
  BigInt& operator*=(const BigInt& other);

  // Computes quotient and remainder in one pass; either output may be null.
  static void DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                     BigInt* remainder);

  // Greatest common divisor of the absolute values; Gcd(0, 0) == 0.
  static BigInt Gcd(const BigInt& a, const BigInt& b);

  // *this * 2^bits; bits must be non-negative.
  BigInt ShiftLeft(int bits) const;

  BigInt Abs() const;

  // Number of significant bits of the magnitude (0 for zero).
  int BitLength() const;

  // Exact conversion when the value fits in int64_t; returns false otherwise.
  bool ToInt64(int64_t* out) const;

  // Nearest double (round via long-double accumulation of high limbs).
  double ToDouble() const;

  std::string ToString() const;

  friend bool operator==(const BigInt& a, const BigInt& b) {
    return a.Compare(b) == 0;
  }
  friend bool operator!=(const BigInt& a, const BigInt& b) {
    return a.Compare(b) != 0;
  }
  friend bool operator<(const BigInt& a, const BigInt& b) {
    return a.Compare(b) < 0;
  }
  friend bool operator<=(const BigInt& a, const BigInt& b) {
    return a.Compare(b) <= 0;
  }
  friend bool operator>(const BigInt& a, const BigInt& b) {
    return a.Compare(b) > 0;
  }
  friend bool operator>=(const BigInt& a, const BigInt& b) {
    return a.Compare(b) >= 0;
  }

  friend std::ostream& operator<<(std::ostream& os, const BigInt& value);

  // Hash compatible with operator==.
  size_t Hash() const;

 private:
  // *this += osign * olimbs, in place where possible. Safe when olimbs
  // aliases this->limbs_.
  BigInt& AddInPlace(int osign, const LimbVec& olimbs);

  // Overwrites *this with sign * mag (sign_ becomes 0 when mag is 0).
  void SetMag64(uint64_t mag, int sign);
  void SetMag128(unsigned __int128 mag, int sign);
  void SetI128(__int128 value);

  // Compares magnitudes only.
  static int CompareMagnitude(const LimbVec& a, const LimbVec& b);
  static LimbVec AddMagnitude(const LimbVec& a, const LimbVec& b);
  // Requires |a| >= |b|.
  static LimbVec SubMagnitude(const LimbVec& a, const LimbVec& b);
  // In-place variants; Sub requires |a| >= |b|. Add is alias-safe.
  static void AddMagnitudeInPlace(LimbVec* a, const LimbVec& b);
  static void SubMagnitudeInPlace(LimbVec* a, const LimbVec& b);
  void Trim();

  int sign_;
  LimbVec limbs_;
};

}  // namespace topodb

#endif  // TOPODB_BASE_BIGINT_H_
