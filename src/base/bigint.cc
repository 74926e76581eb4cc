#include "src/base/bigint.h"

#include <algorithm>
#include <ostream>
#include <vector>

#include "src/base/check.h"

namespace topodb {

namespace {

using u128 = unsigned __int128;
using i128 = __int128;

constexpr uint64_t kBase = uint64_t{1} << 32;

// Magnitude of a <=2-limb value as a machine word. Callers must check the
// limb count first.
inline uint64_t MagU64(const LimbVec& limbs) {
  uint64_t mag = 0;
  if (limbs.size() > 0) mag = limbs[0];
  if (limbs.size() > 1) mag |= uint64_t{limbs[1]} << 32;
  return mag;
}

// Magnitude of a <=4-limb value.
inline u128 MagU128(const LimbVec& limbs) {
  u128 mag = 0;
  for (size_t i = limbs.size(); i-- > 0;) {
    mag = (mag << 32) | limbs[i];
  }
  return mag;
}

// Index of the lowest set bit of a nonzero magnitude.
inline int TrailingZeroBits(const LimbVec& limbs) {
  size_t i = 0;
  while (limbs[i] == 0) ++i;
  return static_cast<int>(i) * 32 + __builtin_ctz(limbs[i]);
}

// Shifts the magnitude right by `bits` in place and trims leading zeros.
void ShiftRightInPlace(LimbVec* limbs, int bits) {
  if (bits == 0) return;
  const size_t limb_shift = static_cast<size_t>(bits) / 32;
  const int bit_shift = bits % 32;
  const size_t n = limbs->size();
  if (limb_shift >= n) {
    limbs->clear();
    return;
  }
  for (size_t i = 0; i + limb_shift < n; ++i) {
    uint64_t cur = uint64_t{(*limbs)[i + limb_shift]} >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < n) {
      cur |= uint64_t{(*limbs)[i + limb_shift + 1]} << (32 - bit_shift);
    }
    (*limbs)[i] = static_cast<uint32_t>(cur);
  }
  limbs->resize(n - limb_shift);
  while (!limbs->empty() && limbs->back() == 0) limbs->pop_back();
}

// Multiplies the magnitude in place by a small factor and adds a carry-in.
void MulAddSmall(LimbVec* limbs, uint32_t factor, uint32_t addend) {
  uint64_t carry = addend;
  for (uint32_t& limb : *limbs) {
    uint64_t cur = uint64_t{limb} * factor + carry;
    limb = static_cast<uint32_t>(cur & 0xffffffffu);
    carry = cur >> 32;
  }
  if (carry != 0) limbs->push_back(static_cast<uint32_t>(carry));
}

// Divides the magnitude in place by a small divisor; returns the remainder.
uint32_t DivModSmall(LimbVec* limbs, uint32_t divisor) {
  uint64_t rem = 0;
  for (size_t i = limbs->size(); i-- > 0;) {
    uint64_t cur = (rem << 32) | (*limbs)[i];
    (*limbs)[i] = static_cast<uint32_t>(cur / divisor);
    rem = cur % divisor;
  }
  while (!limbs->empty() && limbs->back() == 0) limbs->pop_back();
  return static_cast<uint32_t>(rem);
}

}  // namespace

void BigInt::SetMag64(uint64_t mag, int sign) {
  limbs_.clear();
  if (mag == 0) {
    sign_ = 0;
    return;
  }
  sign_ = sign;
  limbs_.push_back(static_cast<uint32_t>(mag & 0xffffffffu));
  if (mag >> 32) limbs_.push_back(static_cast<uint32_t>(mag >> 32));
}

void BigInt::SetMag128(u128 mag, int sign) {
  limbs_.clear();
  if (mag == 0) {
    sign_ = 0;
    return;
  }
  sign_ = sign;
  while (mag != 0) {
    limbs_.push_back(static_cast<uint32_t>(mag & 0xffffffffu));
    mag >>= 32;
  }
}

void BigInt::SetI128(i128 value) {
  // Two's-complement negate in unsigned space; well-defined for any input.
  u128 mag = value < 0 ? ~static_cast<u128>(value) + 1 : static_cast<u128>(value);
  SetMag128(mag, value < 0 ? -1 : 1);
}

BigInt::BigInt(int64_t value) {
  sign_ = 0;
  if (value == 0) return;
  // Avoid overflow on INT64_MIN by working in uint64_t.
  uint64_t mag = value > 0 ? static_cast<uint64_t>(value)
                           : ~static_cast<uint64_t>(value) + 1;
  SetMag64(mag, value > 0 ? 1 : -1);
}

BigInt::BigInt(std::string_view decimal) {
  TOPODB_CHECK_MSG(FromString(decimal, this), "malformed BigInt literal");
}

bool BigInt::FromString(std::string_view decimal, BigInt* out) {
  out->sign_ = 0;
  out->limbs_.clear();
  if (decimal.empty()) return false;
  bool negative = false;
  size_t i = 0;
  if (decimal[0] == '-' || decimal[0] == '+') {
    negative = decimal[0] == '-';
    i = 1;
  }
  if (i == decimal.size()) return false;
  for (; i < decimal.size(); ++i) {
    char c = decimal[i];
    if (c < '0' || c > '9') return false;
    MulAddSmall(&out->limbs_, 10, static_cast<uint32_t>(c - '0'));
  }
  while (!out->limbs_.empty() && out->limbs_.back() == 0) {
    out->limbs_.pop_back();
  }
  out->sign_ = out->limbs_.empty() ? 0 : (negative ? -1 : 1);
  return true;
}

void BigInt::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) sign_ = 0;
}

int BigInt::CompareMagnitude(const LimbVec& a, const LimbVec& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

int BigInt::Compare(const BigInt& other) const {
  if (sign_ != other.sign_) return sign_ < other.sign_ ? -1 : 1;
  int mag = CompareMagnitude(limbs_, other.limbs_);
  return sign_ >= 0 ? mag : -mag;
}

LimbVec BigInt::AddMagnitude(const LimbVec& a, const LimbVec& b) {
  const LimbVec& longer = a.size() >= b.size() ? a : b;
  const LimbVec& shorter = a.size() >= b.size() ? b : a;
  LimbVec result;
  result.reserve(longer.size() + 1);
  uint64_t carry = 0;
  for (size_t i = 0; i < longer.size(); ++i) {
    uint64_t cur = carry + longer[i] + (i < shorter.size() ? shorter[i] : 0);
    result.push_back(static_cast<uint32_t>(cur & 0xffffffffu));
    carry = cur >> 32;
  }
  if (carry) result.push_back(static_cast<uint32_t>(carry));
  return result;
}

LimbVec BigInt::SubMagnitude(const LimbVec& a, const LimbVec& b) {
  TOPODB_CHECK(CompareMagnitude(a, b) >= 0);
  LimbVec result;
  result.reserve(a.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t cur = static_cast<int64_t>(a[i]) - borrow -
                  (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (cur < 0) {
      cur += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    result.push_back(static_cast<uint32_t>(cur));
  }
  while (!result.empty() && result.back() == 0) result.pop_back();
  return result;
}

void BigInt::AddMagnitudeInPlace(LimbVec* a, const LimbVec& b) {
  // Alias-safe even when a and &b are the same object: each index is read
  // (from both operands) before it is written, and the loop bound is taken
  // before any push_back.
  const size_t n = std::max(a->size(), b.size());
  a->reserve(n + 1);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t cur = carry + (i < a->size() ? (*a)[i] : 0) +
                   (i < b.size() ? b[i] : 0);
    const uint32_t low = static_cast<uint32_t>(cur & 0xffffffffu);
    if (i < a->size()) {
      (*a)[i] = low;
    } else {
      a->push_back(low);
    }
    carry = cur >> 32;
  }
  if (carry) a->push_back(static_cast<uint32_t>(carry));
}

void BigInt::SubMagnitudeInPlace(LimbVec* a, const LimbVec& b) {
  int64_t borrow = 0;
  for (size_t i = 0; i < a->size(); ++i) {
    int64_t cur = static_cast<int64_t>((*a)[i]) - borrow -
                  (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (cur < 0) {
      cur += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    (*a)[i] = static_cast<uint32_t>(cur);
  }
  while (!a->empty() && a->back() == 0) a->pop_back();
}

BigInt BigInt::operator-() const {
  BigInt result = *this;
  result.sign_ = -result.sign_;
  return result;
}

BigInt BigInt::operator+(const BigInt& other) const {
  if (limbs_.size() <= 2 && other.limbs_.size() <= 2) {
    // Signed 128-bit sum of two <=65-bit values; cannot overflow.
    BigInt result;
    result.SetI128(i128(sign_) * i128(MagU64(limbs_)) +
                   i128(other.sign_) * i128(MagU64(other.limbs_)));
    return result;
  }
  if (sign_ == 0) return other;
  if (other.sign_ == 0) return *this;
  BigInt result;
  if (sign_ == other.sign_) {
    result.limbs_ = AddMagnitude(limbs_, other.limbs_);
    result.sign_ = sign_;
    return result;
  }
  int mag = CompareMagnitude(limbs_, other.limbs_);
  if (mag == 0) return BigInt();
  if (mag > 0) {
    result.limbs_ = SubMagnitude(limbs_, other.limbs_);
    result.sign_ = sign_;
  } else {
    result.limbs_ = SubMagnitude(other.limbs_, limbs_);
    result.sign_ = other.sign_;
  }
  return result;
}

BigInt BigInt::operator-(const BigInt& other) const {
  if (limbs_.size() <= 2 && other.limbs_.size() <= 2) {
    BigInt result;
    result.SetI128(i128(sign_) * i128(MagU64(limbs_)) -
                   i128(other.sign_) * i128(MagU64(other.limbs_)));
    return result;
  }
  return *this + (-other);
}

BigInt& BigInt::AddInPlace(int osign, const LimbVec& olimbs) {
  if (limbs_.size() <= 2 && olimbs.size() <= 2) {
    SetI128(i128(sign_) * i128(MagU64(limbs_)) +
            i128(osign) * i128(MagU64(olimbs)));
    return *this;
  }
  if (osign == 0) return *this;
  if (sign_ == 0) {
    limbs_ = olimbs;
    sign_ = osign;
    return *this;
  }
  if (sign_ == osign) {
    AddMagnitudeInPlace(&limbs_, olimbs);
    return *this;
  }
  const int mag = CompareMagnitude(limbs_, olimbs);
  if (mag == 0) {
    limbs_.clear();
    sign_ = 0;
  } else if (mag > 0) {
    SubMagnitudeInPlace(&limbs_, olimbs);
  } else {
    // |other| dominates; the reversed subtraction needs a fresh buffer.
    LimbVec r = SubMagnitude(olimbs, limbs_);
    limbs_ = std::move(r);
    sign_ = osign;
  }
  return *this;
}

BigInt& BigInt::operator*=(const BigInt& other) {
  if (limbs_.size() <= 2 && other.limbs_.size() <= 2) {
    const int sign = sign_ * other.sign_;
    SetMag128(u128(MagU64(limbs_)) * u128(MagU64(other.limbs_)), sign);
    return *this;
  }
  return *this = *this * other;
}

BigInt BigInt::operator*(const BigInt& other) const {
  if (limbs_.size() <= 2 && other.limbs_.size() <= 2) {
    BigInt result;
    result.SetMag128(u128(MagU64(limbs_)) * u128(MagU64(other.limbs_)),
                     sign_ * other.sign_);
    return result;
  }
  if (sign_ == 0 || other.sign_ == 0) return BigInt();
  BigInt result;
  result.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < other.limbs_.size(); ++j) {
      uint64_t cur = result.limbs_[i + j] +
                     uint64_t{limbs_[i]} * other.limbs_[j] + carry;
      result.limbs_[i + j] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    size_t k = i + other.limbs_.size();
    while (carry) {
      uint64_t cur = result.limbs_[k] + carry;
      result.limbs_[k] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  result.sign_ = sign_ * other.sign_;
  result.Trim();
  return result;
}

void BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                    BigInt* remainder) {
  TOPODB_CHECK_MSG(b.sign_ != 0, "division by zero");
  if (b.limbs_.size() <= 2 && a.limbs_.size() <= 4) {
    // 128/64-bit machine division. Magnitudes are read before either
    // output is written, so outputs may alias the inputs.
    const u128 am = MagU128(a.limbs_);
    const uint64_t bm = MagU64(b.limbs_);
    const int qsign = a.sign_ * b.sign_;
    const int rsign = a.sign_;
    if (quotient) quotient->SetMag128(am / bm, qsign);
    if (remainder) remainder->SetMag128(am % bm, rsign);
    return;
  }
  int cmp = CompareMagnitude(a.limbs_, b.limbs_);
  if (cmp < 0) {
    if (quotient) *quotient = BigInt();
    if (remainder) *remainder = a;
    return;
  }
  // Fast path: single-limb divisor.
  if (b.limbs_.size() == 1) {
    LimbVec q = a.limbs_;
    uint32_t r = DivModSmall(&q, b.limbs_[0]);
    if (quotient) {
      quotient->limbs_ = std::move(q);
      quotient->sign_ = a.sign_ * b.sign_;
      quotient->Trim();
    }
    if (remainder) {
      *remainder = BigInt(static_cast<int64_t>(r));
      if (a.sign_ < 0) *remainder = -*remainder;
    }
    return;
  }
  // Knuth Algorithm D (TAOCP 4.3.1) on base-2^32 limbs: one estimated
  // quotient limb per step, O(m * n) limb operations total. The geometry
  // pipeline reduces rationals whose numerators reach hundreds of bits
  // (products of stretched coordinates); the bit-at-a-time schoolbook
  // division this replaced cost O(bits * n) and dominated those profiles.
  const size_t n = b.limbs_.size();
  const size_t m = a.limbs_.size();
  // Normalize: shift so the divisor's top limb has its high bit set, which
  // bounds the per-step quotient estimate within 2 of the true limb.
  int shift = 0;
  for (uint32_t top = b.limbs_.back(); (top & 0x80000000u) == 0; top <<= 1) {
    ++shift;
  }
  LimbVec vn;
  vn.assign(n, 0);
  for (size_t i = n; i-- > 0;) {
    uint64_t cur = uint64_t{b.limbs_[i]} << shift;
    vn[i] |= static_cast<uint32_t>(cur & 0xffffffffu);
    if (i + 1 < n) vn[i + 1] |= static_cast<uint32_t>(cur >> 32);
  }
  LimbVec un;
  un.assign(m + 1, 0);
  for (size_t i = m; i-- > 0;) {
    uint64_t cur = uint64_t{a.limbs_[i]} << shift;
    un[i] |= static_cast<uint32_t>(cur & 0xffffffffu);
    un[i + 1] |= static_cast<uint32_t>(cur >> 32);
  }
  LimbVec q;
  q.assign(m - n + 1, 0);
  // Signs are read now so outputs may alias the inputs.
  const int qsign = a.sign_ * b.sign_;
  const int rsign = a.sign_;
  const uint64_t vtop = vn[n - 1];
  const uint64_t vnext = vn[n - 2];
  for (size_t j = m - n + 1; j-- > 0;) {
    // Estimate the quotient limb from the top two limbs of the current
    // remainder window against the top limb of the divisor.
    const uint64_t numer = (uint64_t{un[j + n]} << 32) | un[j + n - 1];
    uint64_t qhat = numer / vtop;
    uint64_t rhat = numer % vtop;
    while (qhat > 0xffffffffu ||
           qhat * vnext > ((rhat << 32) | un[j + n - 2])) {
      --qhat;
      rhat += vtop;
      if (rhat > 0xffffffffu) break;
    }
    // Multiply-subtract qhat * vn from the window un[j .. j+n].
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t p = qhat * vn[i] + carry;
      carry = p >> 32;
      const int64_t t =
          int64_t{un[i + j]} - static_cast<int64_t>(p & 0xffffffffu) - borrow;
      un[i + j] = static_cast<uint32_t>(t & 0xffffffff);
      borrow = (t < 0) ? 1 : 0;
    }
    const int64_t t =
        int64_t{un[j + n]} - static_cast<int64_t>(carry) - borrow;
    un[j + n] = static_cast<uint32_t>(t & 0xffffffff);
    if (t < 0) {
      // Estimate was one too large (rare): add the divisor back.
      --qhat;
      uint64_t c = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t sum = uint64_t{un[i + j]} + vn[i] + c;
        un[i + j] = static_cast<uint32_t>(sum & 0xffffffffu);
        c = sum >> 32;
      }
      un[j + n] = static_cast<uint32_t>(un[j + n] + c);
    }
    q[j] = static_cast<uint32_t>(qhat);
  }
  if (quotient) {
    quotient->limbs_ = std::move(q);
    quotient->sign_ = qsign;
    quotient->Trim();
  }
  if (remainder) {
    // Denormalize: the low n limbs of un, shifted back right.
    LimbVec r;
    r.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
      uint64_t cur = uint64_t{un[i]} >> shift;
      if (shift != 0 && i + 1 < n) {
        cur |= uint64_t{un[i + 1]} << (32 - shift);
      }
      r[i] = static_cast<uint32_t>(cur & 0xffffffffu);
    }
    remainder->limbs_ = std::move(r);
    remainder->sign_ = rsign;
    remainder->Trim();
  }
}

BigInt BigInt::operator/(const BigInt& other) const {
  BigInt q;
  DivMod(*this, other, &q, nullptr);
  return q;
}

BigInt BigInt::operator%(const BigInt& other) const {
  BigInt r;
  DivMod(*this, other, nullptr, &r);
  return r;
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() <= 2 && b.limbs_.size() <= 2) {
    uint64_t x = MagU64(a.limbs_);
    uint64_t y = MagU64(b.limbs_);
    while (y != 0) {
      uint64_t t = x % y;
      x = y;
      y = t;
    }
    BigInt result;
    result.SetMag64(x, 1);
    return result;
  }
  BigInt x = a.Abs();
  BigInt y = b.Abs();
  if (x.is_zero()) return y;
  if (y.is_zero()) return x;
  // Binary (Stein) GCD on magnitudes: strip shared powers of two, then
  // subtract-and-shift — every round removes at least one bit, and no
  // round divides. Rational reduction gcds operands of hundreds of bits
  // (products of stretched coordinates); Euclid's remainder chain paid a
  // full long division per round here.
  const int xz = TrailingZeroBits(x.limbs_);
  const int yz = TrailingZeroBits(y.limbs_);
  const int common = xz < yz ? xz : yz;
  ShiftRightInPlace(&x.limbs_, xz);
  ShiftRightInPlace(&y.limbs_, yz);
  // Both odd from here on; the loop keeps them odd.
  while (true) {
    if (x.limbs_.size() <= 2 && y.limbs_.size() <= 2) {
      // Shrunk into machine words: finish with the 64-bit loop.
      uint64_t u = MagU64(x.limbs_);
      uint64_t v = MagU64(y.limbs_);
      while (v != 0) {
        const uint64_t t = u % v;
        u = v;
        v = t;
      }
      BigInt result;
      result.SetMag64(u, 1);
      return common ? result.ShiftLeft(common) : result;
    }
    const int cmp = CompareMagnitude(x.limbs_, y.limbs_);
    if (cmp == 0) break;
    if (cmp < 0) std::swap(x.limbs_, y.limbs_);
    SubMagnitudeInPlace(&x.limbs_, y.limbs_);  // Odd - odd: even, nonzero.
    ShiftRightInPlace(&x.limbs_, TrailingZeroBits(x.limbs_));
  }
  BigInt result;
  result.limbs_ = std::move(x.limbs_);
  result.sign_ = 1;
  return common ? result.ShiftLeft(common) : result;
}

BigInt BigInt::ShiftLeft(int bits) const {
  TOPODB_CHECK_MSG(bits >= 0, "negative shift");
  if (sign_ == 0 || bits == 0) return *this;
  if (limbs_.size() <= 2 && bits + BitLength() <= 127) {
    BigInt result;
    result.SetMag128(u128(MagU64(limbs_)) << bits, sign_);
    return result;
  }
  const int limb_shift = bits / 32;
  const int bit_shift = bits % 32;
  BigInt result;
  result.sign_ = sign_;
  result.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    const uint64_t cur = uint64_t{limbs_[i]} << bit_shift;
    result.limbs_[i + limb_shift] |= static_cast<uint32_t>(cur & 0xffffffffu);
    result.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(cur >> 32);
  }
  result.Trim();
  return result;
}

BigInt BigInt::Abs() const {
  BigInt result = *this;
  if (result.sign_ < 0) result.sign_ = 1;
  return result;
}

int BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  uint32_t top = limbs_.back();
  int bits = 0;
  while (top) {
    ++bits;
    top >>= 1;
  }
  return static_cast<int>((limbs_.size() - 1) * 32) + bits;
}

bool BigInt::ToInt64(int64_t* out) const {
  if (limbs_.size() > 2) return false;
  uint64_t mag = MagU64(limbs_);
  if (sign_ >= 0) {
    if (mag > static_cast<uint64_t>(INT64_MAX)) return false;
    *out = static_cast<int64_t>(mag);
  } else {
    if (mag > static_cast<uint64_t>(INT64_MAX) + 1) return false;
    *out = static_cast<int64_t>(~mag + 1);
  }
  return true;
}

double BigInt::ToDouble() const {
  long double value = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    value = value * static_cast<long double>(kBase) + limbs_[i];
  }
  return static_cast<double>(sign_ < 0 ? -value : value);
}

std::string BigInt::ToString() const {
  if (sign_ == 0) return "0";
  LimbVec mag = limbs_;
  std::string digits;
  while (!mag.empty()) {
    uint32_t rem = DivModSmall(&mag, 1000000000u);
    for (int i = 0; i < 9; ++i) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (sign_ < 0) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.ToString();
}

size_t BigInt::Hash() const {
  size_t h = static_cast<size_t>(sign_ + 1);
  for (uint32_t limb : limbs_) {
    h = h * 1000003u + limb;
  }
  return h;
}

}  // namespace topodb
