#include "src/algebraic/polynomial.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace topodb {

Polynomial2 Polynomial2::Term(Rational coefficient, int ex, int ey) {
  Polynomial2 p;
  if (!coefficient.is_zero()) {
    p.terms_[{ex, ey}] = std::move(coefficient);
  }
  return p;
}

Polynomial2 Polynomial2::operator+(const Polynomial2& other) const {
  Polynomial2 out = *this;
  for (const auto& [exp, coef] : other.terms_) {
    auto it = out.terms_.find(exp);
    if (it == out.terms_.end()) {
      out.terms_[exp] = coef;
    } else {
      it->second += coef;
      if (it->second.is_zero()) out.terms_.erase(it);
    }
  }
  return out;
}

Polynomial2 Polynomial2::operator-() const {
  Polynomial2 out;
  for (const auto& [exp, coef] : terms_) out.terms_[exp] = -coef;
  return out;
}

Polynomial2 Polynomial2::operator-(const Polynomial2& other) const {
  return *this + (-other);
}

Polynomial2 Polynomial2::operator*(const Polynomial2& other) const {
  Polynomial2 out;
  for (const auto& [ea, ca] : terms_) {
    for (const auto& [eb, cb] : other.terms_) {
      std::pair<int, int> exp{ea.first + eb.first, ea.second + eb.second};
      auto it = out.terms_.find(exp);
      Rational product = ca * cb;
      if (it == out.terms_.end()) {
        if (!product.is_zero()) out.terms_[exp] = std::move(product);
      } else {
        it->second += product;
        if (it->second.is_zero()) out.terms_.erase(it);
      }
    }
  }
  return out;
}

Rational Polynomial2::Evaluate(const Point& p) const {
  // Power tables up to the maximum exponent keep evaluation O(terms).
  int max_x = 0, max_y = 0;
  for (const auto& [exp, coef] : terms_) {
    max_x = std::max(max_x, exp.first);
    max_y = std::max(max_y, exp.second);
  }
  std::vector<Rational> xp(max_x + 1, Rational(1));
  std::vector<Rational> yp(max_y + 1, Rational(1));
  for (int i = 1; i <= max_x; ++i) xp[i] = xp[i - 1] * p.x;
  for (int i = 1; i <= max_y; ++i) yp[i] = yp[i - 1] * p.y;
  Rational value(0);
  for (const auto& [exp, coef] : terms_) {
    value += coef * xp[exp.first] * yp[exp.second];
  }
  return value;
}

int Polynomial2::TotalDegree() const {
  int degree = 0;
  for (const auto& [exp, coef] : terms_) {
    degree = std::max(degree, exp.first + exp.second);
  }
  return degree;
}

std::string Polynomial2::ToString() const {
  if (terms_.empty()) return "0";
  std::ostringstream os;
  bool first = true;
  for (const auto& [exp, coef] : terms_) {
    if (!first) os << " + ";
    first = false;
    os << coef.ToString();
    if (exp.first) os << "*x^" << exp.first;
    if (exp.second) os << "*y^" << exp.second;
  }
  return os.str();
}

}  // namespace topodb
