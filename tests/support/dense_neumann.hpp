// Dense product-rule reference for the PEEC pair kernel (test support).
//
// The same guarded Neumann integrand as the production kernel,
//   M = mu0/(4*pi) * (d1 . d2) * int int dt1 dt2 / max(|r1 - r2|, g),
// g = max(1e-6, sqrt(radius1 * radius2)), integrated by brute force: a
// Gauss-Legendre product rule on BOTH axes, each segment split into `sub`
// equal subintervals. It shares no code with src/peec/sampled_path.cpp -
// not even the Gauss tables, which are computed here by Newton iteration on
// the Legendre recurrence - so agreement checks the closed-form inner
// integral and its guarded piecewise form from outside. At order 8 x 32
// subdivisions it converges to the integral the kernel approximates.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "src/peec/partial_inductance.hpp"
#include "src/peec/segment.hpp"

namespace emi::peec::dense {

struct GaussRule {
  std::vector<double> x;  // nodes on [-1, 1]
  std::vector<double> w;  // weights
};

// n-point Gauss-Legendre rule: Newton iteration on P_n from Chebyshev
// starting guesses, P_n and P_n' from the three-term recurrence.
inline GaussRule gauss_legendre(std::size_t n) {
  constexpr double kPi = 3.14159265358979323846;
  GaussRule r;
  r.x.resize(n);
  r.w.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double x = std::cos(kPi * (static_cast<double>(i) + 0.75) / (static_cast<double>(n) + 0.5));
    double dp = 0.0;
    for (int it = 0; it < 100; ++it) {
      double p0 = 1.0;
      double p1 = x;
      for (std::size_t k = 2; k <= n; ++k) {
        const double pk = ((2.0 * static_cast<double>(k) - 1.0) * x * p1 -
                           (static_cast<double>(k) - 1.0) * p0) /
                          static_cast<double>(k);
        p0 = p1;
        p1 = pk;
      }
      dp = static_cast<double>(n) * (x * p1 - p0) / (x * x - 1.0);
      const double dx = p1 / dp;
      x -= dx;
      if (std::fabs(dx) < 1e-16) break;
    }
    r.x[i] = x;
    r.w[i] = 2.0 / ((1.0 - x * x) * dp * dp);
  }
  return r;
}

// Mutual partial inductance of two segments (henries), product rule at
// `order` points on each of `sub` subintervals per segment.
inline double segment_mutual(const Segment& s1, const Segment& s2, std::size_t order = 8,
                             std::size_t sub = 32) {
  const Vec3 e1 = s1.b - s1.a;
  const Vec3 e2 = s2.b - s2.a;
  const double l1 = e1.norm();
  const double l2 = e2.norm();
  if (l1 <= 0.0 || l2 <= 0.0) return 0.0;
  const double dot = e1.dot(e2) / (l1 * l2);
  if (std::fabs(dot) < 1e-12) return 0.0;
  const double g = std::max(1e-6, std::sqrt(s1.radius * s2.radius));
  const GaussRule rule = gauss_legendre(order);
  // Node positions (as fractions of the segment) and weights (in mm).
  std::vector<double> f;
  std::vector<double> w1;
  std::vector<double> w2;
  for (std::size_t k = 0; k < sub; ++k) {
    for (std::size_t q = 0; q < order; ++q) {
      const double t = (static_cast<double>(k) + 0.5 * (rule.x[q] + 1.0)) /
                       static_cast<double>(sub);
      f.push_back(t);
      w1.push_back(rule.w[q] * 0.5 * l1 / static_cast<double>(sub));
      w2.push_back(rule.w[q] * 0.5 * l2 / static_cast<double>(sub));
    }
  }
  double integral_mm = 0.0;
  for (std::size_t a = 0; a < f.size(); ++a) {
    const Vec3 p = s1.a + e1 * f[a];
    double inner = 0.0;
    for (std::size_t b = 0; b < f.size(); ++b) {
      const Vec3 r = s2.a + e2 * f[b];
      inner += w2[b] / std::max((p - r).norm(), g);
    }
    integral_mm += w1[a] * inner;
  }
  return 1e-7 * dot * integral_mm * 1e-3;  // mu0/(4*pi) = 1e-7 H/m; mm -> m
}

// Loop inductance of a path: closed-form partial self terms plus twice the
// weighted upper-triangle mutual terms, each by segment_mutual().
inline double path_inductance(const SegmentPath& path, std::size_t order = 8,
                              std::size_t sub = 32) {
  const auto& s = path.segments;
  double l = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    l += s[i].weight * s[i].weight * self_inductance(s[i]);
    for (std::size_t j = i + 1; j < s.size(); ++j) {
      l += 2.0 * s[i].weight * s[j].weight * segment_mutual(s[i], s[j], order, sub);
    }
  }
  return l;
}

}  // namespace emi::peec::dense
