#include "src/peec/partial_inductance.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "src/core/parallel.hpp"
#include "src/peec/sampled_path.hpp"

namespace emi::peec {

namespace {

std::atomic<std::uint64_t> g_sample_evals{0};
std::atomic<std::uint64_t> g_exact_pairs{0};

}  // namespace

namespace detail {

void tally_exact_pair(std::uint64_t sample_evals) {
  g_sample_evals.fetch_add(sample_evals, std::memory_order_relaxed);
  g_exact_pairs.fetch_add(1, std::memory_order_relaxed);
}

void tally_pairs(std::uint64_t exact_pairs, std::uint64_t sample_evals) {
  if (sample_evals != 0) g_sample_evals.fetch_add(sample_evals, std::memory_order_relaxed);
  if (exact_pairs != 0) g_exact_pairs.fetch_add(exact_pairs, std::memory_order_relaxed);
}

}  // namespace detail

KernelStats kernel_stats() {
  KernelStats s;
  s.sample_evals = g_sample_evals.load(std::memory_order_relaxed);
  s.exact_pairs = g_exact_pairs.load(std::memory_order_relaxed);
  return s;
}

double self_inductance_wire(double length_mm, double radius_mm) {
  if (length_mm <= 0.0 || radius_mm <= 0.0) {
    throw std::invalid_argument("self_inductance_wire: nonpositive dimensions");
  }
  const double l = length_mm * kMmToM;
  const double r = radius_mm * kMmToM;
  // Stubby segments (l <= 2r, i.e. shorter than their own diameter) have
  // negligible partial inductance and the formula goes negative just below
  // l = 2r * e^(3/4); clamp them to zero.
  if (length_mm <= 2.0 * radius_mm) return 0.0;
  return kMu0 * l / (2.0 * geom::kPi) * (std::log(2.0 * l / r) - 0.75);
}

double self_inductance_bar(double length_mm, double width_mm, double thickness_mm) {
  if (length_mm <= 0.0 || width_mm <= 0.0 || thickness_mm < 0.0) {
    throw std::invalid_argument("self_inductance_bar: nonpositive dimensions");
  }
  const double l = length_mm * kMmToM;
  const double wt = (width_mm + thickness_mm) * kMmToM;
  if (wt >= 2.0 * l) return 0.0;
  return kMu0 * l / (2.0 * geom::kPi) *
         (std::log(2.0 * l / wt) + 0.5 + 0.2235 * wt / l);
}

double mutual_parallel_filaments(double length_mm, double distance_mm) {
  if (length_mm <= 0.0 || distance_mm <= 0.0) {
    throw std::invalid_argument("mutual_parallel_filaments: nonpositive dimensions");
  }
  const double l = length_mm * kMmToM;
  const double d = distance_mm * kMmToM;
  const double u = l / d;
  return kMu0 * l / (2.0 * geom::kPi) *
         (std::log(u + std::sqrt(1.0 + u * u)) - std::sqrt(1.0 + 1.0 / (u * u)) + 1.0 / u);
}

double mutual_parallel_offset(double l1_mm, double l2_mm, double lateral_mm,
                              double offset_mm) {
  if (l1_mm <= 0.0 || l2_mm <= 0.0 || lateral_mm <= 0.0) {
    throw std::invalid_argument("mutual_parallel_offset: nonpositive dimensions");
  }
  const double rho = lateral_mm;
  // G is the double antiderivative of 1/sqrt((u-t)^2 + rho^2); the four-term
  // difference below is int_0^l1 int_o^{o+l2} dt du / sqrt((u-t)^2+rho^2).
  const auto G = [rho](double u) {
    return u * std::asinh(u / rho) - std::sqrt(u * u + rho * rho);
  };
  const double o = offset_mm;
  const double integral_mm =
      (G(o + l2_mm) - G(o + l2_mm - l1_mm)) - (G(o) - G(o - l1_mm));
  return kMu0 / (4.0 * geom::kPi) * integral_mm * kMmToM;
}

double self_inductance(const Segment& s) {
  return self_inductance_wire(s.length(), s.radius);
}

double path_inductance(const SegmentPath& path, const QuadratureOptions& opt) {
  const auto& segs = path.segments;
  const std::size_t n = segs.size();
  if (n == 0) return 0.0;
  const SampledPath sp = sample_path(path, opt);
  // Row i: the self term plus the upper-triangle mutual terms of segment i.
  const auto row = [&](std::size_t i) {
    double r = segs[i].weight * segs[i].weight * self_inductance(segs[i]);
    for (std::size_t j = i + 1; j < n; ++j) {
      r += 2.0 * segs[i].weight * segs[j].weight * sampled_mutual_exact(sp, i, sp, j);
    }
    return r;
  };
  if (n * n >= kParallelPairThreshold) return core::parallel_sum(0, n, row);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += row(i);
  return total;
}

double path_mutual(const SegmentPath& p1, const SegmentPath& p2,
                   const QuadratureOptions& opt) {
  if (p1.segments.empty() || p2.segments.empty()) return 0.0;
  const SampledPath a = sample_path(p1, opt);
  const SampledPath b = sample_path(p2, opt);
  return path_mutual_sampled(a, b);
}

QuadratureOptions coarse_quadrature(const QuadratureOptions& q) {
  QuadratureOptions c = q;
  c.order = std::max<std::size_t>(2, q.order / 2);
  c.subdivisions = 1;
  return c;
}

bool strictly_coarser(const QuadratureOptions& a, const QuadratureOptions& b) {
  return a.order <= b.order && a.subdivisions <= b.subdivisions &&
         (a.order < b.order || a.subdivisions < b.subdivisions);
}

}  // namespace emi::peec
