// The PEEC mutual-inductance pair kernel.
//
// For segments i (outer) and j (inner) the kernel integrates the Neumann
// integrand with its radius guard,
//   M = mu0/(4*pi) * (d_i . d_j) * int_i int_j dt ds / max(|r_i(s) - r_j(t)|, g),
// g = max(1e-6, sqrt(radius_i * radius_j)). The outer axis is sampled with
// Gauss-Legendre (QuadratureOptions order x subdivisions); the inner line
// integral is taken in closed form (Ruehli, IBM J. Res. Dev. 1972). For an
// outer point p at distance h >= g from segment j's line it is
//   ln((Ra + Rb + m) / (Ra + Rb - m)),
// Ra, Rb the distances from p to j's ends and m its length, evaluated in a
// cancellation-free form. Closer points take the piecewise closed form of the
// guarded integrand: the clamped middle part over g plus two log tails.
//
// sample_path() resolves the outer Gauss-Legendre samples and the inner
// segment geometry once per SegmentPath, structure-of-arrays. Every user -
// sampled_mutual_exact(), the row kernel behind path_mutual_sampled() and
// path_inductance() - evaluates the inner integral with the same expression
// sequence, so a pair's value has the same bits whichever of them computes
// it. The kernel is not symmetric bit for bit (outer and inner roles differ);
// M(a, b) and M(b, a) agree within the quadrature error, and the extractor's
// canonical pair order keeps cached values symmetric. The oracle battery
// checks it against Grover's closed form and a dense product-rule reference
// (peec_kernel_oracle_test).
#pragma once

#include <cstddef>
#include <vector>

#include "src/peec/partial_inductance.hpp"
#include "src/peec/segment.hpp"

namespace emi::peec {

// Structure-of-arrays sampling of one SegmentPath. Outer sample arrays are
// segment-major with a uniform stride of samples_per_segment() =
// subdivisions * order; the inner side reads only the per-segment arrays.
struct SampledPath {
  std::size_t order = 0;  // Gauss points per subinterval
  std::size_t n_sub = 0;  // subintervals per segment

  // Per outer sample (segment-major): position, and the Gauss node weight
  // times its subinterval's 0.5*(b-a) jacobian.
  std::vector<double> px, py, pz, w;
  // Per segment: start point, unit direction, length, equivalent radius and
  // current weight. Zero-length segments store a zero direction.
  std::vector<double> ax, ay, az;
  std::vector<double> dx, dy, dz;
  std::vector<double> len, rad, wgt;

  std::size_t segment_count() const { return wgt.size(); }
  std::size_t samples_per_segment() const { return order * n_sub; }
};

// Evaluate the outer quadrature grid of `path` once. Validates opt.order
// against the tabulated rules (throws std::invalid_argument outside 1..8).
SampledPath sample_path(const SegmentPath& path, const QuadratureOptions& opt = {});

// Mutual partial inductance of segment i of `a` (outer) against segment j of
// `b` (inner). Zero for zero-length and orthogonal pairs.
double sampled_mutual_exact(const SampledPath& a, std::size_t i,
                            const SampledPath& b, std::size_t j);

// Mutual inductance between two sampled paths: the weighted double sum over
// all segment pairs, evaluated by a row kernel that batches one outer sample
// of A against all of B's segments (an elementwise pass for separated pairs,
// then a scalar pass for the logs and the rare guarded pairs). Each pair's
// value has the bits sampled_mutual_exact() returns. Large cases parallelize
// over rows; row totals are folded serially in row order, so the returned
// bits match the serial double loop at any thread count.
double path_mutual_sampled(const SampledPath& a, const SampledPath& b);

// True when the hot kernels above were compiled with per-ISA clones
// (target_clones default/avx2/avx512f, ifunc dispatch); false on toolchains
// without the attribute and in sanitizer builds, which skip the clones.
// Informational only (`emiplace version`): clone dispatch never changes bits.
bool kernel_clones_enabled();

}  // namespace emi::peec
