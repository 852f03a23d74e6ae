// Partial self and mutual inductance of straight conductor segments.
//
// Self terms use the classic round-wire / rectangular-bar closed forms
// (Rosa/Grover, Ruehli). Mutual terms use a Neumann double Gauss-Legendre
// quadrature; Grover's closed forms for parallel filaments are kept as the
// reference the quadrature is checked against (peec_kernel_oracle_test).
// Inputs are in millimetres, outputs in henries.
//
// The production pair kernel lives in sampled_path.hpp: paths are sampled
// once (positions, weights, jacobians in structure-of-arrays form) and the
// pair integral runs over the precomputed grids. mutual_neumann() here is
// the legacy nested-quadrature reference it is tested against; both compute
// the identical floating-point sequence, so they agree bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/geom/angle.hpp"
#include "src/peec/segment.hpp"

namespace emi::peec {

inline constexpr double kMu0 = 4.0e-7 * 3.14159265358979323846;  // H/m
inline constexpr double kMmToM = 1e-3;

// Below this many segment-pair integrals a path-level double sum runs on the
// calling thread; the scheduling cost of a parallel region would dominate.
// The serial and parallel schedules accumulate in the same order, so
// crossing the threshold (or changing the thread count) never changes the
// returned bits for a given input.
inline constexpr std::size_t kParallelPairThreshold = 256;

// Options controlling the accuracy/cost tradeoff of the Neumann integral.
// The ablation bench sweeps these. At the default order 6 x 2 the kernel's
// relative error against Grover's closed form for two parallel filaments
// (mutual_parallel_offset) is under 2e-3 at a lateral separation of 0.1x
// the longer filament, 1e-6 at 0.25x, 2e-9 at 0.5x, 5e-12 at 1x and 5e-13
// at 2x, over every axial offset; the worst error over the offsets falls
// with every added order from 2 to 8 (peec_kernel_oracle_test).
struct QuadratureOptions {
  std::size_t order = 6;        // Gauss-Legendre points per segment axis (1..8)
  std::size_t subdivisions = 2; // split each segment before integrating
};

// Same physics, coarser integration: half the order (at least 2) and no
// subdivision - 9 samples per segment pair against 144 at the default. The
// design flow's degraded retry extracts with it, and its PEMD search steers
// on it (pemd_search.hpp).
QuadratureOptions coarse_quadrature(const QuadratureOptions& q);

// True when `a` uses no more points than `b` on either axis and fewer on
// one, so an extractor at `a` is the cheaper one.
bool strictly_coarser(const QuadratureOptions& a, const QuadratureOptions& b);

// The pair kernel has no options: every segment pair is integrated exactly.
// This empty struct remains only because the 3-argument CouplingExtractor
// constructor still takes it and emibench/src/wl_grid_edit.cpp passes
// KernelOptions{}; it goes once that caller drops the argument.
struct KernelOptions {};

// Process-wide monotone kernel counters (relaxed atomics, PoolStats-style):
// snapshot before and after a region and subtract. `sample_evals` counts
// 1/r integrand evaluations, `exact_pairs` the segment pairs integrated.
struct KernelStats {
  std::uint64_t sample_evals = 0;
  std::uint64_t exact_pairs = 0;
};
KernelStats kernel_stats();

namespace detail {
// Counter plumbing shared by the legacy and sampled kernels.
void tally_exact_pair(std::uint64_t sample_evals);
// Bulk form used by the row kernel: counts are accumulated in plain locals
// over a whole segment row and published with one atomic add per counter.
void tally_pairs(std::uint64_t exact_pairs, std::uint64_t sample_evals);
}  // namespace detail

// Partial self inductance of a straight round wire of length l and radius r
// (uniform current): L = mu0*l/(2*pi) * (ln(2l/r) - 3/4).
double self_inductance_wire(double length_mm, double radius_mm);

// Partial self inductance of a straight rectangular bar (Ruehli 1972):
// L = mu0*l/(2*pi) * (ln(2l/(w+t)) + 1/2 + 0.2235(w+t)/l).
double self_inductance_bar(double length_mm, double width_mm, double thickness_mm);

// Exact mutual inductance of two parallel filaments of equal length l at
// center distance d, directly facing each other (Grover):
// M = mu0*l/(2*pi) * (ln(l/d + sqrt(1 + l^2/d^2)) - sqrt(1 + d^2/l^2) + d/l).
double mutual_parallel_filaments(double length_mm, double distance_mm);

// General parallel-filament closed form (Grover), the oracle the sampled
// kernel is checked against: filament 1 spans [0, l1]
// along the common axis, filament 2 spans [offset, offset + l2] at lateral
// distance `lateral`. Via G(u) = u*asinh(u/rho) - sqrt(u^2 + rho^2),
//   M = mu0/(4*pi) * [G(o+l2) - G(o+l2-l1) - G(o) + G(o-l1)].
// Unsigned: the caller applies the direction cosine. Reduces to
// mutual_parallel_filaments for l1 = l2, offset = 0.
double mutual_parallel_offset(double l1_mm, double l2_mm, double lateral_mm,
                              double offset_mm);

// General mutual partial inductance between two arbitrary segments via the
// Neumann integral  M = mu0/(4*pi) * int int (dl1 . dl2) / |r1 - r2|.
// Perpendicular segments correctly yield ~0. Near-singular configurations
// are regularized by clamping |r1-r2| to the geometric mean of the radii.
// Legacy nested-quadrature reference; sampled_path.hpp holds the fast
// bit-identical production kernel.
double mutual_neumann(const Segment& s1, const Segment& s2,
                      const QuadratureOptions& opt = {});

// Partial inductance of a segment against itself (dispatches to the wire
// closed form using the segment's equivalent radius).
double self_inductance(const Segment& s);

// Loop inductance of a closed (or terminal-to-terminal) current path: the
// double sum of partial self and mutual terms, weighted by the per-segment
// current weights.
double path_inductance(const SegmentPath& path, const QuadratureOptions& opt = {});

// Mutual inductance between two current paths (double sum of Neumann
// terms). Samples both paths once and runs the flat sampled kernel;
// bit-identical to path_mutual_legacy.
double path_mutual(const SegmentPath& p1, const SegmentPath& p2,
                   const QuadratureOptions& opt = {});

// The pre-sampling implementation (row-parallel nested quadrature), kept as
// the equivalence reference for tests and benches.
double path_mutual_legacy(const SegmentPath& p1, const SegmentPath& p2,
                          const QuadratureOptions& opt = {});

}  // namespace emi::peec
