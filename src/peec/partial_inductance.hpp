// Partial self and mutual inductance of straight conductor segments.
//
// Self terms use the classic round-wire / rectangular-bar closed forms
// (Rosa/Grover, Ruehli). Mutual terms run the one pair kernel in
// sampled_path.hpp: Gauss-Legendre samples on the outer segment, the inner
// line integral in closed form. Grover's closed forms for parallel
// filaments are kept as the reference the kernel is checked against
// (peec_kernel_oracle_test). Inputs are in millimetres, outputs in henries.
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

// Options controlling the accuracy/cost tradeoff of the Neumann integral:
// the Gauss-Legendre sampling of the outer segment (the inner line integral
// is exact). The ablation bench sweeps these. At the default order 6 x 2 the
// kernel's relative error (peec_kernel_oracle_test) is under
//   * against Grover's closed form for two parallel filaments
//     (mutual_parallel_offset), over every axial offset: 5e-4 at a lateral
//     separation of 0.1x the longer filament, 1e-6 at 0.25x, 2e-9 at 0.5x,
//     5e-12 at 1x and 5e-14 at 2x;
//   * against a dense product rule of the same guarded integrand: 5e-3 for
//     oblique and crossing pairs passing 0.2 to 3 mm apart and for
//     adjacent ring facets touching inside the radius guard, and 2e-4 for
//     the self inductance of every buck and boost model.
// The worst error over each family falls with every added order from 2 to 8
// (at 1 subdivision; for Grover and the model self inductances at 2 too).
// M(a, b) and M(b, a) agree within twice these bounds.
struct QuadratureOptions {
  std::size_t order = 6;        // Gauss-Legendre points per subinterval (1..8)
  std::size_t subdivisions = 2; // split the outer segment before integrating
};

// Same physics, coarser integration: half the order (at least 2) and no
// subdivision - 3 outer samples per segment pair against 12 at the default.
// The design flow's degraded retry extracts with it, and its PEMD search
// steers on it (pemd_search.hpp).
QuadratureOptions coarse_quadrature(const QuadratureOptions& q);

// True when `a` uses no more Gauss points and no more subdivisions than `b`
// and fewer of one, so an extractor at `a` is the cheaper one.
bool strictly_coarser(const QuadratureOptions& a, const QuadratureOptions& b);

// The pair kernel has no options: every segment pair is integrated exactly.
// This empty struct remains only because the 3-argument CouplingExtractor
// constructor still takes it and emibench/src/wl_grid_edit.cpp passes
// KernelOptions{}; it goes once that caller drops the argument.
struct KernelOptions {};

// Process-wide monotone kernel counters (relaxed atomics, PoolStats-style):
// snapshot before and after a region and subtract. `sample_evals` counts
// closed-form inner line integrals, one per outer sample and segment - 12
// per segment pair at the default 6 x 2 - and `exact_pairs` the segment
// pairs integrated.
struct KernelStats {
  std::uint64_t sample_evals = 0;
  std::uint64_t exact_pairs = 0;
};
KernelStats kernel_stats();

namespace detail {
// Counter plumbing of the pair kernel: one pair and its sample count.
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

// General parallel-filament closed form (Grover), the oracle the pair
// kernel is checked against: filament 1 spans [0, l1] along the common axis, filament 2 spans [offset, offset + l2] at lateral
// distance `lateral`. Via G(u) = u*asinh(u/rho) - sqrt(u^2 + rho^2),
//   M = mu0/(4*pi) * [G(o+l2) - G(o+l2-l1) - G(o) + G(o-l1)].
// Unsigned: the caller applies the direction cosine. Reduces to
// mutual_parallel_filaments for l1 = l2, offset = 0.
double mutual_parallel_offset(double l1_mm, double l2_mm, double lateral_mm,
                              double offset_mm);

// Partial inductance of a segment against itself (dispatches to the wire
// closed form using the segment's equivalent radius).
double self_inductance(const Segment& s);

// Loop inductance of a closed (or terminal-to-terminal) current path: the
// double sum of partial self and mutual terms, weighted by the per-segment
// current weights. Each mutual term is sampled_mutual_exact(i, j) for i < j,
// counted twice; adjacent segments meeting inside the radius guard take the
// kernel's guarded closed form.
double path_inductance(const SegmentPath& path, const QuadratureOptions& opt = {});

// Mutual inductance between two current paths (double sum of Neumann
// terms, p1 on the outer axis). Samples both paths once and runs the row
// kernel (path_mutual_sampled).
double path_mutual(const SegmentPath& p1, const SegmentPath& p2,
                   const QuadratureOptions& opt = {});

}  // namespace emi::peec
