#include "src/peec/sampled_path.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/core/parallel.hpp"
#include "src/numeric/quadrature.hpp"

// The row kernel below is compiled with per-ISA clones (ifunc dispatch) when
// the toolchain supports it: its elementwise pass uses only correctly-rounded
// ops (add, mul, sqrt, div, compare, select), so wider vectors change timing
// but never bits, provided FP contraction stays off (-ffp-contract=off in
// this file's COMPILE_OPTIONS; FMA would fuse mul+add with a different
// rounding; -fno-trapping-math there lets the selects if-convert). The log
// is the scalar libm call in every clone. Sanitizer builds skip the clones:
// ifunc resolvers run before the runtime initializes.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define EMI_KERNEL_CLONES __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define EMI_KERNEL_CLONES
#endif

namespace emi::peec {

namespace {

// Radius guard of a segment pair: the geometric-mean radius, at least 1 nm.
double pair_guard(double rad_a, double rad_b) {
  return std::max(1e-6, std::sqrt(rad_a * rad_b));
}

// Where a point p lies relative to a segment (start a, unit direction d,
// length m): the axial distances u of p's foot from the start and v to the
// end, and the squared distance h2 from the segment's line, taken from a
// cross product rather than |p-a|^2 - u^2.
struct Foot {
  double u;
  double v;
  double h2;
};

__attribute__((always_inline)) inline Foot foot_of(double x, double y, double z,
                                                   double ax, double ay, double az,
                                                   double dx, double dy, double dz,
                                                   double m) {
  const double wx = x - ax;
  const double wy = y - ay;
  const double wz = z - az;
  const double u = wx * dx + wy * dy + wz * dz;
  const double cx = wy * dz - wz * dy;
  const double cy = wz * dx - wx * dz;
  const double cz = wx * dy - wy * dx;
  return {u, m - u, cx * cx + cy * cy + cz * cz};
}

__attribute__((always_inline)) inline Foot foot_of(double x, double y, double z,
                                                   const SampledPath& B, std::size_t j) {
  return foot_of(x, y, z, B.ax[j], B.ay[j], B.az[j], B.dx[j], B.dy[j], B.dz[j], B.len[j]);
}

// The inner integral of 1/|p - r(t)| over the segment for a point at least
// the guard away from its line, returned as the argument of its log; -1
// when the point is closer (h^2 < g2), where guarded_inner applies instead.
//
// With Ra, Rb the distances to the ends, ln((Ra+Rb+m)/(Ra+Rb-m)) equals
// ln(a*b/h^2) when the foot lies on the segment (u, v > 0), ln(a/b) past the
// end and ln(b/a) before the start, a = Ra+|u|, b = Rb+|v|: no branch
// subtracts nearly equal terms. Branch-free (selects only) and elementwise,
// so the row kernel's pass over a segment block vectorizes.
__attribute__((always_inline)) inline double separated_arg(const Foot& f, double g2) {
  const double a = std::sqrt(f.u * f.u + f.h2) + std::fabs(f.u);
  const double b = std::sqrt(f.v * f.v + f.h2) + std::fabs(f.v);
  const bool along = f.u > 0.0 && f.v > 0.0;
  const double num = along ? a * b : (f.u > 0.0 ? a : b);
  // max(h2, g2) = h2 at every separated point; it keeps the discarded
  // value of a guarded one finite.
  const double den = along ? std::max(f.h2, g2) : (f.u > 0.0 ? b : a);
  return f.h2 < g2 ? -1.0 : num / den;
}

// The inner integral of 1/max(|p - r(t)|, g) over the segment for a point
// within the guard of its line (h < g). The integrand is clamped to 1/g on
// the stretch |t - u| < c, c = sqrt(g^2 - h^2), around p's foot; the parts
// of the segment before and after that stretch are log tails.
double guarded_inner(const Foot& f, double m, double g) {
  const double u = f.u;
  const double v = f.v;
  const double ra = std::sqrt(u * u + f.h2);
  const double rb = std::sqrt(v * v + f.h2);
  const double c = std::sqrt(g * g - f.h2);
  // Clamped stretch [u - c, u + c] within [0, m]; at its edges |p - r| = g.
  double r = std::max(0.0, std::min(m, u + c) - std::max(0.0, u - c)) / g;
  // Tail before the stretch, t in [0, min(m, u - c)]: axial offsets u - t
  // from u down to max(-v, c).
  if (u > c) r += std::log((u + ra) / (-v > c ? rb - v : c + g));
  // Tail after it, t in [max(0, u + c), m]: offsets t - u up to v.
  if (v > c) r += std::log((v + rb) / (-u > c ? ra - u : c + g));
  return r;
}

// How each segment pair of a row is served.
enum : unsigned char { kPairSkip = 0, kPairExact = 1 };

// Plain per-row counters, published in one tally_pairs call per row.
struct RowCounts {
  std::uint64_t exact = 0;
  std::uint64_t evals = 0;
};

// Mutual inductance of segment i of A against all of B, returned as the
// row sum  sum_j wgt_i * wgt_j * M(i, j)  with j ascending - the exact
// fold order of the serial reference loop.
//
// Each outer sample of segment i meets B's whole segment block in one flat
// elementwise pass (the separated log arguments, vectorized), then a scalar
// pass takes the logs, fixes up the pairs within the guard and accumulates
// per pair in outer-sample order. Every step is the expression sequence of
// sampled_mutual_exact, so each pair's value carries the same bits.
//
// `buf` holds 4 * n2 doubles, `cls` n2 bytes; both are caller scratch so
// parallel rows never share.
EMI_KERNEL_CLONES
double sampled_mutual_row(const SampledPath& A, std::size_t i, const SampledPath& B,
                          double* buf, unsigned char* cls, RowCounts& rc) {
  const std::size_t n2 = B.segment_count();
  const std::size_t ns1 = A.samples_per_segment();
  // The scratch blocks are caller-owned and distinct from every path array,
  // so restrict lets the compiler keep loop invariants in registers across
  // the stores.
  double* __restrict__ guard = buf;         // per-pair radius guard
  double* __restrict__ guard2 = buf + n2;   // its square
  double* __restrict__ arg = guard2 + n2;   // log argument, -1 when guarded
  double* __restrict__ integ = arg + n2;    // per-pair integral (mm)

  const double l1 = A.len[i];
  const double adx = A.dx[i];
  const double ady = A.dy[i];
  const double adz = A.dz[i];

  // Classify every pair of the row up front: skipped pairs contribute zero
  // (a unit squared guard keeps their elementwise pass finite), exact pairs
  // get their guard and a zeroed integral.
  std::size_t jlo = n2;  // first/last exact pair: the elementwise pass only
  std::size_t jhi = 0;   // needs to cover their range
  for (std::size_t j = 0; j < n2; ++j) {
    const double dot = adx * B.dx[j] + ady * B.dy[j] + adz * B.dz[j];
    if (l1 <= 0.0 || B.len[j] <= 0.0 || std::fabs(dot) < 1e-12) {
      cls[j] = kPairSkip;
      guard2[j] = 1.0;
      continue;
    }
    cls[j] = kPairExact;
    ++rc.exact;
    rc.evals += ns1;
    guard[j] = pair_guard(A.rad[i], B.rad[j]);
    guard2[j] = guard[j] * guard[j];
    integ[j] = 0.0;
    jlo = std::min(jlo, j);
    jhi = j;
  }

  if (jlo <= jhi) {
    const double* __restrict__ bax = B.ax.data();
    const double* __restrict__ bay = B.ay.data();
    const double* __restrict__ baz = B.az.data();
    const double* __restrict__ bdx = B.dx.data();
    const double* __restrict__ bdy = B.dy.data();
    const double* __restrict__ bdz = B.dz.data();
    const double* __restrict__ blen = B.len.data();
    for (std::size_t k = i * ns1; k < (i + 1) * ns1; ++k) {
      const double x = A.px[k];
      const double y = A.py[k];
      const double z = A.pz[k];
      for (std::size_t j = jlo; j <= jhi; ++j) {
        arg[j] = separated_arg(
            foot_of(x, y, z, bax[j], bay[j], baz[j], bdx[j], bdy[j], bdz[j], blen[j]),
            guard2[j]);
      }
      const double wk = A.w[k];
      for (std::size_t j = jlo; j <= jhi; ++j) {
        if (cls[j] != kPairExact) continue;
        const double a = arg[j];
        integ[j] += wk * (a < 0.0 ? guarded_inner(foot_of(x, y, z, B, j), B.len[j], guard[j])
                                  : std::log(a));
      }
    }
  }

  // Row fold in ascending-j order, exactly like the serial reference loop.
  double r = 0.0;
  const double wi = A.wgt[i];
  for (std::size_t j = 0; j < n2; ++j) {
    double pair = 0.0;
    if (cls[j] == kPairExact) {
      const double dot = adx * B.dx[j] + ady * B.dy[j] + adz * B.dz[j];
      pair = kMu0 / (4.0 * geom::kPi) * dot * integ[j] * kMmToM;
    }
    r += wi * B.wgt[j] * pair;
  }
  return r;
}

}  // namespace

SampledPath sample_path(const SegmentPath& path, const QuadratureOptions& opt) {
  SampledPath out;
  out.order = opt.order;
  out.n_sub = std::max<std::size_t>(1, opt.subdivisions);
  const std::size_t n = path.segments.size();
  if (n == 0) return out;
  const num::GaussRule rule = num::gauss_rule(opt.order);  // validates once
  const std::size_t sps = out.order * out.n_sub;
  for (std::vector<double>* v : {&out.px, &out.py, &out.pz, &out.w}) v->reserve(n * sps);
  for (std::vector<double>* v : {&out.ax, &out.ay, &out.az, &out.dx, &out.dy, &out.dz,
                                 &out.len, &out.rad, &out.wgt}) {
    v->reserve(n);
  }
  for (const Segment& s : path.segments) {
    const double l = s.length();
    // Zero-length segments store a zero direction; every pair kernel skips
    // them on l <= 0.
    const Vec3 d = l > 0.0 ? s.direction() : Vec3{0.0, 0.0, 0.0};
    out.ax.push_back(s.a.x);
    out.ay.push_back(s.a.y);
    out.az.push_back(s.a.z);
    out.dx.push_back(d.x);
    out.dy.push_back(d.y);
    out.dz.push_back(d.z);
    out.len.push_back(l);
    out.rad.push_back(s.radius);
    out.wgt.push_back(s.weight);
    for (std::size_t si = 0; si < out.n_sub; ++si) {
      const double a1 = l * static_cast<double>(si) / static_cast<double>(out.n_sub);
      const double b1 =
          l * static_cast<double>(si + 1) / static_cast<double>(out.n_sub);
      const double half = 0.5 * (b1 - a1);
      const double mid = 0.5 * (a1 + b1);
      for (std::size_t k = 0; k < out.order; ++k) {
        const Vec3 p = s.a + d * (mid + half * rule.nodes[k]);
        out.px.push_back(p.x);
        out.py.push_back(p.y);
        out.pz.push_back(p.z);
        out.w.push_back(rule.weights[k] * half);
      }
    }
  }
  return out;
}

double sampled_mutual_exact(const SampledPath& A, std::size_t i,
                            const SampledPath& B, std::size_t j) {
  const double l1 = A.len[i];
  const double l2 = B.len[j];
  if (l1 <= 0.0 || l2 <= 0.0) return 0.0;
  const double dot = A.dx[i] * B.dx[j] + A.dy[i] * B.dy[j] + A.dz[i] * B.dz[j];
  // Orthogonal current elements do not couple; skip the integral entirely.
  if (std::fabs(dot) < 1e-12) return 0.0;
  const double g = pair_guard(A.rad[i], B.rad[j]);
  const double g2 = g * g;
  const std::size_t ns1 = A.samples_per_segment();
  double integral_mm = 0.0;  // integral of dl1.dl2/|r| with lengths in mm
  for (std::size_t k = i * ns1; k < (i + 1) * ns1; ++k) {
    const Foot f = foot_of(A.px[k], A.py[k], A.pz[k], B, j);
    const double a = separated_arg(f, g2);
    integral_mm += A.w[k] * (a < 0.0 ? guarded_inner(f, l2, g) : std::log(a));
  }
  detail::tally_exact_pair(ns1);
  return kMu0 / (4.0 * geom::kPi) * dot * integral_mm * kMmToM;
}

double path_mutual_sampled(const SampledPath& A, const SampledPath& B) {
  const std::size_t n1 = A.segment_count();
  const std::size_t n2 = B.segment_count();
  const std::size_t pairs = n1 * n2;
  if (pairs == 0) return 0.0;
  const std::size_t buf_doubles = 4 * n2;
  if (pairs < kParallelPairThreshold) {
    std::vector<double> buf(buf_doubles);
    std::vector<unsigned char> cls(n2);
    RowCounts rc;
    double total = 0.0;
    for (std::size_t i = 0; i < n1; ++i) {
      total += sampled_mutual_row(A, i, B, buf.data(), cls.data(), rc);
    }
    detail::tally_pairs(rc.exact, rc.evals);
    return total;
  }
  // One parallel region over rows, each writing its own slot; grain 1 keeps
  // the chunking - and by the write-only slot layout the result -
  // independent of thread count. The serial fold over row totals is the
  // serial loop's accumulation order, so neither the threshold nor the
  // schedule changes the returned bits.
  std::vector<double> row_total(n1);
  core::parallel_for(
      0, n1,
      [&](std::size_t i) {
        std::vector<double> buf(buf_doubles);
        std::vector<unsigned char> cls(n2);
        RowCounts rc;
        row_total[i] = sampled_mutual_row(A, i, B, buf.data(), cls.data(), rc);
        detail::tally_pairs(rc.exact, rc.evals);
      },
      1);
  double total = 0.0;
  for (std::size_t i = 0; i < n1; ++i) total += row_total[i];
  return total;
}

bool kernel_clones_enabled() {
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

}  // namespace emi::peec
