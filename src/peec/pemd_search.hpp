// Outermost-crossing search behind the PEMD design rule: the smallest centre
// distance beyond which |k(d)| stays at or under a threshold.
//
// |k(d)| is not monotone. For a capacitor-choke pair the signed k passes
// through zero near the component size (the near-field and dipole terms
// cancel), so |k| rises again into a second bump before the dipole tail
// d^-3 takes over. A bisection that assumes monotone decay returns whichever
// crossing its midpoints hit first - on such pairs a distance inside the
// bump, where the coupling the rule exists to forbid is still allowed.
//
// The search therefore works outside-in and is sign-aware:
//   * March inward from d_hi. Each trial is the distance where the far-field
//     law |k| ~ d^-p through the innermost sample predicts the threshold:
//     p = 3 (dipole-dipole) at first, then the log-log slope of the two
//     innermost same-sign samples, at most 6; a slope under 1 (a rising
//     flank) falls back to 3. On a bump's decaying flank ln|k| is concave in
//     ln d, so that extrapolation lands outside the crossing and the march
//     cannot step over the bump. Just inside a zero, the trial follows the
//     line through the two samples enclosing it instead.
//   * Two neighbouring samples of opposite sign enclose a zero and, on its
//     outer side, a bump. Unless the outer sample is on the bump's rising
//     flank, or the steepest admitted power law through it stays under the
//     threshold across the gap, the bump is probed by a sign-aware
//     golden-section search for its peak, down to `tol`, before the search
//     moves inward of it.
//   * The final bracket [inside > thr, outside <= thr] is tightened by
//     Illinois regula falsi on (ln d, ln|k|), or on signed k when a zero
//     lies inside the bracket or just beyond it. An estimate within `tol` of
//     an edge becomes the step that closes the bracket if it is right.
//
// Contract (asserted on synthetic curves and on every model pair of the
// converters by the `rules` test battery):
//   * returns d_hi exactly when |k(d_hi)| > thr;
//   * otherwise |k(result)| <= thr and no evaluated point beyond the result
//     is above thr;
//   * unless the result is d_lo (nothing above thr found down to d_lo), an
//     evaluated point within `tol` inside the result is above thr.
// Throws std::invalid_argument for thr <= 0, d_lo <= 0, d_hi <= d_lo or
// tol <= 0. The calling thread's core::CancelScope is polled before every
// evaluation; a stopped search returns d_hi for the stage to discard.
//
// Steered search (steered_outermost_crossing): the same search runs on a
// cheap steering curve - the coupling at a coarser quadrature, which tracks
// the converged one to within a few percent - and exact evaluations then
// certify the steering result r:
//   * r = d_hi: |k(d_hi)| > thr;
//   * r = d_lo: |k(d_lo)| <= thr;
//   * otherwise |k(r)| <= thr and |k(max(d_lo, r - tol))| > thr.
// That is one exact evaluation for d_lo and d_hi, two for a crossing. Below
// d_hi the rule also leans on the steering beyond it, so the certificate
// further asks that the steering agree with the exact k to within 5% at
// the certified points, and that no steering sample beyond the rule's own
// decaying tail (past a sign change or a rise, i.e. on a bump) come within
// 5% under thr. If any of this fails, the exact-only search runs
// unchanged, so its result is bit-identical to outermost_crossing. A
// certified rule keeps the first and third properties of the contract with
// exact points; the second becomes "no *steering* sample beyond the result
// is above thr".
#pragma once

#include <functional>

#include "src/core/units.hpp"

namespace emi::peec {

using units::Millimeters;

// Signed coupling factor at a centre distance.
using CouplingCurve = std::function<double(Millimeters)>;

Millimeters outermost_crossing(const CouplingCurve& k, double k_threshold,
                               Millimeters d_lo, Millimeters d_hi, Millimeters tol);

// What a steered search returned and how it got there.
struct SteeredCrossing {
  Millimeters distance;
  // A certificate failed and `distance` is the exact-only search's.
  bool fell_back = false;
  // Largest |k_exact - k_steer| / |k_exact| over the certified points whose
  // exact |k| is above the null floor; 0 when nothing was certified.
  double steer_rel_err = 0.0;
  // Every exact |k| the search evaluated is under the null floor (1e-12):
  // round-off, the pair's fields cancel in the rule geometry.
  bool null_geometry = false;
};

// Steer on `steer`, certify on `exact` (see above). An empty `steer` runs
// the exact-only search. Same arguments, throws and stop behavior as
// outermost_crossing; a stop during either phase returns d_hi.
SteeredCrossing steered_outermost_crossing(const CouplingCurve& steer,
                                           const CouplingCurve& exact,
                                           double k_threshold, Millimeters d_lo,
                                           Millimeters d_hi, Millimeters tol);

}  // namespace emi::peec
