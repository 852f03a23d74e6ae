#include "src/peec/pemd_search.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/deadline.hpp"

namespace emi::peec {

namespace {

constexpr double kFirstExponent = 3.0;  // dipole-dipole far field
constexpr double kMinExponent = 1.0;
constexpr double kMaxExponent = 6.0;
constexpr double kFinishStep = 0.9;  // x tol: a step that closes the bracket
constexpr double kGolden = 0.3819660112501051;  // 2 - phi
constexpr int kMaxProbeSteps = 64;
constexpr double kNullCoupling = 1e-12;  // |k| of a geometry whose fields cancel
// Relative steering error a certificate trusts. The coarse quadrature is
// within 2% of the exact k on the converters' pairs, so a bump the steering
// puts within 5% under the threshold may be above it exactly.
constexpr double kSteerMargin = 0.05;

struct Sample {
  double d;  // mm
  double k;  // signed
};

class Search {
 public:
  Search(const CouplingCurve& k, double thr, double lo, double hi, double tol)
      : k_(k), thr_(thr), lo_(lo), hi_(hi), tol_(tol) {}

  double run() {
    if (!eval(hi_)) return hi_;
    if (above(samples_.front())) return hi_;
    for (;;) {
      // Outermost sample above the threshold; everything outward is under.
      std::size_t in = samples_.size();
      for (std::size_t i = samples_.size(); i-- > 0;) {
        if (above(samples_[i])) {
          in = i;
          break;
        }
      }
      const std::size_t first = in == samples_.size() ? 0 : in;
      bool probed = false;
      for (std::size_t i = first; i + 1 < samples_.size(); ++i) {
        if (!may_hide_bump(i)) continue;
        const Sample inner = samples_[i];
        const Sample outer = samples_[i + 1];
        bool found = false;
        if (!probe(inner, outer, found)) return hi_;
        if (!found) cleared_.emplace_back(inner.d, outer.d);
        probed = true;
        break;
      }
      if (probed) continue;

      double trial = 0.0;
      if (in == samples_.size()) {
        if (samples_.front().d <= lo_) return lo_;
        trial = march();
      } else {
        const double outside = samples_[in + 1].d;
        if (outside - samples_[in].d <= tol_) return outside;
        trial = refine(in);
      }
      if (!eval(trial)) return hi_;
    }
  }

 private:
  bool above(const Sample& s) const { return std::fabs(s.k) > thr_; }

  // One exact evaluation, kept in distance order; false once stopped.
  bool eval(double d) {
    if (!core::CancelScope::poll()) return false;
    last_ = Sample{d, k_(Millimeters{d})};
    const auto pos = std::lower_bound(samples_.begin(), samples_.end(), d,
                                      [](const Sample& s, double x) { return s.d < x; });
    samples_.insert(pos, last_);
    return true;
  }

  bool cleared(double a, double b) const {
    return std::any_of(cleared_.begin(), cleared_.end(), [&](const auto& c) {
      return c.first <= a && b <= c.second;
    });
  }

  // Samples i and i + 1 of opposite sign (both under the threshold, or an
  // inside point above it) enclose a zero and the outer branch's peak. The
  // gap is worth probing only if the steepest admitted power law through
  // the outer sample could reach the threshold inside it, and unless that
  // sample sits on the bump's rising flank (its same-sign outward neighbour
  // is larger), which puts the peak outward of the gap.
  bool may_hide_bump(std::size_t i) const {
    const Sample& a = samples_[i];
    const Sample& b = samples_[i + 1];
    if (a.k * b.k > 0.0 || b.k == 0.0) return false;
    if (b.d - a.d <= tol_ || cleared(a.d, b.d)) return false;
    if (i + 2 < samples_.size()) {
      const Sample& c = samples_[i + 2];
      if (b.k * c.k > 0.0 && std::fabs(c.k) >= std::fabs(b.k)) return false;
    }
    return std::fabs(b.k) * std::pow(b.d / a.d, kMaxExponent) > thr_;
  }

  // Sign-aware golden-section search for the peak of the outer branch
  // between `inner` and `outer` in ln d. Points with the inner sign lie
  // inside the zero and only move the lower end. Stops once the bracket is
  // narrower than tol or too narrow for the power-law bound of
  // may_hide_bump to reach the threshold. Sets `found` at the first
  // outer-branch point above the threshold; false once stopped.
  bool probe(const Sample& inner, const Sample& outer, bool& found) {
    double lo = std::log(inner.d);
    double hi = std::log(outer.d);
    double k_hi = std::fabs(outer.k);
    bool have_mid = false;
    double x_mid = 0.0;
    double k_mid = 0.0;
    for (int step = 0; step < kMaxProbeSteps && std::exp(hi) - std::exp(lo) > tol_;
         ++step) {
      const double w = hi - lo;
      if (k_hi * std::exp(kMaxExponent * w) <= thr_) break;  // no room for a bump
      double x = have_mid ? lo + hi - x_mid : lo + (1.0 - kGolden) * w;
      if (have_mid && std::fabs(x - x_mid) < 0.1 * w) {
        x = x_mid - lo > hi - x_mid ? x_mid - kGolden * (x_mid - lo)
                                    : x_mid + kGolden * (hi - x_mid);
      }
      x = std::clamp(x, lo + 0.05 * w, hi - 0.05 * w);
      if (!eval(std::exp(x))) return false;
      const Sample s = last_;
      if (s.k * outer.k <= 0.0) {  // inside the zero
        lo = x;
        if (have_mid && x_mid <= lo) have_mid = false;
        continue;
      }
      if (above(s)) {
        found = true;
        return true;
      }
      if (!have_mid) {
        have_mid = true;
        x_mid = x;
        k_mid = std::fabs(s.k);
        continue;
      }
      // Two outer-branch points: the peak lies on the side of the larger.
      const bool new_left = x < x_mid;
      const double x_l = new_left ? x : x_mid;
      const double x_r = new_left ? x_mid : x;
      const double k_l = new_left ? std::fabs(s.k) : k_mid;
      const double k_r = new_left ? k_mid : std::fabs(s.k);
      if (k_l > k_r) {
        hi = x_r;
        k_hi = k_r;
        x_mid = x_l;
        k_mid = k_l;
      } else {
        lo = x_l;
        x_mid = x_r;
        k_mid = k_r;
      }
    }
    return true;
  }

  // Next inward trial from the innermost sample (under the threshold): where
  // the far-field law through it predicts the threshold, or - just inside a
  // zero, where k is locally linear in d - where the line through the two
  // samples enclosing that zero does.
  double march() const {
    const Sample& s0 = samples_.front();
    double trial = lo_;
    if (s0.k != 0.0) {
      const Sample* s1 = samples_.size() > 1 ? &samples_[1] : nullptr;
      if (s1 != nullptr && s0.k * s1->k < 0.0) {
        const double target = s0.k > 0.0 ? thr_ : -thr_;
        trial = s0.d + (target - s0.k) * (s0.d - s1->d) / (s0.k - s1->k);
      } else {
        double p = kFirstExponent;
        if (s1 != nullptr && s0.k * s1->k > 0.0) {
          const double local =
              std::log(std::fabs(s0.k / s1->k)) / std::log(s1->d / s0.d);
          if (std::isfinite(local) && local >= kMinExponent) {
            p = std::min(local, kMaxExponent);
          }
        }
        trial = s0.d * std::pow(std::fabs(s0.k) / thr_, 1.0 / p);
      }
    }
    // Predicted within tol: the one step that finishes the search if above.
    return std::max(lo_, std::min(trial, s0.d - kFinishStep * tol_));
  }

  // Illinois regula falsi inside the bracket [samples_[in], samples_[in+1]]:
  // an end kept for a second step in a row has its residual halved, and
  // halved again for every further step it is kept.
  // Away from zeros the far-field law makes ln|k| linear in ln d; with a
  // zero inside the bracket or just beyond its outside end, ln|k| diverges
  // while k itself is locally linear in d, so the secant runs on signed k.
  double refine(std::size_t in) {
    const Sample& inside = samples_[in];
    const Sample& outside = samples_[in + 1];
    retained_in_ = inside.d == prev_in_ ? retained_in_ + 1 : 0;
    retained_out_ = outside.d == prev_out_ ? retained_out_ + 1 : 0;
    prev_in_ = inside.d;
    prev_out_ = outside.d;
    const bool near_zero = inside.k * outside.k <= 0.0 ||
                           (in + 2 < samples_.size() && outside.k * samples_[in + 2].k <= 0.0);
    const double orient = inside.k > 0.0 ? 1.0 : -1.0;
    const auto residual = [&](const Sample& s) {
      return near_zero ? orient * s.k - thr_ : std::log(std::fabs(s.k) / thr_);
    };
    const double f_in = residual(inside) * std::ldexp(1.0, -std::max(0, retained_in_ - 1));
    const double f_out =
        residual(outside) * std::ldexp(1.0, -std::max(0, retained_out_ - 1));
    double t = 0.5;
    if (std::isfinite(f_in) && std::isfinite(f_out) && f_in - f_out > 0.0) {
      t = f_in / (f_in - f_out);
    }
    const double d = near_zero ? inside.d + t * (outside.d - inside.d)
                               : inside.d * std::pow(outside.d / inside.d, t);
    // An estimate within tol of an edge becomes the step from that edge that
    // closes the bracket if the crossing is where it was estimated.
    if (d > outside.d - tol_) return outside.d - kFinishStep * tol_;
    if (d < inside.d + tol_) return inside.d + kFinishStep * tol_;
    return d;
  }

  const CouplingCurve& k_;
  double thr_;
  double lo_;
  double hi_;
  double tol_;
  std::vector<Sample> samples_;  // ascending distance
  std::vector<std::pair<double, double>> cleared_;  // probed, bump-free gaps
  Sample last_{0.0, 0.0};
  double prev_in_ = -1.0;
  double prev_out_ = -1.0;
  int retained_in_ = 0;
  int retained_out_ = 0;
};

// Whether a steering sample beyond the rule `r`, past the rule's own
// decaying tail (a sign change or a rise ends it), comes within the
// steering margin of the threshold: a bump the steering saw just under it.
bool bump_near_threshold(std::vector<Sample> seen, double r, double thr) {
  std::sort(seen.begin(), seen.end(),
            [](const Sample& a, const Sample& b) { return a.d < b.d; });
  auto it = std::find_if(seen.begin(), seen.end(), [&](const Sample& s) { return s.d >= r; });
  if (it == seen.end()) return false;
  while (it + 1 != seen.end() && it->k * (it + 1)->k > 0.0 &&
         std::fabs((it + 1)->k) <= std::fabs(it->k)) {
    ++it;
  }
  return std::any_of(it + 1, seen.end(), [&](const Sample& s) {
    return std::fabs(s.k) > (1.0 - kSteerMargin) * thr;
  });
}

void check_arguments(double thr, Millimeters d_lo, Millimeters d_hi, Millimeters tol) {
  if (thr <= 0.0) throw std::invalid_argument("min_distance: threshold <= 0");
  if (d_lo.raw() <= 0.0 || d_hi <= d_lo) {
    throw std::invalid_argument("min_distance: bad bracket");
  }
  if (tol.raw() <= 0.0) throw std::invalid_argument("min_distance: tolerance <= 0");
}

}  // namespace

Millimeters outermost_crossing(const CouplingCurve& k, double k_threshold,
                               Millimeters d_lo, Millimeters d_hi, Millimeters tol) {
  check_arguments(k_threshold, d_lo, d_hi, tol);
  return Millimeters{Search(k, k_threshold, d_lo.raw(), d_hi.raw(), tol.raw()).run()};
}

SteeredCrossing steered_outermost_crossing(const CouplingCurve& steer,
                                           const CouplingCurve& exact,
                                           double k_threshold, Millimeters d_lo,
                                           Millimeters d_hi, Millimeters tol) {
  check_arguments(k_threshold, d_lo, d_hi, tol);
  const double lo = d_lo.raw();
  const double hi = d_hi.raw();
  double peak = 0.0;
  const CouplingCurve tracked = [&](Millimeters d) {
    const double k = exact(d);
    peak = std::max(peak, std::fabs(k));
    return k;
  };
  SteeredCrossing out;
  const auto done = [&](double d) {
    out.distance = Millimeters{d};
    out.null_geometry = peak < kNullCoupling;
    return out;
  };
  if (steer) {
    std::vector<Sample> seen;
    const CouplingCurve logged = [&](Millimeters d) {
      seen.push_back(Sample{d.raw(), steer(d)});
      return seen.back().k;
    };
    const double r = Search(logged, k_threshold, lo, hi, tol.raw()).run();
    struct Certificate {
      double d;
      bool above;  // the exact |k| there must be above the threshold
    };
    std::vector<Certificate> certs;
    if (r == hi) {
      certs = {{hi, true}};
    } else if (r == lo) {
      certs = {{lo, false}};
    } else {
      certs = {{r, false}, {std::max(lo, r - tol.raw()), true}};
    }
    const auto steer_at = [&](double d) {
      for (const Sample& s : seen) {
        if (s.d == d) return s.k;
      }
      return steer(Millimeters{d});
    };
    // d_hi needs nothing of the steering; a lower rule relies on it beyond
    // the rule, so there it must agree with the exact k to within the margin.
    bool certified = r == hi || !bump_near_threshold(seen, r, k_threshold);
    double err = 0.0;
    for (std::size_t i = 0; certified && i < certs.size(); ++i) {
      if (!core::CancelScope::poll()) return done(hi);
      const double k = tracked(Millimeters{certs[i].d});
      certified = (std::fabs(k) > k_threshold) == certs[i].above;
      if (certified && std::fabs(k) >= kNullCoupling) {
        err = std::max(err, std::fabs(k - steer_at(certs[i].d)) / std::fabs(k));
        certified = r == hi || err <= kSteerMargin;
      }
    }
    if (certified) {
      out.steer_rel_err = err;
      return done(r);
    }
    out.fell_back = true;
  }
  return done(Search(tracked, k_threshold, lo, hi, tol.raw()).run());
}

}  // namespace emi::peec
