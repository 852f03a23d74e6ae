#include "src/peec/ground_plane.hpp"

#include <cmath>
#include <stdexcept>

#include "src/peec/partial_inductance.hpp"

namespace emi::peec {

namespace {

// The opposite-current image of `path`: endpoints reflected, weight negated.
SegmentPath image_of(const SegmentPath& path, double plane_z) {
  SegmentPath out;
  out.segments.reserve(path.segments.size());
  for (const Segment& s : path.segments) {
    if (s.a.z < plane_z - 1e-9 || s.b.z < plane_z - 1e-9) {
      throw std::invalid_argument(
          "with_ground_plane: conductor below the ground plane");
    }
    out.segments.push_back(
        {mirror_point(s.a, plane_z), mirror_point(s.b, plane_z), s.radius, -s.weight});
  }
  return out;
}

}  // namespace

SegmentPath with_ground_plane(const SegmentPath& path, double plane_z) {
  SegmentPath out = image_of(path, plane_z);
  out.segments.insert(out.segments.begin(), path.segments.begin(), path.segments.end());
  return out;
}

Henry GroundedCouplingExtractor::self_inductance(const ComponentFieldModel& m) const {
  // Note: unlike the free-space extractor this is not cached; grounded
  // extraction is used for rule studies, not inner loops.
  // The energy belongs to the real conductor only: L = L_rr + L_ri, the
  // real path's own loop inductance plus its mutual with the image. The
  // full double sum over real+image would also add the image/image self
  // energy.
  const double l = path_inductance(m.local_path, opt_) +
                   path_mutual(m.local_path, image_of(m.local_path, plane_z_), opt_);
  return Henry{m.mu_eff * l};
}

Henry GroundedCouplingExtractor::mutual(const PlacedModel& a,
                                        const PlacedModel& b) const {
  if (a.model == nullptr || b.model == nullptr) {
    throw std::invalid_argument("GroundedCouplingExtractor::mutual: null model");
  }
  // Flux of (B real + B image) through the real receiving path: couple the
  // full mirrored source path against the real segments of b.
  const SegmentPath pa = with_ground_plane(a.model->path_at(a.pose), plane_z_);
  const SegmentPath pb = b.model->path_at(b.pose);
  return Henry{a.model->stray_scale * b.model->stray_scale * path_mutual(pa, pb, opt_)};
}

double GroundedCouplingExtractor::coupling_factor(const PlacedModel& a,
                                                  const PlacedModel& b) const {
  const Henry la = self_inductance(*a.model);
  const Henry lb = self_inductance(*b.model);
  if (la.raw() <= 0.0 || lb.raw() <= 0.0) return 0.0;
  return mutual(a, b) / units::sqrt(la * lb);
}

double GroundedCouplingExtractor::coupling_at(const ComponentFieldModel& a,
                                              const ComponentFieldModel& b,
                                              Millimeters center_distance,
                                              double rot_a_deg, double rot_b_deg) const {
  const PlacedModel pa{&a, Pose{{0.0, 0.0, 0.0}, rot_a_deg}};
  const PlacedModel pb{&b, Pose{{center_distance.raw(), 0.0, 0.0}, rot_b_deg}};
  return coupling_factor(pa, pb);
}

}  // namespace emi::peec
