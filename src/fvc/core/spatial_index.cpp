#include "fvc/core/spatial_index.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fvc/geometry/torus.hpp"

namespace fvc::core {

SpatialIndex::SpatialIndex(std::span<const geom::Vec2> points, double query_radius) {
  if (!(query_radius > 0.0)) {
    throw std::invalid_argument("SpatialIndex: query_radius must be positive");
  }
  // Cell side must be >= query_radius so that a 3x3 block suffices.  The
  // radius floor (kMinSizingRadius) is shared with the grid-eval engine's
  // candidate index: both sizing rules must agree that degenerate radii
  // cannot request unbounded resolution.
  const double side = std::max(query_radius, kMinSizingRadius);
  cells_ = std::max<std::size_t>(1, static_cast<std::size_t>(std::floor(1.0 / side)));
  // With wraparound, >=3 cells per side avoids double-visiting buckets in
  // the 3x3 loop; fall back to a single cell otherwise.
  if (cells_ < 3) {
    cells_ = 1;
  }
  if (points.size() > static_cast<std::size_t>(~std::uint32_t{0})) {
    throw std::invalid_argument("SpatialIndex: too many points");
  }

  const std::size_t buckets = cells_ * cells_;
  offsets_.assign(buckets + 1, 0);
  std::vector<std::uint32_t> bucket_of(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto [cx, cy] = cell_of(points[i]);
    const auto b = static_cast<std::uint32_t>(
        static_cast<std::size_t>(cx) * cells_ + static_cast<std::size_t>(cy));
    bucket_of[i] = b;
    ++offsets_[b + 1];
  }
  for (std::size_t b = 0; b < buckets; ++b) {
    offsets_[b + 1] += offsets_[b];
  }
  entries_.resize(points.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    entries_[cursor[bucket_of[i]]++] = static_cast<std::uint32_t>(i);
  }
}

std::pair<std::ptrdiff_t, std::ptrdiff_t> SpatialIndex::cell_of(const geom::Vec2& p) const {
  const geom::Vec2 w = geom::UnitTorus::wrap(p);
  auto cx = static_cast<std::ptrdiff_t>(w.x * static_cast<double>(cells_));
  auto cy = static_cast<std::ptrdiff_t>(w.y * static_cast<double>(cells_));
  const auto c = static_cast<std::ptrdiff_t>(cells_);
  cx = std::clamp<std::ptrdiff_t>(cx, 0, c - 1);
  cy = std::clamp<std::ptrdiff_t>(cy, 0, c - 1);
  return {cx, cy};
}

std::vector<std::size_t> SpatialIndex::candidates(const geom::Vec2& p) const {
  std::vector<std::size_t> out;
  for_each_candidate(p, [&out](std::size_t i) { out.push_back(i); });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fvc::core
