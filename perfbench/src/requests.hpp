/// \file requests.hpp
/// \brief fvc.query/1 request bodies the harness sends, and the seeded
/// camera a what-if pair adds.

#pragma once

#include <string>
#include <vector>

#include "fvc/api/wire.hpp"
#include "fvc/core/camera.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/stats/distributions.hpp"
#include "fvc/stats/rng.hpp"

namespace fvcbench {

inline std::string point_request(double x, double y) {
  fvc::api::JsonObjectWriter w;
  w.add_string("op", "point");
  w.add_number("x", x);
  w.add_number("y", y);
  return w.finish();
}

inline std::string region_request(double y_lo, double y_hi) {
  fvc::api::JsonObjectWriter w;
  w.add_string("op", "region");
  w.add_number("y_lo", y_lo);
  w.add_number("y_hi", y_hi);
  return w.finish();
}

inline std::string add_request(const fvc::core::Camera& c) {
  fvc::api::JsonObjectWriter w;
  w.add_string("op", "what_if");
  w.add_string("action", "add");
  w.add_number("x", c.position.x);
  w.add_number("y", c.position.y);
  w.add_number("orientation", c.orientation);
  w.add_number("radius", c.radius);
  w.add_number("fov", c.fov);
  w.add_integer("group", c.group);
  return w.finish();
}

inline std::string remove_request(std::size_t index) {
  fvc::api::JsonObjectWriter w;
  w.add_string("op", "what_if");
  w.add_string("action", "remove");
  w.add_integer("index", index);
  return w.finish();
}

/// A camera with the spec of a seeded member of `fleet`, placed and aimed
/// uniformly at random.
inline fvc::core::Camera random_camera(const std::vector<fvc::core::Camera>& fleet,
                                       fvc::stats::Pcg32& rng) {
  fvc::core::Camera c = fleet[rng() % fleet.size()];
  c.position = {fvc::stats::uniform01(rng), fvc::stats::uniform01(rng)};
  c.orientation = fvc::stats::uniform_in(rng, 0.0, fvc::geom::kTwoPi);
  return c;
}

}  // namespace fvcbench
