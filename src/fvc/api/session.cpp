#include "fvc/api/session.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "fvc/core/full_view.hpp"
#include "fvc/io/checkpoint.hpp"
#include "fvc/obs/metrics.hpp"
#include "fvc/obs/number_text.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/sim/thread_pool.hpp"

namespace fvc::api {

namespace {

/// The digest header: format tag, grid side, theta.
std::string digest_header(std::size_t grid_side, double theta) {
  std::string s = "fvc.session/1\ngrid-side=";
  s += std::to_string(grid_side);
  s += "\ntheta=";
  obs::append_g17(s, theta);
  s += '\n';
  return s;
}

/// A camera's digest line: "cam=x y orientation radius fov group\n".
void append_camera_line(std::string& s, const core::Camera& cam) {
  s += "cam=";
  for (const double v : {cam.position.x, cam.position.y, cam.orientation,
                         cam.radius, cam.fov}) {
    obs::append_g17(s, v);
    s += ' ';
  }
  s += std::to_string(cam.group);
  s += '\n';
}

/// The camera-list half of an edit: drop `cams[index]` when `erase`, put
/// `*insert` there when non-null.  Its inverse is
/// `splice_cameras(cams, index, insert != nullptr, erase ? &dropped : nullptr)`.
void splice_cameras(std::vector<core::Camera>& cams, std::size_t index,
                    bool erase, const core::Camera* insert) {
  const auto at = cams.begin() + static_cast<std::ptrdiff_t>(index);
  if (erase && insert != nullptr) {
    *at = *insert;
  } else if (erase) {
    cams.erase(at);
  } else if (insert != nullptr) {
    cams.insert(at, *insert);
  }
}

/// Torus distance between two y coordinates in [0, 1).
double torus_dy(double a, double b) {
  const double d = std::fabs(a - b);
  return std::min(d, 1.0 - d);
}

}  // namespace

void check_point_domain(double x, double y) {
  // Written so NaN fails too.
  if (!(x >= 0.0 && x <= 1.0 && y >= 0.0 && y <= 1.0)) {
    throw PointDomainError("point outside the [0, 1]^2 domain");
  }
}

Session::Session(SessionConfig cfg)
    : cameras_(std::move(cfg.cameras)),
      theta_(cfg.theta),
      grid_(cfg.grid_side),
      threads_(cfg.threads == 0 ? sim::default_thread_count() : cfg.threads),
      metrics_(cfg.metrics),
      progress_(std::move(cfg.progress)),
      text_(grid_.side(), theta_, cameras_),
      digest_(text_.value()),
      rows_(grid_.side()) {
  core::validate_theta(theta_);
  net_ = std::make_unique<core::Network>(cameras_);
  engine_ = std::make_unique<core::GridEvalEngine>(*net_, grid_, theta_);
  if (metrics_ != nullptr) {
    engine_->describe(metrics_->child("engine"));
  }
}

// The canonical text is the header, then one line per camera in index
// order — index order matters because remove/move address by index.
// Construction appends every line; an edit touches its own line and
// re-hashes from there, so the digest always equals config_digest64 of
// the whole text.

Session::DigestText::DigestText(std::size_t grid_side, double theta,
                                const std::vector<core::Camera>& cameras)
    : grid_side_(grid_side) {
  begin_.reserve(cameras.size() + 1);
  begin_.push_back(0);
  for (const core::Camera& cam : cameras) {
    append_camera_line(lines_, cam);
    begin_.push_back(lines_.size());
  }
  state_.resize(begin_.size());
  set_theta(theta);
}

void Session::DigestText::set_theta(double theta) {
  state_[0] = io::fnv1a64(io::kFnv1a64Basis, digest_header(grid_side_, theta));
  rehash_from(0);
}

void Session::DigestText::splice(std::size_t index, bool erase,
                                 const core::Camera* insert) {
  std::string line;
  if (insert != nullptr) {
    append_camera_line(line, *insert);
  }
  const std::size_t at = begin_[index];
  const std::size_t old_len = erase ? begin_[index + 1] - at : 0;
  if (erase && insert != nullptr && lines_.compare(at, old_len, line) == 0) {
    return;  // same text, same states: a no-op move re-hashes nothing
  }
  lines_.replace(at, old_len, line);
  // Every offset past the touched line shifts by the length change; then
  // a pure erase drops a line end and a pure insert adds one.
  for (std::size_t i = index + 1; i < begin_.size(); ++i) {
    begin_[i] = begin_[i] - old_len + line.size();
  }
  const auto end_of_index = begin_.begin() + static_cast<std::ptrdiff_t>(index) + 1;
  if (erase && insert == nullptr) {
    begin_.erase(end_of_index);
    state_.pop_back();
  } else if (!erase && insert != nullptr) {
    begin_.insert(end_of_index, at + line.size());
    state_.push_back(0);
  }
  rehash_from(index);
}

void Session::DigestText::rehash_from(std::size_t line) {
  const std::string_view text = lines_;
  for (std::size_t i = line; i + 1 < begin_.size(); ++i) {
    state_[i + 1] =
        io::fnv1a64(state_[i], text.substr(begin_[i], begin_[i + 1] - begin_[i]));
  }
}

std::string Session::digest_hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, digest_);
  return buf;
}

std::size_t Session::cached_rows() const {
  return static_cast<std::size_t>(std::count_if(
      rows_.begin(), rows_.end(), [](const auto& slot) { return slot.has_value(); }));
}

PointAnswer Session::query_point(double x, double y) {
  PointAnswer ans;
  query_points(&x, &y, 1, &ans);
  return ans;
}

void Session::query_points(const double* xs, const double* ys, std::size_t n,
                           PointAnswer* out) {
  for (std::size_t i = 0; i < n; ++i) {
    check_point_domain(xs[i], ys[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const core::PointEval ev =
        engine_->eval_point({xs[i], ys[i]}, point_scratch_);
    out[i].covered = ev.full_view.covered;
    out[i].max_gap = ev.full_view.max_gap;
    out[i].covering_count = ev.full_view.covering_count;
    out[i].necessary = ev.necessary;
    out[i].sufficient = ev.sufficient;
  }
  if (metrics_ != nullptr) {
    metrics_->add("point_queries", static_cast<double>(n));
  }
}

RegionAnswer Session::query_region(double y_lo, double y_hi) {
  if (!(y_lo <= y_hi)) {
    throw std::invalid_argument("query_region: need y_lo <= y_hi");
  }
  y_lo = std::clamp(y_lo, 0.0, 1.0);
  y_hi = std::clamp(y_hi, 0.0, 1.0);
  const std::size_t side = grid_.side();

  // Rows whose cell center (row + 0.5) / side lies inside the strip.
  std::size_t first = side;
  std::size_t last = 0;
  for (std::size_t row = 0; row < side; ++row) {
    const double y = (static_cast<double>(row) + 0.5) / static_cast<double>(side);
    if (y_lo <= y && y <= y_hi) {
      first = std::min(first, row);
      last = row;
    }
  }
  RegionAnswer ans;
  if (first == side) {
    return ans;  // empty strip: zero rows, zero points
  }
  ans.row_begin = first;
  ans.row_end = last + 1;
  ans.tiles_total = ans.row_end - ans.row_begin;
  std::vector<std::size_t> missing;
  for (std::size_t row = ans.row_begin; row < ans.row_end; ++row) {
    if (!rows_[row]) {
      missing.push_back(row);
    }
  }
  ans.tiles_computed = missing.size();
  ans.tiles_cached = ans.tiles_total - ans.tiles_computed;
  cache_stats_.hits += ans.tiles_cached;
  cache_stats_.misses += ans.tiles_computed;

  if (!missing.empty()) {
    // Invalid rows batch into the SIMD kernel concurrently, one row per
    // claim into its own slot; the fold below stays in row order, so
    // scheduling cannot perturb the answer.
    const std::size_t workers =
        std::clamp<std::size_t>(threads_, 1, missing.size());
    std::vector<core::GridEvalScratch> scratches(workers);
    std::mutex progress_mutex;
    std::size_t done = ans.tiles_cached;
    sim::parallel_for(missing.size(), workers, [&](std::size_t m, std::size_t worker) {
      rows_[missing[m]] = engine_->row_stats(missing[m], scratches[worker]);
      if (progress_) {
        const std::lock_guard<std::mutex> lock(progress_mutex);
        ++done;
        progress_(done, ans.tiles_total);
      }
    });
  }

  // Row-order fold over the band — the exact reduction of the serial scan
  // (`core::fold_row_stats`), so cached and computed rows are
  // indistinguishable and a whole-grid query matches evaluate_region
  // bit-for-bit.
  ans.stats.total_points = ans.tiles_total * side;
  for (std::size_t row = ans.row_begin; row < ans.row_end; ++row) {
    core::fold_row_stats(ans.stats, *rows_[row], row == ans.row_begin);
  }
  if (metrics_ != nullptr) {
    metrics_->add("region_queries", 1.0);
    metrics_->add("tiles_cached", static_cast<double>(ans.tiles_cached));
    metrics_->add("tiles_computed", static_cast<double>(ans.tiles_computed));
    metrics_->set("cache_hits", static_cast<double>(cache_stats_.hits));
    metrics_->set("cache_misses", static_cast<double>(cache_stats_.misses));
    metrics_->set("cache_carried_forward",
                  static_cast<double>(cache_stats_.carried_forward));
    metrics_->set("cache_size", static_cast<double>(cached_rows()));
  }
  return ans;
}

bool Session::disk_reaches_row(const core::Camera& cam, std::size_t row) const {
  // Coverage requires 2D distance <= radius, and the torus y-distance to
  // the row's cell centers lower-bounds it, so a row further than the
  // radius is provably untouched.
  const double y = (static_cast<double>(row) + 0.5) / static_cast<double>(grid_.side());
  return torus_dy(cam.position.y, y) <= cam.radius;
}

std::uint64_t Session::edit(std::size_t index, bool erase,
                            std::optional<core::Camera> added, double theta) {
  // Stage the camera list.  `added` is taken by value, so the caller may
  // pass one of this session's own cameras; `removed` is both a touched
  // camera (its disk dirties rows) and the rollback value.
  const core::Camera* insert = added ? &*added : nullptr;
  const core::Camera removed = erase ? cameras_[index] : core::Camera{};
  const double old_theta = theta_;
  splice_cameras(cameras_, index, erase, insert);
  theta_ = theta;

  // Stage the digest lines, then build.  Clone-on-edit: a fresh network
  // and engine, never an in-place mutation, so a failed build (invalid
  // camera) leaves the live ones untouched.  Rolling back is the inverse
  // splice — re-formatting `removed` gives its old line byte for byte.
  const std::uint64_t t_stage = obs::monotonic_ns();
  std::uint64_t t_digest = 0;
  bool text_staged = false;
  std::unique_ptr<core::Network> net;
  std::unique_ptr<core::GridEvalEngine> engine;
  try {
    text_.splice(index, erase, insert);
    if (theta != old_theta) {
      text_.set_theta(theta);
    }
    text_staged = true;
    t_digest = obs::monotonic_ns();
    net = std::make_unique<core::Network>(cameras_);
    engine = std::make_unique<core::GridEvalEngine>(*net, grid_, theta_);
  } catch (...) {
    if (text_staged) {
      if (theta != old_theta) {
        text_.set_theta(old_theta);
      }
      text_.splice(index, insert != nullptr, erase ? &removed : nullptr);
    }
    splice_cameras(cameras_, index, insert != nullptr, erase ? &removed : nullptr);
    theta_ = old_theta;
    throw;
  }

  // Commit, then clear the rows the edit can reach: every row when theta
  // changed, else those the removed or inserted camera's disk reaches.
  // The other rows stay valid for the new deployment.
  const std::uint64_t t_rebuild = obs::monotonic_ns();
  net_ = std::move(net);
  engine_ = std::move(engine);
  digest_ = text_.value();
  for (std::size_t row = 0; row < rows_.size(); ++row) {
    if (!rows_[row]) {
      continue;
    }
    if (theta != old_theta || (erase && disk_reaches_row(removed, row)) ||
        (insert != nullptr && disk_reaches_row(*insert, row))) {
      rows_[row].reset();
    } else {
      ++cache_stats_.carried_forward;
    }
  }
  if (metrics_ != nullptr) {
    metrics_->add("what_if_edits", 1.0);
    metrics_->add("what_if_digest_ns", static_cast<double>(t_digest - t_stage));
    metrics_->add("what_if_rebuild_ns", static_cast<double>(t_rebuild - t_digest));
    metrics_->add("what_if_carry_ns",
                  static_cast<double>(obs::monotonic_ns() - t_rebuild));
  }
  return digest_;
}

std::uint64_t Session::add_camera(const core::Camera& cam) {
  return edit(cameras_.size(), false, cam, theta_);
}

std::uint64_t Session::remove_camera(std::size_t index) {
  if (index >= cameras_.size()) {
    throw std::out_of_range("remove_camera: index out of range");
  }
  return edit(index, true, std::nullopt, theta_);
}

std::uint64_t Session::move_camera(std::size_t index, const core::Camera& cam) {
  if (index >= cameras_.size()) {
    throw std::out_of_range("move_camera: index out of range");
  }
  return edit(index, true, cam, theta_);
}

std::uint64_t Session::set_theta(double theta) {
  core::validate_theta(theta);
  return edit(cameras_.size(), false, std::nullopt, theta);
}

}  // namespace fvc::api
