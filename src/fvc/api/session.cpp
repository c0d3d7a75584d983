#include "fvc/api/session.hpp"

#include <algorithm>
#include <bit>
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
      tile_rows_(cfg.tile_rows),
      threads_(cfg.threads == 0 ? sim::default_thread_count() : cfg.threads),
      metrics_(cfg.metrics),
      progress_(std::move(cfg.progress)),
      text_(grid_.side(), theta_, cameras_),
      digest_(text_.value()),
      cache_(cfg.cache_tiles) {
  core::validate_theta(theta_);
  if (tile_rows_ == 0) {
    throw std::invalid_argument("Session: tile_rows must be >= 1");
  }
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

TileKey Session::key_for(std::size_t row_begin, std::size_t row_end) const {
  TileKey key;
  key.digest = digest_;
  key.theta_bits = std::bit_cast<std::uint64_t>(theta_);
  key.k = core::implied_k(theta_);
  key.row_begin = static_cast<std::uint32_t>(row_begin);
  key.row_end = static_cast<std::uint32_t>(row_end);
  return key;
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
  // Widen to whole cache tiles so the band partitions into cacheable
  // aligned blocks; the answer reports the rows actually evaluated.
  const std::size_t row_begin = (first / tile_rows_) * tile_rows_;
  const std::size_t row_end = std::min(side, ((last / tile_rows_) + 1) * tile_rows_);
  ans.row_begin = row_begin;
  ans.row_end = row_end;
  ans.tiles_total = (row_end - row_begin + tile_rows_ - 1) / tile_rows_;

  struct Tile {
    std::size_t begin = 0;
    std::size_t end = 0;
    core::GridRowStats stats;
    bool cached = false;
  };
  std::vector<Tile> tiles(ans.tiles_total);
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    Tile& t = tiles[i];
    t.begin = row_begin + i * tile_rows_;
    t.end = std::min(row_end, t.begin + tile_rows_);
    t.cached = cache_.lookup(key_for(t.begin, t.end), t.stats);
    if (!t.cached) {
      missing.push_back(i);
    }
  }
  ans.tiles_cached = tiles.size() - missing.size();
  ans.tiles_computed = missing.size();

  if (!missing.empty()) {
    // Missing tiles batch into the SIMD kernel concurrently; each tile is
    // one engine block call, and the fold below stays in row order, so
    // scheduling cannot perturb the answer.
    const std::size_t workers =
        std::clamp<std::size_t>(threads_, 1, missing.size());
    std::vector<core::GridEvalScratch> scratches(workers);
    std::mutex progress_mutex;
    std::size_t done = ans.tiles_cached;
    sim::parallel_for(missing.size(), workers, [&](std::size_t m, std::size_t worker) {
      Tile& t = tiles[missing[m]];
      t.stats = engine_->block_stats(t.begin, t.end, scratches[worker]);
      if (progress_) {
        const std::lock_guard<std::mutex> lock(progress_mutex);
        ++done;
        progress_(done, ans.tiles_total);
      }
    });
    for (const std::size_t m : missing) {
      const Tile& t = tiles[m];
      cache_.insert(key_for(t.begin, t.end), t.stats);
    }
  }

  // Row-order fold over the band — the exact reduction of the serial scan
  // (`core::fold_row_stats`), so cached and computed tiles are
  // indistinguishable and a whole-grid query matches evaluate_region
  // bit-for-bit.
  ans.stats.total_points = (row_end - row_begin) * side;
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    core::fold_row_stats(ans.stats, tiles[i].stats, i == 0);
  }
  if (metrics_ != nullptr) {
    metrics_->add("region_queries", 1.0);
    metrics_->add("tiles_cached", static_cast<double>(ans.tiles_cached));
    metrics_->add("tiles_computed", static_cast<double>(ans.tiles_computed));
    const TileCacheStats& cs = cache_.stats();
    metrics_->set("cache_hits", static_cast<double>(cs.hits));
    metrics_->set("cache_misses", static_cast<double>(cs.misses));
    metrics_->set("cache_evictions", static_cast<double>(cs.evictions));
    metrics_->set("cache_carried_forward", static_cast<double>(cs.carried_forward));
    metrics_->set("cache_size", static_cast<double>(cache_.size()));
  }
  return ans;
}

bool Session::disk_reaches_rows(const core::Camera& cam, std::size_t row_begin,
                                std::size_t row_end) const {
  // Cell-center y span of the tile.  Coverage requires 2D distance
  // <= radius, and the torus y-distance lower-bounds it, so a tile whose
  // whole y span is further than the radius is provably untouched.
  const double side = static_cast<double>(grid_.side());
  const double lo = (static_cast<double>(row_begin) + 0.5) / side;
  const double hi = (static_cast<double>(row_end - 1) + 0.5) / side;
  const double y = cam.position.y;
  const double dy =
      (lo <= y && y <= hi) ? 0.0 : std::min(torus_dy(y, lo), torus_dy(y, hi));
  return dy <= cam.radius;
}

std::uint64_t Session::edit(std::size_t index, bool erase,
                            std::optional<core::Camera> added, double theta) {
  // Stage the camera list.  `added` is taken by value, so the caller may
  // pass one of this session's own cameras; `removed` is both a touched
  // camera (its disk dirties tiles) and the rollback value.
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

  // Commit, then carry clean tiles across the edit.  Entries keep their
  // own theta_bits, so they stay truthful even across theta edits (and
  // hit again if theta returns); only tiles a touched camera can reach
  // are dropped.
  const std::uint64_t t_rebuild = obs::monotonic_ns();
  const std::uint64_t old_digest = digest_;
  net_ = std::move(net);
  engine_ = std::move(engine);
  digest_ = text_.value();
  cache_.carry_forward(old_digest, digest_,
                       [&](std::size_t row_begin, std::size_t row_end) {
                         const bool dirty =
                             (erase && disk_reaches_rows(removed, row_begin, row_end)) ||
                             (insert != nullptr &&
                              disk_reaches_rows(*insert, row_begin, row_end));
                         return !dirty;
                       });
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
  // theta is keyed per tile, so no tile is dirtied.
  return edit(cameras_.size(), false, std::nullopt, theta);
}

}  // namespace fvc::api
