/// \file session.hpp
/// \brief The hot-engine coverage query facade behind `fvc serve`.
///
/// A Session answers repeated full-view queries against one deployment
/// without re-paying process launch, camera load, or CSR candidate
/// binning per question.  It owns a loaded `core::Network`, the
/// `core::GridEvalEngine` built from it, a content-derived deployment
/// digest, and one cached `core::GridRowStats` slot per grid row.
///
/// Determinism contract (inherited, not new): every answer is
/// bit-identical to the equivalent one-shot evaluation of the same
/// deployment —
///   * `query_point` and `query_points` answer through
///     `GridEvalEngine::eval_point`, which is bit-identical to the scalar
///     oracles (`full_view_covered`, `meets_necessary_condition`,
///     `meets_sufficient_condition`) a fresh CLI process runs — one path,
///     so a point gets the same bytes alone or batched;
///   * `query_region` folds `GridEvalEngine::row_stats` rows in row
///     order through `core::fold_row_stats`, replaying the serial
///     reduction exactly, whether a row came from its slot or was just
///     computed — so cache hits are unobservable in the answer.
///
/// Point queries live on [0, 1]^2: coordinates outside it (NaN included)
/// are rejected with `PointDomainError` before any point is evaluated.
///
/// The digest is FNV-1a over a canonical text: a header (grid side,
/// theta) and one `cam=...` line per camera in index order, doubles as
/// %.17g.  It is content-derived, so an edit sequence that returns to a
/// prior deployment returns to its prior digest.  The session keeps that
/// text incrementally — the camera lines in one buffer plus the FNV-1a
/// state at the start of every line — so an edit formats only the camera
/// it touches and re-hashes from the first touched line on.
///
/// What-if edits (add / move / remove a camera, change theta) are one
/// transaction: stage the camera list and its digest lines, build a new
/// Network and engine, then commit — or, when the build throws (an
/// invalid camera), roll the cameras, lines and hash states back and
/// keep serving the previous deployment.  The row slots always describe
/// the current cameras and theta: a committed camera edit clears only the
/// rows the removed or inserted camera's sensing disk can reach (a
/// y-distance test, exact because coverage needs 2D distance <= radius
/// and the y-distance lower-bounds it), and a theta edit clears every
/// row.
///
/// A Session is NOT thread-safe (queries mutate the row slots and
/// metrics); the serve layer serializes access under one mutex (the point
/// batcher takes it once per round) and keeps parallelism *inside* each
/// region query, where invalid rows are evaluated concurrently through
/// `sim::parallel_for` (one row per claim) into the SIMD kernel.
///
/// The metrics node exported at construction carries the engine's index
/// resolution (`cells_target` / `cells_clamped`) and heap footprint
/// (`index_bytes`).  Each committed edit adds 1 to `what_if_edits` and
/// its stage times to `what_if_digest_ns` (format + hash),
/// `what_if_rebuild_ns` (Network + engine) and `what_if_carry_ns` (row
/// invalidation).  Row evaluation uses per-worker scratches, so the
/// row-slice cache works the same under serve as in batch scans; point
/// queries gather their candidates off-lattice and never touch a row
/// slice.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fvc/core/camera.hpp"
#include "fvc/core/grid.hpp"
#include "fvc/core/grid_eval.hpp"
#include "fvc/core/network.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/obs/cancellation.hpp"

namespace fvc::obs {
class MetricsNode;  // fvc/obs/run_metrics.hpp
}

namespace fvc::api {

/// Construction-time knobs of a Session.
struct SessionConfig {
  std::vector<core::Camera> cameras;  ///< the deployment to serve
  double theta = geom::kHalfPi;       ///< effective angle, in (0, pi]
  std::size_t grid_side = 64;         ///< region-query grid resolution
  std::size_t threads = 0;            ///< workers per region query; 0 = auto
  /// Metrics destination (null = no collection).  Not owned.
  obs::MetricsNode* metrics = nullptr;
  /// Progress feed (rows done / rows total per region query) — the
  /// stall-watchdog hook.  Empty = no reporting.
  obs::ProgressFn progress;
};

/// Thrown by the point queries for a coordinate outside the [0, 1]^2
/// domain (NaN included) — a typed rejection of the input, distinct from
/// an evaluation failure.
class PointDomainError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// \throws PointDomainError unless 0 <= x <= 1 and 0 <= y <= 1.
void check_point_domain(double x, double y);

/// Answer to a point query: the three predicates plus diagnostics.
struct PointAnswer {
  bool covered = false;     ///< exact full-view coverage (Definition 1)
  bool necessary = false;   ///< Section III sector condition
  bool sufficient = false;  ///< Section IV sector condition
  double max_gap = 0.0;     ///< largest circular gap of viewed directions
  std::size_t covering_count = 0;
};

/// Answer to a region query: coverage stats over the evaluated row band
/// plus cache effectiveness for this query.  The `tiles_*` counts keep
/// their wire names; a tile is one grid row.
struct RegionAnswer {
  core::RegionCoverageStats stats;
  std::size_t row_begin = 0;  ///< first evaluated grid row
  std::size_t row_end = 0;    ///< one past the last evaluated row
  std::size_t tiles_total = 0;     ///< rows in the band
  std::size_t tiles_cached = 0;    ///< rows answered from their slot
  std::size_t tiles_computed = 0;  ///< rows evaluated by the engine this call
};

/// Lifetime accounting of the row slots.
struct RowCacheStats {
  std::uint64_t hits = 0;             ///< rows answered from their slot
  std::uint64_t misses = 0;           ///< rows evaluated by the engine
  std::uint64_t carried_forward = 0;  ///< valid rows kept across an edit
};

/// The hot-engine facade.  See the file comment for the contract.
class Session {
 public:
  /// Builds the network, the engine and the digest up front.
  /// \throws std::invalid_argument on invalid cameras, theta outside
  /// (0, pi], grid_side of 0.
  explicit Session(SessionConfig cfg);

  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  /// The digest as the "0x%016x" string the wire format carries.
  [[nodiscard]] std::string digest_hex() const;
  [[nodiscard]] double theta() const { return theta_; }
  [[nodiscard]] std::size_t grid_side() const { return grid_.side(); }
  [[nodiscard]] std::size_t camera_count() const { return cameras_.size(); }
  [[nodiscard]] const core::Camera& camera(std::size_t i) const {
    return cameras_.at(i);
  }
  /// Lifetime row-cache accounting — the single source for the serve
  /// telemetry plane and the CLI's end-of-run table.
  [[nodiscard]] const RowCacheStats& cache_stats() const { return cache_stats_; }
  /// Rows whose slot is valid now (of `grid_side()`).
  [[nodiscard]] std::size_t cached_rows() const;
  /// Bytes of the slot array.
  [[nodiscard]] std::size_t cache_bytes() const {
    return rows_.size() * sizeof(rows_[0]);
  }

  /// Point query at (x, y): `query_points` of one point.  The in-process
  /// `handle_query` path; the daemon answers every served point through
  /// `query_points` instead, in group-commit rounds.
  /// \throws PointDomainError outside [0, 1]^2
  [[nodiscard]] PointAnswer query_point(double x, double y);

  /// Batched point queries: answer `n` points in one pass through the
  /// engine's fused kernel path (`GridEvalEngine::eval_point` — one
  /// candidate gather and the sort-free filtered predicates per point,
  /// SIMD classify, zero heap allocations after warm-up) into
  /// `out[0..n)`.  This is the serve daemon's only point entry: each
  /// group-commit round (batch.hpp) is one call, amortising dispatch over
  /// up to 256 points from concurrent clients.
  /// \throws PointDomainError when any point lies outside [0, 1]^2;
  /// nothing is evaluated then.
  void query_points(const double* xs, const double* ys, std::size_t n,
                    PointAnswer* out);

  /// Region query over the horizontal strip [y_lo, y_hi] (clamped to
  /// [0, 1]; y_lo <= y_hi required).  The strip covers exactly the grid
  /// rows whose cell centers it contains; the answer reports them.
  /// [0, 1] evaluates the whole grid and is then bit-identical to
  /// `sim::evaluate_region_parallel` / `core::evaluate_region`.
  [[nodiscard]] RegionAnswer query_region(double y_lo, double y_hi);

  /// What-if edits.  Each rebuilds network + engine over the edited
  /// deployment, updates the digest from the touched camera lines on,
  /// clears the row slots the edit can reach, and returns the new digest.  An
  /// edit that throws leaves the session exactly as it was.
  /// \throws std::invalid_argument on an invalid camera or theta
  std::uint64_t add_camera(const core::Camera& cam);
  /// \throws std::out_of_range on a bad index
  std::uint64_t remove_camera(std::size_t index);
  /// Replace camera `index` (move and/or re-aim and/or re-spec).
  std::uint64_t move_camera(std::size_t index, const core::Camera& cam);
  std::uint64_t set_theta(double theta);

 private:
  /// The digest's canonical text, kept incrementally: the header, the
  /// camera lines in one buffer, and the FNV-1a state at the start of
  /// every line (`state_[n]` is the digest).
  class DigestText {
   public:
    DigestText(std::size_t grid_side, double theta,
               const std::vector<core::Camera>& cameras);
    [[nodiscard]] std::uint64_t value() const { return state_.back(); }
    /// Drop line `index` when `erase`, put `*insert`'s line there when
    /// non-null, and re-hash from `index` on.
    void splice(std::size_t index, bool erase, const core::Camera* insert);
    /// New header; re-hashes every (cached) camera line.
    void set_theta(double theta);

   private:
    void rehash_from(std::size_t line);

    std::size_t grid_side_;
    std::string lines_;               ///< camera lines, index order
    std::vector<std::size_t> begin_;  ///< n + 1 line offsets into lines_
    std::vector<std::uint64_t> state_;  ///< n + 1 FNV-1a states
  };

  /// The one edit path, in splice form: drop camera `index` when `erase`,
  /// put `added` there when set, serve under `theta`.  Stages the cameras
  /// and digest lines, rebuilds, then commits (clearing the rows the edit
  /// can reach) or rolls back and rethrows.
  std::uint64_t edit(std::size_t index, bool erase,
                     std::optional<core::Camera> added, double theta);
  /// True when `cam`'s sensing disk can reach the cell centers of `row`.
  [[nodiscard]] bool disk_reaches_row(const core::Camera& cam, std::size_t row) const;

  std::vector<core::Camera> cameras_;
  double theta_;
  core::DenseGrid grid_;
  std::size_t threads_;
  obs::MetricsNode* metrics_;
  obs::ProgressFn progress_;

  std::unique_ptr<core::Network> net_;
  std::unique_ptr<core::GridEvalEngine> engine_;
  DigestText text_;
  std::uint64_t digest_ = 0;
  /// One slot per grid row: row r's stats under the current cameras and
  /// theta, or empty when an edit has invalidated it.
  std::vector<std::optional<core::GridRowStats>> rows_;
  RowCacheStats cache_stats_;
  /// Reused by `query_points` (the session is externally serialized, so
  /// one scratch suffices); engine rebuilds don't invalidate it — the
  /// buffers are sized on use.
  core::GridEvalScratch point_scratch_;
};

}  // namespace fvc::api
