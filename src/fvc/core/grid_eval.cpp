#include "fvc/core/grid_eval.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "fvc/core/grid_eval_kernel.hpp"
#include "fvc/core/spatial_index.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/geometry/sector.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/obs/trace.hpp"

namespace fvc::core {

namespace {

/// Radius-derived sizing rule: the cell side targets
/// max_radius / kCellsPerRadius, so a point's x window spans a handful of
/// cells and its strip band a handful of strips.
constexpr double kCellsPerRadius = 3.0;

/// Absolute ceiling on index cells per side.  Far above any radius the
/// sizing rule meets in practice (it binds only below max_radius ~ 5e-5);
/// the per-grid 4 * side cap binds first on real configurations.
constexpr std::size_t kAbsoluteMaxCells = 65535;

/// Unique id per engine instance; keys the per-scratch row slices
/// so a scratch can be handed from one engine to another (rebuilds, trial
/// loops) without serving a stale slice.  Starts at 1: a default
/// RowSlice's generation 0 never matches.
std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Vectorized classify entry point for a variant; nullptr for the scalar
/// variant (and, defensively, for variants this build lacks — the engine
/// constructor already rejects those).
detail::ClassifyFn classify_for(KernelVariant v) {
  switch (v) {
    case KernelVariant::kGeneric:
      return &detail::classify_generic;
#if defined(FVC_KERNEL_AVX2)
    case KernelVariant::kAvx2:
      return &detail::classify_avx2;
#endif
#if defined(FVC_KERNEL_NEON)
    case KernelVariant::kNeon:
      return &detail::classify_neon;
#endif
    default:
      return nullptr;
  }
}

/// Approximate-direction kernel for a variant, so one variant selects both
/// kernels.  The scalar variant runs the portable (generic) instantiation:
/// plain per-lane double arithmetic at the baseline ISA.
detail::DirectionsFn directions_for(KernelVariant v) {
  switch (v) {
#if defined(FVC_KERNEL_AVX2)
    case KernelVariant::kAvx2:
      return &detail::approx_directions_avx2;
#endif
#if defined(FVC_KERNEL_NEON)
    case KernelVariant::kNeon:
      return &detail::approx_directions_neon;
#endif
    default:
      return &detail::approx_directions_generic;
  }
}

/// ccw_delta for inputs already normalized to [0, 2*pi).  Bit-identical to
/// `geom::ccw_delta(from, to)` on that domain: there, fmod is the identity
/// (|to - from| < 2*pi), so the only operations are the subtraction, the
/// conditional + 2*pi, and the wrap-to-zero guard — replicated here without
/// the fmod call.  tests/core/test_grid_eval.cpp checks the equivalence.
inline double ccw_from_normalized(double from, double to) {
  double d = to - from;
  if (d < 0.0) {
    d += geom::kTwoPi;
  }
  if (d >= geom::kTwoPi) {
    d = 0.0;
  }
  return d;
}

/// The exact emission of one covered displacement: the oracle's
/// `normalize_angle(atan2(dy, dx) + pi)`, whose fmod is the identity on
/// [0, 2*pi] and so reduces to the 2*pi -> 0 branch.
inline double exact_direction(double dx, double dy) {
  const double v = std::atan2(dy, dx) + geom::kPi;
  return v >= geom::kTwoPi ? 0.0 : v;
}

// Margin rules of the filtered direction pipeline (derivation in
// docs/ARCHITECTURE.md, "Filtered direction pipeline").  kEps bounds the
// circular distance |a - e| between an approximate direction and its exact
// emission with a factor ~200 to spare, so each rule below also absorbs the
// few roundings (each <= ulp(2*pi) / 2 ~ 4.4e-16) its comparison meets.
constexpr double kEps = detail::kDirectionEps;
/// An approximate direction farther than this from every arc boundary and
/// from the 0/2*pi seam decides its arcs: e lies within kEps of it, and the
/// oracle's closed-arc predicate departs from real containment only within
/// two roundings of an arc start or end.
constexpr double kArcMargin = 2.0 * kEps;
/// |approximate max gap - exact max gap| <= 2 * kEps plus four roundings.
constexpr double kGapMargin = 3.0 * kEps;
/// Every exact gap that can equal the exact max gap lies in an approximate
/// gap within this of the approximate max.
constexpr double kCandidateSlack = 4.0 * kEps;
/// The exact endpoint of a candidate gap is the exact direction of one of
/// the directions within this of the gap's approximate endpoint.
constexpr double kClusterRadius = 2.0 * kEps;

inline void set_hit(std::uint64_t* hits, std::size_t arc) {
  hits[arc >> 6U] |= std::uint64_t{1} << (arc & 63U);
}

/// The regular arc j with starts[j] <= a < starts[j + 1], for a in
/// [0, 2*pi).  The scaled guess is off by at most one near an arc start.
inline std::size_t arc_index(const detail::SectorIndex& ix, double a) {
  const std::size_t k = ix.starts.size();
  std::size_t j = std::min(k - 1, static_cast<std::size_t>(a * ix.inv_width));
  while (j > 0 && a < ix.starts[j]) {
    --j;
  }
  while (j + 1 < k && a >= ix.starts[j + 1]) {
    ++j;
  }
  return j;
}

/// Mark the arcs approximate direction `a` lies on.  False (with some arcs
/// possibly marked) when `a` is within kArcMargin of an arc boundary or of
/// the seam, where only the exact direction decides.  Otherwise `a` lies
/// on at most one regular arc — the one its position in arc widths
/// indexes, unless it sits in the remainder beyond T_k — plus possibly the
/// extra arc, and the exact direction lies on exactly the same ones.  The
/// regular boundaries are j * width up to a few roundings (the stored
/// starts are fl(j * width)), which the margin absorbs.
inline bool mark_approx(const detail::SectorIndex& ix, double a, std::uint64_t* hits) {
  if (a < ix.seam_lo || a > geom::kTwoPi - kArcMargin) {
    return false;  // near the seam, where arc 0 starts (and T_k may end)
  }
  const double u = a * ix.inv_width;
  const auto j = static_cast<std::size_t>(u);
  const double frac = u - static_cast<double>(j);
  if (frac < ix.edge || frac > 1.0 - ix.edge) {
    return false;
  }
  const std::size_t k = ix.starts.size();
  if (ix.has_extra) {
    double r = a - ix.extra_start;
    if (r < 0.0) {
      r += geom::kTwoPi;
    }
    if (r < kArcMargin || r > geom::kTwoPi - kArcMargin ||
        std::abs(r - ix.width) < kArcMargin) {
      return false;
    }
    if (r < ix.width) {
      set_hit(hits, k);
    }
  }
  if (j < k) {
    set_hit(hits, j);
  }
  return true;
}

/// Mark the arcs exact direction `e` lies on under the oracle's closed-arc
/// predicate (`geom::angle_in_arc`, via ccw_from_normalized).  Only the
/// arcs within a few roundings of `e` can hold it — its indexed arc, the
/// two neighbours (circularly: arc k-1 ends at the seam where arc 0 starts)
/// and the extra arc — because every arc is far wider than kArcMargin.
inline void mark_exact(const detail::SectorIndex& ix, double e, std::uint64_t* hits) {
  const std::size_t k = ix.starts.size();
  const std::size_t j = arc_index(ix, e);
  for (const std::size_t arc : {(j + k - 1) % k, j, (j + 1) % k}) {
    if (ccw_from_normalized(ix.starts[arc], e) <= ix.width) {
      set_hit(hits, arc);
    }
  }
  if (ix.has_extra && ccw_from_normalized(ix.extra_start, e) <= ix.width) {
    set_hit(hits, k);
  }
}

/// True when every arc of the partition is marked.
inline bool all_hit(const detail::SectorIndex& ix, const std::uint64_t* hits) {
  const std::size_t arcs = ix.starts.size() + (ix.has_extra ? 1 : 0);
  for (std::size_t w = 0; w + 1 < ix.words; ++w) {
    if (hits[w] != ~std::uint64_t{0}) {
      return false;
    }
  }
  const std::size_t tail = arcs - 64 * (ix.words - 1);
  const std::uint64_t full =
      tail == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
  return hits[ix.words - 1] == full;
}

/// Largest circular gap of a direction set, as the oracle's sorted scan
/// (`geom::max_circular_gap_info`) reports it: the wrap gap
/// 2*pi - (back - front) first, then the first strictly wider interior gap
/// d[i+1] - d[i]; `after` is the direction the gap opens at.
struct SortedGap {
  double width = geom::kTwoPi;
  double after = 0.0;
};

/// Bucketed max gap of the approximate directions a[0, n), n >= 1, with
/// no sort: at least 2n buckets (a power of two, >= 64) over [0, 2*pi)
/// keep their min and max, and an occupancy bitmap visits the occupied
/// ones in order.  The widest gap is at least 2*pi / n — over twice a
/// bucket's width — so it opens at an occupied bucket's max and closes at
/// the next occupied bucket's min, or wraps from the global max to the
/// global min.
struct BucketGaps {
  double widest = 0.0;
  double amin = 0.0;
  double amax = 0.0;
};

/// fn(b) for every occupied bucket b, in ascending order.
template <class Fn>
inline void for_each_occupied(const std::vector<std::uint64_t>& used, Fn&& fn) {
  for (std::size_t w = 0; w < used.size(); ++w) {
    for (std::uint64_t bits = used[w]; bits != 0; bits &= bits - 1) {
      fn(64 * w + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

BucketGaps bucket_gaps(const double* a, std::size_t n, GridEvalScratch& scratch) {
  const std::size_t nb = std::max<std::size_t>(64, std::bit_ceil(2 * n));
  if (scratch.bucket_lo.size() < nb) {
    scratch.bucket_lo.resize(nb);
    scratch.bucket_hi.resize(nb);
  }
  scratch.bucket_used.assign(nb / 64, 0);
  double* const lo = scratch.bucket_lo.data();
  double* const hi = scratch.bucket_hi.data();
  std::uint64_t* const used = scratch.bucket_used.data();
  const double scale = static_cast<double>(nb) / geom::kTwoPi;
  BucketGaps g{0.0, std::numeric_limits<double>::infinity(),
               -std::numeric_limits<double>::infinity()};
  for (std::size_t j = 0; j < n; ++j) {
    const double v = a[j];
    const std::size_t b = std::min(nb - 1, static_cast<std::size_t>(v * scale));
    const std::uint64_t bit = std::uint64_t{1} << (b & 63U);
    const bool seen = (used[b >> 6U] & bit) != 0;
    lo[b] = seen ? std::min(lo[b], v) : v;
    hi[b] = seen ? std::max(hi[b], v) : v;
    used[b >> 6U] |= bit;
    g.amin = std::min(g.amin, v);
    g.amax = std::max(g.amax, v);
  }
  g.widest = geom::kTwoPi - (g.amax - g.amin);  // the wrap gap
  double prev = 2.0 * geom::kTwoPi;  // before the first occupied bucket: gap < 0
  for_each_occupied(scratch.bucket_used, [&](std::size_t b) {
    g.widest = std::max(g.widest, lo[b] - prev);
    prev = hi[b];
  });
  return g;
}

/// u precedes v on the short arc between them (the two lie within a few
/// kEps of each other, possibly across the seam).
inline bool circ_before(double u, double v) {
  return std::abs(u - v) > geom::kPi ? u > v : u < v;
}

/// The oracle's max gap and its opening direction, exactly, from the
/// bucketed approximate gaps.  Every approximate gap within kCandidateSlack
/// of the widest is a candidate.  Its exact endpoints are the latest exact
/// direction among those within kClusterRadius below its approximate
/// opening and the earliest among those within kClusterRadius above its
/// approximate close: no other direction can be exactly adjacent to it.
/// The candidates then replay the oracle's tie rule — the wrap gap is
/// taken first, then the first (lowest-opening) strictly wider interior
/// gap.
template <class Exact>
SortedGap exact_widest_gap(const double* a, std::size_t n, const BucketGaps& bg,
                           GridEvalScratch& scratch, Exact&& exact) {
  const double floor_width = bg.widest - kCandidateSlack;
  const double* const lo = scratch.bucket_lo.data();
  const double* const hi = scratch.bucket_hi.data();
  std::vector<std::pair<double, double>>& cands = scratch.gap_candidates;
  cands.clear();
  double prev = 2.0 * geom::kTwoPi;
  for_each_occupied(scratch.bucket_used, [&](std::size_t b) {
    if (lo[b] - prev >= floor_width) {
      cands.emplace_back(prev, lo[b]);
    }
    prev = hi[b];
  });
  if (geom::kTwoPi - (bg.amax - bg.amin) >= floor_width) {
    cands.emplace_back(bg.amax, bg.amin);
  }
  SortedGap best;
  bool have = false;
  bool best_wraps = false;
  for (const auto& [open, close] : cands) {
    double e_lo = 0.0;
    double e_hi = 0.0;
    bool has_lo = false;
    bool has_hi = false;
    for (std::size_t j = 0; j < n; ++j) {
      double back = open - a[j];
      if (back < 0.0) {
        back += geom::kTwoPi;
      }
      double fwd = a[j] - close;
      if (fwd < 0.0) {
        fwd += geom::kTwoPi;
      }
      const bool in_lo = back <= kClusterRadius;
      const bool in_hi = fwd <= kClusterRadius;
      if (!in_lo && !in_hi) [[likely]] {
        continue;
      }
      const double e = exact(j);
      if (in_lo && (!has_lo || circ_before(e_lo, e))) {
        e_lo = e;
        has_lo = true;
      }
      if (in_hi && (!has_hi || circ_before(e, e_hi))) {
        e_hi = e;
        has_hi = true;
      }
    }
    // Exactly adjacent: an interior gap when the close follows the opening
    // numerically, else the wrap gap from back = e_lo to front = e_hi.
    const bool wraps = !(e_hi > e_lo);
    SortedGap g;
    g.after = e_lo;
    g.width = wraps ? geom::kTwoPi - (e_lo - e_hi) : e_hi - e_lo;
    if (!have || g.width > best.width ||
        (g.width == best.width && (wraps || (!best_wraps && g.after < best.after)))) {
      best = g;
      best_wraps = wraps;
      have = true;
    }
  }
  return best;
}

}  // namespace

void GridEvalCounters::describe(obs::MetricsNode& node) const {
  node.add("points", static_cast<double>(points));
  node.add("candidates_total", static_cast<double>(candidates_total));
  node.add("directions_total", static_cast<double>(directions_total));
  node.add("trig_fallbacks", static_cast<double>(trig_fallbacks));
  node.add("exact_directions", static_cast<double>(exact_directions));
  node.histogram("candidates_per_point").merge(candidates_per_point);
}

GridEvalEngine::GridEvalEngine(const Network& net, const DenseGrid& grid, double theta,
                               KernelVariant kernel)
    : net_(&net), grid_(grid), theta_(theta), kernel_(kernel) {
  validate_theta(theta);
  if (!kernel_supported(kernel)) {
    throw std::invalid_argument("GridEvalEngine: kernel '" +
                                std::string(kernel_name(kernel)) +
                                "' is not supported by this build and CPU");
  }
  implied_k_ = implied_k(theta);
  mode_ = net.mode();
  classify_ = classify_for(kernel_);
  directions_ = directions_for(kernel_);
  generation_ = next_generation();
  necessary_ = detail::SectorIndex(2.0 * theta);
  sufficient_ = detail::SectorIndex(theta);
  const obs::TraceScope scope("engine.build", obs::TraceCategory::kEngine,
                              "cameras", net.size());
  const std::uint64_t t0 = obs::monotonic_ns();
  compute_cells();
  build_index();
  build_ns_ = obs::monotonic_ns() - t0;
}

detail::SectorIndex::SectorIndex(double sector_angle) {
  const std::vector<geom::Arc> arcs = geom::sector_partition(sector_angle);
  const std::size_t k = geom::full_sector_count(geom::kTwoPi, sector_angle);
  width = arcs.front().width;
  inv_width = 1.0 / width;
  edge = kArcMargin * inv_width;
  for (std::size_t j = 0; j < k; ++j) {
    starts.push_back(arcs[j].start);
  }
  // A partition the rounding rule calls exact can still end T_k up to
  // ~6e-12 past 2*pi (the rule's 1e-12 relative tolerance): directions
  // just past the seam then lie on T_k as well as on T_1.
  seam_lo = kArcMargin + std::max(0.0, starts.back() + width - geom::kTwoPi);
  has_extra = arcs.size() > k;
  extra_start = has_extra ? arcs[k].start : 0.0;
  words = (arcs.size() + 63) / 64;
}

void GridEvalEngine::CandSoA::resize(std::size_t n) {
  stride = n;
  data.resize(7 * n);
}

GridEvalEngine::BinOccupancy GridEvalEngine::occupancy() const {
  // Bins are the y strips: the build-time structure (row slices are
  // per-scratch and transient).
  BinOccupancy occ;
  occ.cells = cells_;
  occ.entries = strip_entries_.size();
  for (std::size_t s = 0; s < cells_; ++s) {
    const std::size_t count = strip_offsets_[s + 1] - strip_offsets_[s];
    if (count == 0) {
      ++occ.empty_cells;
    }
    occ.max_per_cell = std::max(occ.max_per_cell, count);
  }
  occ.mean_per_cell = occ.cells == 0
                          ? 0.0
                          : static_cast<double>(occ.entries) /
                                static_cast<double>(occ.cells);
  return occ;
}

std::size_t GridEvalEngine::index_bytes() const {
  const std::size_t u32 = sizeof(std::uint32_t);
  return (strip_offsets_.size() + strip_entries_.size() + strip_xcells_.size()) * u32 +
         cam_soa_.data.size() * sizeof(double);
}

void GridEvalEngine::describe(obs::MetricsNode& node) const {
  const BinOccupancy occ = occupancy();
  node.set("cameras", static_cast<double>(net_->size()));
  node.set("grid_side", static_cast<double>(grid_.side()));
  node.set("cells_per_side", static_cast<double>(cells_));
  node.set("cells_target", static_cast<double>(cells_target_));
  node.set("cells_clamped", cells_clamped_ ? 1.0 : 0.0);
  node.set("index_bytes", static_cast<double>(index_bytes()));
  node.set("bin_cells", static_cast<double>(occ.cells));
  node.set("bin_entries", static_cast<double>(occ.entries));
  node.set("bin_empty_cells", static_cast<double>(occ.empty_cells));
  node.set("bin_max_per_cell", static_cast<double>(occ.max_per_cell));
  node.set("bin_mean_per_cell", occ.mean_per_cell);
  // The engine's own span covers construction; evaluation time is merged
  // in by the caller (it is per scratch, not per engine).
  node.add_elapsed_ns(build_ns_);
  node.child("build").add_elapsed_ns(build_ns_);
  describe_kernel_dispatch(kernel_, node);
}

void describe_kernel_dispatch(KernelVariant active, obs::MetricsNode& node) {
  node.set("kernel_lanes", static_cast<double>(kernel_lanes(active)));
  node.set(std::string("kernel_") += kernel_name(active), 1.0);
}

void GridEvalEngine::compute_cells() {
  if (net_->cameras().size() > static_cast<std::size_t>(~std::uint32_t{0})) {
    throw std::invalid_argument("GridEvalEngine: too many cameras");
  }
  // Cell sizing: correctness is set-based (every candidate span is a
  // superset of the covering cameras), so the cell count only trades build
  // cost against candidate-list tightness.  Cells of about a third of the
  // sensing radius keep the per-point candidate list within ~1.5x of the
  // true in-radius count; the caps bound construction cost on tiny grids
  // and degenerate radii.
  const double r = std::max(net_->max_radius(), kMinSizingRadius);
  cells_target_ = static_cast<std::size_t>(std::ceil(kCellsPerRadius / r));
  const std::size_t cap = std::min<std::size_t>(
      kAbsoluteMaxCells, 4 * std::max<std::size_t>(1, grid_.side()));
  cells_ = std::clamp<std::size_t>(cells_target_, 1, cap);
  if (net_->cameras().empty()) {
    cells_ = 1;
  }
  cells_clamped_ = cells_ < cells_target_;
}

std::size_t GridEvalEngine::cell_of(double v) const {
  return std::min<std::size_t>(
      static_cast<std::size_t>(std::max(v, 0.0) * static_cast<double>(cells_)),
      cells_ - 1);
}

void GridEvalEngine::build_index() {
  const std::span<const Camera> cams = net_->cameras();
  const std::size_t n = cams.size();
  max_r_ = net_->max_radius();
  // Cameras are binned ONCE by position — no replication, so entry count
  // equals the camera count.  Two stable counting passes (O(n + cells),
  // no comparison sort): by x cell, then by y strip, which leaves each
  // strip's entries ordered by x cell.
  std::vector<std::uint32_t> xcell(n);
  std::vector<std::uint32_t> strip(n);
  std::vector<std::uint32_t> offsets(cells_ + 1, 0);
  strip_offsets_.assign(cells_ + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    xcell[i] = static_cast<std::uint32_t>(cell_of(cams[i].position.x));
    strip[i] = static_cast<std::uint32_t>(cell_of(cams[i].position.y));
    ++offsets[xcell[i] + 1];
    ++strip_offsets_[strip[i] + 1];
  }
  for (std::size_t c = 0; c < cells_; ++c) {
    offsets[c + 1] += offsets[c];
    strip_offsets_[c + 1] += strip_offsets_[c];
  }
  std::vector<std::uint32_t> by_x(n);
  for (std::size_t i = 0; i < n; ++i) {
    by_x[offsets[xcell[i]]++] = static_cast<std::uint32_t>(i);
  }
  strip_entries_.resize(n);
  strip_xcells_.resize(n);
  offsets.assign(strip_offsets_.begin(), strip_offsets_.end());
  for (const std::uint32_t cam : by_x) {
    const std::uint32_t e = offsets[strip[cam]]++;
    strip_entries_[e] = cam;
    strip_xcells_[e] = xcell[cam];
  }
  // One fused-kernel record per camera; sequential writes to seven
  // streams.  The omni marker is an all-bits-set double so the lane kernel
  // can OR it straight into its comparison masks; it is never used
  // arithmetically.
  const double omni_mask = std::bit_cast<double>(~std::uint64_t{0});
  cam_soa_.resize(n);
  double* const f_sx = cam_soa_.mut(0);
  double* const f_sy = cam_soa_.mut(1);
  double* const f_r2 = cam_soa_.mut(2);
  double* const f_cu = cam_soa_.mut(3);
  double* const f_su = cam_soa_.mut(4);
  double* const f_q = cam_soa_.mut(5);
  double* const f_om = cam_soa_.mut(6);
  for (std::size_t i = 0; i < n; ++i) {
    const Camera& cam = cams[i];
    f_sx[i] = cam.position.x;
    f_sy[i] = cam.position.y;
    f_r2[i] = cam.radius * cam.radius;
    f_cu[i] = std::cos(cam.orientation);
    f_su[i] = std::sin(cam.orientation);
    const double chs = std::cos(0.5 * cam.fov);
    f_q[i] = chs * std::abs(chs);
    f_om[i] = 0.5 * cam.fov >= geom::kPi ? omni_mask : 0.0;
  }
  // Window geometry.  The per-point x window is the real interval
  // [px - R, px + R] padded by one cell per side; the pad (>= 1/cells_)
  // swallows every floor-rounding discrepancy between the kernel's wrapped
  // fl displacement and the real-valued window, so any camera the kernel
  // can accept lies inside the window.  On the torus, `ghost_` extra cell
  // columns per row-slice side hold a second image of near-seam cameras; a
  // window then never contains both images of one camera (they are exactly
  // cells_ ext-cells apart, and the window is at most 2*ghost_ + 1 <
  // cells_ cells wide) — unless the band is too wide, in which case
  // `whole_axis_` degrades every slice window to the whole slice (still
  // duplicate-free: one image per camera).
  const auto sd = static_cast<double>(cells_);
  ghost_ = static_cast<std::ptrdiff_t>(std::floor(max_r_ * sd)) + 2;
  whole_axis_ = 2.0 * max_r_ + 2.0 / sd >= 1.0 ||
                static_cast<std::ptrdiff_t>(cells_) <= 2 * ghost_ + 2;
  if (mode_ == geom::SpaceMode::kPlane) {
    // No wraparound coverage: windows clamp to [0, cells_) instead.
    ghost_ = 0;
    whole_axis_ = false;
  }
}

void GridEvalEngine::strip_band(double y, std::ptrdiff_t& lo,
                                std::ptrdiff_t& span) const {
  const auto s_count = static_cast<std::ptrdiff_t>(cells_);
  const auto sd = static_cast<double>(cells_);
  lo = static_cast<std::ptrdiff_t>(std::floor((y - max_r_) * sd)) - 1;
  std::ptrdiff_t hi = static_cast<std::ptrdiff_t>(std::floor((y + max_r_) * sd)) + 1;
  if (mode_ == geom::SpaceMode::kTorus) {
    span = std::min(hi - lo + 1, s_count);
  } else {
    lo = std::clamp<std::ptrdiff_t>(lo, 0, s_count - 1);
    hi = std::clamp<std::ptrdiff_t>(hi, 0, s_count - 1);
    span = hi - lo + 1;
  }
}

void GridEvalEngine::x_window(double x, std::ptrdiff_t& lo, std::ptrdiff_t& hi) const {
  const auto sd = static_cast<double>(cells_);
  lo = static_cast<std::ptrdiff_t>(std::floor((x - max_r_) * sd)) - 1;
  hi = static_cast<std::ptrdiff_t>(std::floor((x + max_r_) * sd)) + 1;
  if (mode_ == geom::SpaceMode::kPlane) {
    lo = std::clamp<std::ptrdiff_t>(lo, 0, static_cast<std::ptrdiff_t>(cells_) - 1);
    hi = std::clamp<std::ptrdiff_t>(hi, 0, static_cast<std::ptrdiff_t>(cells_) - 1);
  }
}

void GridEvalEngine::build_row_slice(std::size_t row, GridEvalScratch& scratch) const {
  GridEvalScratch::RowSlice& sl = scratch.slice;
  const double py = grid_.point(row, 0).y;
  const auto s_count = static_cast<std::ptrdiff_t>(cells_);
  const bool torus = mode_ == geom::SpaceMode::kTorus;
  // 1. Walk the strips whose cameras could be within max_r_ of the row's y
  //    (the per-camera prune decides exactly).
  std::ptrdiff_t s_lo = 0;
  std::ptrdiff_t s_span = 0;
  strip_band(py, s_lo, s_span);
  std::vector<std::uint32_t>& surv = sl.survivors;
  surv.clear();
  const double* const cam_sy = cam_soa_.sy();
  const double* const cam_r2 = cam_soa_.r2();
  for (std::ptrdiff_t is = 0; is < s_span; ++is) {
    const auto s =
        static_cast<std::size_t>((((s_lo + is) % s_count) + s_count) % s_count);
    const std::uint32_t lo = strip_offsets_[s];
    const std::uint32_t hi = strip_offsets_[s + 1];
    for (std::uint32_t e = lo; e < hi; ++e) {
      const std::uint32_t cam = strip_entries_[e];
      // Exact y prune, using the kernel's own displacement sequence: the
      // fused distance test satisfies fl(fl(dx^2) + fl(dy^2)) >= fl(dy^2)
      // (rounding is monotone, fl(dx^2) >= 0), so fl(dy^2) > r^2 implies
      // the kernel rejects this camera at every point of the row —
      // dropping it cannot change any covered set.
      double dy = py - cam_sy[cam];
      if (torus) {
        dy -= std::round(dy);
        if (dy >= 0.5) {
          dy -= 1.0;
        }
      }
      if (dy * dy > cam_r2[cam]) {
        continue;
      }
      surv.push_back(e);
    }
  }
  // 2. Bucket survivors by extended x cell (main image + at most one ghost
  //    image per seam side) so every point window is one contiguous,
  //    duplicate-free range.
  const std::ptrdiff_t g = (torus && !whole_axis_) ? ghost_ : 0;
  const std::size_t ecells = whole_axis_ ? 1 : cells_ + static_cast<std::size_t>(2 * g);
  sl.offsets.assign(ecells + 1, 0);
  if (whole_axis_) {
    sl.offsets[1] = static_cast<std::uint32_t>(surv.size());
    sl.ids.resize(surv.size());
    for (std::size_t w = 0; w < surv.size(); ++w) {
      sl.ids[w] = strip_entries_[surv[w]];
    }
  } else {
    for (const std::uint32_t e : surv) {
      const auto cx = static_cast<std::ptrdiff_t>(strip_xcells_[e]);
      ++sl.offsets[static_cast<std::size_t>(cx + g) + 1];
      if (g != 0 && cx < g) {
        ++sl.offsets[static_cast<std::size_t>(cx + g + s_count) + 1];
      }
      if (g != 0 && cx >= s_count - g) {
        ++sl.offsets[static_cast<std::size_t>(cx + g - s_count) + 1];
      }
    }
    for (std::size_t b = 0; b < ecells; ++b) {
      sl.offsets[b + 1] += sl.offsets[b];
    }
    sl.ids.resize(sl.offsets[ecells]);
    sl.cursors.assign(sl.offsets.begin(), sl.offsets.end() - 1);
    for (const std::uint32_t e : surv) {
      const auto cx = static_cast<std::ptrdiff_t>(strip_xcells_[e]);
      const std::uint32_t cam = strip_entries_[e];
      sl.ids[sl.cursors[static_cast<std::size_t>(cx + g)]++] = cam;
      if (g != 0 && cx < g) {
        sl.ids[sl.cursors[static_cast<std::size_t>(cx + g + s_count)]++] = cam;
      }
      if (g != 0 && cx >= s_count - g) {
        sl.ids[sl.cursors[static_cast<std::size_t>(cx + g - s_count)]++] = cam;
      }
    }
  }
  // 3. Gather the slice's compact SoA from the per-camera pool, field by
  //    field (sequential writes, one random-read stream per field).
  const std::size_t total = sl.ids.size();
  sl.stride = total;
  sl.soa.resize(7 * total);
  for (std::size_t f = 0; f < 7; ++f) {
    double* const dst = sl.soa.data() + f * total;
    const double* const src = cam_soa_.data.data() + f * cam_soa_.stride;
    for (std::size_t w = 0; w < total; ++w) {
      dst[w] = src[sl.ids[w]];
    }
  }
  sl.engine_gen = generation_;
  sl.row = row;
}

GridEvalEngine::CandView GridEvalEngine::row_view(std::size_t row, const geom::Vec2& p,
                                                  GridEvalScratch& scratch) const {
  GridEvalScratch::RowSlice& sl = scratch.slice;
  if (sl.engine_gen != generation_ || sl.row != row) {
    build_row_slice(row, scratch);
  }
  std::size_t lo = 0;
  std::size_t hi = sl.ids.size();
  if (!whole_axis_) {
    std::ptrdiff_t xlo = 0;
    std::ptrdiff_t xhi = 0;
    x_window(p.x, xlo, xhi);
    lo = sl.offsets[static_cast<std::size_t>(xlo + ghost_)];
    hi = sl.offsets[static_cast<std::size_t>(xhi + ghost_) + 1];
  }
  return {sl.soa.data() + lo, sl.stride, sl.ids.data() + lo, hi - lo};
}

void GridEvalEngine::gather_candidates(const geom::Vec2& p,
                                       std::vector<std::uint32_t>& out) const {
  out.clear();
  const auto c = static_cast<std::ptrdiff_t>(cells_);
  const bool torus = mode_ == geom::SpaceMode::kTorus;
  // The x window as at most two cell ranges [a, b] of every strip: one in
  // plane mode (clamped) and off the seam, two where a torus window wraps,
  // the whole strip where it spans the axis.  Ranges are disjoint and each
  // camera has one entry, so the answer is duplicate-free.
  std::ptrdiff_t xlo = 0;
  std::ptrdiff_t xhi = 0;
  x_window(p.x, xlo, xhi);
  std::uint32_t ranges[2][2] = {};
  std::size_t nranges = 1;
  if (!torus) {
    ranges[0][0] = static_cast<std::uint32_t>(xlo);
    ranges[0][1] = static_cast<std::uint32_t>(xhi);
  } else if (xhi - xlo + 1 >= c) {
    ranges[0][1] = static_cast<std::uint32_t>(c - 1);
  } else {
    const std::ptrdiff_t a = ((xlo % c) + c) % c;
    const std::ptrdiff_t b = a + (xhi - xlo);
    ranges[0][0] = static_cast<std::uint32_t>(a);
    ranges[0][1] = static_cast<std::uint32_t>(std::min(b, c - 1));
    if (b >= c) {
      ranges[1][1] = static_cast<std::uint32_t>(b - c);
      nranges = 2;
    }
  }
  std::ptrdiff_t s_lo = 0;
  std::ptrdiff_t s_span = 0;
  strip_band(p.y, s_lo, s_span);
  const double* const cam_sx = cam_soa_.sx();
  const double* const cam_sy = cam_soa_.sy();
  const double* const cam_r2 = cam_soa_.r2();
  const std::uint32_t* const keys = strip_xcells_.data();
  for (std::ptrdiff_t is = 0; is < s_span; ++is) {
    const auto s = static_cast<std::size_t>((((s_lo + is) % c) + c) % c);
    for (std::size_t r = 0; r < nranges; ++r) {
      // The strip's entries are ordered by x cell: the range is found by
      // two binary searches over the strip's keys.
      const std::uint32_t* const first = keys + strip_offsets_[s];
      const std::uint32_t* const last = keys + strip_offsets_[s + 1];
      const std::uint32_t* const lo = std::lower_bound(first, last, ranges[r][0]);
      const std::uint32_t* const hi = std::upper_bound(lo, last, ranges[r][1]);
      for (auto e = static_cast<std::size_t>(lo - keys);
           e < static_cast<std::size_t>(hi - keys); ++e) {
        const std::uint32_t cam = strip_entries_[e];
        // Exact per-axis prunes, using the kernel's own displacement
        // sequence: fl(fl(dx^2) + fl(dy^2)) >= max(fl(dx^2), fl(dy^2))
        // (rounding is monotone), so a camera either axis alone puts out
        // of radius is rejected by the kernel too.
        double dx = p.x - cam_sx[cam];
        double dy = p.y - cam_sy[cam];
        if (torus) {
          dx -= std::round(dx);
          if (dx >= 0.5) {
            dx -= 1.0;
          }
          dy -= std::round(dy);
          if (dy >= 0.5) {
            dy -= 1.0;
          }
        }
        if (dx * dx <= cam_r2[cam] && dy * dy <= cam_r2[cam]) {
          out.push_back(cam);
        }
      }
    }
  }
}

std::span<const std::uint32_t> GridEvalEngine::candidates(const geom::Vec2& p) const {
  static thread_local std::vector<std::uint32_t> buf;
  gather_candidates(p, buf);
  return {buf.data(), buf.size()};
}

std::size_t GridEvalEngine::point_candidate_count(std::size_t row, std::size_t col,
                                                  GridEvalScratch& scratch) const {
  return row_view(row, grid_.point(row, col), scratch).count;
}

void GridEvalEngine::classify_entry(const CandView& view, std::size_t e,
                                    const geom::Vec2& p, GridEvalScratch& scratch,
                                    std::size_t& zeros, double* xs, double* ys,
                                    std::size_t& m) const {
  // The scalar oracle path, one entry at a time: displacement via the
  // per-point torus unwrap — the subtraction, `d -= round(d)`, and the
  // d >= 0.5 boundary fixup are `geom::wrap_delta` bit-for-bit
  // (wrap_delta's d < -0.5 fixup is dead code: a round-to-nearest
  // remainder lies in [-0.5, +0.5]), hence bit-identical to
  // geom::displacement — then the radius test on the squared distance and
  // trig-free field-of-view classifier — the real-math condition
  //     angular_distance(angle(d), orientation) <= fov/2
  //       <=>  dot(d, u) >= |d| * cos(fov/2)        (u = unit orientation)
  //       <=>  dot*|dot| >= q * |d|^2               (x*|x| is monotone)
  // decided outside a 1e-9 relative band around the threshold; inside the
  // band the scalar oracle's exact arithmetic is used, so the covered SET
  // always matches `covers`.  The vectorized kernels replicate exactly
  // this operation sequence per lane and route band/zero-distance lanes
  // back here, so every variant stays bit-identical.  The rare-branch
  // counters sit inside already-[[unlikely]] blocks.
  GridEvalCounters* const ctr = scratch.counters;
  double dx = p.x - view.sx()[e];
  double dy = p.y - view.sy()[e];
  if (mode_ == geom::SpaceMode::kTorus) {
    dx -= std::round(dx);
    if (dx >= 0.5) {
      dx -= 1.0;
    }
    dy -= std::round(dy);
    if (dy >= 0.5) {
      dy -= 1.0;
    }
  }
  const double n2 = dx * dx + dy * dy;
  const double dot = dx * view.cu()[e] + dy * view.su()[e];
  const double lhs = dot * std::abs(dot);
  const double rhs = view.q()[e] * n2;
  const double band = 1e-9 * n2;
  const bool in_radius = n2 <= view.r2()[e];
  const bool omni = std::bit_cast<std::uint64_t>(view.omni()[e]) != 0;
  bool covered = in_radius & (omni | (lhs - rhs > band));
  if (in_radius & !omni & (std::abs(lhs - rhs) <= band)) [[unlikely]] {
    if (ctr != nullptr) {
      ++ctr->trig_fallbacks;
    }
    if (n2 == 0.0) {
      ++zeros;  // point coincides with the camera
      return;
    }
    const Camera& cam = net_->cameras()[view.ids[e]];
    covered =
        geom::angular_distance(std::atan2(dy, dx), cam.orientation) <= 0.5 * cam.fov;
  }
  if (covered & (n2 == 0.0)) [[unlikely]] {  // omni camera at the point
    ++zeros;
    return;
  }
  // Branchless compaction: always write, advance on coverage.
  xs[m] = dx;
  ys[m] = dy;
  m += static_cast<std::size_t>(covered);
}

GridEvalEngine::CoveredSet GridEvalEngine::classify_span(const geom::Vec2& p,
                                                         const CandView& view,
                                                         GridEvalScratch& scratch) const {
  const std::size_t cnt = view.count;
  // Metrics are per point (one pointer test), never per candidate.
  GridEvalCounters* const ctr = scratch.counters;
  if (ctr != nullptr) [[unlikely]] {
    ++ctr->points;
    ctr->candidates_total += cnt;
    ctr->candidates_per_point.add(cnt);
  }
  std::vector<double>& xs = scratch.dxs;
  std::vector<double>& ys = scratch.dys;
  // One lane group of padding: the direction kernel reads whole groups.
  if (xs.size() < cnt + 4) {
    xs.resize(cnt + 4);
    ys.resize(cnt + 4);
  }
  CoveredSet cs;
  std::size_t& m = cs.displacements;
  std::size_t e = 0;
  // Lane-parallel classify over whole lane groups of the span's entries.
  // Lanes the kernel flags as special — exact-arithmetic band hits and
  // zero-distance hits — are replayed through the scalar path, which
  // re-derives their classification (and counters) exactly as the scalar
  // kernel would.
  if (classify_ != nullptr) {
    const std::size_t vec_n = cnt & ~std::size_t{3};
    if (vec_n != 0) {
      if (scratch.special.size() < cnt) {
        scratch.special.resize(cnt);
      }
      const detail::CandSpans spans{view.sx(), view.sy(), view.r2(), view.cu(),
                                    view.su(), view.q(), view.omni()};
      const detail::ClassifyResult res =
          classify_(spans, vec_n, p.x, p.y, mode_ == geom::SpaceMode::kTorus,
                    xs.data(), ys.data(), scratch.special.data());
      m = res.covered;
      for (std::size_t j = 0; j < res.special; ++j) {
        classify_entry(view, scratch.special[j], p, scratch, cs.zeros, xs.data(),
                       ys.data(), m);
      }
      e = vec_n;
    }
  }
  // Scalar path: the whole span (scalar variant), or the remainder tail
  // (vector variants).
  for (; e < cnt; ++e) {
    classify_entry(view, e, p, scratch, cs.zeros, xs.data(), ys.data(), m);
  }
  if (ctr != nullptr) [[unlikely]] {
    ctr->directions_total += m + cs.zeros;
  }
  return cs;
}

void GridEvalEngine::gather_directions(const geom::Vec2& p, const CandView& view,
                                       GridEvalScratch& scratch) const {
  const CoveredSet cs = classify_span(p, view, scratch);
  // Zero-distance hits emit exactly 0.0; every covered displacement pays
  // one exact atan2, in its own tight loop.  One resize + raw writes, so
  // the loop carries no per-element capacity check.
  std::vector<double>& out = scratch.angles;
  out.assign(cs.zeros, 0.0);
  out.resize(cs.zeros + cs.displacements);
  double* const emit = out.data() + cs.zeros;
  const double* const xs = scratch.dxs.data();
  const double* const ys = scratch.dys.data();
  for (std::size_t j = 0; j < cs.displacements; ++j) {
    emit[j] = exact_direction(xs[j], ys[j]);
  }
}

std::size_t GridEvalEngine::covered_count_at_least(const geom::Vec2& p,
                                                   const CandView& view,
                                                   std::size_t k) const {
  // Coverage-count variant of classify_span: same covered set, no atan2
  // on the fast path, early exit at k.
  const std::span<const Camera> cams = net_->cameras();
  const bool torus = mode_ == geom::SpaceMode::kTorus;
  std::size_t count = 0;
  for (std::size_t e = 0; e < view.count && count < k; ++e) {
    double dx = p.x - view.sx()[e];
    double dy = p.y - view.sy()[e];
    if (torus) {
      dx -= std::round(dx);
      if (dx >= 0.5) {
        dx -= 1.0;
      }
      dy -= std::round(dy);
      if (dy >= 0.5) {
        dy -= 1.0;
      }
    }
    const double n2 = dx * dx + dy * dy;
    const double dot = dx * view.cu()[e] + dy * view.su()[e];
    const double lhs = dot * std::abs(dot);
    const double rhs = view.q()[e] * n2;
    const double band = 1e-9 * n2;
    const bool in_radius = n2 <= view.r2()[e];
    const bool omni = std::bit_cast<std::uint64_t>(view.omni()[e]) != 0;
    bool covered = in_radius & (omni | (lhs - rhs > band));
    if (in_radius & !omni & (std::abs(lhs - rhs) <= band)) [[unlikely]] {
      if (n2 == 0.0) {
        ++count;  // point coincides with the camera: always covered
        continue;
      }
      const Camera& cam = cams[view.ids[e]];
      covered =
          geom::angular_distance(std::atan2(dy, dx), cam.orientation) <= 0.5 * cam.fov;
    }
    count += static_cast<std::size_t>(covered);
  }
  return count;
}

std::span<const double> GridEvalEngine::sorted_directions(std::size_t row,
                                                          std::size_t col,
                                                          GridEvalScratch& scratch) const {
  const geom::Vec2 p = grid_.point(row, col);
  const CandView view = row_view(row, p, scratch);
  gather_directions(p, view, scratch);
  sort_directions(scratch);
  return scratch.angles;
}

void GridEvalEngine::sort_directions(GridEvalScratch& scratch) {
  std::vector<double>& a = scratch.angles;
  // Direction buffers are small (the point's covering-camera count), so
  // insertion sort beats std::sort's dispatch; the sorted sequence is the
  // same for any comparison sort (the values are NaN-free doubles in
  // [0, 2*pi)).  Mid-sized buffers get a 32-bucket counting presort first:
  // the bucket index floor(v * 32 / 2*pi) is monotone in v, so the scatter
  // leaves only intra-bucket inversions and the insertion pass runs in
  // near-linear time instead of n^2/4 moves.
  const std::size_t n = a.size();
  auto insertion = [](double* buf, std::size_t len) {
    for (std::size_t i = 1; i < len; ++i) {
      const double v = buf[i];
      std::size_t j = i;
      for (; j > 0 && buf[j - 1] > v; --j) {
        buf[j] = buf[j - 1];
      }
      buf[j] = v;
    }
  };
  if (n <= 12) {
    insertion(a.data(), n);
  } else if (n <= 48) {
    const double scale = 32.0 / geom::kTwoPi;
    unsigned cnt[33] = {0};
    unsigned bk[48];
    double tmp[48];
    for (std::size_t i = 0; i < n; ++i) {
      const auto b = std::min(static_cast<unsigned>(a[i] * scale), 31U);
      bk[i] = b;
      ++cnt[b + 1];
    }
    for (std::size_t b = 0; b < 32; ++b) {
      cnt[b + 1] += cnt[b];
    }
    for (std::size_t i = 0; i < n; ++i) {
      tmp[cnt[bk[i]]++] = a[i];
    }
    std::copy(tmp, tmp + n, a.data());
    insertion(a.data(), n);
  } else {
    std::sort(a.begin(), a.end());
  }
}

GridEvalEngine::PointAnswer GridEvalEngine::filtered_point(const geom::Vec2& p,
                                                           const CandView& view,
                                                           GridEvalScratch& scratch,
                                                           unsigned want) const {
  const CoveredSet cs = classify_span(p, view, scratch);
  const std::size_t m = cs.displacements;
  const std::size_t n = m + cs.zeros;
  PointAnswer ans;
  ans.count = n;
  ans.max_gap = geom::kTwoPi;
  if (n == 0) {
    return ans;  // no direction: no arc hit, no full view, witness 0
  }
  std::vector<double>& approx = scratch.approx;
  if (approx.size() < n + 4) {
    approx.resize(n + 4);
  }
  double* const a = approx.data();
  const double* const xs = scratch.dxs.data();
  const double* const ys = scratch.dys.data();
  directions_(xs, ys, m, a);
  std::fill(a + m, a + n, 0.0);  // zero-distance hits: exactly 0.0 already
  std::uint64_t exact_calls = 0;
  const auto exact = [&](std::size_t j) {
    if (j >= m) {
      return 0.0;
    }
    ++exact_calls;
    return exact_direction(xs[j], ys[j]);
  };

  const bool nec = (want & kWantNecessary) != 0;
  const bool suf = (want & kWantSufficient) != 0;
  if (nec || suf) {
    // One pass marks each direction's arcs; it stops once both requested
    // partitions are fully hit.
    std::vector<std::uint64_t>& hits = scratch.arc_hits;
    hits.assign(necessary_.words + sufficient_.words, 0);
    std::uint64_t* const hn = hits.data();
    std::uint64_t* const hs = hn + necessary_.words;
    bool done = false;
    for (std::size_t j = 0; j < n && !done; ++j) {
      bool decided = !nec || mark_approx(necessary_, a[j], hn);
      decided = (!suf || mark_approx(sufficient_, a[j], hs)) && decided;
      if (!decided) [[unlikely]] {
        const double e = exact(j);
        if (nec) {
          mark_exact(necessary_, e, hn);
        }
        if (suf) {
          mark_exact(sufficient_, e, hs);
        }
      }
      if ((j & 7U) == 7U) {
        done = (!nec || all_hit(necessary_, hn)) && (!suf || all_hit(sufficient_, hs));
      }
    }
    ans.necessary = nec && all_hit(necessary_, hn);
    ans.sufficient = suf && all_hit(sufficient_, hs);
  }

  if ((want & (kWantFullView | kWantMaxGap)) != 0) {
    const BucketGaps bg = bucket_gaps(a, n, scratch);
    const double limit = 2.0 * theta_;
    const bool decide_only = (want & kWantMaxGap) == 0;
    if (decide_only && bg.widest < limit - kGapMargin) {
      ans.full_view = true;
    } else if (decide_only && bg.widest > limit + kGapMargin) {
      ans.full_view = false;
    } else {
      const SortedGap g = exact_widest_gap(a, n, bg, scratch, exact);
      ans.max_gap = g.width;
      ans.full_view = g.width <= limit;
      if (!ans.full_view) {
        ans.witness = geom::normalize_angle(g.after + 0.5 * g.width);
      }
    }
  }
  if (scratch.counters != nullptr) [[unlikely]] {
    scratch.counters->exact_directions += exact_calls;
  }
  return ans;
}

GridEvalEngine::PointAnswer GridEvalEngine::filtered_grid_point(std::size_t row,
                                                                std::size_t col,
                                                                GridEvalScratch& scratch,
                                                                unsigned want) const {
  const geom::Vec2 p = grid_.point(row, col);
  return filtered_point(p, row_view(row, p, scratch), scratch, want);
}

GridEvalEngine::CandView GridEvalEngine::point_view(const geom::Vec2& p,
                                                    GridEvalScratch& scratch) const {
  // The per-id records are copied field-by-field out of the per-camera
  // pool, so the classify pipeline sees the exact bits the build wrote.
  gather_candidates(p, scratch.point_ids);
  const std::size_t n = scratch.point_ids.size();
  scratch.point_soa.resize(7 * n);
  const std::size_t cam_stride = cam_soa_.stride;
  const double* const pool = cam_soa_.data.data();
  for (std::size_t f = 0; f < 7; ++f) {
    double* const dst = scratch.point_soa.data() + f * n;
    const double* const src = pool + f * cam_stride;
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = src[scratch.point_ids[i]];
    }
  }
  return {scratch.point_soa.data(), n, scratch.point_ids.data(), n};
}

namespace {

FullViewResult full_view_result(std::size_t count, bool covered, double max_gap,
                                double witness) {
  FullViewResult res;
  res.covering_count = count;
  res.max_gap = max_gap;
  res.covered = covered;
  if (!covered) {
    res.witness_unsafe_direction = witness;
  }
  return res;
}

}  // namespace

PointEval GridEvalEngine::eval_point(const geom::Vec2& p,
                                     GridEvalScratch& scratch) const {
  const PointAnswer ans = filtered_point(p, point_view(p, scratch), scratch,
                                         kWantNecessary | kWantSufficient | kWantMaxGap);
  PointEval res;
  res.full_view = full_view_result(ans.count, ans.full_view, ans.max_gap, ans.witness);
  res.necessary = ans.necessary;
  res.sufficient = ans.sufficient;
  return res;
}

FullViewResult GridEvalEngine::point_full_view(std::size_t row, std::size_t col,
                                               GridEvalScratch& scratch) const {
  const PointAnswer ans = filtered_grid_point(row, col, scratch, kWantMaxGap);
  return full_view_result(ans.count, ans.full_view, ans.max_gap, ans.witness);
}

bool GridEvalEngine::point_necessary(std::size_t row, std::size_t col,
                                     GridEvalScratch& scratch) const {
  return filtered_grid_point(row, col, scratch, kWantNecessary).necessary;
}

bool GridEvalEngine::point_sufficient(std::size_t row, std::size_t col,
                                      GridEvalScratch& scratch) const {
  return filtered_grid_point(row, col, scratch, kWantSufficient).sufficient;
}

GridRowStats GridEvalEngine::row_stats(std::size_t row, GridEvalScratch& scratch) const {
  GridRowStats rs;
  for (std::size_t col = 0; col < cols(); ++col) {
    const PointAnswer ans = filtered_grid_point(
        row, col, scratch, kWantNecessary | kWantSufficient | kWantMaxGap);
    rs.covered_1 += static_cast<std::size_t>(ans.count > 0);
    rs.k_covered_ok += static_cast<std::size_t>(ans.count >= implied_k_);
    rs.full_view_ok += static_cast<std::size_t>(ans.full_view);
    rs.necessary_ok += static_cast<std::size_t>(ans.necessary);
    rs.sufficient_ok += static_cast<std::size_t>(ans.sufficient);
    if (col == 0) {
      rs.min_max_gap = rs.max_max_gap = ans.max_gap;
    } else {
      rs.min_max_gap = std::min(rs.min_max_gap, ans.max_gap);
      rs.max_max_gap = std::max(rs.max_max_gap, ans.max_gap);
    }
  }
  return rs;
}

RegionCoverageStats GridEvalEngine::evaluate(GridEvalScratch& scratch) const {
  const obs::TraceScope scope("engine.evaluate", obs::TraceCategory::kEngine,
                              "points", grid_.size(), "kernel_lanes",
                              kernel_lanes(kernel_));
  RegionCoverageStats stats;
  stats.total_points = grid_.size();
  for (std::size_t row = 0; row < rows(); ++row) {
    fold_row_stats(stats, row_stats(row, scratch), row == 0);
  }
  return stats;
}

GridRowEvents GridEvalEngine::row_events(std::size_t row, GridEvalScratch& scratch,
                                         bool need_full_view,
                                         bool need_sufficient) const {
  GridRowEvents ev;
  ev.all_full_view = need_full_view;
  ev.all_sufficient = need_sufficient;
  for (std::size_t col = 0; col < cols(); ++col) {
    const unsigned want = kWantNecessary | (ev.all_full_view ? kWantFullView : 0U) |
                          (ev.all_sufficient ? kWantSufficient : 0U);
    const PointAnswer ans = filtered_grid_point(row, col, scratch, want);
    if (!ans.necessary) {
      return {false, false, false};
    }
    if (ev.all_full_view && !ans.full_view) {
      ev.all_full_view = false;
      ev.all_sufficient = false;  // sufficient implies full view
    }
    if (ev.all_sufficient && !ans.sufficient) {
      ev.all_sufficient = false;
    }
  }
  return ev;
}

bool GridEvalEngine::row_all_necessary(std::size_t row, GridEvalScratch& scratch) const {
  for (std::size_t col = 0; col < cols(); ++col) {
    if (!filtered_grid_point(row, col, scratch, kWantNecessary).necessary) {
      return false;
    }
  }
  return true;
}

bool GridEvalEngine::row_all_sufficient(std::size_t row, GridEvalScratch& scratch) const {
  for (std::size_t col = 0; col < cols(); ++col) {
    if (!filtered_grid_point(row, col, scratch, kWantSufficient).sufficient) {
      return false;
    }
  }
  return true;
}

bool GridEvalEngine::row_all_full_view(std::size_t row, GridEvalScratch& scratch) const {
  for (std::size_t col = 0; col < cols(); ++col) {
    if (!filtered_grid_point(row, col, scratch, kWantFullView).full_view) {
      return false;
    }
  }
  return true;
}

bool GridEvalEngine::row_all_k_covered(std::size_t row, std::size_t k,
                                       GridEvalScratch& scratch) const {
  if (k == 0) {
    return true;
  }
  for (std::size_t col = 0; col < cols(); ++col) {
    const geom::Vec2 p = grid_.point(row, col);
    const CandView view = row_view(row, p, scratch);
    if (covered_count_at_least(p, view, k) < k) {
      return false;
    }
  }
  return true;
}

}  // namespace fvc::core
