/// \file tile_cache.hpp
/// \brief LRU cache of evaluated grid tiles for the Session facade.
///
/// A tile is a full-width band of contiguous grid rows [row_begin,
/// row_end) of one session grid, and its value is the band's
/// `core::GridRowStats` — the row-order fold `GridEvalEngine::block_stats`
/// produces.  Because block folds reduce in row order, replaying cached
/// tiles of a partition of [0, rows) in ascending row order reproduces the
/// serial whole-grid reduction bit-exactly (`core::fold_row_stats`), so a
/// cache hit is indistinguishable
/// from re-evaluation.
///
/// Keys carry everything the tile's value depends on: the deployment
/// digest (cameras + grid side; see session.hpp), the row range, the raw
/// bits of theta (bit-identity demands bit-exact key equality, so the key
/// stores `bit_cast<uint64_t>(theta)`, never a rounded double), and the
/// implied k = ceil(pi/theta).  A what-if edit changes the digest, which
/// orphans every stale entry without any eager walk; the Session then
/// *carries forward* entries whose tile provably cannot see the edit
/// (the edited camera's disk does not reach the tile's rows) by re-keying
/// them under the new digest.
///
/// The cache is capacity-bounded (entries, not bytes — every value is one
/// fixed-size GridRowStats) with least-recently-used eviction, and keeps
/// running accounting (hits / misses / evictions / carried_forward) that
/// the Session exports through fvc::obs.  Not thread-safe; the owning
/// Session serializes access.

#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>

#include "fvc/core/grid_eval.hpp"

namespace fvc::api {

/// Cache key: every input the tile's stats depend on.
struct TileKey {
  std::uint64_t digest = 0;      ///< deployment digest (session.hpp)
  std::uint64_t theta_bits = 0;  ///< bit_cast of theta (bit-exact equality)
  std::uint64_t k = 0;           ///< implied k queried alongside
  std::uint32_t row_begin = 0;   ///< first row of the band
  std::uint32_t row_end = 0;     ///< one past the last row

  [[nodiscard]] bool operator==(const TileKey&) const = default;
};

struct TileKeyHash {
  [[nodiscard]] std::size_t operator()(const TileKey& k) const noexcept;
};

/// Running accounting of one cache's lifetime.
struct TileCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t carried_forward = 0;  ///< entries re-keyed across an edit
};

/// Fixed-capacity LRU map from TileKey to GridRowStats.
class TileCache {
 public:
  /// \pre capacity >= 1 (throws std::invalid_argument otherwise)
  explicit TileCache(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] const TileCacheStats& stats() const { return stats_; }

  /// Approximate resident bytes: entries times the list-node payload plus
  /// the hash-map node (key copy, iterator, bucket links).  A telemetry
  /// sizing signal, not an allocator audit.
  [[nodiscard]] std::size_t approx_bytes() const {
    constexpr std::size_t kPerEntry = sizeof(Entry) + 2 * sizeof(void*) +
                                      sizeof(TileKey) + sizeof(void*) +
                                      2 * sizeof(void*);
    return sizeof(TileCache) + map_.size() * kPerEntry;
  }

  /// Look up `key`; a hit refreshes its recency and writes the value to
  /// `out`.  Hits and misses are counted.
  [[nodiscard]] bool lookup(const TileKey& key, core::GridRowStats& out);

  /// Insert (or overwrite) `key`, evicting the least-recently-used entry
  /// when at capacity.  The new entry is most recent.
  void insert(const TileKey& key, const core::GridRowStats& value);

  /// Re-key every entry matching `from.digest`/`from.theta_bits` for which
  /// `keep(row_begin, row_end)` holds to `to_digest`/`to_theta_bits`
  /// (recency preserved); entries failing `keep` are dropped without an
  /// eviction count (they are invalid, not displaced).  Returns the number
  /// carried forward (also accumulated in stats).
  template <typename KeepFn>
  std::size_t carry_forward(std::uint64_t from_digest, std::uint64_t to_digest,
                            const KeepFn& keep) {
    std::size_t carried = 0;
    for (auto it = order_.begin(); it != order_.end();) {
      if (it->key.digest != from_digest) {
        ++it;
        continue;
      }
      const TileKey old_key = it->key;
      map_.erase(old_key);
      if (keep(old_key.row_begin, old_key.row_end)) {
        it->key.digest = to_digest;
        map_.emplace(it->key, it);
        ++carried;
        ++it;
      } else {
        it = order_.erase(it);
      }
    }
    stats_.carried_forward += carried;
    return carried;
  }

  /// Drop every entry (capacity and accounting are kept).
  void clear();

 private:
  struct Entry {
    TileKey key;
    core::GridRowStats value;
  };
  using Order = std::list<Entry>;

  std::size_t capacity_;
  Order order_;  ///< front = most recent
  std::unordered_map<TileKey, Order::iterator, TileKeyHash> map_;
  TileCacheStats stats_;
};

}  // namespace fvc::api
