/// \file checkpoint.hpp
/// \brief Versioned on-disk checkpoints for resumable Monte-Carlo runs.
///
/// A long sharded run must survive preemption: the driver kills a shard,
/// reschedules it, and the rerun must not redo (or worse, double-count)
/// finished work.  A checkpoint is the durable record that makes this
/// safe.  It stores the run's identity — kind, master seed, and a digest
/// of the full configuration — plus one entry per *completed unit*: the
/// unit's index and a small vector of doubles holding its outcome
/// (command-defined; e.g. the three event bits of a trial).  Because unit
/// outcomes depend only on (master seed, index), a report folded from any
/// checkpoint set covering all indices exactly once is bitwise identical
/// to the uninterrupted run.
///
/// The format is JSON under the schema tag "fvc.checkpoint/1".  Seeds and
/// digests are encoded as hex *strings*: JSON numbers are doubles, and a
/// 64-bit seed above 2^53 would not round-trip through one.  Payload
/// doubles are printed with %.17g, which round-trips every finite double.
///
/// This header deliberately knows nothing about the sim layer (fvc_io
/// sits below fvc_sim); shard geometry is carried as plain integers.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fvc::io {

/// Schema tag written to and demanded from every checkpoint document.
inline constexpr const char* kCheckpointSchema = "fvc.checkpoint/1";

/// One completed unit of work: which index ran, and what it produced.
/// The payload layout is owned by the command that writes it (documented
/// at each call site); merge/resume treat it as opaque doubles.
struct CheckpointUnit {
  std::uint64_t index = 0;
  std::vector<double> payload;
};

/// A checkpoint document.
struct Checkpoint {
  std::string kind;                 ///< command identity, e.g. "simulate"
  std::uint64_t master_seed = 0;    ///< the run's master seed
  std::uint64_t config_digest = 0;  ///< digest of the canonical config string
  std::uint64_t total_units = 0;    ///< units in the *whole* run, all shards
  std::uint64_t shard_index = 0;    ///< which shard wrote this file
  std::uint64_t shard_count = 1;    ///< total shards in the partition
  std::vector<CheckpointUnit> units;  ///< completed units, sorted by index

  /// Sort `units` by index and drop duplicates (last write wins).  Writers
  /// call this before saving so readers may rely on sorted-unique order.
  void normalize();

  /// The sorted completed indices (requires normalized units).
  [[nodiscard]] std::vector<std::uint64_t> completed_indices() const;

  /// True when every unit in [0, total_units) is present.
  [[nodiscard]] bool complete() const;
};

/// FNV-1a over a canonical configuration string.  Commands build the
/// string from every parameter that affects unit outcomes (not from
/// presentation flags), so a resumed or merged run can refuse data
/// produced under a different configuration.
[[nodiscard]] std::uint64_t config_digest64(std::string_view canonical);

/// The FNV-1a state `config_digest64` starts from (the offset basis).
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// Continues an FNV-1a state over `bytes`, so a digest can be kept
/// incrementally: `config_digest64(a + b)` equals
/// `fnv1a64(fnv1a64(kFnv1a64Basis, a), b)`.
[[nodiscard]] std::uint64_t fnv1a64(std::uint64_t state, std::string_view bytes);

/// Serialize to / parse from the fvc.checkpoint/1 JSON document.
/// \throws std::runtime_error on malformed input, an unknown schema tag,
/// or non-finite payload values (the format has no encoding for them).
void write_checkpoint(std::ostream& os, const Checkpoint& cp);
[[nodiscard]] Checkpoint read_checkpoint(std::istream& is);

/// File conveniences.  `save_checkpoint_file` is atomic: it writes
/// `path + ".tmp"` and renames over `path`, so a crash mid-save leaves
/// the previous checkpoint intact rather than a truncated document.
void save_checkpoint_file(const std::string& path, const Checkpoint& cp);
[[nodiscard]] Checkpoint load_checkpoint_file(const std::string& path);

/// Fold shard checkpoints into one document covering their union.
/// Refuses (std::runtime_error naming the offending field and shard) when
/// the inputs disagree on kind, master seed, config digest, total_units,
/// or shard_count, or when two shards claim the same unit index.  The
/// result has shard_index = 0, shard_count = 1 and sorted units; it is
/// `complete()` exactly when the shards jointly covered every index.
[[nodiscard]] Checkpoint merge_checkpoints(std::span<const Checkpoint> shards);

}  // namespace fvc::io
