// Run-level checkpoint files: a consistent cut of the whole pipeline
// (per-copy source progress plus every copy of every consuming stage's
// state snapshot), captured by the marker protocol in runner.cpp and
// persisted so an aborted run can resume from the cut instead of packet
// zero (docs/ROBUSTNESS.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cgp::dc {

/// One consuming copy's state at the cut, as serialized by
/// Filter::snapshot_state: a replicated stage contributes one part per
/// transparent copy, each aligned on the same marker.
struct StageSnapshot {
  std::string group;
  int copy = 0;
  std::vector<std::byte> state;
};

/// A consistent cut: each source copy had delivered exactly
/// `source_copies[copy]` packets of its round-robin share, and every
/// stage-copy's state reflects exactly that prefix (the marker merges
/// behind the packets it covers on every link, so all parts are aligned
/// on the same prefix even across transparent copies).
struct RunCheckpoint {
  std::int64_t id = 0;                // marker ordinal within the run
  std::int64_t source_delivered = 0;  // total packets delivered = Σ copies
  double at_seconds = 0.0;            // capture time since run start
  /// Per-source-copy delivered counts, copy order. A file without them
  /// loads as a single entry equal to source_delivered.
  std::vector<std::int64_t> source_copies;
  /// Transparent-copy count per group (source first, pipeline order),
  /// recorded for resume validation.
  std::vector<int> group_copies;
  /// Consuming parts in (group pipeline order × copy) layout.
  std::vector<StageSnapshot> stages;
};

/// Content checksum (FNV-1a 64 over a canonical byte serialization of the
/// cut) stored in every file and re-verified on load, so a torn or
/// bit-flipped file fails loudly instead of resuming from garbage.
std::uint64_t checkpoint_checksum(const RunCheckpoint& checkpoint);

/// Writes `checkpoint` to `path` atomically and durably: temp file,
/// fsync of the temp file, rename, fsync of the containing directory —
/// a host crash at any point leaves either the previous good cut or the
/// complete new one, never a truncated file. cgpipe-checkpoint-v3 JSON
/// format (checksummed). Throws std::runtime_error on I/O failure.
void save_checkpoint(const RunCheckpoint& checkpoint, const std::string& path);

/// Loads a cgpipe-checkpoint-v3 file, verifying the checksum. Throws
/// std::runtime_error on I/O, schema, or checksum errors — never returns a
/// partially-populated cut.
RunCheckpoint load_checkpoint(const std::string& path);

}  // namespace cgp::dc
