/// \file ndjson_follower.hpp
/// \brief Crash-tolerant incremental tail reader for NDJSON journals.
///
/// Every felis journal (campaign manifest, per-step telemetry stream) is
/// written through io::DurableAppendWriter: append-only, fsync-per-record,
/// at most one torn final line after a kill.
/// NdjsonFollower is the matching read side for a *live* journal: each
/// poll() reads only the bytes appended since the last poll and returns the
/// newly *completed* lines.
///
/// Torn-tail discipline: a line is complete only once its trailing newline
/// is on disk. Bytes after the last newline — a record torn by a kill, or
/// one racing mid-append — are never consumed; the follower's offset stays
/// at the last newline and re-examines the tail on the next poll. A torn
/// tail that the writer later self-heals (DurableAppendWriter appends a
/// newline before resuming) is then delivered as a complete — possibly
/// malformed — line, which the journal folds already ignore.
///
/// A missing file is not an error (the producer may not have started); the
/// follower keeps checking. A file that *shrinks* below the consumed offset
/// was truncated or replaced (per-run telemetry streams restart on every
/// attempt): the follower restarts from byte 0, re-delivers the new content
/// and counts the reset in truncations() so callers can drop stale state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace felis::obs {

class NdjsonFollower {
 public:
  explicit NdjsonFollower(std::string path);

  /// Append every line completed since the last poll (newline stripped) to
  /// `lines`; returns how many were appended.
  usize poll(std::vector<std::string>* lines);

  /// The file currently exists (checked, not cached).
  bool exists() const;

  const std::string& path() const { return path_; }

  /// Byte offset of the first unconsumed byte (== file size minus any
  /// unterminated tail, after a poll).
  std::uint64_t offset() const { return offset_; }

  /// How many times the file shrank below offset() and the follower
  /// restarted from byte 0 (journal truncated or replaced).
  int truncations() const { return truncations_; }

 private:
  std::string path_;
  std::uint64_t offset_ = 0;
  int truncations_ = 0;
};

}  // namespace felis::obs
