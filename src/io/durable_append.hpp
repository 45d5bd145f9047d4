/// \file durable_append.hpp
/// \brief Crash-safe append-only record streams (NDJSON journals).
///
/// The telemetry stream and the campaign manifest are journals: the file
/// grows in place and durability means "every fsync'd prefix is a valid
/// record stream". A kill can leave at most one torn final line, which
/// readers must skip. Opening an existing journal self-heals that torn
/// tail: if the file does not end in a newline, one is appended before the
/// first new record, so a resumed session never glues its first record onto
/// the torn remnant of the previous one (which would corrupt *both*
/// records while still looking like a complete line to readers).
///
/// Together with io/atomic_file.* this is one of the two audited durability
/// paths; felis_lint (rule raw-rename-fsync) bans raw rename/fsync anywhere
/// else in src/.
#pragma once

#include <fstream>
#include <string>

#include "common/types.hpp"

namespace felis::io {

/// Append-mode writer for record streams: each `append()` adds one complete
/// line, then flushes and fsyncs the stream.
class DurableAppendWriter {
 public:
  explicit DurableAppendWriter(std::string path);
  DurableAppendWriter(const DurableAppendWriter&) = delete;
  DurableAppendWriter& operator=(const DurableAppendWriter&) = delete;
  ~DurableAppendWriter();

  /// Write `line` plus a trailing newline, then sync().
  void append(const std::string& line);
  /// Force a flush + fsync now (also called by the destructor).
  void sync();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
};

}  // namespace felis::io
