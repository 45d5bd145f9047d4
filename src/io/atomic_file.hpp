/// \file atomic_file.hpp
/// \brief Crash-safe file writes: tmp file + fsync + atomic rename.
///
/// A checkpoint that replaces its predecessor in place can be destroyed by a
/// crash mid-write. Every durable artifact in felis therefore goes through
/// this helper: the bytes land in `<path>.tmp`, are fsync'd, and only then
/// renamed over `path` (rename is atomic on POSIX); finally the directory
/// entry is fsync'd so the rename itself survives power loss. Readers only
/// ever observe the old file or the complete new file, never a torn one.
/// felis_lint enforces the contract: src/fluid and src/io must not open a raw
/// std::ofstream outside this translation unit.
#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "io/fault_injector.hpp"

namespace felis::io {

/// Atomically replace `path` with `bytes`. Throws felis::Error on I/O
/// failure. `fault` (tests only) injects deterministic failures: fail-write
/// throws before touching disk, truncate/crash simulate a process death
/// (InjectedCrash), corrupt silently damages the written file.
void atomic_write_file(const std::string& path,
                       const std::vector<std::byte>& bytes,
                       FaultInjector* fault = nullptr);

/// Read a whole file into memory; throws felis::Error if missing/unreadable.
std::vector<std::byte> read_file(const std::string& path);

/// Streaming variant for text writers (VTK/CSV): write to `stream()`, then
/// `commit()` flushes, fsyncs and renames into place. Without commit() the
/// destructor discards the tmp file and the target path is untouched. Each
/// writer stages in its own `<path>.tmp.<pid>.<n>`, so concurrent writers of
/// one path (e.g. two status exporters) each commit a complete file.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path);
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;
  ~AtomicFileWriter();

  std::ostream& stream() { return out_; }
  void commit();

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  bool committed_ = false;
};

}  // namespace felis::io
