#include "io/durable_append.hpp"

#include <filesystem>

#include "common/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace felis::io {

namespace {

// Durability barrier (same contract as atomic_file.cpp): without fsync the
// appended records can be reordered past a crash.
void fsync_path(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  FELIS_CHECK_MSG(fd >= 0, "cannot open " << path << " for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  FELIS_CHECK_MSG(rc == 0, "fsync failed for " << path);
#else
  (void)path;
#endif
}

/// True when `path` exists, is non-empty and its final byte is not '\n' —
/// i.e. the previous writer died mid-append and left a torn final line.
bool has_torn_tail(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) return false;
  const std::streamoff size = in.tellg();
  if (size <= 0) return false;
  in.seekg(size - 1);
  char last = '\n';
  in.read(&last, 1);
  return in.good() && last != '\n';
}

}  // namespace

DurableAppendWriter::DurableAppendWriter(std::string path) : path_(std::move(path)) {
  // Self-heal a torn tail before the first append: terminate the partial
  // line so it stays *visibly* torn (readers skip it) instead of being
  // silently fused with the next record.
  const bool heal = has_torn_tail(path_);
  out_.open(path_, std::ios::app);
  FELIS_CHECK_MSG(out_.good(), "cannot open " << path_ << " for appending");
  if (heal) {
    out_ << '\n';
    FELIS_CHECK_MSG(out_.good(), "failed healing torn tail of " << path_);
    sync();
  }
}

DurableAppendWriter::~DurableAppendWriter() {
  if (!out_.is_open()) return;
  out_.flush();
  out_.close();
#if defined(__unix__) || defined(__APPLE__)
  // Best effort — the destructor must not throw.
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#endif
}

void DurableAppendWriter::append(const std::string& line) {
  out_ << line << '\n';
  FELIS_CHECK_MSG(out_.good(), "failed appending to " << path_);
  sync();
}

void DurableAppendWriter::sync() {
  out_.flush();
  FELIS_CHECK_MSG(out_.good(), "failed flushing " << path_);
  fsync_path(path_);
}

}  // namespace felis::io
