#include "io/atomic_file.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>

#include "common/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace felis::io {

namespace {

constexpr const char* kTmpSuffix = ".tmp";

// Durability barrier: without fsync the rename can hit disk before the data,
// and a power loss leaves a complete-looking file full of zeros.
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

void write_bytes(const std::string& path, const std::byte* data, usize n) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  FELIS_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  if (n > 0)
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(n));
  out.flush();
  FELIS_CHECK_MSG(out.good(), "failed writing " << path);
}

void rename_file(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::rename(from, to, ec);
  FELIS_CHECK_MSG(!ec, "rename " << from << " -> " << to
                                 << " failed: " << ec.message());
}

// AtomicFileWriter's staging name, unique per writer: `<path>.tmp.<pid>.<n>`.
// Two writers of one path — two processes, or two threads of one — never
// share a temporary file, so neither can rename or truncate the other's.
std::string unique_tmp_path(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return path + kTmpSuffix + "." + std::to_string(pid) + "." +
         std::to_string(counter.fetch_add(1));
}

std::string parent_dir(const std::string& path) {
  const auto dir = std::filesystem::path(path).parent_path();
  return dir.empty() ? std::string(".") : dir.string();
}

}  // namespace

void atomic_write_file(const std::string& path,
                       const std::vector<std::byte>& bytes,
                       FaultInjector* fault) {
  using Mode = FaultInjector::Mode;
  const Mode action = fault ? fault->next_write_action() : Mode::kNone;
  const std::string tmp = path + kTmpSuffix;
  switch (action) {
    case Mode::kFailWrite:
      // Transient filesystem error before anything hits disk; callers with a
      // retry policy (CheckpointManager) are expected to try again.
      throw Error("fault injector: transient write failure for " + path);
    case Mode::kTruncate: {
      // A torn in-place write surviving a crash: the final file holds only a
      // prefix. Models the legacy non-atomic path this helper replaces.
      const usize n = std::min(fault->config().offset, bytes.size());
      write_bytes(path, bytes.data(), n);
      throw InjectedCrash("fault injector: torn write left truncated " + path);
    }
    case Mode::kCorrupt: {
      // Silent bitrot: the write "succeeds" but one byte is flipped. Only
      // the checkpoint CRCs can catch this at recovery time.
      std::vector<std::byte> damaged = bytes;
      if (!damaged.empty())
        damaged[fault->config().offset % damaged.size()] ^= std::byte{0x40};
      write_bytes(path, damaged.data(), damaged.size());
      return;
    }
    case Mode::kCrash:
      // Death between tmp write and rename: tmp file exists, target is the
      // previous (intact) version — recovery must pick up the latter.
      write_bytes(tmp, bytes.data(), bytes.size());
      throw InjectedCrash("fault injector: crash before renaming " + tmp);
    case Mode::kNone:
      break;
  }
  write_bytes(tmp, bytes.data(), bytes.size());
  fsync_path(tmp);
  rename_file(tmp, path);
  fsync_path(parent_dir(path));
}

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  FELIS_CHECK_MSG(in.good(), "cannot open " << path << " for reading");
  const std::streamsize size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<std::byte> bytes(static_cast<usize>(size));
  if (size > 0) in.read(reinterpret_cast<char*>(bytes.data()), size);
  FELIS_CHECK_MSG(in.good(), "failed reading " << path);
  return bytes;
}

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)),
      tmp_path_(unique_tmp_path(path_)),
      out_(tmp_path_) {
  FELIS_CHECK_MSG(out_.good(), "cannot open " << tmp_path_ << " for writing");
}

AtomicFileWriter::~AtomicFileWriter() {
  if (committed_) return;
  out_.close();
  std::error_code ec;
  std::filesystem::remove(tmp_path_, ec);  // best effort; dtor stays nothrow
}

void AtomicFileWriter::commit() {
  FELIS_CHECK_MSG(!committed_, "AtomicFileWriter: double commit of " << path_);
  out_.flush();
  FELIS_CHECK_MSG(out_.good(), "failed writing " << tmp_path_);
  out_.close();
  fsync_path(tmp_path_);
  rename_file(tmp_path_, path_);
  fsync_path(parent_dir(path_));
  committed_ = true;
}

}  // namespace felis::io
