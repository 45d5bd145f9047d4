#include "insitu/snapshot_stream.hpp"

#include "common/error.hpp"

// Locking discipline
// ------------------
// A single mutex guards the deque, `closed_`, and both condition variables;
// every member — including the `size()`/`closed()` observers — takes it, so
// the stream is safe for any number of producers and consumers (the in-situ
// pipeline of §5.2 runs solver ranks pushing while an analysis thread
// drains). Waits use two condvars so that back-pressured producers
// (`cv_push_`, queue full) and starved consumers (`cv_pop_`, queue empty)
// never steal each other's wakeups; `close()` broadcasts to both. Snapshot
// payloads are moved in and out under the lock — the payload itself is only
// owned by one side at a time, never shared.
namespace felis::insitu {

bool SnapshotStream::push(RealVec snapshot) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_push_.wait(lock, [this] { return queue_.size() < capacity_ || closed_; });
  if (closed_) return false;
  queue_.push_back(std::move(snapshot));
  ++pushed_total_;
  cv_pop_.notify_one();
  return true;
}

std::optional<RealVec> SnapshotStream::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_pop_.wait(lock, [this] { return !queue_.empty() || closed_; });
  if (queue_.empty()) return std::nullopt;
  RealVec snapshot = std::move(queue_.front());
  queue_.pop_front();
  ++popped_total_;
  cv_push_.notify_one();
  return snapshot;
}

void SnapshotStream::close() {
  std::unique_lock<std::mutex> lock(mutex_);
  closed_ = true;
  cv_pop_.notify_all();
  cv_push_.notify_all();
}

usize SnapshotStream::size() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return queue_.size();
}

bool SnapshotStream::closed() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return closed_;
}

std::uint64_t SnapshotStream::pushed_total() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return pushed_total_;
}

std::uint64_t SnapshotStream::popped_total() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return popped_total_;
}

void SnapshotStream::restore_cursors(std::uint64_t pushed,
                                     std::uint64_t popped) {
  std::unique_lock<std::mutex> lock(mutex_);
  FELIS_CHECK_MSG(queue_.empty() && !closed_,
                  "SnapshotStream::restore_cursors requires an idle stream");
  FELIS_CHECK_MSG(popped <= pushed,
                  "SnapshotStream::restore_cursors: popped cursor " << popped
                      << " ahead of pushed cursor " << pushed);
  pushed_total_ = pushed;
  popped_total_ = popped;
}

}  // namespace felis::insitu
