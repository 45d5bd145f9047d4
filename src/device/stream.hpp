/// \file stream.hpp
/// \brief Execution streams: ordered asynchronous task queues.
///
/// The paper's task-parallel preconditioner launches "the left and the right
/// part of (3) in parallel on the device [...] from different threads in an
/// OpenMP parallel region. Tasks are launched in separate streams to allow
/// overlap" (§5.3). felis' `Stream` is the host-side equivalent: a dedicated
/// worker thread draining an ordered task queue. Work submitted to different
/// streams runs concurrently; work within a stream is ordered — the same
/// semantics as CUDA/HIP streams.
///
/// `priority` is advisory metadata (mirrors cudaStreamCreateWithPriority):
/// the discrete-event simulator in perfmodel/ honours it exactly the way the
/// paper describes for NVIDIA vs AMD scheduling; the host implementation
/// relies on OS scheduling.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "common/trace.hpp"
#include "common/types.hpp"

namespace felis::device {

class Stream {
 public:
  explicit Stream(int priority = 0);
  ~Stream();
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Enqueue a task; returns immediately (asynchronous launch).
  void submit(std::function<void()> task);

  /// Block until every task submitted so far has completed.
  void wait();

  int priority() const { return priority_; }

 private:
  void worker_loop();

  int priority_;
  std::mutex mutex_;
  std::condition_variable cv_submit_;
  std::condition_variable cv_done_;
  std::deque<std::function<void()>> queue_;
  bool running_ = false;   ///< a task is currently executing
  bool shutdown_ = false;
  std::thread worker_;
};

/// The Fig. 2 trace recorder lives in common/ next to the Profiler, which
/// records into it too; the device-layer names stay for existing callers.
using felis::TraceEvent;
using felis::TraceRecorder;

}  // namespace felis::device
