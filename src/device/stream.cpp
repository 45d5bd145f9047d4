#include "device/stream.hpp"

// Locking discipline
// ------------------
// `Stream`: one mutex (`mutex_`) guards the queue, `running_`, and
// `shutdown_`. Tasks themselves execute *outside* the lock, so a task may
// submit to its own or another stream without self-deadlock. `cv_submit_`
// wakes the worker, `cv_done_` wakes waiters; both are always signalled with
// the protected state already updated, never while a task is running.
namespace felis::device {

Stream::Stream(int priority) : priority_(priority) {
  worker_ = std::thread([this] { worker_loop(); });
}

Stream::~Stream() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_submit_.notify_all();
  worker_.join();
}

void Stream::submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_submit_.notify_one();
}

void Stream::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [this] { return queue_.empty() && !running_; });
}

void Stream::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_submit_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      running_ = true;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      running_ = false;
      if (queue_.empty()) cv_done_.notify_all();
    }
  }
}

}  // namespace felis::device
