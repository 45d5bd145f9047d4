/// \file backend.cpp
#include "device/backend.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/logger.hpp"
#include "common/params.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

// libgomp's barriers are invisible to TSan, so every `#pragma omp parallel`
// produces false positives. Under TSan the OpenMpBackend dispatches through a
// plain std::thread pool instead (same blocked contract, same results), which
// TSan instruments end to end — real kernel races are still caught, runtime
// ones are not invented. The same pool serves builds without OpenMP.
#if defined(__SANITIZE_THREAD__)
#define FELIS_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FELIS_TSAN_BUILD 1
#endif
#endif
#ifndef FELIS_TSAN_BUILD
#define FELIS_TSAN_BUILD 0
#endif

namespace felis::device {

namespace {

constexpr int kMaxComponents = 8;  ///< widest multi-component reduction

/// Blocks per worker when the caller lets the backend pick the grain; > 1 so
/// uneven chunk costs (e.g. boundary elements) still balance.
constexpr lidx_t kAutoBlocksPerWorker = 4;

lidx_t block_count(lidx_t n, lidx_t grain) { return (n + grain - 1) / grain; }

#if !defined(_OPENMP) || FELIS_TSAN_BUILD

/// Work-stealing chunk dispatch on a transient std::thread pool. Workers pull
/// block indices off a shared atomic counter; the first exception is captured
/// and rethrown on the calling thread after the join.
void pool_dispatch(lidx_t n, lidx_t grain, lidx_t nblocks, int nthreads,
                   const RangeFn& fn) {
  std::atomic<lidx_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  auto work = [&](int worker) {
    try {
      for (;;) {
        const lidx_t b = next.fetch_add(1, std::memory_order_relaxed);
        if (b >= nblocks || failed.load(std::memory_order_relaxed)) break;
        fn(b * grain, std::min<lidx_t>(n, (b + 1) * grain), worker);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(static_cast<usize>(nthreads - 1));
  for (int w = 1; w < nthreads; ++w) workers.emplace_back(work, w);
  work(0);
  for (std::thread& t : workers) t.join();
  if (error) std::rethrow_exception(error);
}

#endif  // !defined(_OPENMP) || FELIS_TSAN_BUILD

}  // namespace

// ---- Backend conveniences ---------------------------------------------------

void Backend::parallel_for(lidx_t n, const IndexFn& fn) {
  parallel_for_blocked(n, /*grain=*/0,
                       [&fn](lidx_t begin, lidx_t end, int /*worker*/) {
                         for (lidx_t i = begin; i < end; ++i) fn(i);
                       });
}

void Backend::reduce_sum(lidx_t n, int ncomp, real_t* out,
                         const PartialSumFn& fn, lidx_t grain) {
  FELIS_CHECK(ncomp >= 1 && ncomp <= kMaxComponents);
  FELIS_CHECK(grain > 0);
  std::fill(out, out + ncomp, real_t{0});
  if (n <= 0) return;
  const lidx_t nblocks = block_count(n, grain);
  // Per-block partials land in fixed slots, then combine in ascending block
  // order: the FP association depends only on (n, grain), never on the
  // backend or thread count.
  std::vector<real_t> partials(static_cast<usize>(nblocks) * ncomp, real_t{0});
  parallel_for_blocked(
      nblocks, /*grain=*/0, [&](lidx_t bbegin, lidx_t bend, int /*worker*/) {
        for (lidx_t b = bbegin; b < bend; ++b) {
          fn(b * grain, std::min<lidx_t>(n, (b + 1) * grain),
             partials.data() + static_cast<usize>(b) * ncomp);
        }
      });
  for (lidx_t b = 0; b < nblocks; ++b) {
    for (int c = 0; c < ncomp; ++c) {
      out[c] += partials[static_cast<usize>(b) * ncomp + c];
    }
  }
}

real_t Backend::reduce_sum(lidx_t n, const SpanFn& fn, lidx_t grain) {
  FELIS_CHECK(grain > 0);
  if (n <= 0) return real_t{0};
  const lidx_t nblocks = block_count(n, grain);
  std::vector<real_t> partials(static_cast<usize>(nblocks), real_t{0});
  parallel_for_blocked(
      nblocks, /*grain=*/0, [&](lidx_t bbegin, lidx_t bend, int /*worker*/) {
        for (lidx_t b = bbegin; b < bend; ++b) {
          partials[static_cast<usize>(b)] =
              fn(b * grain, std::min<lidx_t>(n, (b + 1) * grain));
        }
      });
  real_t sum = 0;
  for (const real_t p : partials) sum += p;
  return sum;
}

real_t Backend::reduce_max(lidx_t n, const SpanFn& fn, lidx_t grain) {
  FELIS_CHECK(grain > 0);
  real_t result = -std::numeric_limits<real_t>::infinity();
  if (n <= 0) return result;
  const lidx_t nblocks = block_count(n, grain);
  std::vector<real_t> partials(static_cast<usize>(nblocks),
                               -std::numeric_limits<real_t>::infinity());
  parallel_for_blocked(
      nblocks, /*grain=*/0, [&](lidx_t bbegin, lidx_t bend, int /*worker*/) {
        for (lidx_t b = bbegin; b < bend; ++b) {
          partials[static_cast<usize>(b)] =
              fn(b * grain, std::min<lidx_t>(n, (b + 1) * grain));
        }
      });
  for (const real_t p : partials) result = std::max(result, p);
  return result;
}

// ---- SerialBackend ----------------------------------------------------------

void SerialBackend::parallel_for_blocked(lidx_t n, lidx_t grain,
                                         const RangeFn& fn) {
  if (n <= 0) return;
  if (grain <= 0) {
    fn(0, n, 0);  // one chunk: a backend-dispatched kernel is one plain loop
    return;
  }
  const lidx_t nblocks = block_count(n, grain);
  for (lidx_t b = 0; b < nblocks; ++b) {
    fn(b * grain, std::min<lidx_t>(n, (b + 1) * grain), 0);
  }
}

// ---- OpenMpBackend ----------------------------------------------------------

OpenMpBackend::OpenMpBackend(int num_threads) : num_threads_(num_threads) {
  FELIS_CHECK_MSG(num_threads >= 1,
                  "an OpenMP team needs at least 1 thread, got " << num_threads);
}

void OpenMpBackend::parallel_for_blocked(lidx_t n, lidx_t grain,
                                         const RangeFn& fn) {
  if (n <= 0) return;
  const int nthreads = num_threads_;
  // A one-thread team has nothing to balance: a free grain is one chunk, the
  // serial backend's single call.
  const lidx_t g =
      grain > 0      ? grain
      : nthreads < 2 ? n
                     : std::max<lidx_t>(1, (n + nthreads * kAutoBlocksPerWorker - 1) /
                                               (nthreads * kAutoBlocksPerWorker));
  const lidx_t nblocks = block_count(n, g);
  if (nthreads <= 1 || nblocks <= 1) {
    for (lidx_t b = 0; b < nblocks; ++b) {
      fn(b * g, std::min<lidx_t>(n, (b + 1) * g), 0);
    }
    return;
  }
#if defined(_OPENMP) && !FELIS_TSAN_BUILD
#pragma omp parallel for schedule(static) num_threads(nthreads)
  for (lidx_t b = 0; b < nblocks; ++b) {
    fn(b * g, std::min<lidx_t>(n, (b + 1) * g), omp_get_thread_num());
  }
#else
  pool_dispatch(n, g, nblocks, nthreads, fn);
#endif
}

// ---- selection --------------------------------------------------------------

int process_threads() {
  static const int threads = [] {
    if (const char* env = std::getenv("OMP_NUM_THREADS")) {
      const int n = std::atoi(env);
      if (n > 0) return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }();
  return threads;
}

namespace {

std::once_flag g_log_once;

void log_choice(const Backend& backend) {
  std::call_once(g_log_once, [&backend] {
    FELIS_LOG_INFO("device: backend=", backend.name(),
                   " threads=", backend.concurrency());
  });
}

/// The one OpenMP team of each size. Map nodes never move, and the map lives
/// until exit, so every context may keep a plain pointer to its team.
OpenMpBackend& team_of(int threads) {
  static std::mutex mutex;
  static std::map<int, OpenMpBackend> teams;
  const std::lock_guard<std::mutex> lock(mutex);
  return teams.try_emplace(threads, threads).first->second;
}

Backend& resolve(const std::string& family, int threads) {
  if (threads < 1)
    throw Error("device backend '" + family + "' asked for a team of " +
                std::to_string(threads) + " threads (need at least 1)");
  static SerialBackend serial;
  const bool is_auto = family.empty() || family == "auto";
  if (family == "serial" || (is_auto && threads == 1)) return serial;
  if (family == "openmp" || is_auto) {
    // The process team is the null-backend fallback on every dispatch: keep
    // it off the lock.
    static OpenMpBackend& whole = team_of(process_threads());
    return threads == whole.concurrency() ? whole : team_of(threads);
  }
  throw Error("unknown device backend '" + family +
              "' (expected serial|openmp|auto)");
}

/// FELIS_BACKEND, else auto.
std::string process_family() {
  const char* env = std::getenv("FELIS_BACKEND");
  return env != nullptr ? env : "auto";
}

}  // namespace

Backend& select_backend(const ParamMap& params, int threads) {
  Backend& backend = resolve(kBackend.get(params, process_family()), threads);
  log_choice(backend);
  return backend;
}

Backend& select_backend(const ParamMap& params) {
  return select_backend(params, process_threads());
}

Backend& default_backend() {
  Backend& backend = resolve(process_family(), process_threads());
  log_choice(backend);
  return backend;
}

}  // namespace felis::device
