/// \file backend.hpp
/// \brief Compute-backend abstraction (the device abstraction layer).
///
/// Neko "uses a device abstraction layer to manage device memory, data
/// transfer and kernel launches from Fortran. Behind this interface, Neko
/// calls the native accelerator implementation" (§5.1). In this CPU-only
/// reproduction the layer dispatches element loops and vector kernels to a
/// serial or an OpenMP backend; solver code never references a concrete
/// backend, so adding one (as Neko adds CUDA/HIP/OpenCL) touches nothing
/// above this interface.
///
/// Dispatch is *blocked*: callbacks receive contiguous index ranges, never a
/// per-index std::function call, so the serial backend runs a kernel as one
/// plain loop (zero abstraction overhead) and parallel backends amortize the
/// dispatch over whole chunks. Reductions are deterministic by construction:
/// every backend partitions the index space into the same fixed-size blocks
/// and combines the block partials in ascending block order, so dots, norms
/// and CFL numbers are bitwise identical for every backend and thread count.
///
/// Teams have an explicit size, and the layer owns them: select_backend()
/// hands a rank the team its share of the thread budget pays for (a campaign
/// rank one thread, a simulated rank its share of the process team), so
/// every core has one owner, as every GCD has one rank in the paper.
#pragma once

#include <functional>
#include <string>

#include "common/types.hpp"

namespace felis {
class ParamMap;
}  // namespace felis

namespace felis::device {

/// Chunk callback: one contiguous index range [begin, end) plus the worker
/// slot (in [0, concurrency())) executing it. Chunks may run concurrently;
/// the callback must only write data disjoint per index or per chunk, and
/// must not throw (an exception escaping a parallel region is fatal).
using RangeFn = std::function<void(lidx_t begin, lidx_t end, int worker)>;

/// Per-index convenience callback (tests, setup-time loops).
using IndexFn = std::function<void(lidx_t i)>;

/// Reduction block callback: accumulate the contribution of [begin, end)
/// into acc[0..ncomp) (acc is zero-initialized per block).
using PartialSumFn = std::function<void(lidx_t begin, lidx_t end, real_t* acc)>;

/// Single-value reduction block callback: return the partial over [begin, end).
using SpanFn = std::function<real_t(lidx_t begin, lidx_t end)>;

/// Fixed block length of the deterministic reductions. Independent of the
/// backend and thread count on purpose: the block partition *is* the
/// floating-point association, so changing it changes results.
inline constexpr lidx_t kReduceGrain = 2048;

class Backend {
 public:
  virtual ~Backend() = default;
  virtual std::string name() const = 0;

  /// Number of worker slots chunk callbacks may occupy concurrently (>= 1).
  virtual int concurrency() const = 0;

  /// Dispatch fn over [0, n) in contiguous blocks.
  ///
  /// grain > 0: exactly ceil(n/grain) blocks, block b covering
  /// [b*grain, min(n, (b+1)*grain)) — the same partition on every backend
  /// (this is what the deterministic reductions build on).
  /// grain <= 0: the backend picks a block size for load balance; the serial
  /// backend then makes a single call fn(0, n, 0).
  virtual void parallel_for_blocked(lidx_t n, lidx_t grain,
                                    const RangeFn& fn) = 0;

  // ---- conveniences built on the virtual dispatch ---------------------------

  /// Execute fn(i) for i in [0, n); iterations may run concurrently, so fn
  /// must only write disjoint per-i data.
  void parallel_for(lidx_t n, const IndexFn& fn);

  /// Deterministic ncomp-component sum over [0, n): block partials (each a
  /// serial in-order accumulation) combined in ascending block order.
  /// out[0..ncomp) is overwritten.
  void reduce_sum(lidx_t n, int ncomp, real_t* out, const PartialSumFn& fn,
                  lidx_t grain = kReduceGrain);

  /// Deterministic single sum over [0, n).
  real_t reduce_sum(lidx_t n, const SpanFn& fn, lidx_t grain = kReduceGrain);

  /// Max over [0, n) (max is associative and commutative, so this is exact
  /// for any partition); identity is -inf, so n == 0 returns -inf.
  real_t reduce_max(lidx_t n, const SpanFn& fn, lidx_t grain = kReduceGrain);
};

/// Runs every chunk on the calling thread, in ascending block order.
class SerialBackend final : public Backend {
 public:
  std::string name() const override { return "serial"; }
  int concurrency() const override { return 1; }
  void parallel_for_blocked(lidx_t n, lidx_t grain, const RangeFn& fn) override;
};

/// Chunks dispatched across a team of exactly `num_threads` (>= 1) OpenMP
/// worker threads. A one-thread team with grain <= 0 makes the serial
/// backend's single call fn(0, n, 0).
///
/// Under ThreadSanitizer the OpenMP runtime (libgomp) is not instrumented and
/// its barriers are invisible to TSan, so this backend transparently switches
/// to an equivalent std::thread worker pool — same blocked contract, same
/// results — which TSan can verify end to end. The same pool serves builds
/// without OpenMP support.
class OpenMpBackend final : public Backend {
 public:
  explicit OpenMpBackend(int num_threads);
  std::string name() const override { return "openmp"; }
  int concurrency() const override { return num_threads_; }
  void parallel_for_blocked(lidx_t n, lidx_t grain, const RangeFn& fn) override;

 private:
  int num_threads_;
};

/// Threads of the whole process team: OMP_NUM_THREADS when set to a positive
/// count, otherwise the hardware concurrency. Read once per process.
int process_threads();

/// The backend family "device.backend" names (serial|openmp|auto), with a
/// team of exactly `threads` workers; without the key, the process default
/// family (FELIS_BACKEND, else auto). `serial` ignores the count, `auto` is
/// openmp only when threads > 1. Throws felis::Error for threads < 1 and for
/// an unknown family. Instances live for the whole process, one per (family,
/// team size), so contexts may keep plain pointers to them.
Backend& select_backend(const ParamMap& params, int threads);

/// The whole process team: select_backend(params, process_threads()).
Backend& select_backend(const ParamMap& params);

/// Backend of contexts built without one: the process default family on the
/// process team. The first choice of the process is logged once.
Backend& default_backend();

}  // namespace felis::device
