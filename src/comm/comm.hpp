/// \file comm.hpp
/// \brief Distributed-memory communication abstraction.
///
/// Neko runs MPI with one rank per logical GPU (§6). This environment has no
/// MPI and no GPUs, so felis programs are written against this
/// `Communicator` interface with two implementations:
///
///  * `SelfComm`  — a single rank, all collectives trivial;
///  * `SimComm`   — R ranks executed as R threads of one process with
///    in-memory buffered point-to-point messaging and collectives. The
///    algorithmic structure (two-phase gather–scatter, allreduce in Krylov
///    dot products, halo exchange) is identical to the MPI version; message
///    counts and sizes are real and are what the performance model consumes.
///
/// Point-to-point sends are *buffered* (enqueue and return), so any send /
/// recv ordering that is correct under MPI buffered mode is deadlock-free.
#pragma once

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace felis::comm {

enum class ReduceOp { kSum, kMin, kMax };

class Communicator {
 public:
  virtual ~Communicator() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  virtual void barrier() = 0;

  /// In-place elementwise allreduce.
  virtual void allreduce(real_t* data, usize count, ReduceOp op) = 0;
  virtual void allreduce(gidx_t* data, usize count, ReduceOp op) = 0;

  /// Gather variable-length byte blobs from all ranks to all ranks,
  /// returned in rank order.
  virtual std::vector<std::vector<std::byte>> allgatherv_bytes(
      const std::vector<std::byte>& mine) = 0;

  /// Buffered send (returns immediately) and blocking receive matched on
  /// (source, tag). Self-sends are allowed.
  virtual void send_bytes(int dest, int tag, const void* data, usize bytes) = 0;
  virtual std::vector<std::byte> recv_bytes(int source, int tag) = 0;

  // ---- typed conveniences -------------------------------------------------

  real_t allreduce_scalar(real_t v, ReduceOp op) {
    allreduce(&v, 1, op);
    return v;
  }
  gidx_t allreduce_scalar(gidx_t v, ReduceOp op) {
    allreduce(&v, 1, op);
    return v;
  }

  template <typename T>
  void send_vec(int dest, int tag, const std::vector<T>& v) {
    send_bytes(dest, tag, v.data(), v.size() * sizeof(T));
  }

  template <typename T>
  std::vector<T> recv_vec(int source, int tag) {
    const std::vector<std::byte> raw = recv_bytes(source, tag);
    FELIS_CHECK(raw.size() % sizeof(T) == 0);
    std::vector<T> v(raw.size() / sizeof(T));
    // Zero-length guard: memcpy on a null data() pointer is UB (UBSan).
    if (!raw.empty()) std::memcpy(v.data(), raw.data(), raw.size());
    return v;
  }

  template <typename T>
  std::vector<std::vector<T>> allgatherv(const std::vector<T>& mine) {
    std::vector<std::byte> raw(mine.size() * sizeof(T));
    if (!mine.empty()) std::memcpy(raw.data(), mine.data(), raw.size());
    const auto all = allgatherv_bytes(raw);
    std::vector<std::vector<T>> out(all.size());
    for (usize r = 0; r < all.size(); ++r) {
      FELIS_CHECK(all[r].size() % sizeof(T) == 0);
      out[r].resize(all[r].size() / sizeof(T));
      if (!all[r].empty()) std::memcpy(out[r].data(), all[r].data(), all[r].size());
    }
    return out;
  }
};

/// Single-rank communicator.
class SelfComm final : public Communicator {
 public:
  int rank() const override { return 0; }
  int size() const override { return 1; }
  void barrier() override {}
  void allreduce(real_t*, usize, ReduceOp) override {}
  void allreduce(gidx_t*, usize, ReduceOp) override {}
  std::vector<std::vector<std::byte>> allgatherv_bytes(
      const std::vector<std::byte>& mine) override {
    return {mine};
  }
  void send_bytes(int dest, int tag, const void* data, usize bytes) override;
  std::vector<std::byte> recv_bytes(int source, int tag) override;

 private:
  // Self-sends on a single rank: a simple tag-keyed mailbox.
  std::vector<std::pair<int, std::vector<std::byte>>> mailbox_;
};

/// Run `body(comm)` on `nranks` simulated ranks (threads). Exceptions thrown
/// by any rank are re-thrown (the first one) after all threads join.
void run_parallel(int nranks, const std::function<void(Communicator&)>& body);

}  // namespace felis::comm
