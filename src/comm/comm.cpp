#include "comm/comm.hpp"

#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

// Locking discipline
// ------------------
// `SimWorld` holds three independent lock domains; none is ever held while
// acquiring another, so there is no lock ordering to violate:
//
//  * `barrier_mutex_`  — barrier count + generation counter. The generation
//    counter disambiguates consecutive barriers (a rank that wakes late must
//    not count toward the *next* barrier's quorum); it is only ever read or
//    written under this mutex.
//  * `reduce_slots_`   — no mutex: in allreduce phase 1 each rank writes
//    only its own slot; the barrier that follows publishes every slot, after
//    which phase 2 reads are lock-free and race-free because nobody writes
//    until the *second* barrier retires the slots for reuse. The same
//    publish/retire pattern covers `gather_slots_`.
//  * `gather_mutex_`   — `gather_slots_` writes in allgatherv phase 1.
//  * per-mailbox mutex — each rank's mailbox has its own mutex + condvar;
//    senders lock only the destination mailbox, receivers only their own.
//
// All cross-rank happens-before edges therefore flow through either a mutex
// or the barrier (itself mutex+condvar), which both TSan and the C++ memory
// model recognise.
namespace felis::comm {

void SelfComm::send_bytes(int dest, int tag, const void* data, usize bytes) {
  FELIS_CHECK_MSG(dest == 0, "SelfComm: destination rank out of range");
  std::vector<std::byte> blob(bytes);
  if (bytes) std::memcpy(blob.data(), data, bytes);
  mailbox_.emplace_back(tag, std::move(blob));
}

std::vector<std::byte> SelfComm::recv_bytes(int source, int tag) {
  FELIS_CHECK_MSG(source == 0, "SelfComm: source rank out of range");
  for (auto it = mailbox_.begin(); it != mailbox_.end(); ++it) {
    if (it->first == tag) {
      std::vector<std::byte> blob = std::move(it->second);
      mailbox_.erase(it);
      return blob;
    }
  }
  throw Error("SelfComm::recv_bytes: no matching message for tag " +
              std::to_string(tag));
}

namespace {

/// Shared state for one simulated world of R ranks.
class SimWorld {
 public:
  explicit SimWorld(int nranks)
      : nranks_(nranks),
        mailboxes_(static_cast<usize>(nranks)),
        reduce_slots_(static_cast<usize>(nranks)) {}

  int nranks() const { return nranks_; }

  void barrier() {
    std::unique_lock<std::mutex> lock(barrier_mutex_);
    const std::int64_t gen = barrier_generation_;
    if (++barrier_count_ == nranks_) {
      barrier_count_ = 0;
      ++barrier_generation_;
      barrier_cv_.notify_all();
    } else {
      barrier_cv_.wait(lock, [&] { return barrier_generation_ != gen; });
    }
  }

  template <typename T, typename Combine>
  void allreduce(int rank, T* data, usize count, Combine combine) {
    // Phase 1: publish this rank's contribution in its own slot. A slot
    // keeps its capacity, so steady-state reductions do not allocate.
    const usize bytes = count * sizeof(T);
    std::vector<std::byte>& mine = reduce_slots_[static_cast<usize>(rank)];
    mine.resize(bytes);
    if (count) std::memcpy(mine.data(), data, bytes);
    barrier();
    // Phase 2: every rank combines slots 0..R-1 in rank order, so the result
    // is bitwise the same whichever rank arrived first (floating-point sums
    // are not associative). A second barrier before any rank may start the
    // next reduction guards slot reuse.
    for (usize r = 0; r < reduce_slots_.size(); ++r) {
      FELIS_CHECK_MSG(reduce_slots_[r].size() == bytes,
                      "mismatched allreduce sizes across ranks");
      const std::byte* contrib = reduce_slots_[r].data();
      for (usize i = 0; i < count; ++i) {
        T v{};
        std::memcpy(&v, contrib + i * sizeof(T), sizeof(T));
        data[i] = r == 0 ? v : combine(data[i], v);
      }
    }
    barrier();
  }

  std::vector<std::vector<std::byte>> allgatherv(
      int rank, const std::vector<std::byte>& mine) {
    {
      std::unique_lock<std::mutex> lock(gather_mutex_);
      gather_slots_.resize(static_cast<usize>(nranks_));
      gather_slots_[static_cast<usize>(rank)] = mine;
    }
    barrier();
    std::vector<std::vector<std::byte>> out = gather_slots_;
    barrier();  // all ranks copied; safe to reuse slots afterwards
    return out;
  }

  void send(int source, int dest, int tag, const void* data, usize bytes) {
    FELIS_CHECK_MSG(dest >= 0 && dest < nranks_, "send: destination out of range");
    Mailbox& box = mailboxes_[static_cast<usize>(dest)];
    std::vector<std::byte> blob(bytes);
    if (bytes) std::memcpy(blob.data(), data, bytes);
    {
      std::unique_lock<std::mutex> lock(box.mutex);
      box.messages.push_back({source, tag, std::move(blob)});
    }
    box.cv.notify_all();
  }

  std::vector<std::byte> recv(int rank, int source, int tag) {
    FELIS_CHECK_MSG(source >= 0 && source < nranks_, "recv: source out of range");
    Mailbox& box = mailboxes_[static_cast<usize>(rank)];
    std::unique_lock<std::mutex> lock(box.mutex);
    for (;;) {
      for (auto it = box.messages.begin(); it != box.messages.end(); ++it) {
        if (it->source == source && it->tag == tag) {
          std::vector<std::byte> blob = std::move(it->payload);
          box.messages.erase(it);
          return blob;
        }
      }
      box.cv.wait(lock);
    }
  }

 private:
  struct Message {
    int source;
    int tag;
    std::vector<std::byte> payload;
  };
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Message> messages;
  };

  int nranks_;
  std::vector<Mailbox> mailboxes_;

  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::int64_t barrier_generation_ = 0;

  std::vector<std::vector<std::byte>> reduce_slots_;  ///< one per rank

  std::mutex gather_mutex_;
  std::vector<std::vector<std::byte>> gather_slots_;
};

class SimComm final : public Communicator {
 public:
  SimComm(SimWorld& world, int rank) : world_(world), rank_(rank) {}

  int rank() const override { return rank_; }
  int size() const override { return world_.nranks(); }
  void barrier() override { world_.barrier(); }

  void allreduce(real_t* data, usize count, ReduceOp op) override {
    dispatch(data, count, op);
  }
  void allreduce(gidx_t* data, usize count, ReduceOp op) override {
    dispatch(data, count, op);
  }

  std::vector<std::vector<std::byte>> allgatherv_bytes(
      const std::vector<std::byte>& mine) override {
    return world_.allgatherv(rank_, mine);
  }

  void send_bytes(int dest, int tag, const void* data, usize bytes) override {
    world_.send(rank_, dest, tag, data, bytes);
  }
  std::vector<std::byte> recv_bytes(int source, int tag) override {
    return world_.recv(rank_, source, tag);
  }

 private:
  template <typename T>
  void dispatch(T* data, usize count, ReduceOp op) {
    switch (op) {
      case ReduceOp::kSum:
        world_.allreduce(rank_, data, count, [](T a, T b) { return a + b; });
        break;
      case ReduceOp::kMin:
        world_.allreduce(rank_, data, count, [](T a, T b) { return a < b ? a : b; });
        break;
      case ReduceOp::kMax:
        world_.allreduce(rank_, data, count, [](T a, T b) { return a > b ? a : b; });
        break;
    }
  }

  SimWorld& world_;
  int rank_;
};

}  // namespace

void run_parallel(int nranks, const std::function<void(Communicator&)>& body) {
  FELIS_CHECK(nranks >= 1);
  if (nranks == 1) {
    SelfComm comm;
    body(comm);
    return;
  }
  SimWorld world(nranks);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<usize>(nranks));
  threads.reserve(static_cast<usize>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        SimComm comm(world, r);
        body(comm);
      } catch (...) {
        errors[static_cast<usize>(r)] = std::current_exception();
        // A failed rank must not leave peers blocked in a collective forever;
        // there is no clean way to cancel them, so we simply record the error.
        // Peers blocked on this rank's messages would deadlock — tests keep
        // failure paths single-rank for this reason.
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace felis::comm
