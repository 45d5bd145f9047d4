#include "comm/comm.hpp"

#include <array>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

// Locking discipline
// ------------------
// One mutex, `SimWorld::mutex_`, guards all of a world's shared state: the
// mailboxes, the rendezvous (arrival count, generation counter, the two slot
// banks) and the first error. Each mailbox has its own condition variable,
// so a send wakes only the receiving rank's waiters.
//
// Rendezvous g uses bank g % 2: a rank copies its bytes into its slot under
// the mutex and waits once, for the generation to move on; it then reads the
// bank without the lock. Nobody writes that bank again before rendezvous
// g + 2, which no rank can enter before every rank has arrived at g + 1,
// i.e. has finished reading bank g % 2. The generation counter also keeps a
// rank that wakes late from counting toward the next rendezvous' quorum.
//
// All cross-rank happens-before edges therefore flow through the mutex,
// which both TSan and the C++ memory model recognise.
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
  using Bank = std::vector<std::vector<std::byte>>;  ///< one slot per rank

  explicit SimWorld(int nranks)
      : nranks_(nranks),
        mailboxes_(static_cast<usize>(nranks)),
        banks_{Bank(static_cast<usize>(nranks)), Bank(static_cast<usize>(nranks))} {}

  int nranks() const { return nranks_; }

  /// Every collective: publish `bytes` of `data` in this rank's slot of the
  /// current bank and wait once, until every rank has published. The
  /// returned bank (slots in rank order) stays intact until this rank's next
  /// rendezvous. A slot keeps its capacity, so steady-state calls do not
  /// allocate.
  const Bank& rendezvous(int rank, const void* data, usize bytes) {
    std::unique_lock<std::mutex> lock(mutex_);
    throw_if_failed();
    const std::int64_t gen = generation_;
    Bank& bank = banks_[static_cast<usize>(gen % 2)];
    const auto* mine = static_cast<const std::byte*>(data);
    bank[static_cast<usize>(rank)].assign(mine, mine + bytes);
    if (++arrived_ == nranks_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != gen || error_; });
      if (generation_ == gen) throw_if_failed();  // woken by a failure
    }
    return bank;
  }

  template <typename T, typename Combine>
  void allreduce(int rank, T* data, usize count, Combine combine) {
    const usize bytes = count * sizeof(T);
    const Bank& bank = rendezvous(rank, data, bytes);
    // Every rank combines slots 0..R-1 in rank order, so the result is
    // bitwise the same whichever rank arrived first (floating-point sums
    // are not associative).
    for (usize r = 0; r < bank.size(); ++r) {
      FELIS_CHECK_MSG(bank[r].size() == bytes,
                      "mismatched allreduce sizes across ranks");
      const std::byte* contrib = bank[r].data();
      for (usize i = 0; i < count; ++i) {
        T v{};
        std::memcpy(&v, contrib + i * sizeof(T), sizeof(T));
        data[i] = r == 0 ? v : combine(data[i], v);
      }
    }
  }

  void send(int source, int dest, int tag, const void* data, usize bytes) {
    FELIS_CHECK_MSG(dest >= 0 && dest < nranks_, "send: destination out of range");
    Mailbox& box = mailboxes_[static_cast<usize>(dest)];
    std::vector<std::byte> blob(bytes);
    if (bytes) std::memcpy(blob.data(), data, bytes);
    const std::lock_guard<std::mutex> lock(mutex_);
    box.messages.push_back({source, tag, std::move(blob)});
    box.cv.notify_all();
  }

  /// A message that has arrived is delivered even after a failure; only a
  /// receive that would wait throws.
  std::vector<std::byte> recv(int rank, int source, int tag) {
    FELIS_CHECK_MSG(source >= 0 && source < nranks_, "recv: source out of range");
    Mailbox& box = mailboxes_[static_cast<usize>(rank)];
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      for (auto it = box.messages.begin(); it != box.messages.end(); ++it) {
        if (it->source == source && it->tag == tag) {
          std::vector<std::byte> blob = std::move(it->payload);
          box.messages.erase(it);
          return blob;
        }
      }
      throw_if_failed();
      box.cv.wait(lock);
    }
  }

  /// Fail the world with a rank's error and wake every rank waiting in it.
  /// The first error is kept: a PeerFailed is only thrown after it.
  void fail(std::exception_ptr error) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::move(error);
    cv_.notify_all();
    for (Mailbox& box : mailboxes_) box.cv.notify_all();
  }

  /// Read once every rank has joined.
  const std::exception_ptr& error() const { return error_; }

 private:
  struct Message {
    int source;
    int tag;
    std::vector<std::byte> payload;
  };
  struct Mailbox {
    std::condition_variable cv;
    std::deque<Message> messages;
  };

  void throw_if_failed() const {
    if (error_) throw PeerFailed("a peer rank of this simulated world failed");
  }

  int nranks_;
  std::mutex mutex_;
  std::vector<Mailbox> mailboxes_;
  std::condition_variable cv_;  ///< rendezvous
  int arrived_ = 0;
  std::int64_t generation_ = 0;
  std::array<Bank, 2> banks_;
  std::exception_ptr error_;  ///< the first error a rank threw
};

class SimComm final : public Communicator {
 public:
  SimComm(SimWorld& world, int rank) : world_(world), rank_(rank) {}

  int rank() const override { return rank_; }
  int size() const override { return world_.nranks(); }
  void barrier() override { world_.rendezvous(rank_, nullptr, 0); }

  void allreduce(real_t* data, usize count, ReduceOp op) override {
    dispatch(data, count, op);
  }
  void allreduce(gidx_t* data, usize count, ReduceOp op) override {
    dispatch(data, count, op);
  }

  std::vector<std::vector<std::byte>> allgatherv_bytes(
      const std::vector<std::byte>& mine) override {
    return world_.rendezvous(rank_, mine.data(), mine.size());
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
  threads.reserve(static_cast<usize>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        SimComm comm(world, r);
        body(comm);
      } catch (...) {
        world.fail(std::current_exception());
      }
    });
  }
  for (auto& t : threads) t.join();
  if (world.error()) std::rethrow_exception(world.error());
}

}  // namespace felis::comm
