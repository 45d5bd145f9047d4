#include "comm/comm.hpp"

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "common/trace.hpp"

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
// A waiter first polls, as MPI's shared-memory transport does: for up to
// kPollWindow it spins on an atomic counter outside the mutex (the
// generation, or its mailbox's post count), yielding the core every
// kPollsPerYield polls; only then does it take the mutex and sleep on the
// condition variable. The counters are written only under the mutex, with
// release stores, and the poll reads them with acquire loads: that edge
// carries every slot or message written under the mutex before the store to
// the poller, beside the mutex's own edges (TSan and the C++ memory model
// recognise both). Sleepers are counted under the mutex, and the last
// arriver or the sender notifies only when one is asleep; a waiter that
// takes the mutex after the store sees the new count and never sleeps, so
// no wake-up is lost. A failure is seen by a waiter once its poll window
// has run out, in the condition-variable wait.
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

/// How long a waiter spins before it sleeps. Measured on a 4-vCPU KVM host
/// (DESIGN.md §7): a 2-rank lockstep allreduce takes 0.7–1.2 µs with any
/// window from 10 to 200 µs against 7.3–7.7 µs with none, and a ping-pong
/// round trip 1.3–2.2 against 14–16 µs. 50 µs keeps that on waits behind a
/// peer that is a few tens of µs late, while a wait for a peer that is
/// milliseconds behind sleeps after burning at most this window.
constexpr double kPollWindow = 50e-6;
/// Polls between yields of the core (and clock reads).
constexpr int kPollsPerYield = 32;

/// Spin until `ready()` or until the poll window has passed; true if ready.
template <typename Ready>
bool poll(Ready ready) {
  const Stopwatch clock;
  for (int polls = 1;; ++polls) {
    if (ready()) return true;
    if (polls % kPollsPerYield == 0) {
      if (clock.seconds() > kPollWindow) return false;
      std::this_thread::yield();
    }
  }
}

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
    const std::int64_t gen = generation_.load(std::memory_order_relaxed);
    Bank& bank = banks_[static_cast<usize>(gen % 2)];
    const auto* mine = static_cast<const std::byte*>(data);
    bank[static_cast<usize>(rank)].assign(mine, mine + bytes);
    if (++arrived_ == nranks_) {
      arrived_ = 0;
      generation_.store(gen + 1, std::memory_order_release);
      if (sleepers_ > 0) cv_.notify_all();
      return bank;
    }
    lock.unlock();
    const auto moved_on = [&] {
      return generation_.load(std::memory_order_acquire) != gen;
    };
    if (poll(moved_on)) return bank;
    lock.lock();
    ++sleepers_;
    cv_.wait(lock, [&] { return moved_on() || error_; });
    --sleepers_;
    if (!moved_on()) throw_if_failed();  // woken by a failure
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
    box.posted.store(box.posted.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);
    if (box.sleepers > 0) box.cv.notify_all();
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
      // Wait for the next post to this mailbox, then look again.
      const std::uint64_t seen = box.posted.load(std::memory_order_relaxed);
      const auto posted = [&] {
        return box.posted.load(std::memory_order_acquire) != seen;
      };
      lock.unlock();
      const bool arrived = poll(posted);
      lock.lock();
      if (arrived) continue;
      ++box.sleepers;
      box.cv.wait(lock, [&] { return posted() || error_; });
      --box.sleepers;
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
    std::atomic<std::uint64_t> posted{0};  ///< messages ever sent here
    int sleepers = 0;                      ///< receivers asleep on cv
  };

  void throw_if_failed() const {
    if (error_) throw PeerFailed("a peer rank of this simulated world failed");
  }

  int nranks_;
  std::mutex mutex_;
  std::vector<Mailbox> mailboxes_;
  std::condition_variable cv_;  ///< rendezvous
  int arrived_ = 0;
  int sleepers_ = 0;  ///< ranks asleep on cv_
  std::atomic<std::int64_t> generation_{0};
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
