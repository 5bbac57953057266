// Shared worker-pool primitives. Two layers:
//
//   WorkerPool  a persistent gang: run(f) executes f(rank) on every worker
//               concurrently and blocks until all finish. Originally the
//               dist rank simulator's engine (dist/context.hpp); promoted
//               here so the serve/ ensemble scheduler and dist/ share one
//               implementation.
//   WorkQueue   a submission layer over the gang for task-farm scheduling:
//               producers push integer work ids, gang workers acquire()
//               exclusive ownership of one id at a time and release() it
//               (optionally re-enqueueing). acquire() returns nullopt only
//               when the queue is drained AND nothing is in flight — an
//               in-flight item may still requeue, so idle workers park on
//               the condition variable instead of spinning or exiting
//               early.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace opv {

/// Runs f(rank) for every rank concurrently and blocks until all finish.
/// The rank threads are persistent (one per rank for the pool's lifetime),
/// so repeated run() calls — one per parallel loop in a timestep-driven
/// application — pay a condition-variable wakeup, not a thread spawn. The
/// first exception thrown by any rank is rethrown in the caller.
class WorkerPool {
 public:
  explicit WorkerPool(int nranks) {
    OPV_REQUIRE(nranks >= 1, "WorkerPool: need at least one rank");
    state_.nranks = nranks;
    threads_.reserve(nranks);
    for (int r = 0; r < nranks; ++r) threads_.emplace_back([this, r] { worker(r); });
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(state_.mu);
      state_.stop = true;
    }
    state_.start_cv.notify_all();
    for (auto& t : threads_) t.join();
  }

  template <class F>
  void run(F&& f) {
    const std::function<void(int)> job(std::forward<F>(f));
    State& s = state_;
    std::unique_lock<std::mutex> lock(s.mu);
    s.job = &job;
    s.pending = s.nranks;
    ++s.generation;
    s.start_cv.notify_all();
    s.done_cv.wait(lock, [&] { return s.pending == 0; });
    s.job = nullptr;
    if (s.error) {
      const std::exception_ptr e = s.error;
      s.error = nullptr;
      std::rethrow_exception(e);
    }
  }

  [[nodiscard]] int size() const { return state_.nranks; }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable start_cv, done_cv;
    const std::function<void(int)>* job = nullptr;
    std::uint64_t generation = 0;
    int pending = 0;
    int nranks = 0;
    bool stop = false;
    std::exception_ptr error;
  };

  void worker(int r) {
    State& s = state_;
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(s.mu);
        s.start_cv.wait(lock, [&] { return s.stop || s.generation != seen; });
        if (s.stop) return;
        seen = s.generation;
        job = s.job;
      }
      try {
        (*job)(r);
      } catch (...) {
        std::lock_guard<std::mutex> lock(s.mu);
        if (!s.error) s.error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(s.mu);
        if (--s.pending == 0) s.done_cv.notify_all();
      }
    }
  }

  State state_;
  std::vector<std::thread> threads_;
};

/// A blocking multi-producer multi-consumer queue of integer work ids, the
/// submission layer the ensemble scheduler (serve/ensemble.hpp) drives over
/// a WorkerPool gang. Ownership is exclusive: an id handed out by acquire()
/// cannot be acquired again until release()d, which is what lets each item
/// carry non-thread-safe state (a simulation instance) while many workers
/// drain the queue.
///
/// Termination: acquire() blocks while the queue is empty but work is still
/// in flight (the owner may requeue it) and returns nullopt once the queue
/// is empty with nothing in flight, or after close(). Workers therefore
/// loop `while (auto id = q.acquire()) { ...; q.release(*id, more); }` and
/// all exit exactly when no item can ever appear again.
///
/// Two priority levels: requeue_front()/release(..., front=true) place an id
/// in the urgent lane, drained ahead of the normal FIFO — the resilience
/// scheduler uses it so a retried instance re-enters ahead of fresh work and
/// its recovery latency stays bounded. An aging rule prevents starvation:
/// after kBurst consecutive urgent grabs, one normal-lane id is served even
/// if urgent work is still pending.
class WorkQueue {
 public:
  static constexpr int kBurst = 4;

  /// Enqueue an id (FIFO). Safe from any thread, including an owner
  /// re-submitting a different id.
  void push(int id) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      q_.push_back(id);
    }
    cv_.notify_one();
  }

  /// Enqueue an id into the urgent lane, served ahead of normal pushes
  /// (subject to the anti-starvation burst limit).
  void requeue_front(int id) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pri_.push_back(id);
    }
    cv_.notify_one();
  }

  /// Block until an id is available (acquiring exclusive ownership), or
  /// until the queue can never yield one again (drained with nothing in
  /// flight, or closed) — then nullopt.
  [[nodiscard]] std::optional<int> acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !pri_.empty() || !q_.empty() || inflight_ == 0; });
    if (pri_.empty() && q_.empty()) return std::nullopt;  // closed or fully drained
    const bool take_pri = !pri_.empty() && (q_.empty() || pri_streak_ < kBurst);
    std::deque<int>& lane = take_pri ? pri_ : q_;
    pri_streak_ = take_pri ? pri_streak_ + 1 : 0;
    const int id = lane.front();
    lane.pop_front();
    ++inflight_;
    return id;
  }

  /// Give up ownership of an acquired id; requeue=true re-enqueues it for
  /// another acquire() (possibly by a different worker), in the urgent lane
  /// when front=true.
  void release(int id, bool requeue, bool front = false) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
      if (requeue && !closed_) (front ? pri_ : q_).push_back(id);
    }
    // Wake everyone: a requeue frees one item, but a drain (inflight
    // reaching 0 with an empty queue) must release ALL parked workers.
    cv_.notify_all();
  }

  /// Drop pending ids and wake every parked worker; subsequent acquire()
  /// calls return nullopt once in-flight items release.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      q_.clear();
      pri_.clear();
    }
    cv_.notify_all();
  }

  [[nodiscard]] std::size_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return q_.size() + pri_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> q_;    ///< normal lane (fresh work)
  std::deque<int> pri_;  ///< urgent lane (retries / deadline-ish work)
  int inflight_ = 0;
  int pri_streak_ = 0;  ///< consecutive urgent grabs since a normal one
  bool closed_ = false;
};

}  // namespace opv
