// Deadline watchdog for untrusted LibFS callbacks (§4.3's fix-with-timeout, generalized
// to every callback the kernel runs: fix_corruption, recovery programs, revoke).
//
// A LibFS callback is arbitrary user code: it may hang forever, and the kernel must not
// hang with it. Run() executes a callback on a pooled helper thread under a wall-clock
// budget counted from the call. The caller sleeps until the callback returns or the
// deadline passes. If it returns in time, the helper parks back into the pool (so
// steady-state cost is one condition-variable round trip per call, not a thread spawn)
// and Run() returns true. On an overrun it returns false and abandons the helper: the
// helper stays detached inside the hung callback until that eventually returns, then
// exits without ever touching the pool again.
//
// Contract for callers: a task handed to the guard may outlive the call, so it must own
// its state — capture by value / shared_ptr, and report results through memory the task
// keeps alive. The kernel escalates on timeout (forced release, checkpoint rollback, full
// re-verification); a late-returning callback finds its session already torn down and its
// kernel entry points fail closed.
//
// Placement: a callback runs on a helper with the CALLER's CPU affinity. Idle helpers are
// pooled per affinity mask, and a new helper is spawned from the calling thread, so it
// inherits that mask. A caller pinned to one CPU thus runs its callback on that CPU, which
// idles while the caller waits and whose cache already holds the records the callback
// touches; a helper on another CPU would add a remote wake-up at both ends of the handoff
// and run the callback on a cold cache. An unpinned caller gets unpinned helpers: pinning
// one to the CPU an unpinned caller happens to be on would strand it behind that CPU's
// run queue, turning a slow revoke into a forced release under load.

#ifndef SRC_KERNEL_WATCHDOG_H_
#define SRC_KERNEL_WATCHDOG_H_

#if defined(__linux__)
#include <sched.h>
#endif

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace trio {

class CallbackGuard {
 public:
  CallbackGuard() = default;
  CallbackGuard(const CallbackGuard&) = delete;
  CallbackGuard& operator=(const CallbackGuard&) = delete;

  ~CallbackGuard() {
    std::lock_guard<std::mutex> guard(mutex_);
    for (auto& worker : idle_) {
      {
        std::lock_guard<std::mutex> wg(worker->mutex);
        worker->exit = true;
      }
      worker->cv.notify_one();
    }
    idle_.clear();  // Abandoned workers were never returned here; they exit on their own.
  }

  // Runs `fn` under a wall-clock deadline. True iff it completed within `timeout_ms`.
  bool Run(uint64_t timeout_ms, std::function<void()> fn) {
    std::shared_ptr<Worker> worker = Acquire();
    std::unique_lock<std::mutex> wl(worker->mutex);
    // The budget runs from now: the helper may be slow to wake, and the deadline must not
    // depend on it.
    const SteadyClock::time_point deadline =
        SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
    worker->task = std::move(fn);
    worker->has_task = true;
    worker->done = false;
    wl.unlock();
    worker->cv.notify_one();
    wl.lock();
    if (!worker->done_cv.wait_until(wl, deadline, [&] { return worker->done; })) {
      // Still holding worker->mutex: the helper is stuck inside the callback (it re-takes
      // the mutex only after the callback returns), so this flag is race-free. It tells
      // the helper to exit, running nothing more, when the callback finally finishes.
      worker->abandoned = true;
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    wl.unlock();
    Release(std::move(worker));
    return true;
  }

  uint64_t timeouts() const { return timeouts_.load(std::memory_order_relaxed); }

 private:
  using SteadyClock = std::chrono::steady_clock;
#if defined(__linux__)
  using Affinity = std::array<unsigned char, sizeof(cpu_set_t)>;
#else
  using Affinity = std::array<unsigned char, 0>;  // No affinity query: one shared pool.
#endif

  // The calling thread's CPU affinity mask (all-zero if the query fails).
  static Affinity CallerAffinity() {
    Affinity affinity{};
#if defined(__linux__)
    cpu_set_t set{};
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      std::memcpy(affinity.data(), &set, sizeof(set));
    }
#endif
    return affinity;
  }

  struct Worker {
    std::mutex mutex;
    std::condition_variable cv;       // Helper waits here for a callback (or exit).
    std::condition_variable done_cv;  // Caller waits here for the callback to return.
    std::function<void()> task;
    bool has_task = false;
    bool done = false;  // The current callback has returned.
    bool exit = false;
    bool abandoned = false;
    Affinity affinity{};  // The spawning caller's mask; the helper runs under it.
  };

  std::shared_ptr<Worker> Acquire() {
    const Affinity affinity = CallerAffinity();
    {
      std::lock_guard<std::mutex> guard(mutex_);
      for (auto it = idle_.rbegin(); it != idle_.rend(); ++it) {
        if ((*it)->affinity == affinity) {
          std::shared_ptr<Worker> worker = std::move(*it);
          idle_.erase(std::next(it).base());
          return worker;
        }
      }
    }
    auto worker = std::make_shared<Worker>();
    worker->affinity = affinity;
    // Spawned from the calling thread, so the helper inherits the caller's affinity mask.
    // Detached: joining is impossible in the abandoned case, and the shared_ptr keeps the
    // Worker alive for whichever side (caller or helper) finishes last.
    std::thread([worker] {
      std::unique_lock<std::mutex> wl(worker->mutex);
      while (true) {
        worker->cv.wait(wl, [&] { return worker->has_task || worker->exit; });
        if (worker->exit) {
          return;
        }
        std::function<void()> task = std::move(worker->task);
        worker->task = nullptr;
        worker->has_task = false;
        wl.unlock();
        task();
        wl.lock();
        if (worker->abandoned) {
          return;  // The caller gave up on this callback.
        }
        worker->done = true;
        // Unlocked first, so the woken caller does not block on the mutex we hold.
        wl.unlock();
        worker->done_cv.notify_one();
        wl.lock();
      }
    }).detach();
    return worker;
  }

  void Release(std::shared_ptr<Worker> worker) {
    std::lock_guard<std::mutex> guard(mutex_);
    idle_.push_back(std::move(worker));
  }

  mutable std::mutex mutex_;
  // Parked helpers of every affinity; a caller takes the most recent one matching its own.
  std::vector<std::shared_ptr<Worker>> idle_;
  std::atomic<uint64_t> timeouts_{0};
};

}  // namespace trio

#endif  // SRC_KERNEL_WATCHDOG_H_
