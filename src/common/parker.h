// Spin-then-park eventcount: the one sleep/wake primitive behind the delegation workers,
// threads waiting on a delegated batch, and the op-ring drainer.
//
// A waiter calls Await(ready) with a predicate over state other threads publish; a
// notifier publishes its change and then calls NotifyOne/NotifyAll. No wakeup is lost:
// the waiter registers as a sleeper, issues a seq_cst fence, and only then re-checks
// `ready` one last time before sleeping; the notifier fences after publishing and only
// then looks for sleepers. One of the two always sees the other's write, so either the
// waiter's re-check sees the change or the notifier sees the sleeper and wakes it.
//
// Cost: with nobody parked a notify is one fence and one load, no lock and no syscall.
// The mutex and condition variable are touched only on the park path.

#ifndef SRC_COMMON_PARKER_H_
#define SRC_COMMON_PARKER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "src/common/spinlock.h"

namespace trio {

class Parker {
 public:
  // Rounds Await re-checks `ready` before parking: long enough to ride out a short gap
  // between submissions without a futex round trip, short enough that an idle thread
  // soon stops burning its CPU.
  static constexpr uint32_t kSpinRounds = 4096;

  Parker() = default;
  Parker(const Parker&) = delete;
  Parker& operator=(const Parker&) = delete;

  // Returns once `ready()` holds, or after any notify issued since this call registered
  // as a sleeper, even if `ready()` is still false (callers loop and re-examine their
  // state). Returns true iff the caller slept.
  template <typename Ready>
  bool Await(const Ready& ready) {
    for (uint32_t spin = 0; spin < kSpinRounds; ++spin) {
      if (ready()) {
        return false;
      }
      // Mostly pause, but cede the CPU now and then: on a machine with fewer cores than
      // threads, the notifier may need this slice to produce what we are waiting for.
      if ((spin & 63u) == 63u) {
        std::this_thread::yield();
      } else {
        CpuRelax();
      }
    }
    std::unique_lock<std::mutex> lock(mutex_);
    sleepers_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);  // Pairs with Notify's fence.
    const bool sleep = !ready();
    if (sleep) {
      const uint64_t epoch = epoch_;
      cv_.wait(lock, [&] { return epoch_ != epoch; });
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    return sleep;
  }

  // Call after publishing the change a waiter's `ready` observes.
  void NotifyOne() { Notify(/*all=*/false); }
  void NotifyAll() { Notify(/*all=*/true); }

  // Threads registered in Await's park path (an idle consumer reports itself here).
  uint32_t sleepers() const { return sleepers_.load(std::memory_order_seq_cst); }

 private:
  void Notify(bool all) {
    std::atomic_thread_fence(std::memory_order_seq_cst);  // Pairs with Await's fence.
    if (sleepers_.load(std::memory_order_relaxed) == 0) {
      return;
    }
    {
      // A sleeper registers and waits under the mutex, so it cannot miss this bump.
      std::lock_guard<std::mutex> guard(mutex_);
      ++epoch_;
    }
    if (all) {
      cv_.notify_all();
    } else {
      cv_.notify_one();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  uint64_t epoch_ = 0;  // Guarded by mutex_; bumped by every notify that finds a sleeper.
  std::atomic<uint32_t> sleepers_{0};
};

}  // namespace trio

#endif  // SRC_COMMON_PARKER_H_
