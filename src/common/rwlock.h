// Readers-writer locks.
//
// RwLock: a writer-preferring counter-based rwlock (the baseline primitive).
// BravoRwLock: BRAVO-style biased locking [Dice & Kogan, ATC'19], the technique ArckFS cites
// for its inode/range locks (§4.5). Readers publish themselves in a global visible-readers
// table and skip the underlying lock entirely on the fast path; writers flip the bias off,
// wait for the table to drain, and then take the underlying lock. A reader that finds the
// bias off turns it back on, so a lock only writers use pays the table scan once.

#ifndef SRC_COMMON_RWLOCK_H_
#define SRC_COMMON_RWLOCK_H_

#include <atomic>
#include <cstdint>

#include "src/common/spinlock.h"

namespace trio {

class RwLock {
 public:
  RwLock() = default;
  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  void lock_shared() {
    while (true) {
      int32_t s = state_.load(std::memory_order_relaxed);
      if (s >= 0 && !writer_waiting_.load(std::memory_order_relaxed)) {
        if (state_.compare_exchange_weak(s, s + 1, std::memory_order_acquire)) {
          return;
        }
      } else {
        CpuRelax();
      }
    }
  }

  bool try_lock_shared() {
    int32_t s = state_.load(std::memory_order_relaxed);
    return s >= 0 && !writer_waiting_.load(std::memory_order_relaxed) &&
           state_.compare_exchange_strong(s, s + 1, std::memory_order_acquire);
  }

  void unlock_shared() { state_.fetch_sub(1, std::memory_order_release); }

  void lock() {
    writer_waiting_.store(true, std::memory_order_relaxed);
    while (true) {
      int32_t expected = 0;
      if (state_.compare_exchange_weak(expected, -1, std::memory_order_acquire)) {
        writer_waiting_.store(false, std::memory_order_relaxed);
        return;
      }
      CpuRelax();
    }
  }

  bool try_lock() {
    int32_t expected = 0;
    return state_.compare_exchange_strong(expected, -1, std::memory_order_acquire);
  }

  void unlock() { state_.store(0, std::memory_order_release); }

 private:
  // >0: reader count; 0: free; -1: writer.
  std::atomic<int32_t> state_{0};
  std::atomic<bool> writer_waiting_{false};
};

// Global visible-readers table shared by all BravoRwLocks, as in the BRAVO paper.
// A slot holds the lock pointer while a fast-path reader is inside.
class BravoReaderTable {
 public:
  static constexpr int kSlots = 1024;

  static BravoReaderTable& Instance() {
    static BravoReaderTable table;
    return table;
  }

  // Mix the thread id and lock address into a slot index.
  static int SlotFor(const void* lock, uint64_t thread_token) {
    uint64_t h = reinterpret_cast<uint64_t>(lock) >> 4;
    h = h * 0x9e3779b97f4a7c15ull + thread_token * 0xff51afd7ed558ccdull;
    h ^= h >> 29;
    return static_cast<int>(h % kSlots);
  }

  std::atomic<const void*>& slot(int i) { return slots_[i]; }

 private:
  BravoReaderTable() {
    for (auto& s : slots_) {
      s.store(nullptr, std::memory_order_relaxed);
    }
  }
  std::atomic<const void*> slots_[kSlots];
};

class BravoRwLock {
 public:
  BravoRwLock() = default;
  BravoRwLock(const BravoRwLock&) = delete;
  BravoRwLock& operator=(const BravoRwLock&) = delete;

  void lock_shared() {
    if (bias_enabled_.load(std::memory_order_acquire)) {
      const int slot = BravoReaderTable::SlotFor(this, ThreadToken());
      auto& cell = BravoReaderTable::Instance().slot(slot);
      const void* expected = nullptr;
      if (cell.compare_exchange_strong(expected, this, std::memory_order_acquire)) {
        // Re-check bias after publishing (BRAVO's race window close).
        if (bias_enabled_.load(std::memory_order_acquire)) {
          return;  // Fast path: never touched underlying_.
        }
        cell.store(nullptr, std::memory_order_release);
      }
    }
    underlying_.lock_shared();
    // Holding the lock shared, no writer is inside: a reader that needed the bias turns
    // it back on, with the writers' hysteresis (after the first two writers and every
    // 8th). A lock no reader uses keeps it off, so its writers scan the table once.
    if ((writer_count_ % 8 == 0 || revocations_ < 2) &&
        !bias_enabled_.load(std::memory_order_relaxed)) {
      bias_enabled_.store(true, std::memory_order_release);
    }
  }

  void unlock_shared() {
    const int slot = BravoReaderTable::SlotFor(this, ThreadToken());
    auto& cell = BravoReaderTable::Instance().slot(slot);
    if (cell.load(std::memory_order_relaxed) == this) {
      cell.store(nullptr, std::memory_order_release);
      return;
    }
    underlying_.unlock_shared();
  }

  void lock() {
    underlying_.lock();
    if (bias_enabled_.load(std::memory_order_relaxed)) {
      bias_enabled_.store(false, std::memory_order_release);
      // Wait for all fast-path readers of this lock to drain out of the global table.
      auto& table = BravoReaderTable::Instance();
      for (int i = 0; i < BravoReaderTable::kSlots; ++i) {
        while (table.slot(i).load(std::memory_order_acquire) == this) {
          CpuRelax();
        }
      }
      revocations_++;
    }
  }

  void unlock() {
    ++writer_count_;
    underlying_.unlock();
  }

  // Times a writer revoked the bias and scanned the visible-readers table. Read it while
  // no writer is inside.
  uint64_t revocations() const { return revocations_; }

 private:
  static uint64_t ThreadToken() {
    static std::atomic<uint64_t> next{1};
    thread_local uint64_t token = next.fetch_add(1);
    return token;
  }

  RwLock underlying_;
  std::atomic<bool> bias_enabled_{true};
  // Written holding underlying_ exclusively, read holding it either way.
  uint64_t writer_count_ = 0;
  uint64_t revocations_ = 0;
};

// RAII guards.
template <typename Lock>
class ReadGuard {
 public:
  explicit ReadGuard(Lock& lock) : lock_(&lock) { lock_->lock_shared(); }
  ~ReadGuard() {
    if (lock_ != nullptr) {
      lock_->unlock_shared();
    }
  }
  ReadGuard(const ReadGuard&) = delete;
  ReadGuard& operator=(const ReadGuard&) = delete;
  void Release() {
    lock_->unlock_shared();
    lock_ = nullptr;
  }

 private:
  Lock* lock_;
};

template <typename Lock>
class WriteGuard {
 public:
  explicit WriteGuard(Lock& lock) : lock_(&lock) { lock_->lock(); }
  ~WriteGuard() {
    if (lock_ != nullptr) {
      lock_->unlock();
    }
  }
  WriteGuard(const WriteGuard&) = delete;
  WriteGuard& operator=(const WriteGuard&) = delete;
  void Release() {
    lock_->unlock();
    lock_ = nullptr;
  }

 private:
  Lock* lock_;
};

}  // namespace trio

#endif  // SRC_COMMON_RWLOCK_H_
