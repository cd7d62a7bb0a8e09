// Sharding primitives for the kernel controller scale-out (DESIGN.md §4.10):
//
//  * ShardRank — an always-on, thread-local lock-order guard. Shard mutexes are plain
//    (non-recursive) std::mutex; the one legal order is ascending shard index, and any
//    acquisition that would violate it aborts immediately instead of deadlocking later.
//    This is what makes the "*Locked requires the lock" discipline enforceable — the
//    recursive mutex it replaces silently forgave both reentry and order inversions.
//  * OrderedShardSpan — the two-phase cross-shard acquire: collect the shard set, sort
//    ascending, take every lock, then mutate (rename across shards, ownership transfer
//    reconciliation, global scans). Deadlock-free by construction against every other
//    single- or multi-shard acquisition.

#ifndef SRC_KERNEL_SHARD_H_
#define SRC_KERNEL_SHARD_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/common/logging.h"
#include "src/obs/stats.h"

namespace trio {

// ---------------------------------------------------------------------------
// Lock-order guard
// ---------------------------------------------------------------------------

// Thread-local set of held shard ranks (bit i = shard i held). Acquire order must be
// strictly ascending, so taking rank i with any rank >= i already held is a latent ABBA
// deadlock — crash loudly at the acquisition site instead of hanging in production.
class ShardRank {
 public:
  static constexpr size_t kMaxShards = 64;

  static void Acquire(size_t rank) {
    TRIO_CHECK(rank < kMaxShards);
    const uint64_t held = held_mask_;
    TRIO_CHECK((held >> rank) == 0 &&
               "shard lock order violation: acquiring a shard with an equal or higher "
               "shard already held (take shards in ascending index order)");
    held_mask_ = held | (1ull << rank);
  }

  static void Release(size_t rank) { held_mask_ &= ~(1ull << rank); }

  static bool AnyHeld() { return held_mask_ != 0; }

  // LibFS callbacks and the integrity verifier must run with no shard held: a callback
  // that re-enters the controller would otherwise self-deadlock on a plain mutex.
  static void AssertNoneHeld() {
    TRIO_CHECK(held_mask_ == 0 &&
               "controller invoked untrusted code / blocking wait with a shard held");
  }

 private:
  static inline thread_local uint64_t held_mask_ = 0;
};

// One shard's mutex: a plain std::mutex that counts, in the counter it is given at
// construction, every acquisition that finds it held (try_lock first), so the bench gates
// can observe how often the 1-shard configuration serializes.
class ShardMutex {
 public:
  explicit ShardMutex(obs::Counter& contended) : contended_(&contended) {}

  void lock() {
    if (!mu_.try_lock()) {
      contended_->fetch_add(1);
      mu_.lock();
    }
  }
  std::mutex& raw() { return mu_; }

 private:
  std::mutex mu_;
  obs::Counter* contended_;
};

// RAII single-shard acquisition with rank checking. Exposes the underlying
// std::unique_lock so condition variables can wait on it (the rank set is unchanged by a
// cv wait: the same lock is released and reacquired).
class ShardLock {
 public:
  ShardLock(ShardMutex& mu, size_t rank) : rank_(rank) {
    ShardRank::Acquire(rank_);
    mu.lock();
    lock_ = std::unique_lock<std::mutex>(mu.raw(), std::adopt_lock);
  }

  ~ShardLock() {
    if (lock_.owns_lock()) {
      lock_.unlock();
    }
    ShardRank::Release(rank_);
  }

  std::unique_lock<std::mutex>& lock() { return lock_; }

  ShardLock(const ShardLock&) = delete;
  ShardLock& operator=(const ShardLock&) = delete;

 private:
  size_t rank_;
  std::unique_lock<std::mutex> lock_;
};

// Phase one of the two-phase cross-shard protocol: dedupe + sort the shard set. Phase
// two (OrderedShardSpan) then acquires strictly ascending.
inline std::vector<size_t> SortedShardSet(std::vector<size_t> shards) {
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

// RAII ordered multi-shard acquisition over externally owned ShardMutexes.
class OrderedShardSpan {
 public:
  OrderedShardSpan(std::vector<ShardMutex*> mutexes, std::vector<size_t> ranks)
      : mutexes_(std::move(mutexes)), ranks_(std::move(ranks)) {
    for (size_t i = 0; i < mutexes_.size(); ++i) {
      ShardRank::Acquire(ranks_[i]);
      mutexes_[i]->lock();
    }
  }

  ~OrderedShardSpan() {
    for (size_t i = mutexes_.size(); i-- > 0;) {
      mutexes_[i]->raw().unlock();
      ShardRank::Release(ranks_[i]);
    }
  }

  OrderedShardSpan(const OrderedShardSpan&) = delete;
  OrderedShardSpan& operator=(const OrderedShardSpan&) = delete;

 private:
  std::vector<ShardMutex*> mutexes_;
  std::vector<size_t> ranks_;
};

}  // namespace trio

#endif  // SRC_KERNEL_SHARD_H_
