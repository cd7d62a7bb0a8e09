// Sharding primitives for the kernel controller scale-out (DESIGN.md §4.10):
//
//  * SeqlockCache — a fixed-size, direct-mapped, seqlock-published cache giving the
//    syscall boundary LOCK-FREE revalidation of grants (LookupGrant). Writers (who hold
//    the authoritative shard lock for the key they publish) take the slot's Seqlock,
//    store the payload and release it; readers retry a torn read and fall back to the
//    locked slow path on a miss. Collisions simply evict (the cache may forget, it must
//    never lie). Ownership needs no cache: its tables are flat and read lock-free.
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
#include "src/common/seqlock.h"
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

// One shard's mutex: a plain std::mutex plus a contention probe (try_lock first so the
// bench gates can observe how often the 1-shard configuration serializes).
class ShardMutex {
 public:
  std::mutex& raw() { return mu_; }
  uint64_t contended() const { return contended_.load(std::memory_order_relaxed); }
  void CountContended() { contended_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::mutex mu_;
  std::atomic<uint64_t> contended_{0};
};

// RAII single-shard acquisition with rank checking. Exposes the underlying
// std::unique_lock so condition variables can wait on it (the rank set is unchanged by a
// cv wait: the same lock is released and reacquired).
class ShardLock {
 public:
  ShardLock(ShardMutex& mu, size_t rank, obs::Counter* contended = nullptr)
      : mu_(&mu), rank_(rank) {
    ShardRank::Acquire(rank_);
    if (!mu.raw().try_lock()) {
      mu.CountContended();
      if (contended != nullptr) {
        contended->fetch_add(1, std::memory_order_relaxed);
      }
      mu.raw().lock();
    }
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
  ShardMutex* mu_;
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
  OrderedShardSpan(std::vector<ShardMutex*> mutexes, std::vector<size_t> ranks,
                   obs::Counter* contended = nullptr)
      : mutexes_(std::move(mutexes)), ranks_(std::move(ranks)) {
    for (size_t i = 0; i < mutexes_.size(); ++i) {
      ShardRank::Acquire(ranks_[i]);
      if (!mutexes_[i]->raw().try_lock()) {
        mutexes_[i]->CountContended();
        if (contended != nullptr) {
          contended->fetch_add(1, std::memory_order_relaxed);
        }
        mutexes_[i]->raw().lock();
      }
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

// ---------------------------------------------------------------------------
// SeqlockCache
// ---------------------------------------------------------------------------

// Direct-mapped cache of key -> kWords-word payload with lock-free readers; each slot is
// one Seqlock (src/common/seqlock.h) over its key and payload words.
//
// Eviction: a colliding insert simply takes over the slot; the evicted key misses and
// its readers fall back to the authoritative (locked) tables. The ONE coherence rule is
// that every mutation of authoritative state writes through (Store of the new value, or
// Erase) before the shard lock protecting that mutation is released.
template <size_t kWords>
class SeqlockCache {
 public:
  // slots is rounded up to a power of two; 0 disables the cache entirely (every Lookup
  // misses), which is the "legacy one-big-mutex read path" configuration benches compare
  // against.
  explicit SeqlockCache(size_t slots = 0) { Reset(slots); }

  void Reset(size_t slots) {
    size_t cap = 1;
    while (cap < slots) {
      cap <<= 1;
    }
    slots_.clear();
    if (slots != 0) {
      slots_ = std::vector<Slot>(cap);
    }
    mask_ = slots == 0 ? 0 : cap - 1;
  }

  bool enabled() const { return !slots_.empty(); }

  // Lock-free. Returns false on miss (absent, torn too many times, or disabled).
  bool Lookup(uint64_t key, uint64_t out[kWords]) const {
    if (slots_.empty()) {
      return false;
    }
    const Slot& slot = slots_[Index(key)];
    for (int attempt = 0; attempt < 4; ++attempt) {
      const uint64_t begin = slot.lock.ReadBegin();
      const uint64_t k = slot.key.load(std::memory_order_relaxed);
      uint64_t v[kWords];
      for (size_t w = 0; w < kWords; ++w) {
        v[w] = slot.words[w].load(std::memory_order_relaxed);
      }
      if (!slot.lock.ReadValidate(begin)) {
        continue;  // Torn by a concurrent writer; retry.
      }
      if (k != key + 1) {  // +1 so an all-zero slot is unambiguously empty.
        return false;
      }
      for (size_t w = 0; w < kWords; ++w) {
        out[w] = v[w];
      }
      return true;
    }
    return false;
  }

  // Publish `key -> words`. Caller holds the authoritative lock for `key`; writers for
  // DIFFERENT keys colliding on the slot are excluded by the slot's Seqlock.
  void Store(uint64_t key, const uint64_t words[kWords]) {
    if (slots_.empty()) {
      return;
    }
    Slot& slot = slots_[Index(key)];
    slot.lock.WriteLock();
    slot.key.store(key + 1, std::memory_order_relaxed);
    for (size_t w = 0; w < kWords; ++w) {
      slot.words[w].store(words[w], std::memory_order_relaxed);
    }
    slot.lock.WriteUnlock();
  }

  // Drop `key` if the slot still holds it (a collision may already have evicted it).
  void Erase(uint64_t key) {
    if (slots_.empty()) {
      return;
    }
    Slot& slot = slots_[Index(key)];
    if (slot.key.load(std::memory_order_relaxed) != key + 1) {
      return;
    }
    slot.lock.WriteLock();
    if (slot.key.load(std::memory_order_relaxed) == key + 1) {
      slot.key.store(0, std::memory_order_relaxed);
    }
    slot.lock.WriteUnlock();
  }

  // Invalidate everything (mount/recovery table rebuild). Not lock-free; callers hold
  // every shard.
  void Clear() {
    for (Slot& slot : slots_) {
      slot.lock.WriteLock();
      slot.key.store(0, std::memory_order_relaxed);
      slot.lock.WriteUnlock();
    }
  }

 private:
  struct Slot {
    Seqlock lock;
    std::atomic<uint64_t> key{0};  // 0 = empty; otherwise stored key + 1.
    std::atomic<uint64_t> words[kWords];
  };

  size_t Index(uint64_t key) const {
    // Fibonacci hashing spreads sequential inos/pages across slots.
    return (key * 0x9e3779b97f4a7c15ull >> 32) & mask_;
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
};

}  // namespace trio

#endif  // SRC_KERNEL_SHARD_H_
