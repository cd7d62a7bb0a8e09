// Sequence lock: lock-free readers of a multi-word value, and writers that exclude one
// another through the sequence itself. The LibFS promote-cache shards and the trace-ring
// slots both use this one protocol; the kernel's per-file map epochs use its one-word
// form (below).
//
// The protected fields must be std::atomic, loaded and stored relaxed: a read that races
// a write is then a discarded read, never a data race.
//
// Ordering. A writer CASes the sequence from even to odd (acquire, so it sees the
// previous writer's fields), issues a release fence, stores the fields, and stores the
// next even value with release. A reader loads the sequence with acquire, loads the
// fields, issues an acquire fence and loads the sequence again. If any field load saw a
// writer's store, that writer's release fence pairs with the reader's acquire fence, so
// the second load sees the writer's odd value or a later one. An even sequence that did
// not change therefore brackets one writer's complete value. Without the writer's fence
// the field stores could become visible before the odd sequence, and the reader would
// validate a mix of two values (Boehm, "Can Seqlocks Get Along with Programming Language
// Memory Models?", MSPC 2012; Linux's write_seqcount_begin has an smp_wmb for the same
// reason). On x86 both fences compile to nothing.
//
// Epochs are the one-word form, for bytes that may change only after the word has moved:
// the kernel's per-file map epoch, bumped when a write grant drops the file's readers
// (DESIGN.md §4.2). BumpEpoch is WriteLock without the wait: the bump stands for the odd
// value and is followed by the same release fence, and no even value ever follows,
// because a reader whose epoch moved never waits for one; it discards what it read and
// maps the file again. A reader takes the epoch with LoadEpoch when its grant is issued,
// before it loads any of the file's bytes, and ends each op with EpochUnchanged (an
// acquire fence, then a second load). Every store a later grant makes to those bytes is
// ordered after a bump and its fence, so if any of the reader's loads saw one, the fences
// pair as above and the second load sees the bump: an unchanged epoch means no other
// LibFS held a write grant while the reader loaded. The bytes themselves are plain NVM
// loads and stores, the emulation's stand-in for loads that would fault on hardware, so
// there the guarantee is the hardware's: the fences keep the compiler and the CPU from
// moving the reader's loads below its second epoch load, or a bump below the stores that
// follow it.

#ifndef SRC_COMMON_SEQLOCK_H_
#define SRC_COMMON_SEQLOCK_H_

#include <atomic>
#include <cstdint>

#include "src/common/spinlock.h"

namespace trio {

class Seqlock {
 public:
  // Starts a read. Never waits: a read that overlaps a write fails ReadValidate, and the
  // caller decides whether to retry or fall back.
  uint64_t ReadBegin() const { return seq_.load(std::memory_order_acquire); }

  // True iff no writer held the lock at any point since `begin` was loaded, so the fields
  // loaded in between form one consistent value.
  bool ReadValidate(uint64_t begin) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return (begin & 1) == 0 && seq_.load(std::memory_order_relaxed) == begin;
  }

  // Waits out any other writer, then opens the write. Write sections are a handful of
  // stores, so the spin is short and takes no lock: safe under any lock rank.
  void WriteLock() {
    uint64_t seq = seq_.load(std::memory_order_relaxed);
    while ((seq & 1) != 0 ||
           !seq_.compare_exchange_weak(seq, seq + 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      CpuRelax();
      seq = seq_.load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_release);
  }

  void WriteUnlock() {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }

 private:
  std::atomic<uint64_t> seq_{0};
};

// Moves `epoch` before the stores it guards.
inline void BumpEpoch(std::atomic<uint64_t>& epoch) {
  epoch.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
}

// The epoch a reader's later loads are validated against.
inline uint64_t LoadEpoch(const std::atomic<uint64_t>& epoch) {
  return epoch.load(std::memory_order_acquire);
}

// True iff `epoch` has not moved since `begin` was loaded, so no guarded store reached the
// loads made in between.
inline bool EpochUnchanged(const std::atomic<uint64_t>& epoch, uint64_t begin) {
  std::atomic_thread_fence(std::memory_order_acquire);
  return epoch.load(std::memory_order_relaxed) == begin;
}

}  // namespace trio

#endif  // SRC_COMMON_SEQLOCK_H_
