// Sequence lock: lock-free readers of a multi-word value, and writers that exclude one
// another through the sequence itself. The LibFS promote-cache shards and the trace-ring
// slots both use this one protocol.
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

}  // namespace trio

#endif  // SRC_COMMON_SEQLOCK_H_
