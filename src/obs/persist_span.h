// PersistSpan: the single instrumented gateway between the file-system layers and
// NvmPool's persistence primitives. Every Persist/PersistNow/Fence/CommitStore64 outside
// src/nvm goes through one of these (grep-enforced by obs_test), so fence counting,
// fence coalescing, and per-op attribution live in exactly one place — and the torn-
// persist / bit-flip fault points armed inside NvmPool fire under a span whose op id is
// known.
//
// Coalescing invariant: in this NVM model an sfence only commits cachelines that had a
// clwb (Persist) issued since the last fence. A Fence() with no persists pending through
// this span is therefore a durability no-op and is skipped (counted as coalesced). A span
// NEVER skips a fence when it has issued persists; the destructor issues a closing fence
// if any persists are still pending, so dropping a span cannot lose durability.
//
// Disarm() exists for the delegation last-completer protocol: a worker that is not the
// last completer of a batch-node group hands its pending persists to the completer's
// single fence and must not fence in its own destructor (it pays its modeled write-back
// stall before the hand-off instead).
//
// Group-commit epochs (PR 6): a PersistEpoch installed on a thread (PersistEpoch::Scope)
// absorbs the fences of every span opened on that thread while it is current. The spans
// still issue their clwbs in program order — so any fence, whenever it happens, commits a
// dependency-consistent prefix — but the sfences themselves collapse into ONE issued at
// PersistEpoch::Close(). The op-ring drainer wraps each drain pass in an epoch, which is
// what eliminates per-op fences ACROSS queued operations rather than just within one.
// Durability contract: nothing executed inside an epoch is durable until the epoch
// closes; the ring posts completions only after the close, so a completion still implies
// durability.

#ifndef SRC_OBS_PERSIST_SPAN_H_
#define SRC_OBS_PERSIST_SPAN_H_

#include <cstddef>
#include <cstdint>

#include "src/nvm/nvm.h"
#include "src/obs/op_context.h"
#include "src/obs/stats.h"

namespace trio {
namespace obs {

// One group-commit window. Single-threaded by construction: it is installed as a
// thread-local and only spans of that thread defer into it. Close() is re-armable — the
// ring drainer closes at every barrier SQE and again at the end of the pass, reusing one
// epoch object per pass.
class PersistEpoch {
 public:
  explicit PersistEpoch(NvmPool& pool, PersistStats* stats = nullptr)
      : pool_(pool), stats_(stats) {}
  ~PersistEpoch() { Close(); }
  PersistEpoch(const PersistEpoch&) = delete;
  PersistEpoch& operator=(const PersistEpoch&) = delete;

  // A span hands its fence obligation to the epoch (counted per call, so
  // deferred() == fences the group commit absorbed).
  void Absorb() {
    armed_ = true;
    ++deferred_;
  }

  // The group-commit point: one sfence covering every deferred fence since the last
  // Close. No-op when nothing was deferred.
  void Close() {
    if (!armed_) {
      return;
    }
    pool_.Fence();
    armed_ = false;
    ++closes_;
    if (stats_ != nullptr) {
      stats_->fences.fetch_add(1);
      stats_->epoch_fences.fetch_add(1);
    }
  }

  bool armed() const { return armed_; }
  uint64_t deferred() const { return deferred_; }
  uint64_t closes() const { return closes_; }

  // The epoch spans of the calling thread defer into, or nullptr (the default:
  // every fence issues synchronously, the pre-epoch behaviour).
  static PersistEpoch* Current();

  // RAII installation of an epoch as the calling thread's current one. Nests: the
  // previous epoch is restored on exit.
  class Scope {
   public:
    explicit Scope(PersistEpoch& epoch);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PersistEpoch* prev_;
  };

 private:
  NvmPool& pool_;
  PersistStats* stats_;
  bool armed_ = false;
  uint64_t deferred_ = 0;
  uint64_t closes_ = 0;
};

class PersistSpan {
 public:
  explicit PersistSpan(NvmPool& pool, PersistStats* stats = nullptr)
      : pool_(pool),
        stats_(stats),
        op_(OpContext::Current()),
        epoch_(PersistEpoch::Current()) {}

  ~PersistSpan() {
    if (pending_) {
      IssueFence();
    }
  }

  PersistSpan(const PersistSpan&) = delete;
  PersistSpan& operator=(const PersistSpan&) = delete;

  // clwb over [dst, dst+len). Marks the span pending: a fence must follow (the
  // destructor supplies one if the caller forgets).
  void Persist(const void* dst, size_t len) {
    pool_.Persist(dst, len);
    pending_ = true;
    Account(len);
  }

  // sfence — issued only if this span has pending persists, else counted as coalesced.
  void Fence() {
    if (pending_) {
      IssueFence();
    } else if (stats_ != nullptr) {
      stats_->coalesced_fences.fetch_add(1);
    }
  }

  // Persist + guaranteed fence (uncoalescible: callers use this when the fence must
  // order against a subsequent store even within the span).
  void PersistNow(const void* dst, size_t len) {
    pool_.Persist(dst, len);
    pending_ = true;
    Account(len);
    IssueFence();
  }

  // Store64 + Persist + Fence: the 8-byte atomic durable commit. Any persists pending in
  // the span ride the commit's fence.
  void CommitStore64(uint64_t* dst, uint64_t value) {
    pool_.Store64(dst, value);
    pool_.Persist(dst, sizeof(uint64_t));
    pending_ = true;
    Account(sizeof(uint64_t));
    IssueFence();
    if (stats_ != nullptr) {
      stats_->commit_stores.fetch_add(1);
    }
  }

  // Drop pending persists without fencing: the caller has transferred responsibility for
  // the fence to someone else (delegation last-completer groups). The modeled write-back
  // stall of this thread's persists is paid here, before the hand-off, since no fence of
  // this thread will.
  void Disarm() {
    pool_.DrainStall();
    pending_ = false;
  }

  // Unconditional sfence, even with nothing pending in THIS span: the dual of Disarm(),
  // for the party that fences on behalf of persists other spans issued (the last
  // completer of a delegation batch-node group).
  void ForceFence() {
    pending_ = true;
    IssueFence();
  }

  bool pending() const { return pending_; }

 private:
  void Account(size_t len) {
    if (stats_ != nullptr) {
      stats_->persists.fetch_add(1);
      stats_->bytes_persisted.fetch_add(len);
    }
    if (TRIO_OBS_UNLIKELY(op_ != nullptr)) {
      op_->counters.bytes_persisted.fetch_add(len, std::memory_order_relaxed);
    }
  }

  void IssueFence() {
    if (TRIO_OBS_UNLIKELY(epoch_ != nullptr)) {
      // Group commit: the clwbs are already issued in dependency order; the sfence
      // rides the epoch's single Close() fence. Safe at fence granularity because in
      // this model a fence commits ALL pending lines process-wide, so the commit
      // store of an op can never become durable without the persists issued before
      // it. Any fence image is a dependency-consistent prefix of each op.
      epoch_->Absorb();
      pending_ = false;
      if (stats_ != nullptr) {
        stats_->deferred_fences.fetch_add(1);
      }
      if (op_ != nullptr) {
        op_->counters.fences.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    pool_.Fence();
    pending_ = false;
    if (stats_ != nullptr) {
      stats_->fences.fetch_add(1);
    }
    if (TRIO_OBS_UNLIKELY(op_ != nullptr)) {
      op_->counters.fences.fetch_add(1, std::memory_order_relaxed);
    }
  }

  NvmPool& pool_;
  PersistStats* stats_;
  OpContext* op_;
  PersistEpoch* epoch_;
  bool pending_ = false;
};

}  // namespace obs
}  // namespace trio

#endif  // SRC_OBS_PERSIST_SPAN_H_
