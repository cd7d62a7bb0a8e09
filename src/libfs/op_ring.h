// io_uring-style per-thread operation rings into a LibFS (the async submission path of
// ROADMAP item 4: "everything becomes a message").
//
// Shape: each application thread owns an OpRing — an SPSC submission queue of fixed-size
// Sqe records plus an SPSC completion queue of Cqe records — obtained from the LibFS's
// OpRingEngine. A single drainer thread per engine pops SQEs from every ring in rounds
// ("drain passes"), executes them against the owning FsInterface, and posts CQEs
// out-of-line. Three batching effects stack per pass:
//
//  1. Group-commit epoch: the drainer wraps the pass in an obs::PersistEpoch, so every
//     PersistSpan fence of every op in the pass collapses into ONE sfence at epoch close
//     (cross-op fence coalescing — the per-op clwbs still happen, in dependency order).
//  2. Shared DelegationBatch: RingPassHooks lets the LibFS install one DelegationBatch
//     for the whole pass, so delegated chunks of many small writes ride one ring push and
//     one fence per NUMA node per pass instead of per op.
//  3. Out-of-line completion: the submitting thread never blocks on persistence; it reaps
//     CQEs when it needs results.
//
// fsync is a barrier SQE: the drainer flushes the pass batch, lets the FS run its fsync
// work, closes the epoch, and only then posts the barrier's CQE — after every CQE of the
// ops before it. A CQE therefore always implies durability: CQEs are buffered during the
// pass and posted only after the epoch fence that makes their ops durable.
//
// Synchronous fallback: the ring is strictly additive. FsInterface calls keep working
// unchanged on any thread (they fence synchronously through their own spans, since no
// epoch is installed outside the drainer); ops the Sqe format cannot carry (paths longer
// than kSqeMaxPath, reads, renames) simply stay on the synchronous path.

#ifndef SRC_LIBFS_OP_RING_H_
#define SRC_LIBFS_OP_RING_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/mpmc_ring.h"
#include "src/common/parker.h"
#include "src/libfs/fs_interface.h"
#include "src/nvm/nvm.h"
#include "src/obs/persist_span.h"
#include "src/obs/stats.h"

namespace trio {

// Inline path capacity of an Sqe. Longer paths do not fit the fixed-size record and must
// use the synchronous API (SubmitCreate/SubmitUnlink refuse them).
inline constexpr size_t kSqeMaxPath = 96;

struct OpRingConfig {
  bool enabled = false;
  // SQ capacity per thread ring (power of two). The CQ holds 2x so a full pass of
  // completions never blocks the drainer behind a slow reaper in the common case.
  size_t depth = 64;
};

// Fixed-size submission queue entry. Buffers (`buf`) stay application-owned and must
// remain live and unmodified until the op's CQE is reaped.
struct Sqe {
  enum class Op : uint8_t {
    kNop = 0,
    kWrite,   // Cursor write on fd (honors O_APPEND): buf/len.
    kPwrite,  // Positional write: buf/len/offset.
    kCreate,  // Open(path, create|write [,flags]) -> CQE result = fd.
    kUnlink,  // Unlink(path).
    kFsync,   // Barrier: durability point for everything submitted before it.
  };
  // kCreate modifiers.
  static constexpr uint8_t kFlagAppend = 1u << 0;
  static constexpr uint8_t kFlagTrunc = 1u << 1;
  static constexpr uint8_t kFlagExcl = 1u << 2;

  Op op = Op::kNop;
  uint8_t flags = 0;
  Fd fd = -1;
  uint32_t mode = 0644;
  uint32_t len = 0;
  uint64_t user_data = 0;
  uint64_t offset = 0;
  const void* buf = nullptr;
  char path[kSqeMaxPath] = {};  // NUL-terminated (kCreate/kUnlink).
};

// Completion queue entry. result >= 0 is the op's count/fd; result < 0 encodes the
// Status as -static_cast<int64_t>(ErrorCode).
struct Cqe {
  uint64_t user_data = 0;
  int64_t result = 0;

  bool ok() const { return result >= 0; }
  ErrorCode code() const {
    return result >= 0 ? ErrorCode::kOk : static_cast<ErrorCode>(-result);
  }
};

// One thread's SQ/CQ pair. The owning application thread is the only producer of the SQ
// and the only consumer of the CQ; the drainer is the only consumer of the SQ and the
// only producer of the CQ — both sides run on the SPSC fast path.
class OpRing {
 public:
  explicit OpRing(size_t depth) : sq_(depth), cq_(depth * 2) {}
  OpRing(const OpRing&) = delete;
  OpRing& operator=(const OpRing&) = delete;

  // Owner-thread side. TrySubmit returns false when the SQ is full (backpressure:
  // reap or retry). Does not wake the drainer — use OpRingEngine::Submit.
  bool TrySubmit(const Sqe& sqe) { return sq_.TryPush(sqe); }
  size_t TryReap(Cqe* out, size_t max) { return cq_.TryPopBatch(out, max); }

  // Submissions minus reaped completions (owner-thread bookkeeping, maintained by
  // OpRingEngine's helpers).
  uint64_t in_flight() const { return submitted_ - reaped_; }

 private:
  friend class OpRingEngine;

  SpscRing<Sqe> sq_;
  SpscRing<Cqe> cq_;
  // Owner-thread counters (not atomics: only the owner reads/writes them).
  uint64_t submitted_ = 0;
  uint64_t reaped_ = 0;
  uint64_t next_user_data_ = 1;
};

// Per-pass hooks a LibFS implements to share state across the ops of one drain pass —
// ArckFs uses them to install a pass-wide DelegationBatch. All hooks run on the drainer
// thread. FlushPass must make every queued side effect durable-ready (submitted and
// waited) and may be called multiple times per pass (before every epoch close).
class RingPassHooks {
 public:
  virtual ~RingPassHooks() = default;
  virtual void BeginPass() {}
  virtual void FlushPass() {}
  virtual void EndPass() {}
};

// Registered into obs::StatRegistry under layer "ring".
struct OpRingStats : obs::StatGroup {
  obs::Counter submitted{this, "submitted"};  // SQEs accepted.
  obs::Counter completed{this, "completed"};  // CQEs posted.
  obs::Counter barriers{this, "barriers"};    // Barrier (fsync) SQEs executed.
  // Passes that executed at least one SQE.
  obs::Counter drain_passes{this, "drain_passes"};
  // SQEs summed over passes (avg depth = pass_ops/passes).
  obs::Counter pass_ops{this, "pass_ops"};
  obs::Counter cq_stalls{this, "cq_stalls"};  // Spins because a CQ was full (slow reaper).
  obs::Counter parks{this, "parks"};          // Drainer park events.
  obs::Counter wakeups{this, "wakeups"};      // Times the parked drainer was woken.

 private:
  obs::ScopedRegistration reg_{"ring", *this};
};

class OpRingEngine {
 public:
  // `persist_stats` is the layer the epoch's close fences are charged to (normally the
  // owning LibFS's "libfs" PersistStats, so fences/op comparisons against the synchronous
  // path read off one layer). `hooks` may be null.
  OpRingEngine(FsInterface& fs, NvmPool& pool, OpRingConfig config,
               RingPassHooks* hooks = nullptr, obs::PersistStats* persist_stats = nullptr);
  ~OpRingEngine();
  OpRingEngine(const OpRingEngine&) = delete;
  OpRingEngine& operator=(const OpRingEngine&) = delete;

  // Joins the drainer after draining every ring (a stopped engine completes everything
  // that was submitted, so no waiter strands). Idempotent.
  void Stop();

  // The calling thread's ring (created and published on first use; cached thread-local).
  OpRing& ThreadRing();

  // ---- Submission helpers (owner thread). All spin when the SQ is full, wake the
  // drainer, and return the op's user_data for matching against CQEs. ----
  uint64_t SubmitWrite(Fd fd, const void* buf, size_t len);
  uint64_t SubmitPwrite(Fd fd, const void* buf, size_t len, uint64_t offset);
  // Returns 0 (an invalid user_data) if `path` exceeds kSqeMaxPath — synchronous
  // fallback territory.
  uint64_t SubmitCreate(const std::string& path, uint32_t mode = 0644, uint8_t flags = 0);
  uint64_t SubmitUnlink(const std::string& path);
  uint64_t SubmitFsync(Fd fd);
  // Raw submission: caller fills the Sqe (user_data included).
  void Submit(const Sqe& sqe);
  // Enqueues a whole burst with ONE drainer wake at the end, so the ops land in as few
  // drain passes (group-commit epochs) as the SQ can hold instead of trickling in one
  // pass each. Assigns each Sqe's user_data in place; spins on backpressure like Submit.
  void SubmitBurst(Sqe* sqes, size_t count);

  // ---- Completion helpers (owner thread). ----
  size_t TryReap(Cqe* out, size_t max);
  // Blocks (spin) until one CQE is available.
  Cqe WaitCompletion();
  // Reaps until everything this thread submitted has completed; discards the CQEs.
  void WaitIdle();

  const OpRingConfig& config() const { return config_; }
  const OpRingStats& stats() const { return stats_; }

  // True once the drainer has run out of work and is parking (it may still be making
  // its last check before sleeping; a submission then wakes it all the same). Lets tests
  // line a SubmitBurst up against a single drain pass.
  bool DrainerParked() const { return parker_.sleepers() != 0; }

 private:
  void DrainerLoop();
  // One pass over all rings; returns the number of SQEs executed.
  size_t DrainOnce();
  Cqe Execute(const Sqe& sqe);
  void PostCqe(OpRing& ring, const Cqe& cqe);

  FsInterface& fs_;
  NvmPool& pool_;
  const OpRingConfig config_;
  RingPassHooks* hooks_;
  obs::PersistStats* persist_stats_;
  OpRingStats stats_;

  // Engine identity for the thread-local ring cache (never reused, so a new engine at a
  // recycled address cannot alias a dead engine's cached rings).
  const uint64_t engine_id_;

  std::mutex rings_mutex_;
  std::vector<std::unique_ptr<OpRing>> rings_;  // Capacity fixed at kMaxRings.
  std::atomic<size_t> published_rings_{0};

  std::atomic<bool> stop_{false};
  Parker parker_;  // The idle drainer.
  std::thread drainer_;
};

}  // namespace trio

#endif  // SRC_LIBFS_OP_RING_H_
