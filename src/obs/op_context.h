// Per-operation context: the spine every FsInterface operation carries from the LibFS
// entry point through the kernel syscall boundary and the delegation pool down to the
// persistence layer. An OpContext gives the op a stable id, a set of per-op cost counters
// (fences issued, bytes persisted, delegated chunks, lock-wait ns, kernel crossings), and
// a fault-injection scope FaultSim policies can filter on.
//
// Cost model: everything here is OFF by default. OpScope and TraceSpan check one
// process-global flag with __builtin_expect — the disabled cost is one predicted branch
// per span and zero clock reads, verified by bench_delegation staying within noise of its
// committed baseline. When tracing is enabled, spans additionally record begin/end events
// into a lock-free per-thread ring buffer (single producer, torn reads detected and
// dropped by sequence-checking snapshots).

#ifndef SRC_OBS_OP_CONTEXT_H_
#define SRC_OBS_OP_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/seqlock.h"

#define TRIO_OBS_UNLIKELY(x) (__builtin_expect(!!(x), 0))

namespace trio {
namespace obs {

// Tracing master switch. Relaxed loads; flipping it mid-op only affects future spans.
bool TracingEnabled();
void SetTracing(bool enabled);

// Per-op cost counters. Atomics because delegation workers and watchdog helpers attribute
// work to an op from other threads while the op's own thread keeps counting.
struct OpCounters {
  std::atomic<uint64_t> fences{0};
  std::atomic<uint64_t> bytes_persisted{0};
  std::atomic<uint64_t> delegated_chunks{0};
  std::atomic<uint64_t> lock_wait_ns{0};
  std::atomic<uint64_t> kernel_crossings{0};
};

struct OpContext {
  uint64_t id = 0;          // Process-unique, never 0 for a live op.
  const char* name = "";    // Static string: the FsInterface entry point.
  uint64_t begin_ns = 0;
  OpCounters counters;
  // Fault-injection scope: FaultPolicy::ScopedToOp(id) / domain filters match these.
  uint32_t fault_domain = 0;
  OpContext* parent = nullptr;  // Nested ops (e.g. Open -> Truncate) stack.

  // The op the calling thread is currently executing, or nullptr when tracing is off /
  // no op is in flight. Attribution sites do `if (auto* op = OpContext::Current())` —
  // one predicted branch when disabled.
  static OpContext* Current();
};

// One recorded span. `name` points at a static string.
struct TraceEvent {
  uint64_t op_id = 0;
  const char* name = "";
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  uint32_t depth = 0;
};

// Lock-free single-producer ring buffer of TraceEvents, one per thread. Each slot is a
// Seqlock (src/common/seqlock.h) over the event fields and the index of the event it
// holds; a snapshot from another thread drops a slot whose read was torn or whose index
// shows it was overwritten by a newer event.
class TraceRing {
 public:
  static constexpr size_t kCapacity = 4096;  // Power of two.

  void Push(const TraceEvent& event) {
    const uint64_t index = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[index & (kCapacity - 1)];
    slot.lock.WriteLock();
    slot.index.store(index, std::memory_order_relaxed);
    slot.op_id.store(event.op_id, std::memory_order_relaxed);
    slot.name.store(event.name, std::memory_order_relaxed);
    slot.begin_ns.store(event.begin_ns, std::memory_order_relaxed);
    slot.end_ns.store(event.end_ns, std::memory_order_relaxed);
    slot.depth.store(event.depth, std::memory_order_relaxed);
    slot.lock.WriteUnlock();
    head_.store(index + 1, std::memory_order_release);
  }

  // Oldest-to-newest copy of the events still resident in the ring.
  std::vector<TraceEvent> Snapshot() const;

  // Drops all resident events. Only safe while the producing thread is quiescent.
  void Reset() {
    for (Slot& slot : slots_) {
      slot.lock.WriteLock();
      slot.index.store(kNoEvent, std::memory_order_relaxed);
      slot.lock.WriteUnlock();
    }
    head_.store(0, std::memory_order_release);
  }

 private:
  static constexpr uint64_t kNoEvent = ~uint64_t{0};

  struct Slot {
    Seqlock lock;
    std::atomic<uint64_t> index{kNoEvent};  // Index of the event held, in push order.
    std::atomic<uint64_t> op_id{0};
    std::atomic<const char*> name{""};
    std::atomic<uint64_t> begin_ns{0};
    std::atomic<uint64_t> end_ns{0};
    std::atomic<uint32_t> depth{0};
  };
  std::atomic<uint64_t> head_{0};
  Slot slots_[kCapacity];
};

// All events currently resident across every thread's ring (diagnostics/tests). Rings of
// exited threads are retained until ClearTraceEvents().
std::vector<TraceEvent> SnapshotAllTraceEvents();
void ClearTraceEvents();

// RAII: establishes the OpContext for one FsInterface operation on this thread. When
// tracing is disabled this is one predicted branch in the constructor and one in the
// destructor; no allocation, no clock read.
class OpScope {
 public:
  explicit OpScope(const char* name) {
    if (TRIO_OBS_UNLIKELY(TracingEnabled())) {
      Begin(name);
    }
  }
  ~OpScope() {
    if (TRIO_OBS_UNLIKELY(armed_)) {
      End();
    }
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  // The context while armed (tracing on), else nullptr.
  OpContext* context() { return armed_ ? &ctx_ : nullptr; }

 private:
  void Begin(const char* name);
  void End();

  bool armed_ = false;
  OpContext ctx_;
};

// RAII: one trace span inside the current op (lock acquisition, verify, map, ...).
// Disabled cost: one predicted branch each way.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (TRIO_OBS_UNLIKELY(TracingEnabled())) {
      Begin(name);
    }
  }
  ~TraceSpan() {
    if (TRIO_OBS_UNLIKELY(begin_ns_ != 0)) {
      End();
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void Begin(const char* name);
  void End();

  const char* name_ = "";
  uint64_t begin_ns_ = 0;
};

// Monotonic nanoseconds for span timestamps (steady_clock; obs never touches the
// simulated Clock so tracing works identically under FakeClock tests).
uint64_t MonotonicNowNs();

}  // namespace obs
}  // namespace trio

#endif  // SRC_OBS_OP_CONTEXT_H_
