// The instrumented kernel syscall boundary. Every public KernelController entry point a
// LibFS can call opens a SyscallScope as its first statement: it counts the crossing in
// KernelStats, attributes it to the calling op's OpContext (kernel_crossings), records
// the boundary-to-return latency into the kernel's log-binned histogram, and emits a
// trace span when tracing is enabled. It reads the kernel clock twice, at entry and at
// exit, and the crossing's other times derive from those two reads. This is the one place
// "a kernel crossing happened" is defined, so per-layer metric breakdowns and op spines
// agree on the count.

#ifndef SRC_KERNEL_SYSCALL_BOUNDARY_H_
#define SRC_KERNEL_SYSCALL_BOUNDARY_H_

#include "src/kernel/controller.h"
#include "src/obs/op_context.h"

namespace trio {

class SyscallScope {
 public:
  SyscallScope(KernelStats& stats, Clock& clock, const char* name)
      : stats_(stats), clock_(clock), span_(name), start_ns_(clock.NowNs()) {
    stats_.syscalls.fetch_add(1);
    if (TRIO_OBS_UNLIKELY(obs::OpContext::Current() != nullptr)) {
      obs::OpContext::Current()->counters.kernel_crossings.fetch_add(
          1, std::memory_order_relaxed);
    }
  }

  ~SyscallScope() {
    const uint64_t elapsed = clock_.NowNs() - start_ns_;
    stats_.syscall_latency.Record(elapsed);
    if (charge_ != nullptr) {
      charge_->fetch_add(elapsed);
    }
  }

  SyscallScope(const SyscallScope&) = delete;
  SyscallScope& operator=(const SyscallScope&) = delete;

  // The kernel clock at entry: the crossing's one read before its exit, which lease
  // deadlines and last-use stamps derive from.
  uint64_t start_ns() const { return start_ns_; }
  // Also adds the crossing's latency, taken at exit, to `counter` (map_ns, unmap_ns).
  void ChargeTo(obs::Counter& counter) { charge_ = &counter; }

 private:
  KernelStats& stats_;
  Clock& clock_;
  obs::TraceSpan span_;  // No-op unless tracing is enabled.
  const uint64_t start_ns_;
  obs::Counter* charge_ = nullptr;
};

}  // namespace trio

#endif  // SRC_KERNEL_SYSCALL_BOUNDARY_H_
