// Simulated slow storage backend (SSD/disk) behind the NVM absorb tier.
//
// The NVM pool stays the durable front tier every sync lands in; the kernel's digestion
// service (src/kernel/digestion.h) migrates cold data pages here in the background and
// the LibFS promote cache faults them back on access. The backend models the capacity
// tier only — page-granular, slot-addressed, orders of magnitude slower than NVM (the
// cost model busy-waits per page the way NvmCostModel busy-waits per fence).
//
// Crash-consistency contract (what makes digestion recoverable with a single fence):
//   * Slots are WRITE-ONCE and numbered monotonically from 1. A slot's bytes never
//     change after WritePage returns, and Free() drops only the owner record — the data
//     is retained forever (a simulated disk is big). Because digestion writes the
//     backend page BEFORE persisting the tier entry that references it, any NVM image a
//     crash can materialize refers only to slots whose final backend contents equal
//     what the entry expects: the pair {materialized NVM image, final backend state} is
//     consistent at every fence point, with no backend journaling.
//   * The owner table is volatile bookkeeping rebuilt at mount (BeginRebuild + Adopt
//     while the controller rescans the tree), exactly like the controller's own page
//     ownership table. Double-adoption is the backend-tier analogue of a double-
//     referenced NVM page and fails loudly.
//
// Thread safety: all methods are safe to call concurrently (digestion thread, promote
// reads from many LibFS threads, reconcile-time frees). The modeled latency is paid
// outside the lock so slow "media" does not serialize unrelated callers.

#ifndef SRC_SIM_BACKEND_H_
#define SRC_SIM_BACKEND_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/core/format.h"
#include "src/obs/stats.h"

namespace trio {

// Modeled per-page access costs. Defaults are zero (no busy-wait) so correctness tests
// pay nothing; benches enable SSD-flavoured figures to make the tier gap observable on
// DRAM emulation, mirroring NvmCostModel.
struct BackendCostModel {
  uint32_t read_ns_per_page = 0;
  uint32_t write_ns_per_page = 0;

  bool enabled() const { return read_ns_per_page != 0 || write_ns_per_page != 0; }
};

// Registered under layer "tier" (summed with the kernel/LibFS tier counters).
struct BackendStats : obs::StatGroup {
  obs::Counter backend_pages_written{this, "backend_pages_written"};
  obs::Counter backend_pages_read{this, "backend_pages_read"};
  obs::Counter backend_bytes_written{this, "backend_bytes_written"};
  obs::Counter backend_bytes_read{this, "backend_bytes_read"};

 private:
  obs::ScopedRegistration reg_{"tier", *this};
};

class SlowBackend {
 public:
  explicit SlowBackend(BackendCostModel cost_model = {}) : cost_model_(cost_model) {}
  SlowBackend(const SlowBackend&) = delete;
  SlowBackend& operator=(const SlowBackend&) = delete;

  // Writes one kPageSize page and returns its freshly minted slot number (>= 1).
  // The slot is immediately owned by `owner`.
  uint64_t WritePage(const void* src, Ino owner);

  // Copies slot contents into `dst` (kPageSize bytes). Fails on a never-written slot.
  Status ReadPage(uint64_t slot, void* dst) const;

  // Drops `owner`'s claim on the slot. The data itself is retained (write-once media
  // contract above). Fails if the slot is not currently owned by `owner`.
  Status Free(uint64_t slot, Ino owner);

  // Current owner of a slot, or kInvalidIno if unowned/unknown.
  Ino OwnerOf(uint64_t slot) const;

  // Mount-time rebuild: forget all owners, then re-adopt each slot the tree rescan
  // finds referenced. Adopt fails on a slot that was never written (a forged mapping)
  // or already adopted in this rebuild (a cross-file double reference).
  void BeginRebuild();
  Status Adopt(uint64_t slot, Ino owner);

  // Snapshot of the owner table, for fsck's cross-tier double-reference check (G7).
  std::unordered_map<uint64_t, Ino> SlotOwners() const;

  size_t OwnedSlotCount() const;
  const BackendCostModel& cost_model() const { return cost_model_; }
  void set_cost_model(BackendCostModel model) { cost_model_ = model; }
  BackendStats& stats() { return stats_; }

 private:
  BackendCostModel cost_model_;
  mutable BackendStats stats_;  // Counters bump inside const reads.

  mutable std::mutex mu_;
  uint64_t next_slot_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<char[]>> data_;  // Write-once, never erased.
  std::unordered_map<uint64_t, Ino> owners_;
};

}  // namespace trio

#endif  // SRC_SIM_BACKEND_H_
