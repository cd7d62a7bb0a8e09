// MMU emulation. On real hardware the kernel controller programs each application's page
// tables so that its loads/stores can only reach the NVM pages it was granted (§3.2). In
// this single-process emulation, each LibFS's kernel record owns one MmuSim — that LibFS's
// page table — which the kernel controller programs on map/unmap/alloc/free/reconcile. A
// *malicious* LibFS (src/attacks) skips its own checks — but the attack tests only let it
// scribble on pages where its MmuSim says it holds write permission, which is exactly what
// the hardware MMU would permit; everything else "faults" (test failure).
//
// Grants are REFERENCE COUNTED per (page, strength): a page reachable through both a file
// mapping and the parent directory's data pages (the co-located inode design, §4.1) holds
// one reference per justification, and the effective permission is the strongest with a
// nonzero count. This makes revocation shard-local for the sharded controller — a mapping
// teardown releases exactly its own references instead of rescanning every other mapping
// of the tenant to recompute the strongest surviving permission.
//
// Layout: one ChunkedWords slot per page of the pool, so a 4 KiB chunk of slots exists
// only once a grant reached its 512 pages, and the table is freed with the LibFS's record.
// Each slot packs the page's read-write count (high half) and read-only count (low half)
// into one atomic word, so grants, revokes and checks take no lock: a grant is one
// fetch_add, a revoke a compare-and-swap loop that floors its count at zero. A file's
// pages are granted or revoked in one call (GrantPages/RevokePages).

#ifndef SRC_KERNEL_MMU_SIM_H_
#define SRC_KERNEL_MMU_SIM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/core/format.h"
#include "src/kernel/chunked_words.h"
#include "src/nvm/nvm.h"

namespace trio {

enum class PagePerm : uint8_t { kNone = 0, kRead = 1, kReadWrite = 3 };

class MmuSim {
 public:
  // A table for pages [0, num_pages); pages past the end are never mapped.
  explicit MmuSim(uint64_t num_pages) : refs_(num_pages) {}

  // Add one reference of strength `perm` (kNone is a no-op).
  void Grant(PageNumber page, PagePerm perm) {
    std::atomic<uint64_t>* slot = perm == PagePerm::kNone ? nullptr : refs_.FindOrAdd(page);
    if (slot != nullptr) {
      slot->fetch_add(UnitOf(perm), std::memory_order_acq_rel);
    }
  }

  // Release one reference of strength `perm` (floors at zero: a forgiving release of an
  // unheld reference must not strip somebody else's justification).
  void Revoke(PageNumber page, PagePerm perm) {
    std::atomic<uint64_t>* slot = perm == PagePerm::kNone ? nullptr : refs_.Find(page);
    if (slot == nullptr) {
      return;
    }
    const uint64_t unit = UnitOf(perm);
    const uint64_t mask = unit == kRwUnit ? ~kRoMask : kRoMask;
    uint64_t refs = slot->load(std::memory_order_relaxed);
    while ((refs & mask) != 0 &&
           !slot->compare_exchange_weak(refs, refs - unit, std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
    }
  }

  // One reference per page of `pages` (any range of PageNumber).
  template <typename Pages>
  void GrantPages(Pages&& pages, PagePerm perm) {
    for (PageNumber page : pages) {
      Grant(page, perm);
    }
  }
  template <typename Pages>
  void RevokePages(Pages&& pages, PagePerm perm) {
    for (PageNumber page : pages) {
      Revoke(page, perm);
    }
  }

  // Would a load (write=false) or store (write=true) to this page fault?
  bool Check(PageNumber page, bool write) const {
    const std::atomic<uint64_t>* slot = refs_.Find(page);
    const uint64_t refs = slot == nullptr ? 0 : slot->load(std::memory_order_acquire);
    return write ? (refs & ~kRoMask) != 0 : refs != 0;
  }

  bool CheckRange(const NvmPool& pool, const void* addr, size_t len, bool write) const {
    if (len == 0) {
      return true;
    }
    const PageNumber first = pool.PageOf(addr);
    const PageNumber last = pool.PageOf(static_cast<const char*>(addr) + len - 1);
    for (PageNumber p = first; p <= last; ++p) {
      if (!Check(p, write)) {
        return false;
      }
    }
    return true;
  }

 private:
  static constexpr uint64_t kRoMask = 0xffffffffull;
  static constexpr uint64_t kRwUnit = 1ull << 32;

  static uint64_t UnitOf(PagePerm perm) { return perm == PagePerm::kReadWrite ? kRwUnit : 1; }

  ChunkedWords refs_;
};

}  // namespace trio

#endif  // SRC_KERNEL_MMU_SIM_H_
