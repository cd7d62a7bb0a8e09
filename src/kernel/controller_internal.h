// Helpers shared by the KernelController translation units (controller.cc,
// controller_map.cc, controller_verify.cc). Internal to src/kernel.

#ifndef SRC_KERNEL_CONTROLLER_INTERNAL_H_
#define SRC_KERNEL_CONTROLLER_INTERNAL_H_

#include "src/kernel/controller.h"

namespace trio {
namespace controller_internal {

// Classic owner/group/other permission check against the shadow inode (ground truth, I4).
inline bool AccessAllowed(const ShadowInode& shadow, uint32_t uid, uint32_t gid,
                          bool write) {
  if (uid == 0) {
    return true;
  }
  const uint32_t perm = shadow.mode & 0777;
  uint32_t bits;
  if (uid == shadow.uid) {
    bits = perm >> 6;
  } else if (gid == shadow.gid) {
    bits = perm >> 3;
  } else {
    bits = perm;
  }
  return write ? (bits & 2) != 0 : (bits & 4) != 0;
}

inline size_t WmapSlots(const NvmPool& pool) {
  return SuperblockOf(pool)->wmap_log_pages * kPageSize / sizeof(uint64_t);
}

// --- grant-cache payload packing -------------------------------------------------------
// Grants pack as {dirent_page, holder << 9 | slot << 1 | writable, lease_deadline_ns}.
// kDirentsPerPage is 32 so a slot index fits the 8 bits between the writable flag and the
// holder id.

static_assert(kDirentsPerPage <= 256, "grant packing gives dirent slots 8 bits");

inline uint64_t PackGrantWord(LibFsId holder, size_t dirent_slot, bool writable) {
  return (static_cast<uint64_t>(holder) << 9) |
         (static_cast<uint64_t>(dirent_slot) << 1) | (writable ? 1u : 0u);
}

inline void UnpackGrantWord(uint64_t word, LibFsId* holder, size_t* dirent_slot,
                            bool* writable) {
  *holder = static_cast<LibFsId>(word >> 9);
  *dirent_slot = static_cast<size_t>((word >> 1) & 0xff);
  *writable = (word & 1) != 0;
}

}  // namespace controller_internal
}  // namespace trio

#endif  // SRC_KERNEL_CONTROLLER_INTERNAL_H_
