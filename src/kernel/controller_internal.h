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

}  // namespace controller_internal
}  // namespace trio

#endif  // SRC_KERNEL_CONTROLLER_INTERNAL_H_
