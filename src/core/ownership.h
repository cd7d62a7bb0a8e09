// Ownership state of shared file-system resources (NVM pages and inode numbers), the
// "global file system information" the kernel controller maintains for invariant I2
// (§4.3): (1) all inodes and pages write-mapped or allocated (leased) to each LibFS and
// (2) all inodes and pages in existing files. The integrity verifier has read access to
// this information through OwnershipView.

#ifndef SRC_CORE_OWNERSHIP_H_
#define SRC_CORE_OWNERSHIP_H_

#include <cstdint>

#include "src/core/format.h"

namespace trio {

// LibFS identity handed out by the kernel controller at registration time.
using LibFsId = uint32_t;
inline constexpr LibFsId kNoLibFs = 0;

// Trust group (§3.2): processes in one group share a LibFS and skip sharing costs.
using TrustGroupId = uint32_t;

enum class ResourceState : uint8_t {
  kFree = 0,   // Unallocated, owned by the kernel's free pool.
  kLeased,     // Allocated to a LibFS; not yet part of any reconciled file.
  kOwned,      // Part of an existing file's core state.
  kReserved,   // Superblock / shadow table / other kernel region (pages only).
  // Inos only: an existing file that a verified directory no longer names. The next
  // directory that names it and is verified for the LibFS that moved it (the mover)
  // becomes its parent; if none has when the mover holds no write grant, it is reclaimed.
  kInTransit,
};

struct PageState {
  ResourceState state = ResourceState::kFree;
  LibFsId lessee = kNoLibFs;  // Valid when state == kLeased.
  Ino owner = kInvalidIno;    // Valid when state == kOwned: the file this page belongs to.
};

struct InoState {
  ResourceState state = ResourceState::kFree;
  LibFsId lessee = kNoLibFs;   // Valid when state == kLeased.
  Ino parent = kInvalidIno;    // Valid when state == kOwned: the containing directory.
  LibFsId mover = kNoLibFs;    // Valid when state == kInTransit.

  // An existing file: one a directory names, or one in transit between two.
  bool Exists() const {
    return state == ResourceState::kOwned || state == ResourceState::kInTransit;
  }
};

// Read-only view of the ownership tables, implemented by the kernel controller and
// consumed by the integrity verifier (the verifier is trusted but unprivileged: it reads,
// never writes).
class OwnershipView {
 public:
  virtual ~OwnershipView() = default;
  virtual PageState StateOfPage(PageNumber page) const = 0;
  virtual InoState StateOfIno(Ino ino) const = 0;
};

}  // namespace trio

#endif  // SRC_CORE_OWNERSHIP_H_
