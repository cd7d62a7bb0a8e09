// Trio core-state format (§4.1). This is the single, explicitly defined data layout that all
// components — every LibFS, the kernel controller, and the integrity verifier — share as
// common knowledge. A LibFS may never change these structures; everything else it keeps
// (radix trees, hash tables, fd tables, locks) is private auxiliary state.
//
// Layout of the pool:
//   page 0                      : Superblock (LibFS: read-only)
//   pages [1, kernel_end)      : shadow inode table (LibFS: no access; kernel only)
//   pages [kernel_end, total)  : file pages — index pages and data pages of regular files
//                                 and directories, plus journal pages leased to LibFSes.
//
// A file's NVM pages contain only that file's state (§3.2), so the MMU (MmuSim here) can
// grant access per file. The one page-granularity exception, inherited from the paper's
// design: a file's inode is co-located with its directory entry inside its *parent
// directory's* data page (§4.1), so a write grant on a file includes its dirent page; the
// integrity verifier run over the directory is what confines corruption of sibling dirents.

#ifndef SRC_CORE_FORMAT_H_
#define SRC_CORE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "src/nvm/nvm.h"

namespace trio {

using Ino = uint64_t;

inline constexpr uint64_t kSuperMagic = 0x5452494f41524b46ull;  // "TRIOARKF"
inline constexpr uint32_t kFormatVersion = 1;

inline constexpr Ino kInvalidIno = 0;
inline constexpr Ino kRootIno = 1;

// ---- Index pages (§4.1) ----
// "Each entry of index pages points to a data page. The last entry of an index page points
// to the next index page."
inline constexpr size_t kIndexEntriesPerPage = kPageSize / sizeof(uint64_t) - 1;  // 511

struct IndexPage {
  uint64_t entries[kIndexEntriesPerPage];  // Data page numbers; 0 = hole / unallocated.
  uint64_t next;                           // Next index page number; 0 = end of chain.
};
static_assert(sizeof(IndexPage) == kPageSize);

// ---- Tiered entries ----
// A regular file's index entry may reference a slot on the slow backend tier instead of
// an NVM page: bit 63 tags the entry and the low bits carry the backend slot number.
// NVM page numbers never approach 2^63, so the encodings cannot collide. Only regular
// files digest; directory chains and index pages themselves stay NVM-resident, so a
// tagged entry in a directory is corruption by definition.
inline constexpr uint64_t kTierEntryTag = 1ull << 63;

inline bool IsTierEntry(uint64_t entry) { return (entry & kTierEntryTag) != 0; }
inline uint64_t TierSlotOfEntry(uint64_t entry) { return entry & ~kTierEntryTag; }
inline uint64_t MakeTierEntry(uint64_t slot) { return slot | kTierEntryTag; }

// ---- Directory entries (§4.1) ----
// A DirentBlock co-locates the dirent with the file's inode. The `ino` field doubles as the
// validity marker and the 8-byte atomic-commit field (§4.4): slots with ino == 0 are free;
// create persists every other field first and commits by storing the inode number last.

inline constexpr size_t kMaxNameLen = 48;
inline constexpr size_t kDirentBlockSize = 128;
inline constexpr size_t kDirentsPerPage = kPageSize / kDirentBlockSize;  // 32

// File type + permission bits, deliberately errno/POSIX-flavoured.
inline constexpr uint32_t kModeTypeMask = 0xF000;
inline constexpr uint32_t kModeRegular = 0x8000;
inline constexpr uint32_t kModeDirectory = 0x4000;
inline constexpr uint32_t kModePermMask = 0x0FFF;

struct DirentBlock {
  uint64_t ino;               // 0 => free slot. Written last (atomic commit).
  uint64_t first_index_page;  // Head of the file's index-page chain; 0 => no pages yet.
  uint64_t size;              // Regular file: size in bytes. Directory: always 0.
  uint32_t mode;              // Type | permission. Cached; shadow inode is ground truth (I4).
  uint32_t uid;
  uint32_t gid;
  uint32_t nlink;             // Always 1 for files, 1 + subdirs irrelevant: no hard links.
  int64_t mtime_ns;
  int64_t ctime_ns;
  uint64_t generation;        // Unused and unchecked (chain generations are kernel DRAM).
  uint16_t name_len;          // Bytes of `name` in use; 1..kMaxNameLen-1.
  uint8_t reserved[6];        // Must be zero (checked by I1).
  char name[kMaxNameLen];     // Not NUL-terminated; name_len gives the length.
  uint64_t reserved2;         // Must be zero (checked by I1).

  bool IsFree() const { return ino == kInvalidIno; }
  bool IsDirectory() const { return (mode & kModeTypeMask) == kModeDirectory; }
  bool IsRegular() const { return (mode & kModeTypeMask) == kModeRegular; }
  std::string_view Name() const { return std::string_view(name, name_len); }
  void SetName(std::string_view n) {
    std::memset(name, 0, sizeof(name));
    std::memcpy(name, n.data(), n.size());
    name_len = static_cast<uint16_t>(n.size());
  }
};
static_assert(sizeof(DirentBlock) == kDirentBlockSize);
// A data write stores mtime_ns and then commits size: the commit's one flush and fence
// cover both only because they share a cache line, and slots of a (page-aligned)
// directory data page start on line boundaries. (The root's dirent in the superblock is
// not line-aligned, but a directory never takes a size commit.)
static_assert(kDirentBlockSize % kCacheLineSize == 0);
static_assert(offsetof(DirentBlock, size) / kCacheLineSize ==
              (offsetof(DirentBlock, mtime_ns) + sizeof(int64_t) - 1) / kCacheLineSize);

// A directory data page is an array of DirentBlock slots; appending to a non-full page is
// the per-page "logging tail" the LibFS parallelizes over (§4.2).
struct DirDataPage {
  DirentBlock slots[kDirentsPerPage];
};
static_assert(sizeof(DirDataPage) == kPageSize);

// ---- Shadow inode table (§4.1, I4) ----
// Kernel-only ground truth for access permission; the mode/uid/gid inside a DirentBlock is
// merely a cache a malicious sibling-writer could scribble on.
struct ShadowInode {
  uint32_t mode;
  uint32_t uid;
  uint32_t gid;
  uint32_t flags;  // Bit 0: exists.

  bool Exists() const { return (flags & 1u) != 0; }
};
static_assert(sizeof(ShadowInode) == 16);

inline constexpr size_t kShadowInodesPerPage = kPageSize / sizeof(ShadowInode);

// ---- Superblock (page 0) ----
struct Superblock {
  uint64_t magic;
  uint32_t version;
  uint32_t num_nodes;            // NUMA nodes the pool is striped over.
  uint64_t total_pages;
  uint64_t shadow_table_page;    // First page of the shadow inode table.
  uint64_t shadow_table_pages;   // Length of the shadow inode table, in pages.
  uint64_t file_region_page;     // First LibFS-mappable page.
  uint64_t wmap_log_page;        // First kernel page logging write-mapped inos (recovery).
  uint64_t wmap_log_pages;       // Length of the write-map log, in pages.
  uint64_t wmap_log_overflow;    // Set when the log filled; recovery then verifies ALL files.
  uint64_t max_inodes;
  uint64_t clean_shutdown;       // 1 after clean unmount; 0 while mounted (recovery check).
  DirentBlock root;              // Root directory's co-located inode (name "/").
};
static_assert(sizeof(Superblock) <= kPageSize);

inline Superblock* SuperblockOf(NvmPool& pool) {
  return reinterpret_cast<Superblock*>(pool.PageAddress(0));
}
inline const Superblock* SuperblockOf(const NvmPool& pool) {
  return reinterpret_cast<const Superblock*>(pool.PageAddress(0));
}

// Does `name` satisfy the core-state naming rules (enforced by I1)?
inline bool ValidFileName(std::string_view name) {
  if (name.empty() || name.size() >= kMaxNameLen) {
    return false;
  }
  if (name == "." || name == "..") {
    return false;  // Never stored in core state (§4.1).
  }
  for (char c : name) {
    if (c == '/' || c == '\0') {
      return false;
    }
  }
  return true;
}

}  // namespace trio

#endif  // SRC_CORE_FORMAT_H_
