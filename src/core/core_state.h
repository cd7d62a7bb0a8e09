// Read-side helpers over the core state: mkfs, shadow-inode access, and bounds-checked
// walkers over index-page chains and directory entries. The walkers never trust a page
// number (they bound-check against the file region and detect cycles), so the integrity
// verifier and auxiliary-state rebuild can run them over possibly-corrupted state.

#ifndef SRC_CORE_CORE_STATE_H_
#define SRC_CORE_CORE_STATE_H_

#include <cstdint>
#include <functional>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/core/format.h"
#include "src/nvm/nvm.h"

namespace trio {

struct FormatOptions {
  uint64_t max_inodes = 1 << 16;
  uint32_t num_nodes = 1;
};

// mkfs: lays out superblock + shadow inode table and creates an empty root directory.
Status Format(NvmPool& pool, const FormatOptions& options);

// Validates magic/version (called on "mount").
Status CheckSuperblock(const NvmPool& pool);

// Ground-truth permission record for `ino` (kernel-only region). Returns nullptr if the
// ino is out of range.
ShadowInode* ShadowInodeOf(NvmPool& pool, Ino ino);

// First LibFS-mappable page (everything below is superblock + kernel region).
PageNumber FileRegionStart(const NvmPool& pool);

// Is `page` a plausible file-region page (used by the verifier and walkers)?
bool ValidFilePage(const NvmPool& pool, PageNumber page);

// ---- Walkers ----

// Visits each index page of the chain starting at `first_index_page`.
// The callback receives the page number and may return a non-OK status to stop.
// Returns kCorrupted on out-of-range page numbers or cycles.
Status ForEachIndexPage(const NvmPool& pool, PageNumber first_index_page,
                        const std::function<Status(PageNumber)>& fn);

// Visits each NVM-resident data page with its logical index within the file
// (file_page_index = byte_offset / kPageSize). Holes (entry == 0) and tier entries
// (digested to the slow backend; see IsTierEntry) are skipped — callers that must see
// digested state use ForEachDataEntry.
Status ForEachDataPage(const NvmPool& pool, PageNumber first_index_page,
                       const std::function<Status(uint64_t file_page_index, PageNumber)>& fn);

// Visits every non-hole index entry RAW: NVM entries are bounds-checked page numbers,
// tier entries are passed through tagged (decode with TierSlotOfEntry). Used by the
// verifier, fsck, digestion, and LibFS aux rebuild — the walkers that must account for
// both tiers.
Status ForEachDataEntry(const NvmPool& pool, PageNumber first_index_page,
                        const std::function<Status(uint64_t file_page_index, uint64_t entry)>& fn);

// ForEachDataEntry over one index page, the chain's `position`-th (0-based): the page in
// the pool or a copy of it.
Status ForEachIndexEntry(const NvmPool& pool, const IndexPage& index, uint64_t position,
                         const std::function<Status(uint64_t file_page_index, uint64_t entry)>& fn);

// Visits each live DirentBlock of the directory whose chain starts at `first_index_page`,
// with its inode number. The ino is the atomic publish field (§4.4) that a concurrent
// create or rename stores with release: it is loaded once, with acquire, and callers use
// this value rather than a second, plain read of dirent->ino. The pointer stays valid as
// long as the pool does; `page`/`slot` locate it.
using DirentFn = std::function<Status(DirentBlock* dirent, Ino ino, PageNumber page, size_t slot)>;
Status ForEachDirent(NvmPool& pool, PageNumber first_index_page, const DirentFn& fn);

// ForEachDirent over one directory data page.
Status ForEachDirentInPage(NvmPool& pool, PageNumber page, const DirentFn& fn);

// Counts live dirents (kNotFound-free convenience used by rmdir and I3).
Result<uint64_t> CountDirents(NvmPool& pool, PageNumber first_index_page);

// The data page covering logical file page `file_page_index`, or kNotFound if it is a hole
// or beyond the chain. O(chain length) — LibFSes use their radix tree instead; this is for
// the verifier and for rebuild.
Result<PageNumber> LookupDataPage(const NvmPool& pool, PageNumber first_index_page,
                                  uint64_t file_page_index);

}  // namespace trio

#endif  // SRC_CORE_CORE_STATE_H_
