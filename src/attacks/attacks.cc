#include "src/attacks/attacks.h"

#include <cstddef>
#include <cstring>

namespace trio {

Result<DirentBlock*> MaliciousLibFs::MapTarget(const std::string& path) {
  TRIO_ASSIGN_OR_RETURN(NodePtr node, OpenNodeByPath(path, /*write=*/true));
  return node->dirent;
}

bool MaliciousLibFs::RawStore(void* dst, const void* src, size_t len) {
  // The hardware MMU check: a malicious LibFS can bypass all LibFS-level checks but not
  // the page tables the kernel controller programmed.
  if (!kernel_.MmuCheckRange(libfs_, dst, len, /*write=*/true)) {
    return false;
  }
  pool_.Write(dst, src, len);
  pool_.PersistNow(dst, len);
  return true;
}

bool MaliciousLibFs::RawStore64(uint64_t* dst, uint64_t value) {
  return RawStore(dst, &value, sizeof(value));
}

Status MaliciousLibFs::ReleaseTarget(const std::string& path) {
  // ReleaseFile swallows the unmap status; go through the node directly to surface the
  // verification result.
  TRIO_ASSIGN_OR_RETURN(std::vector<std::string> components, SplitPath(path));
  Ino ino = kRootIno;
  Ino parent = kInvalidIno;
  if (!components.empty()) {
    SplitParent parts;
    parts.leaf = std::move(components.back());
    components.pop_back();
    parts.parent = std::move(components);
    TRIO_ASSIGN_OR_RETURN(NodePtr dir, ResolveDir(parts.parent));
    TRIO_RETURN_IF_ERROR(LockForOp(dir.get(), 1));
    Result<DirSlot> slot = FindEntry(dir.get(), parts.leaf);
    UnlockOp(dir.get());
    if (!slot.ok()) {
      return slot.status();
    }
    ino = slot->ino;
    parent = dir->ino;
  }
  NodePtr node = FindNode(ino);
  if (node != nullptr && node->locally_created) {
    // Surface the parent reconcile result: creations by a malicious LibFS are verified
    // when the parent directory is checked.
    Status parent_commit = kernel_.CommitFile(libfs_, node->parent);
    node->locally_created = false;
    if (!parent_commit.ok()) {
      RevokeNode(ino);
      return parent_commit;
    }
  }
  (void)parent;
  // Quiesce and unmap with the real status.
  Status status = kernel_.UnmapFile(libfs_, ino);
  if (node != nullptr) {
    RevokeNode(ino);  // Drop stale auxiliary state regardless.
  }
  return status;
}

bool MaliciousLibFs::ProbeUnmappedPageFaults() {
  // Pick a page we certainly do not have mapped: the shadow inode table.
  const Superblock* sb = SuperblockOf(pool_);
  char* target = pool_.PageAddress(sb->shadow_table_page);
  uint64_t evil = 0xffffffffffffffffull;
  return !RawStore(target, &evil, sizeof(evil));
}

namespace {

// Locates the first index page of a mapped file (attacker-side convenience).
IndexPage* FirstIndexPage(NvmPool& pool, DirentBlock* dirent) {
  if (dirent->first_index_page == 0) {
    return nullptr;
  }
  return reinterpret_cast<IndexPage*>(pool.PageAddress(dirent->first_index_page));
}

}  // namespace

Status MaliciousLibFs::AttackPointIndexOutside(const std::string& path) {
  TRIO_ASSIGN_OR_RETURN(DirentBlock * dirent, MapTarget(path));
  IndexPage* index = FirstIndexPage(pool_, dirent);
  if (index == nullptr) {
    return InvalidArgument("target file has no pages");
  }
  // "Point at DRAM": in the emulation, any page number outside this file's ownership —
  // e.g. another region of the pool — models a pointer to memory the victim would then
  // read or clobber.
  const uint64_t outside = SuperblockOf(pool_)->total_pages - 1;
  if (!RawStore64(&index->entries[0], outside)) {
    return PermissionDenied("MMU blocked the store");
  }
  return OkStatus();
}

Status MaliciousLibFs::AttackRemoveNonEmptyDir(const std::string& dir_path) {
  // Tombstone the directory's dirent (held in its parent's pages) while it still has
  // children — files become disconnected from the root path (§2.3.2).
  TRIO_ASSIGN_OR_RETURN(SplitParent parts, SplitParentPath(dir_path));
  TRIO_ASSIGN_OR_RETURN(NodePtr parent, ResolveDir(parts.parent));
  TRIO_RETURN_IF_ERROR(LockForOp(parent.get(), 2));
  Result<DirSlot> slot = FindEntry(parent.get(), parts.leaf);
  UnlockOp(parent.get());
  if (!slot.ok()) {
    return slot.status();
  }
  DirentBlock* d = SlotPointer(*slot);
  if (!RawStore64(&d->ino, 0)) {
    return PermissionDenied("MMU blocked the store");
  }
  // Keep the LibFS-side hash table in sync with what an attacker's LibFS would do.
  parent->dir_index->Erase(parts.leaf);
  return OkStatus();
}

Status MaliciousLibFs::AttackSlashInName(const std::string& path) {
  TRIO_ASSIGN_OR_RETURN(DirentBlock * dirent, MapTarget(path));
  char evil = '/';
  if (!RawStore(&dirent->name[0], &evil, 1)) {
    return PermissionDenied("MMU blocked the store");
  }
  return OkStatus();
}

Status MaliciousLibFs::AttackIndexCycle(const std::string& path) {
  TRIO_ASSIGN_OR_RETURN(DirentBlock * dirent, MapTarget(path));
  IndexPage* index = FirstIndexPage(pool_, dirent);
  if (index == nullptr) {
    return InvalidArgument("target file has no pages");
  }
  if (!RawStore64(&index->next, dirent->first_index_page)) {
    return PermissionDenied("MMU blocked the store");
  }
  return OkStatus();
}

Status MaliciousLibFs::AttackDuplicateName(const std::string& dir_path) {
  // Two dirents with the same name: a victim resolving the name becomes
  // implementation-dependent (semantic attack).
  TRIO_ASSIGN_OR_RETURN(std::vector<std::string> components, SplitPath(dir_path));
  TRIO_ASSIGN_OR_RETURN(NodePtr dir, ResolveDir(components));
  TRIO_RETURN_IF_ERROR(LockForOp(dir.get(), 2));
  UnlockOp(dir.get());
  // Find two live dirents in the directory and copy one name over the other.
  DirentBlock* first = nullptr;
  DirentBlock* second = nullptr;
  Status walk = ForEachDirent(pool_, dir->dirent->first_index_page,
                              [&](DirentBlock* d, Ino, PageNumber, size_t) -> Status {
                                if (first == nullptr) {
                                  first = d;
                                } else if (second == nullptr) {
                                  second = d;
                                }
                                return OkStatus();
                              });
  TRIO_RETURN_IF_ERROR(walk);
  if (second == nullptr) {
    return InvalidArgument("need two files in the directory");
  }
  char name_copy[kMaxNameLen];
  std::memcpy(name_copy, first->name, kMaxNameLen);
  uint16_t len = first->name_len;
  if (!RawStore(second->name, name_copy, kMaxNameLen) ||
      !RawStore(&second->name_len, &len, sizeof(len))) {
    return PermissionDenied("MMU blocked the store");
  }
  return OkStatus();
}

Status MaliciousLibFs::AttackDoubleReference(const std::string& path) {
  TRIO_ASSIGN_OR_RETURN(DirentBlock * dirent, MapTarget(path));
  IndexPage* index = FirstIndexPage(pool_, dirent);
  if (index == nullptr || index->entries[0] == 0) {
    return InvalidArgument("target file needs at least one data page");
  }
  if (!RawStore64(&index->entries[1], index->entries[0])) {
    return PermissionDenied("MMU blocked the store");
  }
  return OkStatus();
}

Status MaliciousLibFs::AttackPermissionEscalation(const std::string& path) {
  TRIO_ASSIGN_OR_RETURN(DirentBlock * dirent, MapTarget(path));
  const uint32_t evil_mode = (dirent->mode & kModeTypeMask) | 0777;
  const uint32_t evil_uid = 0;  // Claim root ownership.
  if (!RawStore(&dirent->mode, &evil_mode, sizeof(evil_mode)) ||
      !RawStore(&dirent->uid, &evil_uid, sizeof(evil_uid))) {
    return PermissionDenied("MMU blocked the store");
  }
  return OkStatus();
}

Status MaliciousLibFs::AttackSizeBeyondCapacity(const std::string& path) {
  TRIO_ASSIGN_OR_RETURN(DirentBlock * dirent, MapTarget(path));
  if (!RawStore64(&dirent->size, 1ull << 40)) {
    return PermissionDenied("MMU blocked the store");
  }
  return OkStatus();
}

Status MaliciousLibFs::AttackStealForeignPage(const std::string& path,
                                              PageNumber foreign_page) {
  TRIO_ASSIGN_OR_RETURN(DirentBlock * dirent, MapTarget(path));
  IndexPage* index = FirstIndexPage(pool_, dirent);
  if (index == nullptr) {
    return InvalidArgument("target file has no pages");
  }
  if (!RawStore64(&index->entries[2], foreign_page)) {
    return PermissionDenied("MMU blocked the store");
  }
  return OkStatus();
}

Status MaliciousLibFs::AttackInvalidType(const std::string& path) {
  TRIO_ASSIGN_OR_RETURN(DirentBlock * dirent, MapTarget(path));
  const uint32_t evil = dirent->mode & kModePermMask;  // Type bits zeroed.
  if (!RawStore(&dirent->mode, &evil, sizeof(evil))) {
    return PermissionDenied("MMU blocked the store");
  }
  return OkStatus();
}

Status MaliciousLibFs::AttackReservedBytes(const std::string& path) {
  TRIO_ASSIGN_OR_RETURN(DirentBlock * dirent, MapTarget(path));
  const uint64_t payload = 0x6c6976652100beefull;
  if (!RawStore(&dirent->reserved2, &payload, sizeof(payload))) {
    return PermissionDenied("MMU blocked the store");
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Cross-shard trust-boundary attacks
// ---------------------------------------------------------------------------

namespace {

// First free dirent slot in a directory's data pages (nullptr if none).
DirentBlock* FindFreeDirentSlot(NvmPool& pool, PageNumber first_index_page) {
  DirentBlock* found = nullptr;
  (void)ForEachDataPage(pool, first_index_page, [&](uint64_t, PageNumber p) -> Status {
    if (found != nullptr) {
      return OkStatus();
    }
    auto* page = reinterpret_cast<DirDataPage*>(pool.PageAddress(p));
    for (uint32_t s = 0; s < kDirentsPerPage; ++s) {
      if (page->slots[s].IsFree()) {
        found = &page->slots[s];
        break;
      }
    }
    return OkStatus();
  });
  return found;
}

}  // namespace

Result<DirentBlock> MaliciousLibFs::ReadVictimDirent(const std::string& victim_path,
                                                     bool write_map_parent) {
  TRIO_ASSIGN_OR_RETURN(std::vector<std::string> components, SplitPath(victim_path));
  if (components.empty()) {
    return InvalidArgument("victim must not be the root");
  }
  SplitParent parts;
  parts.leaf = std::move(components.back());
  components.pop_back();
  parts.parent = std::move(components);
  TRIO_ASSIGN_OR_RETURN(NodePtr parent, ResolveDir(parts.parent));
  // write_map_parent makes a later cross-directory claim "permitted": the verifier accepts
  // a child another directory owns iff this LibFS write-maps that directory
  // (IsWriteHeldBy). A read map deliberately leaves the claim unauthorized.
  TRIO_RETURN_IF_ERROR(LockForOp(parent.get(), write_map_parent ? 2 : 1));
  Result<DirSlot> slot = FindEntry(parent.get(), parts.leaf);
  UnlockOp(parent.get());
  if (!slot.ok()) {
    return slot.status();
  }
  return *SlotPointer(*slot);
}

Status MaliciousLibFs::ForgeChildClaim(const std::string& dir_path,
                                       const DirentBlock& forged) {
  TRIO_ASSIGN_OR_RETURN(std::vector<std::string> components, SplitPath(dir_path));
  TRIO_ASSIGN_OR_RETURN(NodePtr dir, ResolveDir(components));
  TRIO_RETURN_IF_ERROR(LockForOp(dir.get(), 2));
  UnlockOp(dir.get());
  DirentBlock* slot = FindFreeDirentSlot(pool_, dir->dirent->first_index_page);
  if (slot == nullptr) {
    return InvalidArgument("no free dirent slot in the attacker directory");
  }
  if (!RawStore(slot, &forged, sizeof(forged))) {
    return PermissionDenied("MMU blocked the store");
  }
  return OkStatus();
}

Status MaliciousLibFs::AttackCrossShardForeignClaim(const std::string& dir_path,
                                                    const std::string& victim_path) {
  // Copy the victim's dirent verbatim — every cached field matches the shadow inode, so
  // only the cross-shard ownership walk can tell this claim from a real rename.
  TRIO_ASSIGN_OR_RETURN(DirentBlock forged,
                        ReadVictimDirent(victim_path, /*write_map_parent=*/false));
  return ForgeChildClaim(dir_path, forged);
}

Status MaliciousLibFs::AttackMovedInPermissionLift(const std::string& dir_path,
                                                   const std::string& victim_path) {
  // Holding the old parent's write map makes the move itself legitimate; the attack is
  // the smuggled chmod — lifted permission bits and root ownership in the cached copy.
  TRIO_ASSIGN_OR_RETURN(DirentBlock forged,
                        ReadVictimDirent(victim_path, /*write_map_parent=*/true));
  forged.mode |= 0777;
  forged.uid = 0;
  forged.gid = 0;
  return ForgeChildClaim(dir_path, forged);
}

// ---------------------------------------------------------------------------
// Scripted corruption sweep
// ---------------------------------------------------------------------------

namespace {

struct Script {
  const char* name;
  // Returns OkStatus when the corruption was applied.
  Status (*apply)(MaliciousLibFs&, const std::string&, Rng&);
};

Status CorruptDirentField(MaliciousLibFs& fs, const std::string& path, Rng& rng,
                          size_t offset, size_t len) {
  TRIO_ASSIGN_OR_RETURN(DirentBlock * dirent, fs.MapTarget(path));
  std::vector<uint8_t> junk(len);
  for (auto& b : junk) {
    b = static_cast<uint8_t>(rng.Range(1, 255));  // Nonzero: zero often means "unset".
  }
  if (!fs.RawStore(reinterpret_cast<char*>(dirent) + offset, junk.data(), len)) {
    return PermissionDenied("MMU blocked the store");
  }
  return OkStatus();
}

const Script kScripts[] = {
    {"ino_random",
     [](MaliciousLibFs& fs, const std::string& p, Rng& rng) {
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       // Random inode number far outside anything leased or live.
       return fs.RawStore64(&d->ino, rng.Range(100000, 1u << 30))
                  ? OkStatus()
                  : PermissionDenied("");
     }},
    {"first_index_random",
     [](MaliciousLibFs& fs, const std::string& p, Rng& rng) {
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       return fs.RawStore64(&d->first_index_page, rng.Range(1u << 20, 1u << 24))
                  ? OkStatus()
                  : PermissionDenied("");
     }},
    {"size_random", [](MaliciousLibFs& fs, const std::string& p,
                       Rng& rng) { return CorruptDirentField(fs, p, rng, 16, 8); }},
    {"mode_random", [](MaliciousLibFs& fs, const std::string& p,
                       Rng& rng) { return CorruptDirentField(fs, p, rng, 24, 4); }},
    {"uid_random", [](MaliciousLibFs& fs, const std::string& p,
                      Rng& rng) { return CorruptDirentField(fs, p, rng, 28, 4); }},
    {"gid_random", [](MaliciousLibFs& fs, const std::string& p,
                      Rng& rng) { return CorruptDirentField(fs, p, rng, 32, 4); }},
    {"nlink_random", [](MaliciousLibFs& fs, const std::string& p,
                        Rng& rng) { return CorruptDirentField(fs, p, rng, 36, 4); }},
    {"name_len_random",
     [](MaliciousLibFs& fs, const std::string& p, Rng& rng) {
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       uint16_t evil = static_cast<uint16_t>(rng.Range(kMaxNameLen, 60000));
       return fs.RawStore(&d->name_len, &evil, sizeof(evil)) ? OkStatus()
                                                             : PermissionDenied("");
     }},
    {"name_embedded_nul",
     [](MaliciousLibFs& fs, const std::string& p, Rng&) {
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       char nul = '\0';
       return fs.RawStore(&d->name[0], &nul, 1) ? OkStatus() : PermissionDenied("");
     }},
    {"reserved_random", [](MaliciousLibFs& fs, const std::string& p,
                           Rng& rng) { return CorruptDirentField(fs, p, rng, 66, 6); }},
    {"index_entry_random",
     [](MaliciousLibFs& fs, const std::string& p, Rng& rng) {
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       if (d->first_index_page == 0) {
         return InvalidArgument("no index page");
       }
       auto* index =
           reinterpret_cast<IndexPage*>(fs.raw_pool().PageAddress(d->first_index_page));
       return fs.RawStore64(&index->entries[rng.Below(4)], rng.Range(2, 1u << 28))
                  ? OkStatus()
                  : PermissionDenied("");
     }},
    {"index_next_random",
     [](MaliciousLibFs& fs, const std::string& p, Rng& rng) {
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       if (d->first_index_page == 0) {
         return InvalidArgument("no index page");
       }
       auto* index =
           reinterpret_cast<IndexPage*>(fs.raw_pool().PageAddress(d->first_index_page));
       return fs.RawStore64(&index->next, rng.Range(2, 1u << 28)) ? OkStatus()
                                                                  : PermissionDenied("");
     }},
    {"whole_dirent_random",
     [](MaliciousLibFs& fs, const std::string& p, Rng& rng) {
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       std::vector<uint8_t> junk(sizeof(DirentBlock));
       for (auto& b : junk) {
         b = static_cast<uint8_t>(rng.Below(256));
       }
       return fs.RawStore(d, junk.data(), junk.size()) ? OkStatus() : PermissionDenied("");
     }},
    {"index_page_random",
     [](MaliciousLibFs& fs, const std::string& p, Rng& rng) {
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       if (d->first_index_page == 0) {
         return InvalidArgument("no index page");
       }
       char* page = fs.raw_pool().PageAddress(d->first_index_page);
       std::vector<uint8_t> junk(256);
       for (auto& b : junk) {
         b = static_cast<uint8_t>(rng.Below(256));
       }
       return fs.RawStore(page + rng.Below(kPageSize - junk.size()), junk.data(),
                          junk.size())
                  ? OkStatus()
                  : PermissionDenied("");
     }},
    {"type_flip",
     [](MaliciousLibFs& fs, const std::string& p, Rng&) {
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       // Flip regular <-> directory: the structure no longer matches the type.
       uint32_t evil = d->mode ^ (kModeRegular | kModeDirectory);
       return fs.RawStore(&d->mode, &evil, sizeof(evil)) ? OkStatus()
                                                         : PermissionDenied("");
     }},
    {"dir_size_nonzero",
     [](MaliciousLibFs& fs, const std::string& p, Rng& rng) {
       // Applied to the parent directory: directories must carry size 0.
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       return fs.RawStore64(&d->size, rng.Range(1, 1u << 20)) ? OkStatus()
                                                              : PermissionDenied("");
     }},
    {"kitchen_sink",
     [](MaliciousLibFs& fs, const std::string& p, Rng& rng) {
       // Several corruptions at once ("run different scripts together to cause more
       // complex corruption", §6.5).
       (void)CorruptDirentField(fs, p, rng, 24, 4);
       (void)CorruptDirentField(fs, p, rng, 16, 8);
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       if (d->first_index_page != 0) {
         auto* index =
             reinterpret_cast<IndexPage*>(fs.raw_pool().PageAddress(d->first_index_page));
         (void)fs.RawStore64(&index->entries[0], rng.Range(2, 1u << 28));
       }
       return OkStatus();
     }},
    // ---- Fuzz-corpus extension: targeted bit flips, stale pointers, forged identity,
    // boundary sizes, directory cycles. Each is a distinct corruption class the verifier
    // must repair or quarantine (never crash or hang on).
    {"ino_root_duplicate",
     [](MaliciousLibFs& fs, const std::string& p, Rng&) {
       // Claim to BE the root directory: in-bounds but wrong identity.
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       return fs.RawStore64(&d->ino, kRootIno) ? OkStatus() : PermissionDenied("");
     }},
    {"ino_low_bitflip",
     [](MaliciousLibFs& fs, const std::string& p, Rng&) {
       // Single-bit media flip in a CHECKED field (mtime/ctime/generation are unchecked,
       // so flips there are undetectable by design — this targets identity instead).
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       return fs.RawStore64(&d->ino, d->ino ^ 1) ? OkStatus() : PermissionDenied("");
     }},
    {"size_high_bitflip",
     [](MaliciousLibFs& fs, const std::string& p, Rng&) {
       // One flipped high bit turns a sane size into ~1TB, far past chain capacity.
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       return fs.RawStore64(&d->size, d->size ^ (1ull << 40)) ? OkStatus()
                                                              : PermissionDenied("");
     }},
    {"nlink_bitflip",
     [](MaliciousLibFs& fs, const std::string& p, Rng&) {
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       const uint32_t evil = d->nlink ^ 0x4;  // 1 -> 5: no hard links exist.
       return fs.RawStore(&d->nlink, &evil, sizeof(evil)) ? OkStatus()
                                                          : PermissionDenied("");
     }},
    {"size_capacity_plus_one",
     [](MaliciousLibFs& fs, const std::string& p, Rng&) {
       // Boundary probe: size == capacity is legal (holes read as zeros); capacity + 1
       // must be rejected. Off-by-one in the verifier's bound shows up only here.
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       if (d->first_index_page == 0) {
         return InvalidArgument("no index page");
       }
       uint64_t index_pages = 0;
       PageNumber page = d->first_index_page;
       while (page != 0 && index_pages < 64) {
         ++index_pages;
         page = reinterpret_cast<IndexPage*>(fs.raw_pool().PageAddress(page))->next;
       }
       const uint64_t capacity = index_pages * kIndexEntriesPerPage * kPageSize;
       return fs.RawStore64(&d->size, capacity + 1) ? OkStatus() : PermissionDenied("");
     }},
    {"forged_owner_ids",
     [](MaliciousLibFs& fs, const std::string& p, Rng&) {
       // Forge the cached ownership record (uid AND gid, mode untouched): must disagree
       // with the shadow inode, the kernel-held ground truth.
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       const uint32_t uid = d->uid + 4242;
       const uint32_t gid = d->gid + 4242;
       return (fs.RawStore(&d->uid, &uid, sizeof(uid)) &&
               fs.RawStore(&d->gid, &gid, sizeof(gid)))
                  ? OkStatus()
                  : PermissionDenied("");
     }},
    {"zeroed_header_fields",
     [](MaliciousLibFs& fs, const std::string& p, Rng&) {
       // Zero everything between ino and name: a "partially torn" dirent whose ino still
       // claims the slot is live (mode 0 has no valid type).
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       const std::vector<uint8_t> zeros(offsetof(DirentBlock, name) - sizeof(uint64_t), 0);
       return fs.RawStore(reinterpret_cast<char*>(d) + sizeof(uint64_t), zeros.data(),
                          zeros.size())
                  ? OkStatus()
                  : PermissionDenied("");
     }},
    {"name_all_slashes",
     [](MaliciousLibFs& fs, const std::string& p, Rng&) {
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       char name[kMaxNameLen] = {};
       name[0] = name[1] = name[2] = name[3] = '/';
       const uint16_t len = 4;
       return (fs.RawStore(d->name, name, sizeof(name)) &&
               fs.RawStore(&d->name_len, &len, sizeof(len)))
                  ? OkStatus()
                  : PermissionDenied("");
     }},
    {"index_double_reference",
     [](MaliciousLibFs& fs, const std::string& p, Rng&) {
       // The same data page twice in one file: a write through one slot silently aliases
       // the other.
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       if (d->first_index_page == 0) {
         return InvalidArgument("no index page");
       }
       auto* index =
           reinterpret_cast<IndexPage*>(fs.raw_pool().PageAddress(d->first_index_page));
       if (index->entries[0] == 0) {
         return InvalidArgument("no data page");
       }
       return fs.RawStore64(&index->entries[1], index->entries[0])
                  ? OkStatus()
                  : PermissionDenied("");
     }},
    {"index_shadow_table_pointer",
     [](MaliciousLibFs& fs, const std::string& p, Rng&) {
       // Point a data slot at the kernel's shadow inode table: a victim write-back
       // through this entry would overwrite the ground-truth permission records.
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       if (d->first_index_page == 0) {
         return InvalidArgument("no index page");
       }
       auto* index =
           reinterpret_cast<IndexPage*>(fs.raw_pool().PageAddress(d->first_index_page));
       return fs.RawStore64(&index->entries[0],
                            SuperblockOf(fs.raw_pool())->shadow_table_page)
                  ? OkStatus()
                  : PermissionDenied("");
     }},
    {"index_stale_unowned_pointer",
     [](MaliciousLibFs& fs, const std::string& p, Rng&) {
       // In-range page that nobody owns — models a stale pointer to a freed page.
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       if (d->first_index_page == 0) {
         return InvalidArgument("no index page");
       }
       auto* index =
           reinterpret_cast<IndexPage*>(fs.raw_pool().PageAddress(d->first_index_page));
       return fs.RawStore64(&index->entries[1],
                            SuperblockOf(fs.raw_pool())->total_pages - 2)
                  ? OkStatus()
                  : PermissionDenied("");
     }},
    {"index_next_self",
     [](MaliciousLibFs& fs, const std::string& p, Rng&) {
       // Tightest possible chain cycle: the first index page links to itself.
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       if (d->first_index_page == 0) {
         return InvalidArgument("no index page");
       }
       auto* index =
           reinterpret_cast<IndexPage*>(fs.raw_pool().PageAddress(d->first_index_page));
       return fs.RawStore64(&index->next, d->first_index_page) ? OkStatus()
                                                               : PermissionDenied("");
     }},
    {"first_index_foreign_dirent",
     [](MaliciousLibFs& fs, const std::string& p, Rng&) {
       // A regular file whose index chain IS a directory dirent page: reading the file
       // would leak directory metadata, writing it would shred the namespace. The file's
       // own dirent lives in such a page (owned by its parent), so point at that.
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       const PageNumber dirent_page = static_cast<PageNumber>(
           (reinterpret_cast<char*>(d) - fs.raw_pool().PageAddress(0)) / kPageSize);
       return fs.RawStore64(&d->first_index_page, dirent_page) ? OkStatus()
                                                               : PermissionDenied("");
     }},
    {"index_forged_tier_mapping",
     [](MaliciousLibFs& fs, const std::string& p, Rng& rng) {
       // Forge a digested-page mapping: replace a live NVM data entry with a tier-tagged
       // entry whose backend slot this file never earned. With no backend configured,
       // every tagged entry is forged; with one, the slot is either never-written or
       // owned by another ino. Either way CheckTierSlot must condemn it — a LibFS that
       // could mint slots could read other tenants' digested data at reconcile time.
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       if (d->first_index_page == 0) {
         return InvalidArgument("no index page");
       }
       auto* index =
           reinterpret_cast<IndexPage*>(fs.raw_pool().PageAddress(d->first_index_page));
       if (index->entries[0] == 0) {
         return InvalidArgument("no data page");
       }
       const uint64_t slot = 1 + rng.Below(1u << 20);
       return fs.RawStore64(&index->entries[0], MakeTierEntry(slot))
                  ? OkStatus()
                  : PermissionDenied("");
     }},
    {"dir_index_cycle",
     [](MaliciousLibFs& fs, const std::string& p, Rng&) {
       // Applied to a directory: its dirent-page chain loops, so a naive readdir never
       // terminates. The verifier's bounded walk must flag it within its deadline.
       TRIO_ASSIGN_OR_RETURN(DirentBlock * d, fs.MapTarget(p));
       if (d->first_index_page == 0) {
         return InvalidArgument("directory has no dirent pages");
       }
       auto* index =
           reinterpret_cast<IndexPage*>(fs.raw_pool().PageAddress(d->first_index_page));
       return fs.RawStore64(&index->next, d->first_index_page) ? OkStatus()
                                                               : PermissionDenied("");
     }},
};

}  // namespace

size_t CorruptionScenarioCount() { return sizeof(kScripts) / sizeof(kScripts[0]); }

std::string CorruptionScenarioName(size_t scenario_index) {
  return kScripts[scenario_index % CorruptionScenarioCount()].name;
}

Status ApplyScriptedCorruption(MaliciousLibFs& attacker, const std::string& path,
                               size_t scenario_index, uint64_t seed) {
  Rng rng(seed * 7919 + scenario_index);
  return kScripts[scenario_index % CorruptionScenarioCount()].apply(attacker, path, rng);
}

}  // namespace trio
