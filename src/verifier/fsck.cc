#include "src/verifier/fsck.h"

#include <unordered_map>
#include <unordered_set>

namespace trio {

namespace {

class FsckRun {
 public:
  FsckRun(NvmPool& pool, const std::unordered_map<uint64_t, Ino>* tier_owners)
      : pool_(pool), tier_owners_(tier_owners) {}

  Result<FsckReport> Run() {
    Status super = CheckSuperblock(pool_);
    if (!super.ok()) {
      Problem("G1", kInvalidIno, super.ToString());
      return report_;
    }
    const Superblock* sb = SuperblockOf(pool_);
    CheckFile(&sb->root, kInvalidIno, /*depth=*/0);
    CheckShadowOrphans();
    return report_;
  }

 private:
  void Problem(const std::string& invariant, Ino ino, const std::string& detail) {
    report_.problems.push_back(FsckProblem{invariant, ino, detail});
  }

  // Field-level checks mirroring the online verifier's I1 (duplicated deliberately: an
  // offline checker should not share fate with the code it is auditing).
  bool CheckDirentFields(const DirentBlock& d, bool is_root) {
    const uint32_t type = d.mode & kModeTypeMask;
    bool ok = true;
    if (type != kModeRegular && type != kModeDirectory) {
      Problem("G2", d.ino, "invalid file type bits");
      ok = false;
    }
    // name_len gates every Name() call: a fuzzed length would otherwise make the
    // string_view span far past the fixed-size name array.
    if (d.name_len >= kMaxNameLen) {
      Problem("G2", d.ino, "name length out of range");
      ok = false;
    } else if (!is_root && !ValidFileName(d.Name())) {
      Problem("G2", d.ino, "invalid file name");
      ok = false;
    }
    if (d.nlink != 1) {
      Problem("G2", d.ino, "nlink != 1");
      ok = false;
    }
    if (type == kModeDirectory && d.size != 0) {
      Problem("G2", d.ino, "directory with nonzero size");
      ok = false;
    }
    for (uint8_t b : d.reserved) {
      if (b != 0) {
        Problem("G2", d.ino, "nonzero reserved bytes");
        ok = false;
        break;
      }
    }
    if (d.ino >= SuperblockOf(pool_)->max_inodes) {
      Problem("G2", d.ino, "inode number out of range");
      ok = false;
    }
    return ok;
  }

  // Claims a page for `ino`; reports G3 on double use.
  bool ClaimPage(PageNumber page, Ino ino) {
    auto [it, fresh] = page_owner_.emplace(page, ino);
    if (!fresh) {
      Problem("G3", ino,
              "page " + std::to_string(page) + " also used by ino " +
                  std::to_string(it->second));
      return false;
    }
    report_.pages_in_use++;
    return true;
  }

  // G7: claims a backend-tier slot for `ino`. A slot referenced from two files is the
  // cross-tier analogue of G3; a slot the backend does not record under this ino (when
  // the caller supplied the owner table) is a lost or forged digested page.
  void ClaimTierSlot(uint64_t slot, Ino ino) {
    auto [it, fresh] = slot_owner_.emplace(slot, ino);
    if (!fresh) {
      Problem("G7", ino,
              "backend slot " + std::to_string(slot) + " also used by ino " +
                  std::to_string(it->second));
      return;
    }
    report_.tier_slots_in_use++;
    if (tier_owners_ != nullptr) {
      auto owner = tier_owners_->find(slot);
      if (owner == tier_owners_->end()) {
        Problem("G7", ino,
                "tier entry references backend slot " + std::to_string(slot) +
                    " that the backend does not record as owned");
      } else if (owner->second != ino) {
        Problem("G7", ino,
                "backend records slot " + std::to_string(slot) + " as owned by ino " +
                    std::to_string(owner->second));
      }
    }
  }

  void CheckFile(const DirentBlock* dirent, Ino parent, int depth) {
    if (depth > 512) {
      Problem("G2", dirent->ino, "directory nesting beyond plausible depth");
      return;
    }
    const bool is_root = dirent->ino == kRootIno && parent == kInvalidIno;
    if (!CheckDirentFields(*dirent, is_root)) {
      return;
    }
    // G4: globally unique inode numbers.
    if (!seen_inos_.insert(dirent->ino).second) {
      Problem("G4", dirent->ino, "inode referenced by two dirents");
      return;
    }
    // G5: shadow inode agreement.
    ShadowInode* shadow = ShadowInodeOf(pool_, dirent->ino);
    if (shadow == nullptr || !shadow->Exists()) {
      Problem("G5", dirent->ino, "no shadow inode for live file");
    } else if (shadow->mode != dirent->mode || shadow->uid != dirent->uid ||
               shadow->gid != dirent->gid) {
      Problem("G5", dirent->ino, "cached permissions differ from shadow inode");
    }

    // G2: chain structure. The walkers bound-check and detect cycles.
    uint64_t index_pages = 0;
    Status walk =
        ForEachIndexPage(pool_, dirent->first_index_page, [&](PageNumber p) -> Status {
          ClaimPage(p, dirent->ino);
          ++index_pages;
          return OkStatus();
        });
    if (!walk.ok()) {
      Problem("G2", dirent->ino, "index chain: " + walk.ToString());
      return;
    }
    walk = ForEachDataEntry(pool_, dirent->first_index_page,
                            [&](uint64_t, uint64_t entry) -> Status {
                              if (IsTierEntry(entry)) {
                                // Only regular files digest; a tagged entry inside a
                                // directory chain is corruption, not data.
                                if (dirent->IsDirectory()) {
                                  Problem("G7", dirent->ino,
                                          "tier entry inside a directory chain");
                                } else {
                                  ClaimTierSlot(TierSlotOfEntry(entry), dirent->ino);
                                }
                                return OkStatus();
                              }
                              ClaimPage(static_cast<PageNumber>(entry), dirent->ino);
                              return OkStatus();
                            });
    if (!walk.ok()) {
      Problem("G2", dirent->ino, "data pages: " + walk.ToString());
      return;
    }

    if (dirent->IsRegular()) {
      report_.regular_files++;
      report_.bytes_in_files += dirent->size;
      const uint64_t capacity = index_pages * kIndexEntriesPerPage * kPageSize;
      if (dirent->size > capacity) {
        Problem("G2", dirent->ino, "size exceeds index chain capacity");
      }
      return;
    }

    report_.directories++;
    std::unordered_set<std::string> names;
    Status scan = ForEachDirent(
        pool_, dirent->first_index_page,
        [&](DirentBlock* child, Ino, PageNumber, size_t) -> Status {
          // Only a bounded name_len may be turned into a string; CheckFile reports the
          // out-of-range case.
          if (child->name_len < kMaxNameLen &&
              !names.insert(std::string(child->Name())).second) {
            Problem("G2", dirent->ino,
                    "duplicate name '" + std::string(child->Name()) + "'");
          }
          CheckFile(child, dirent->ino, depth + 1);
          return OkStatus();
        });
    if (!scan.ok()) {
      Problem("G2", dirent->ino, "dirent scan: " + scan.ToString());
    }
  }

  // G6: every shadow inode marked live must have been reached from the root.
  void CheckShadowOrphans() {
    const Superblock* sb = SuperblockOf(pool_);
    for (Ino ino = 1; ino < sb->max_inodes; ++ino) {
      const ShadowInode* shadow = ShadowInodeOf(pool_, ino);
      if (shadow != nullptr && shadow->Exists() && seen_inos_.count(ino) == 0) {
        Problem("G6", ino, "shadow inode live but unreachable from the root");
      }
    }
  }

  NvmPool& pool_;
  const std::unordered_map<uint64_t, Ino>* tier_owners_;
  FsckReport report_;
  std::unordered_map<PageNumber, Ino> page_owner_;
  std::unordered_map<uint64_t, Ino> slot_owner_;
  std::unordered_set<Ino> seen_inos_;
};

}  // namespace

Result<FsckReport> RunFsck(NvmPool& pool,
                           const std::unordered_map<uint64_t, Ino>* tier_owners) {
  return FsckRun(pool, tier_owners).Run();
}

}  // namespace trio
