#include "src/verifier/verifier.h"

#include <bit>
#include <cstring>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/common/hash.h"

namespace trio {

namespace {

bool AllZero(const uint8_t* bytes, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    if (bytes[i] != 0) {
      return false;
    }
  }
  return true;
}

// The core-state walkers predate the taxonomy and return bare kCorrupted messages;
// reclassify them so chain failures are structured like every other verify error.
Status ClassifyWalkerError(const Status& status) {
  if (status.ok() || VerifyError::IsStructured(status)) {
    return status;
  }
  const VerifyErrorClass cls = status.message().find("cycle") != std::string::npos
                                   ? VerifyErrorClass::kChainCycle
                                   : VerifyErrorClass::kBadPagePointer;
  return VerifyFail(cls, "I2", status.message());
}

// I4 for an existing file: the mode, uid and gid its dirent caches match its shadow inode.
Status CheckCachedPermission(NvmPool& pool, Ino ino, const DirentBlock& dirent) {
  const ShadowInode* shadow = ShadowInodeOf(pool, ino);
  if (shadow == nullptr || !shadow->Exists()) {
    return VerifyFail(VerifyErrorClass::kMissingShadow, "I4",
                      "no shadow inode for existing file " + std::to_string(ino));
  }
  if (shadow->mode != dirent.mode || shadow->uid != dirent.uid || shadow->gid != dirent.gid) {
    return VerifyFail(VerifyErrorClass::kPermissionMismatch, "I4",
                      "cached permission of file " + std::to_string(ino) +
                          " differs from its shadow inode");
  }
  return OkStatus();
}

// The verifier's duplicate checks use scratch sized once per verification, never a hash
// node per page or dirent.

// "Seen before?" over ids below a fixed limit (page numbers, inode numbers): a bitmap
// whose 512-byte leaves are allocated on first touch, so a small file costs one leaf
// whatever the pool size.
class IdBitmap {
 public:
  explicit IdBitmap(uint64_t limit) : leaves_((limit + kLeafBits - 1) / kLeafBits) {}

  // Marks `id`, which must be below the limit; false if it was already marked.
  bool Insert(uint64_t id) {
    std::unique_ptr<uint64_t[]>& leaf = leaves_[id / kLeafBits];
    if (leaf == nullptr) {
      leaf = std::make_unique<uint64_t[]>(kLeafBits / 64);
    }
    uint64_t& word = leaf[id % kLeafBits / 64];
    const uint64_t bit = 1ull << (id % 64);
    const bool fresh = (word & bit) == 0;
    word |= bit;
    return fresh;
  }

  bool Contains(uint64_t id) const {
    if (id / kLeafBits >= leaves_.size() || leaves_[id / kLeafBits] == nullptr) {
      return false;
    }
    return ((leaves_[id / kLeafBits][id % kLeafBits / 64] >> (id % 64)) & 1) != 0;
  }

 private:
  static constexpr uint64_t kLeafBits = 4096;
  std::vector<std::unique_ptr<uint64_t[]>> leaves_;
};

// "Seen before?" over keys with no small universe (dirent names, backend slots): an
// open-addressed table sized for at most `max_inserts` keys at load factor <= 1/2 and
// never grown. Keys are compared exactly on a hash match; Key{} marks an empty slot, so
// it is never inserted.
template <typename Key>
class FlatScratch {
 public:
  explicit FlatScratch(size_t max_inserts)
      : mask_(std::bit_ceil(2 * max_inserts + 1) - 1), slots_(mask_ + 1) {}

  // Inserts `key` (whose hash is `hash`); false if an equal key is already present.
  bool Insert(uint64_t hash, Key key) {
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.key == Key{}) {
        slot = Slot{hash, key};
        return true;
      }
      if (slot.hash == hash && slot.key == key) {
        return false;
      }
    }
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    Key key{};
  };
  size_t mask_;
  std::vector<Slot> slots_;
};

}  // namespace

Status IntegrityVerifier::CheckDeadline(const VerifyRequest& request) const {
  if (request.deadline_ns != 0 && clock_->NowNs() > request.deadline_ns) {
    stats_.deadline_exceeded.fetch_add(1);
    return VerifyFail(VerifyErrorClass::kDeadline, "I2",
                      "verification exceeded its time budget; state unverified");
  }
  return OkStatus();
}

Status IntegrityVerifier::CheckDirentFields(const DirentBlock& dirent, Ino ino,
                                            bool allow_root) const {
  // I1: file type must be a regular file or a directory.
  const uint32_t type = dirent.mode & kModeTypeMask;
  if (type != kModeRegular && type != kModeDirectory) {
    return VerifyFail(VerifyErrorClass::kBadType, "I1", "invalid file type");
  }
  // I1: name length must be validated BEFORE Name() constructs a view over the name
  // bytes — a fuzzed name_len would otherwise read far past the 48-byte array.
  if (dirent.name_len >= kMaxNameLen) {
    return VerifyFail(VerifyErrorClass::kBadName, "I1", "name length out of range");
  }
  // I1: valid name. The root's pseudo-name "/" is only legal in the superblock.
  const std::string_view name = dirent.Name();
  if (allow_root && name == "/") {
    // OK.
  } else if (!ValidFileName(name)) {
    return VerifyFail(VerifyErrorClass::kBadName, "I1", "invalid file name");
  }
  // I1: trailing name bytes beyond name_len must be zero (no hidden payload).
  if (!AllZero(reinterpret_cast<const uint8_t*>(dirent.name) + dirent.name_len,
               kMaxNameLen - dirent.name_len)) {
    return VerifyFail(VerifyErrorClass::kHiddenPayload, "I1", "nonzero bytes after name");
  }
  if (!AllZero(dirent.reserved, sizeof(dirent.reserved)) || dirent.reserved2 != 0) {
    return VerifyFail(VerifyErrorClass::kHiddenPayload, "I1", "reserved fields not zero");
  }
  if (dirent.nlink != 1) {
    return VerifyFail(VerifyErrorClass::kBadLinkCount, "I1",
                      "nlink must be 1 (no hard links)");
  }
  // I1: directories carry no size in core state.
  if (type == kModeDirectory && dirent.size != 0) {
    return VerifyFail(VerifyErrorClass::kBadSize, "I1", "directory size must be 0");
  }
  // I1: ino within table bounds.
  if (ino >= SuperblockOf(pool_)->max_inodes) {
    return VerifyFail(VerifyErrorClass::kBadInodeNumber, "I1",
                      "inode number out of range");
  }
  // first_index_page is committed with a release store too (a directory or file growing
  // its first index page), so it gets one acquire load like the ino.
  const PageNumber first_index_page = pool_.Load64(&dirent.first_index_page);
  if (first_index_page != 0 && !ValidFilePage(pool_, first_index_page)) {
    return VerifyFail(VerifyErrorClass::kBadPagePointer, "I1",
                      "first index page out of range");
  }
  return OkStatus();
}

Status IntegrityVerifier::ReadFault(PageNumber page) const {
  if (injector_ != nullptr && injector_->ShouldFire(kFaultVerifierMediaRead)) {
    return VerifyFail(VerifyErrorClass::kMediaFailure, "I2",
                      "transient media error reading page " + std::to_string(page));
  }
  return OkStatus();
}

Status IntegrityVerifier::CheckChain(const VerifyRequest& request,
                                     PageNumber first_index_page, VerifyReport* report,
                                     uint64_t* index_pages) const {
  const Ino ino = request.ino;
  IdBitmap seen(SuperblockOf(pool_)->total_pages);  // The walkers admit no page past it.
  auto check_page = [&](PageNumber page) -> Status {
    TRIO_RETURN_IF_ERROR(CheckDeadline(request));
    TRIO_RETURN_IF_ERROR(ReadFault(page));
    // I2: no double references within the file.
    if (!seen.Insert(page)) {
      return VerifyFail(VerifyErrorClass::kDoubleReference, "I2",
                        "page referenced twice within file");
    }
    // I2: page must have been part of this file already, or leased to the writer.
    const PageState state = ownership_.StateOfPage(page);
    const bool owned_by_file = state.state == ResourceState::kOwned && state.owner == ino;
    const bool leased_to_writer =
        state.state == ResourceState::kLeased && state.lessee == request.writer;
    if (!owned_by_file && !leased_to_writer) {
      return VerifyFail(VerifyErrorClass::kForeignPage, "I2",
                        "page neither owned by file nor leased to writer");
    }
    report->pages.push_back(page);
    return OkStatus();
  };

  // Walk index pages, then the raw data entries of exactly those pages (not a second
  // chain walk, so the chain checked here bounds them). A regular file's index pages are
  // copied into report->chain as they are checked and both walks read the copies, so the
  // chain the kernel keeps is the chain this pass accepted even if the writer is storing.
  // Each index page number is bound-checked, and the first page seen twice ends a cycle;
  // tier entries pass through tagged and are checked against the backend owner oracle
  // instead of the NVM ownership table.
  const bool is_dir = request.dirent != nullptr && request.dirent->IsDirectory();
  Status status = OkStatus();
  for (PageNumber page = first_index_page; page != 0;) {
    if (!ValidFilePage(pool_, page)) {
      status = VerifyFail(VerifyErrorClass::kBadPagePointer, "I2",
                          "index page number out of range");
      break;
    }
    status = check_page(page);
    if (!status.ok()) {
      break;
    }
    const void* read = is_dir ? pool_.PageAddress(page) : report->chain.Add(pool_, page);
    page = static_cast<const IndexPage*>(read)->next;
  }
  *index_pages = report->pages.size();
  auto index_page = [&](uint64_t i) -> const IndexPage& {
    const void* read = is_dir ? pool_.PageAddress(report->pages[i])
                              : report->chain.contents[i].get();
    return *static_cast<const IndexPage*>(read);
  };
  std::optional<FlatScratch<uint64_t>> seen_slots;  // Sized at the first tier entry.
  // Built once: every index page's walk below takes it by reference.
  const std::function<Status(uint64_t, uint64_t)> check_entry =
      [&](uint64_t /*file_page_index*/, uint64_t entry) -> Status {
    if (!IsTierEntry(entry)) {
      return check_page(entry);
    }
    TRIO_RETURN_IF_ERROR(CheckDeadline(request));
    // Directory chains never digest: a tagged entry there is forged outright.
    if (is_dir) {
      return VerifyFail(VerifyErrorClass::kBadPagePointer, "I2",
                        "tier entry inside a directory chain");
    }
    if (!seen_slots) {
      seen_slots.emplace(*index_pages * kIndexEntriesPerPage);
    }
    // I2: no double references within the file, backend tier included. (A tagged entry
    // is never 0, the table's empty key.)
    if (!seen_slots->Insert(HashBytes(&entry, sizeof(entry)), entry)) {
      return VerifyFail(VerifyErrorClass::kDoubleReference, "I2",
                        "backend slot referenced twice within file");
    }
    const uint64_t slot = TierSlotOfEntry(entry);
    TRIO_RETURN_IF_ERROR(env_.CheckTierSlot(ino, slot));
    report->backend_slots.push_back(slot);
    return OkStatus();
  };
  for (uint64_t i = 0; status.ok() && i < *index_pages; ++i) {
    status = ClassifyWalkerError(ForEachIndexEntry(pool_, index_page(i), i, check_entry));
  }
  stats_.pages_scanned.fetch_add(report->pages.size() + report->backend_slots.size());
  return status;
}

Result<bool> IntegrityVerifier::MatchesVerifiedChain(const VerifyRequest& request,
                                                     PageNumber first_index_page) const {
  const PageImages& chain = *request.verified_chain;
  if (first_index_page != chain.head()) {
    return false;
  }
  for (size_t i = 0; i < chain.pages.size(); ++i) {
    TRIO_RETURN_IF_ERROR(CheckDeadline(request));
    TRIO_RETURN_IF_ERROR(ReadFault(chain.pages[i]));
    if (std::memcmp(pool_.PageAddress(chain.pages[i]), chain.contents[i].get(),
                    kPageSize) != 0) {
      return false;
    }
  }
  return true;
}

Result<VerifyReport> IntegrityVerifier::Verify(const VerifyRequest& request) {
  stats_.files_verified.fetch_add(1);
  if (request.dirent == nullptr) {
    stats_.failures.fetch_add(1);
    return InvalidArgument("verify request without dirent");
  }
  // Transient media faults abort a pass; re-run the whole verification (every pass
  // re-reads the chain, so a fault that clears on retry costs only the retries).
  Result<VerifyReport> result = VerifyOnce(request);
  for (int attempt = 0; attempt < media_read_retries_ && !result.ok(); ++attempt) {
    if (VerifyError::FromStatus(result.status()).cls != VerifyErrorClass::kMediaFailure) {
      break;
    }
    stats_.media_retries.fetch_add(1);
    result = VerifyOnce(request);
  }
  if (!result.ok()) {
    stats_.failures.fetch_add(1);
  }
  return result;
}

Result<VerifyReport> IntegrityVerifier::VerifyOnce(const VerifyRequest& request) {
  return request.dirent->IsDirectory() ? VerifyDirectory(request)
                                       : VerifyRegular(request);
}

Result<VerifyReport> IntegrityVerifier::VerifyRegular(const VerifyRequest& request) {
  const DirentBlock& dirent = *request.dirent;
  // The ino is the dirent's publish field (§4.4): one acquire load, used for every check.
  const Ino dirent_ino = pool_.Load64(&dirent.ino);
  TRIO_RETURN_IF_ERROR(CheckDirentFields(dirent, dirent_ino, /*allow_root=*/false));
  if (!dirent.IsRegular()) {
    return VerifyFail(VerifyErrorClass::kIdentityMismatch, "I1",
                      "expected a regular file");
  }
  if (dirent_ino != request.ino) {
    return VerifyFail(VerifyErrorClass::kIdentityMismatch, "I1",
                      "dirent ino does not match file identity");
  }

  // I2 over the chain: compared first with the chain an earlier pass accepted (equal bytes
  // reference the same pages, which have stayed the file's), walked otherwise.
  VerifyReport report;
  uint64_t index_pages = 0;
  const PageNumber first_index_page = pool_.Load64(&dirent.first_index_page);
  bool unchanged = false;
  if (request.verified_chain != nullptr) {
    TRIO_ASSIGN_OR_RETURN(unchanged, MatchesVerifiedChain(request, first_index_page));
  }
  if (unchanged) {
    stats_.compare_hits.fetch_add(1);
    report.chain_unchanged = true;
    index_pages = request.verified_chain->pages.size();
  } else {
    TRIO_RETURN_IF_ERROR(CheckChain(request, first_index_page, &report, &index_pages));
  }

  // I1: size must fit within the capacity of the index chain. Holes read as zeros, so a
  // size larger than the *allocated* pages is fine, but not larger than the chain covers.
  const uint64_t capacity = index_pages * kIndexEntriesPerPage * kPageSize;
  if (dirent.size > capacity) {
    return VerifyFail(VerifyErrorClass::kBadSize, "I1",
                      "file size exceeds index chain capacity");
  }

  // I2: the inode number itself. I4: an existing file's cached permission matches its
  // shadow inode; the creator of a fresh file declares itself as owner.
  const InoState ino_state = ownership_.StateOfIno(request.ino);
  if (ino_state.Exists()) {
    TRIO_RETURN_IF_ERROR(CheckCachedPermission(pool_, request.ino, dirent));
  } else if (ino_state.state != ResourceState::kLeased ||
             ino_state.lessee != request.writer) {
    return VerifyFail(VerifyErrorClass::kForeignInode, "I2",
                      "inode number neither existing nor leased to writer");
  } else if (dirent.uid != request.writer_uid || dirent.gid != request.writer_gid) {
    return VerifyFail(VerifyErrorClass::kOwnershipForgery, "I4",
                      "new file not owned by its creator");
  }
  return report;
}

Result<VerifyReport> IntegrityVerifier::VerifyDirectory(const VerifyRequest& request) {
  const DirentBlock& dir = *request.dirent;
  const Ino dir_ino = pool_.Load64(&dir.ino);
  TRIO_RETURN_IF_ERROR(
      CheckDirentFields(dir, dir_ino, /*allow_root=*/request.ino == kRootIno));
  if (!dir.IsDirectory()) {
    return VerifyFail(VerifyErrorClass::kIdentityMismatch, "I1", "expected a directory");
  }
  if (dir_ino != request.ino) {
    return VerifyFail(VerifyErrorClass::kIdentityMismatch, "I1",
                      "dirent ino does not match directory identity");
  }

  VerifyReport report;
  uint64_t index_pages = 0;
  TRIO_RETURN_IF_ERROR(
      CheckChain(request, pool_.Load64(&dir.first_index_page), &report, &index_pages));

  // I4 for the directory itself (unless it is brand new).
  const InoState self_state = ownership_.StateOfIno(request.ino);
  if (self_state.Exists() || request.ino == kRootIno) {
    TRIO_RETURN_IF_ERROR(CheckCachedPermission(pool_, request.ino, dir));
  } else if (self_state.state == ResourceState::kLeased &&
             self_state.lessee == request.writer) {
    if (dir.uid != request.writer_uid || dir.gid != request.writer_gid) {
      return VerifyFail(VerifyErrorClass::kOwnershipForgery, "I4",
                        "new directory not owned by its creator");
    }
  } else {
    return VerifyFail(VerifyErrorClass::kForeignInode, "I2",
                      "directory inode neither existing nor leased to writer");
  }

  // Scan every live dirent of the data pages the chain check accepted (a directory chain
  // holds no tier entry): I1 per entry, duplicate names and inos, and classify each child.
  // Those pages' slots bound the live dirents, which sizes the name table once.
  FlatScratch<std::string_view> names(
      (report.pages.size() - index_pages) * kDirentsPerPage);
  IdBitmap child_inos(SuperblockOf(pool_)->max_inodes);  // CheckDirentFields bounds inos.
  // The checkpoint's copy of the data page being scanned, if it holds that page at the
  // same position.
  const DirDataPage* kept_page = nullptr;
  const DirentFn check_dirent = [&](DirentBlock* entry, Ino entry_ino, PageNumber page,
                                    size_t slot) -> Status {
    TRIO_RETURN_IF_ERROR(CheckDeadline(request));
    TRIO_RETURN_IF_ERROR(CheckDirentFields(*entry, entry_ino, /*allow_root=*/false));
    ++report.live_dirents;
    // I1: "no file shares the same name under one directory". Names are compared
    // exactly on a hash match; a valid name is never empty, the table's empty key.
    const std::string_view name = entry->Name();
    if (!names.Insert(HashString(name), name)) {
      return VerifyFail(VerifyErrorClass::kDuplicateName, "I1",
                        "duplicate file name in directory");
    }
    // I2: no two dirents may claim the same inode number.
    if (!child_inos.Insert(entry_ino)) {
      return VerifyFail(VerifyErrorClass::kDuplicateInode, "I2",
                        "inode number referenced by two dirents");
    }

    // An existing child is this directory's, or one the writer moved: out of a directory
    // it holds, or out of one whose verification put the child in transit.
    InoState state = ownership_.StateOfIno(entry_ino);
    bool from_held = false;
    if (state.state == ResourceState::kOwned && state.parent != request.ino) {
      from_held = env_.IsWriteHeldBy(state.parent, request.writer);
      if (!from_held) {
        // The writer's grant on that directory may have ended since the load above, after
        // its verification put the child in transit: read the word again.
        state = ownership_.StateOfIno(entry_ino);
      }
    }
    if (state.Exists()) {
      const bool here = state.state == ResourceState::kOwned && state.parent == request.ino;
      const bool moved = from_held || (state.state == ResourceState::kInTransit &&
                                       state.mover == request.writer);
      if (!here && !moved) {
        return VerifyFail(VerifyErrorClass::kCrossDirectory, "I2",
                          "child inode belongs to another directory");
      }
      // I4 holds for a moved child too: a rename carries the cached permissions verbatim,
      // so a writer holding both directories cannot smuggle a chmod or chown inside one
      // (AttackMovedInPermissionLift).
      TRIO_RETURN_IF_ERROR(CheckCachedPermission(pool_, entry_ino, *entry));
      if (!here || kept_page == nullptr || kept_page->slots[slot].ino != entry_ino) {
        report.claimed.push_back(ClaimedChild{entry_ino, page, slot});
      }
    } else if (state.state == ResourceState::kLeased && state.lessee == request.writer) {
      // Fresh file created in this write session.
      if (entry->uid != request.writer_uid || entry->gid != request.writer_gid) {
        return VerifyFail(VerifyErrorClass::kOwnershipForgery, "I4",
                          "new child not owned by its creator");
      }
      NewChildInfo info;
      info.ino = entry_ino;
      info.dirent_page = page;
      info.dirent_slot = slot;
      info.is_dir = entry->IsDirectory();
      info.mode = entry->mode;
      info.uid = entry->uid;
      info.gid = entry->gid;
      info.first_index_page = pool_.Load64(&entry->first_index_page);
      info.name = std::string(name);
      report.new_children.push_back(std::move(info));
    } else {
      return VerifyFail(VerifyErrorClass::kForeignInode, "I2",
                        "child inode neither existing nor leased to writer");
    }
    return OkStatus();
  };
  const PageImages* kept = request.checkpoint_dir_pages;
  for (size_t i = index_pages; i < report.pages.size(); ++i) {
    const size_t position = i - index_pages;
    kept_page = kept != nullptr && position < kept->pages.size() &&
                        kept->pages[position] == report.pages[i]
                    ? reinterpret_cast<const DirDataPage*>(kept->contents[position].get())
                    : nullptr;
    TRIO_RETURN_IF_ERROR(ForEachDirentInPage(pool_, report.pages[i], check_dirent));
  }

  // I3: diff against the checkpoint to find removed children.
  for (size_t p = 0; kept != nullptr && p < kept->pages.size(); ++p) {
    for (const DirentBlock& child :
         reinterpret_cast<const DirDataPage*>(kept->contents[p].get())->slots) {
      if (child.IsFree() || child_inos.Contains(child.ino)) {
        continue;
      }
      report.removed_children.push_back(child.ino);
      if (!child.IsDirectory()) {
        continue;  // Removed files are resolved by the kernel (deleted or renamed away).
      }
      // "The integrity verifier then checks that the deleted child directory is not mapped
      // to any LibFS and has no file under it." (§4.3).
      Status removed = env_.CheckRemovedChildDir(child.ino, request.writer);
      if (!removed.ok() && !VerifyError::IsStructured(removed)) {
        removed = VerifyFail(VerifyErrorClass::kRemovedDirNotEmpty, "I3",
                             removed.message());
      }
      TRIO_RETURN_IF_ERROR(removed);
    }
  }
  return report;
}

}  // namespace trio
