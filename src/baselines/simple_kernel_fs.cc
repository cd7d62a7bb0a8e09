#include "src/baselines/simple_kernel_fs.h"

#include <algorithm>
#include <cstring>

#include "src/common/per_cpu.h"
#include "src/obs/persist_span.h"

namespace trio {

namespace {
constexpr size_t kKInodesPerPage = kPageSize / sizeof(SimpleKernelFs::KInode);
constexpr size_t kKDirentsPerBlock = kPageSize / sizeof(SimpleKernelFs::KDirent);
constexpr uint64_t kKJournalShards = 8;  // Journal pages used by per-inode / per-CPU modes.

// mkfs-time persistence accounting (static Format has no instance to charge).
obs::PersistStats& FormatPersistStats() {
  static obs::PersistStats* stats = new obs::PersistStats("baselines");
  return *stats;
}
}  // namespace

Status SimpleKernelFs::Format(NvmPool& pool, const KernelFsOptions& options) {
  const uint64_t inode_pages =
      (options.max_inodes + kKInodesPerPage - 1) / kKInodesPerPage;
  const uint64_t bitmap_pages = (pool.num_pages() / 8 + kPageSize - 1) / kPageSize;
  const uint64_t journal_pages =
      options.journal_mode == JournalMode::kNone ? 0 : kKJournalShards;
  KSuper super{};
  super.magic = kKMagic;
  super.total_pages = pool.num_pages();
  super.inode_table_page = 1;
  super.max_inodes = options.max_inodes;
  super.bitmap_page = 1 + inode_pages;
  super.bitmap_pages = bitmap_pages;
  super.journal_page = super.bitmap_page + bitmap_pages;
  super.journal_pages = journal_pages;
  super.data_start = super.journal_page + journal_pages;
  if (super.data_start + 8 > pool.num_pages()) {
    return NoSpace("pool too small for kernel FS layout");
  }
  pool.Write(pool.PageAddress(0), &super, sizeof(super));
  for (uint64_t p = 1; p < super.data_start; ++p) {
    pool.Set(pool.PageAddress(p), 0, kPageSize);
  }
  // Root inode.
  auto* table = reinterpret_cast<KInode*>(pool.PageAddress(super.inode_table_page));
  KInode root{};
  root.mode = kModeDirectory | 0755;
  root.nlink = 1;
  pool.Write(&table[kKRootIno], &root, sizeof(root));
  obs::PersistSpan(pool, &FormatPersistStats()).PersistNow(pool.PageAddress(0), kPageSize);
  return OkStatus();
}

SimpleKernelFs::SimpleKernelFs(NvmPool& pool, const KernelFsOptions& options)
    : pool_(pool), options_(options) {
  TRIO_CHECK(Super()->magic == kKMagic) << "pool not formatted for SimpleKernelFs";
  bitmap_cursor_ = Super()->data_start;
  if (options_.journal_mode != JournalMode::kNone) {
    const uint64_t shards =
        options_.journal_mode == JournalMode::kGlobalJournal ? 1 : Super()->journal_pages;
    for (uint64_t i = 0; i < shards; ++i) {
      journals_.push_back(std::make_unique<UndoJournal>(pool_, Super()->journal_page + i,
                                                        &persist_stats_));
    }
  }
}

SimpleKernelFs::KInode* SimpleKernelFs::InodeOf(Ino ino) {
  if (ino == kInvalidIno || ino >= Super()->max_inodes) {
    return nullptr;
  }
  auto* table = reinterpret_cast<KInode*>(
      pool_.PageAddress(Super()->inode_table_page + ino / kKInodesPerPage));
  return &table[ino % kKInodesPerPage];
}

UndoJournal* SimpleKernelFs::ShardFor(Ino ino) {
  if (journals_.empty()) {
    return nullptr;
  }
  switch (options_.journal_mode) {
    case JournalMode::kGlobalJournal:
      return journals_[0].get();
    case JournalMode::kPerInodeLog:
      return journals_[ino % journals_.size()].get();
    case JournalMode::kPerCpuJournal:
      return journals_[ThisThreadShardIndex() % journals_.size()].get();
    case JournalMode::kNone:
      return nullptr;
  }
  return nullptr;
}

Result<PageNumber> SimpleKernelFs::AllocBlock() {
  std::lock_guard<std::mutex> guard(alloc_mutex_);
  auto* bitmap = reinterpret_cast<uint8_t*>(pool_.PageAddress(Super()->bitmap_page));
  const uint64_t total = Super()->total_pages;
  for (uint64_t scanned = 0; scanned < total; ++scanned) {
    const uint64_t page = Super()->data_start +
                          (bitmap_cursor_ - Super()->data_start + scanned) %
                              (total - Super()->data_start);
    if ((bitmap[page / 8] & (1u << (page % 8))) == 0) {
      uint8_t byte = bitmap[page / 8] | (1u << (page % 8));
      pool_.Write(&bitmap[page / 8], &byte, 1);
      obs::PersistSpan(pool_, &persist_stats_).PersistNow(&bitmap[page / 8], 1);
      bitmap_cursor_ = page + 1;
      pool_.Set(pool_.PageAddress(page), 0, kPageSize);
      return page;
    }
  }
  return NoSpace("kernel FS out of blocks");
}

void SimpleKernelFs::FreeBlock(PageNumber page) {
  std::lock_guard<std::mutex> guard(alloc_mutex_);
  auto* bitmap = reinterpret_cast<uint8_t*>(pool_.PageAddress(Super()->bitmap_page));
  uint8_t byte = bitmap[page / 8] & ~(1u << (page % 8));
  pool_.Write(&bitmap[page / 8], &byte, 1);
  obs::PersistSpan(pool_, &persist_stats_).PersistNow(&bitmap[page / 8], 1);
}

Result<Ino> SimpleKernelFs::AllocInode() {
  std::lock_guard<std::mutex> guard(alloc_mutex_);
  for (Ino ino = kKRootIno + 1; ino < Super()->max_inodes; ++ino) {
    KInode* inode = InodeOf(ino);
    if (inode->nlink == 0) {
      return ino;
    }
  }
  return NoSpace("kernel FS out of inodes");
}

void SimpleKernelFs::FreeInode(Ino ino) {
  KInode* inode = InodeOf(ino);
  KInode cleared{};
  cleared.generation = inode->generation + 1;
  pool_.Write(inode, &cleared, sizeof(cleared));
  obs::PersistSpan(pool_, &persist_stats_).PersistNow(inode, sizeof(cleared));
}

Result<PageNumber> SimpleKernelFs::BlockOf(KInode* inode, uint64_t index, bool grow) {
  auto resolve_slot = [&](uint64_t* slot) -> Result<PageNumber> {
    if (*slot == 0) {
      if (!grow) {
        return NotFound("hole");
      }
      TRIO_ASSIGN_OR_RETURN(PageNumber fresh, AllocBlock());
      obs::PersistSpan(pool_, &persist_stats_).CommitStore64(slot, fresh);
    }
    return static_cast<PageNumber>(*slot);
  };

  if (index < kDirectBlocks) {
    return resolve_slot(&inode->direct[index]);
  }
  index -= kDirectBlocks;
  if (index < kPointersPerBlock) {
    TRIO_ASSIGN_OR_RETURN(PageNumber ind, resolve_slot(&inode->indirect));
    auto* pointers = reinterpret_cast<uint64_t*>(pool_.PageAddress(ind));
    return resolve_slot(&pointers[index]);
  }
  index -= kPointersPerBlock;
  if (index < kPointersPerBlock * kPointersPerBlock) {
    TRIO_ASSIGN_OR_RETURN(PageNumber dind, resolve_slot(&inode->dindirect));
    auto* level1 = reinterpret_cast<uint64_t*>(pool_.PageAddress(dind));
    TRIO_ASSIGN_OR_RETURN(PageNumber ind, resolve_slot(&level1[index / kPointersPerBlock]));
    auto* level2 = reinterpret_cast<uint64_t*>(pool_.PageAddress(ind));
    return resolve_slot(&level2[index % kPointersPerBlock]);
  }
  return TooLarge("file exceeds double-indirect capacity");
}

Status SimpleKernelFs::ForEachDirentBlock(
    KInode* dir, const std::function<Status(KDirent*, size_t)>& fn) {
  const uint64_t blocks = (dir->size + kPageSize - 1) / kPageSize;
  for (uint64_t b = 0; b < blocks; ++b) {
    Result<PageNumber> page = BlockOf(dir, b, /*grow=*/false);
    if (!page.ok()) {
      continue;
    }
    auto* dirents = reinterpret_cast<KDirent*>(pool_.PageAddress(*page));
    for (size_t i = 0; i < kKDirentsPerBlock; ++i) {
      TRIO_RETURN_IF_ERROR(fn(&dirents[i], b * kKDirentsPerBlock + i));
    }
  }
  return OkStatus();
}

Result<Ino> SimpleKernelFs::Lookup(Ino dir, std::string_view name) {
  KInode* inode = InodeOf(dir);
  if (inode == nullptr || inode->nlink == 0) {
    return NotFound("no such directory");
  }
  if ((inode->mode & kModeTypeMask) != kModeDirectory) {
    return NotDir("lookup in non-directory");
  }
  Ino found = kInvalidIno;
  Status walk = ForEachDirentBlock(inode, [&](KDirent* d, size_t) -> Status {
    if (d->ino != 0 && d->Name() == name) {
      found = d->ino;
      return Status(ErrorCode::kTimeout, "stop");
    }
    return OkStatus();
  });
  if (found != kInvalidIno) {
    return found;
  }
  if (!walk.ok() && !walk.Is(ErrorCode::kTimeout)) {
    return walk;
  }
  return NotFound(std::string(name));
}

Result<Ino> SimpleKernelFs::Create(Ino dir, std::string_view name, uint32_t mode) {
  if (name.empty() || name.size() > 55) {
    return NameTooLong(std::string(name));
  }
  KInode* dir_inode = InodeOf(dir);
  if (dir_inode == nullptr || (dir_inode->mode & kModeTypeMask) != kModeDirectory) {
    return NotDir("create in non-directory");
  }
  if (Lookup(dir, name).ok()) {
    return AlreadyExists(std::string(name));
  }
  TRIO_ASSIGN_OR_RETURN(Ino ino, AllocInode());

  // Find or grow a dirent slot.
  KDirent* slot = nullptr;
  TRIO_RETURN_IF_ERROR(ForEachDirentBlock(dir_inode, [&](KDirent* d, size_t) -> Status {
    if (slot == nullptr && d->ino == 0) {
      slot = d;
    }
    return OkStatus();
  }));
  if (slot == nullptr) {
    const uint64_t block_index = dir_inode->size / kPageSize;
    TRIO_ASSIGN_OR_RETURN(PageNumber page, BlockOf(dir_inode, block_index, /*grow=*/true));
    obs::PersistSpan(pool_, &persist_stats_)
        .CommitStore64(&dir_inode->size, dir_inode->size + kPageSize);
    slot = reinterpret_cast<KDirent*>(pool_.PageAddress(page));
  }

  // Journaled metadata update: inode + dirent pre-images, then in-place writes.
  UndoJournal* journal = ShardFor(ino);
  KInode* inode = InodeOf(ino);
  if (journal != nullptr) {
    std::lock_guard<SpinLock> guard(journal->lock());
    journal->Begin();
    TRIO_RETURN_IF_ERROR(journal->LogPreImage(inode, sizeof(KInode)));
    TRIO_RETURN_IF_ERROR(journal->LogPreImage(slot, sizeof(KDirent)));
    journal->Activate();
    journal_bytes_.fetch_add(sizeof(KInode) + sizeof(KDirent), std::memory_order_relaxed);

    KInode fresh{};
    fresh.mode = mode;
    fresh.nlink = 1;
    fresh.generation = inode->generation + 1;
    pool_.Write(inode, &fresh, sizeof(fresh));
    KDirent dirent{};
    dirent.ino = ino;
    dirent.name_len = static_cast<uint8_t>(name.size());
    std::memcpy(dirent.name, name.data(), name.size());
    pool_.Write(slot, &dirent, sizeof(dirent));
    obs::PersistSpan span(pool_, &persist_stats_);
    span.Persist(inode, sizeof(fresh));
    span.Persist(slot, sizeof(dirent));
    span.Fence();
    journal->Deactivate();
  } else {
    // PMFS-style ordering: inode first, dirent ino last (the commit word).
    obs::PersistSpan span(pool_, &persist_stats_);
    KInode fresh{};
    fresh.mode = mode;
    fresh.nlink = 1;
    fresh.generation = inode->generation + 1;
    pool_.Write(inode, &fresh, sizeof(fresh));
    span.PersistNow(inode, sizeof(fresh));
    KDirent dirent{};
    dirent.ino = 0;
    dirent.name_len = static_cast<uint8_t>(name.size());
    std::memcpy(dirent.name, name.data(), name.size());
    pool_.Write(slot, &dirent, sizeof(dirent));
    span.PersistNow(slot, sizeof(dirent));
    span.CommitStore64(&slot->ino, ino);
  }
  return ino;
}

Status SimpleKernelFs::Remove(Ino dir, std::string_view name, bool must_be_dir) {
  KInode* dir_inode = InodeOf(dir);
  if (dir_inode == nullptr) {
    return NotFound("no such directory");
  }
  KDirent* slot = nullptr;
  TRIO_RETURN_IF_ERROR(ForEachDirentBlock(dir_inode, [&](KDirent* d, size_t) -> Status {
    if (slot == nullptr && d->ino != 0 && d->Name() == name) {
      slot = d;
    }
    return OkStatus();
  }));
  if (slot == nullptr) {
    return NotFound(std::string(name));
  }
  const Ino ino = slot->ino;
  KInode* inode = InodeOf(ino);
  const bool is_dir = (inode->mode & kModeTypeMask) == kModeDirectory;
  if (must_be_dir && !is_dir) {
    return NotDir(std::string(name));
  }
  if (!must_be_dir && is_dir) {
    return IsDir(std::string(name));
  }
  if (is_dir) {
    uint64_t live = 0;
    TRIO_RETURN_IF_ERROR(ForEachDirentBlock(inode, [&](KDirent* d, size_t) -> Status {
      live += d->ino != 0 ? 1 : 0;
      return OkStatus();
    }));
    if (live != 0) {
      return NotEmpty(std::string(name));
    }
  }
  // Free data blocks.
  TRIO_RETURN_IF_ERROR(Truncate(ino, 0));
  obs::PersistSpan(pool_, &persist_stats_).CommitStore64(&slot->ino, 0);
  FreeInode(ino);
  return OkStatus();
}

Status SimpleKernelFs::Rename(Ino src_dir, std::string_view src_name, Ino dst_dir,
                              std::string_view dst_name) {
  TRIO_ASSIGN_OR_RETURN(Ino ino, Lookup(src_dir, src_name));
  Result<Ino> existing = Lookup(dst_dir, dst_name);
  if (existing.ok()) {
    KInode* target = InodeOf(*existing);
    const bool dst_is_dir = (target->mode & kModeTypeMask) == kModeDirectory;
    TRIO_RETURN_IF_ERROR(Remove(dst_dir, dst_name, dst_is_dir));
  }
  KInode* inode = InodeOf(ino);
  const uint32_t mode = inode->mode;
  // Insert new entry pointing at the same inode, then remove the old entry. (Journaled
  // engines would wrap this in one transaction; the sweep-level crash tests target
  // ArckFS, so the baseline keeps the simple two-step.)
  KInode* dst_inode = InodeOf(dst_dir);
  if (dst_inode == nullptr) {
    return NotFound("destination dir");
  }
  KDirent* slot = nullptr;
  TRIO_RETURN_IF_ERROR(ForEachDirentBlock(dst_inode, [&](KDirent* d, size_t) -> Status {
    if (slot == nullptr && d->ino == 0) {
      slot = d;
    }
    return OkStatus();
  }));
  if (slot == nullptr) {
    const uint64_t block_index = dst_inode->size / kPageSize;
    TRIO_ASSIGN_OR_RETURN(PageNumber page, BlockOf(dst_inode, block_index, true));
    obs::PersistSpan(pool_, &persist_stats_)
        .CommitStore64(&dst_inode->size, dst_inode->size + kPageSize);
    slot = reinterpret_cast<KDirent*>(pool_.PageAddress(page));
  }
  KDirent dirent{};
  dirent.ino = 0;
  dirent.name_len = static_cast<uint8_t>(dst_name.size());
  std::memcpy(dirent.name, dst_name.data(), dst_name.size());
  pool_.Write(slot, &dirent, sizeof(dirent));
  obs::PersistSpan span(pool_, &persist_stats_);
  span.PersistNow(slot, sizeof(dirent));
  span.CommitStore64(&slot->ino, ino);

  // Remove source entry (without freeing the inode).
  KInode* src_inode = InodeOf(src_dir);
  KDirent* src_slot = nullptr;
  TRIO_RETURN_IF_ERROR(ForEachDirentBlock(src_inode, [&](KDirent* d, size_t) -> Status {
    if (src_slot == nullptr && d->ino == ino && d->Name() == src_name) {
      src_slot = d;
    }
    return OkStatus();
  }));
  if (src_slot != nullptr) {
    obs::PersistSpan(pool_, &persist_stats_).CommitStore64(&src_slot->ino, 0);
  }
  (void)mode;
  return OkStatus();
}

Result<size_t> SimpleKernelFs::Read(Ino ino, void* buf, size_t count, uint64_t offset) {
  KInode* inode = InodeOf(ino);
  if (inode == nullptr || inode->nlink == 0) {
    return NotFound("no such file");
  }
  if (offset >= inode->size) {
    return static_cast<size_t>(0);
  }
  count = std::min<uint64_t>(count, inode->size - offset);
  char* dst = static_cast<char*>(buf);
  uint64_t cursor = offset;
  const uint64_t end = offset + count;
  while (cursor < end) {
    const uint64_t in_page = cursor % kPageSize;
    const size_t chunk = std::min<uint64_t>(kPageSize - in_page, end - cursor);
    Result<PageNumber> page = BlockOf(inode, cursor / kPageSize, false);
    if (page.ok()) {
      pool_.Read(dst + (cursor - offset), pool_.PageAddress(*page) + in_page, chunk);
    } else {
      std::memset(dst + (cursor - offset), 0, chunk);
    }
    cursor += chunk;
  }
  return count;
}

Result<size_t> SimpleKernelFs::Write(Ino ino, const void* buf, size_t count,
                                     uint64_t offset) {
  KInode* inode = InodeOf(ino);
  if (inode == nullptr || inode->nlink == 0) {
    return NotFound("no such file");
  }
  const char* src = static_cast<const char*>(buf);
  uint64_t cursor = offset;
  const uint64_t end = offset + count;
  obs::PersistSpan span(pool_, &persist_stats_);
  while (cursor < end) {
    const uint64_t in_page = cursor % kPageSize;
    const size_t chunk = std::min<uint64_t>(kPageSize - in_page, end - cursor);
    TRIO_ASSIGN_OR_RETURN(PageNumber page, BlockOf(inode, cursor / kPageSize, true));
    pool_.Write(pool_.PageAddress(page) + in_page, src + (cursor - offset), chunk);
    span.Persist(pool_.PageAddress(page) + in_page, chunk);
    cursor += chunk;
  }
  span.Fence();
  if (end > inode->size) {
    span.CommitStore64(&inode->size, end);
  }
  return count;
}

uint64_t* SimpleKernelFs::SlotOf(KInode* inode, uint64_t index) {
  if (index < kDirectBlocks) {
    return &inode->direct[index];
  }
  index -= kDirectBlocks;
  if (index < kPointersPerBlock) {
    if (inode->indirect == 0) {
      return nullptr;
    }
    return reinterpret_cast<uint64_t*>(pool_.PageAddress(inode->indirect)) + index;
  }
  index -= kPointersPerBlock;
  if (index < kPointersPerBlock * kPointersPerBlock) {
    if (inode->dindirect == 0) {
      return nullptr;
    }
    auto* level1 = reinterpret_cast<uint64_t*>(pool_.PageAddress(inode->dindirect));
    const uint64_t slot1 = level1[index / kPointersPerBlock];
    if (slot1 == 0) {
      return nullptr;
    }
    return reinterpret_cast<uint64_t*>(pool_.PageAddress(slot1)) +
           index % kPointersPerBlock;
  }
  return nullptr;
}

Status SimpleKernelFs::Truncate(Ino ino, uint64_t size) {
  KInode* inode = InodeOf(ino);
  if (inode == nullptr) {
    return NotFound("no such file");
  }
  const uint64_t old_size = inode->size;
  const uint64_t old_blocks = (old_size + kPageSize - 1) / kPageSize;
  const uint64_t new_blocks = (size + kPageSize - 1) / kPageSize;
  obs::PersistSpan(pool_, &persist_stats_).CommitStore64(&inode->size, size);
  for (uint64_t b = new_blocks; b < old_blocks; ++b) {
    uint64_t* slot = SlotOf(inode, b);
    if (slot != nullptr && *slot != 0) {
      FreeBlock(*slot);
      // Clear the mapping, not just the block: a dangling pointer would alias the freed
      // (and possibly reallocated) page if the file later regrows over this index.
      obs::PersistSpan(pool_, &persist_stats_).CommitStore64(slot, 0);
    }
  }
  if (size < old_size && size % kPageSize != 0) {
    // Shrink landing mid-block: zero the kept block's tail so a later extension exposes
    // zeros beyond the new EOF, not the file's old bytes.
    Result<PageNumber> page = BlockOf(inode, size / kPageSize, false);
    if (page.ok()) {
      const uint64_t in_page = size % kPageSize;
      const std::string zeros(kPageSize - in_page, '\0');
      obs::PersistSpan span(pool_, &persist_stats_);
      pool_.Write(pool_.PageAddress(*page) + in_page, zeros.data(), zeros.size());
      span.Persist(pool_.PageAddress(*page) + in_page, zeros.size());
      span.Fence();
    }
  }
  if (size == 0) {
    // Drop the mapping tree wholesale.
    for (auto& d : inode->direct) {
      pool_.Store64(&d, 0);
    }
    if (inode->indirect != 0) {
      FreeBlock(inode->indirect);
      pool_.Store64(&inode->indirect, 0);
    }
    if (inode->dindirect != 0) {
      auto* level1 = reinterpret_cast<uint64_t*>(pool_.PageAddress(inode->dindirect));
      for (size_t i = 0; i < kPointersPerBlock; ++i) {
        if (level1[i] != 0) {
          FreeBlock(level1[i]);
        }
      }
      FreeBlock(inode->dindirect);
      pool_.Store64(&inode->dindirect, 0);
    }
    obs::PersistSpan(pool_, &persist_stats_).PersistNow(inode, sizeof(KInode));
  }
  return OkStatus();
}

Result<StatInfo> SimpleKernelFs::Stat(Ino ino) {
  KInode* inode = InodeOf(ino);
  if (inode == nullptr || inode->nlink == 0) {
    return NotFound("no such file");
  }
  StatInfo info;
  info.ino = ino;
  info.mode = inode->mode;
  info.uid = inode->uid;
  info.size = inode->size;
  info.mtime_ns = inode->mtime_ns;
  return info;
}

Result<std::vector<DirEntryInfo>> SimpleKernelFs::List(Ino dir) {
  KInode* inode = InodeOf(dir);
  if (inode == nullptr || (inode->mode & kModeTypeMask) != kModeDirectory) {
    return NotDir("list of non-directory");
  }
  std::vector<DirEntryInfo> entries;
  TRIO_RETURN_IF_ERROR(ForEachDirentBlock(inode, [&](KDirent* d, size_t) -> Status {
    if (d->ino != 0) {
      const KInode* child = InodeOf(d->ino);
      entries.push_back(DirEntryInfo{std::string(d->Name()), d->ino,
                                     child != nullptr &&
                                         (child->mode & kModeTypeMask) == kModeDirectory});
    }
    return OkStatus();
  }));
  return entries;
}

Status SimpleKernelFs::Chmod(Ino ino, uint32_t perm) {
  KInode* inode = InodeOf(ino);
  if (inode == nullptr || inode->nlink == 0) {
    return NotFound("no such file");
  }
  const uint32_t mode = (inode->mode & kModeTypeMask) | (perm & kModePermMask);
  pool_.Write(&inode->mode, &mode, sizeof(mode));
  obs::PersistSpan(pool_, &persist_stats_).PersistNow(&inode->mode, sizeof(mode));
  return OkStatus();
}

}  // namespace trio
