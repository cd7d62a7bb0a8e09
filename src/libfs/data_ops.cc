// ArckFs regular-file data path (write/read/truncate under the fine-grained lock
// protocol of §4.2, with optional delegation) and the fd-based FsInterface operations.

#include <algorithm>
#include <cstring>
#include <optional>

#include "src/libfs/arckfs.h"
#include "src/libfs/arckfs_internal.h"
#include "src/obs/op_context.h"
#include "src/obs/persist_span.h"

namespace trio {

using arckfs_internal::FakeTimeNs;

size_t ArckFs::ReadDelegateThreshold() const {
  if (config_.delegate_read_threshold != 0) {
    return config_.delegate_read_threshold;
  }
  const DelegationPool* delegation = kernel_.delegation();
  return delegation != nullptr ? delegation->config().read_threshold
                               : kDelegateReadThreshold;
}

size_t ArckFs::WriteDelegateThreshold() const {
  if (config_.delegate_write_threshold != 0) {
    return config_.delegate_write_threshold;
  }
  const DelegationPool* delegation = kernel_.delegation();
  return delegation != nullptr ? delegation->config().write_threshold
                               : kDelegateWriteThreshold;
}

void ArckFs::CopyToNvm(char* dst, const char* src, size_t len, DelegationBatch* batch,
                       bool persist, obs::PersistSpan* span) {
  if (batch != nullptr) {
    batch->AddWrite(dst, src, len, persist);
    return;
  }
  pool_.Write(dst, src, len);
  if (persist) {
    span->Persist(dst, len);
  }
}

void ArckFs::FlushDirtyData(FileNode* node) {
  std::unordered_set<PageNumber> dirty;
  {
    std::lock_guard<SpinLock> guard(node->dirty_lock);
    dirty.swap(node->dirty_pages);
  }
  if (dirty.empty()) {
    return;
  }
  obs::PersistSpan span(pool_, &persist_stats_);
  for (PageNumber page : dirty) {
    span.Persist(pool_.PageAddress(page), kPageSize);
  }
  span.Fence();
}

void ArckFs::CopyFromNvm(char* dst, const char* src, size_t len, DelegationBatch* batch) {
  if (batch != nullptr) {
    batch->AddRead(dst, src, len);
    return;
  }
  pool_.Read(dst, src, len);
}

Status ArckFs::EnsureIndexCapacity(FileNode* node, uint64_t max_page_index,
                                   obs::PersistSpan* span) {
  // Exclusive inode lock held. The zeros of a new index page are payload: they become
  // durable at the caller's payload fence, before any chain pointer reaches them.
  while (node->index_pages.size() * kIndexEntriesPerPage <= max_page_index) {
    TRIO_ASSIGN_OR_RETURN(PageNumber index_page, leases_.AllocPage(0));
    pool_.Set(pool_.PageAddress(index_page), 0, kPageSize);
    span->Persist(pool_.PageAddress(index_page), kPageSize);
    node->index_pages.push_back(index_page);
  }
  return OkStatus();
}

void ArckFs::LinkIndexPages(FileNode* node, size_t first, obs::PersistSpan* span) {
  for (size_t i = first; i < node->index_pages.size(); ++i) {
    uint64_t* pointer =
        i == 0 ? &node->dirent->first_index_page
               : &reinterpret_cast<IndexPage*>(pool_.PageAddress(node->index_pages[i - 1]))
                      ->next;
    pool_.Store64(pointer, node->index_pages[i]);
    span->Persist(pointer, sizeof(uint64_t));
  }
}

Result<PageNumber> ArckFs::AllocDataPage(FileNode* node, uint64_t page_index, size_t in_page,
                                         size_t len, obs::PersistSpan* span) {
  PageNumber page = kInvalidPage;
  {
    std::lock_guard<SpinLock> guard(node->tails_lock);  // Reused as the reuse-pool lock.
    if (!node->reuse_pages.empty()) {
      page = node->reuse_pages.back();
      node->reuse_pages.pop_back();
    }
  }
  if (page == kInvalidPage) {
    const int nodes = pool_.topology().num_nodes;
    TRIO_ASSIGN_OR_RETURN(page,
                          leases_.AllocPage(static_cast<int>(page_index % nodes)));
  }
  // Recycled pages carry stale data and a fresh page's kernel zeros are not durable, so
  // every byte the write does not cover is zeroed and persisted with the payload.
  char* base = pool_.PageAddress(page);
  const size_t end = in_page + len;
  if (in_page != 0) {
    pool_.Set(base, 0, in_page);
    span->Persist(base, in_page);
  }
  if (end != kPageSize) {
    pool_.Set(base + end, 0, kPageSize - end);
    span->Persist(base + end, kPageSize - end);
  }
  return page;
}

// ---------------------------------------------------------------------------
// Tier promote path (DESIGN.md §4.11)
// ---------------------------------------------------------------------------

Status ArckFs::ReadTierPage(FileNode* node, uint64_t page_index, uint64_t slot,
                            uint64_t in_page, char* dst, size_t len) {
  if (promote_cache_.ReadHit(node->ino, page_index, in_page, dst, len)) {
    return OkStatus();
  }
  // Miss: fault the whole page back into a leased NVM page through the kernel (the
  // backend is never mapped into userspace) and cache the copy for the next reader.
  const int numa_nodes = pool_.topology().num_nodes;
  TRIO_ASSIGN_OR_RETURN(PageNumber dest,
                        leases_.AllocPage(static_cast<int>(page_index % numa_nodes)));
  Status promoted = kernel_.PromoteRead(libfs_, node->ino, slot, dest);
  if (!promoted.ok()) {
    leases_.RecyclePage(dest);
    return promoted;
  }
  pool_.Read(dst, pool_.PageAddress(dest) + in_page, len);
  const PageNumber displaced = promote_cache_.Insert(node->ino, page_index, dest);
  if (displaced != 0) {
    leases_.RecyclePage(displaced);
  }
  return OkStatus();
}

Result<PageNumber> ArckFs::PromoteForWrite(FileNode* node, uint64_t page_index,
                                           uint64_t slot, bool fill) {
  const int numa_nodes = pool_.topology().num_nodes;
  TRIO_ASSIGN_OR_RETURN(PageNumber page,
                        leases_.AllocPage(static_cast<int>(page_index % numa_nodes)));
  if (fill) {
    // Partial overwrite: the surviving bytes live on the backend; PromoteRead persists
    // and fences the destination, so the later index-entry commit cannot become durable
    // ahead of the page contents.
    Status promoted = kernel_.PromoteRead(libfs_, node->ino, slot, page);
    if (!promoted.ok()) {
      leases_.RecyclePage(page);
      return promoted;
    }
  }
  // The cached read-only copy (if any) is now stale by construction.
  const PageNumber cached = promote_cache_.Erase(node->ino, page_index);
  if (cached != 0) {
    leases_.RecyclePage(cached);
  }
  return page;
}

bool ArckFs::RangeHasTierEntries(FileNode* node, uint64_t offset, size_t count) {
  const uint64_t first = offset / kPageSize;
  const uint64_t last = (offset + count - 1) / kPageSize;
  for (uint64_t index = first; index <= last; ++index) {
    if (IsTierEntry(node->radix.Lookup(index))) {
      return true;
    }
  }
  return false;
}

void ArckFs::LinkDataPages(FileNode* node,
                           const std::vector<std::pair<uint64_t, PageNumber>>& pages,
                           obs::PersistSpan* span) {
  // Adjacent entries of one index page share cache lines: each run is flushed once.
  uint64_t* run = nullptr;
  size_t run_len = 0;
  for (const auto& [page_index, page] : pages) {
    const size_t chain_slot = page_index / kIndexEntriesPerPage;
    TRIO_CHECK(chain_slot < node->index_pages.size()) << "index chain does not cover page";
    auto* index =
        reinterpret_cast<IndexPage*>(pool_.PageAddress(node->index_pages[chain_slot]));
    uint64_t* entry = &index->entries[page_index % kIndexEntriesPerPage];
    pool_.Store64(entry, page);
    node->radix.Insert(page_index, page);
    if (run != nullptr && entry == run + run_len) {
      ++run_len;
      continue;
    }
    if (run != nullptr) {
      span->Persist(run, run_len * sizeof(uint64_t));
    }
    run = entry;
    run_len = 1;
  }
  if (run != nullptr) {
    span->Persist(run, run_len * sizeof(uint64_t));
  }
}

Result<size_t> ArckFs::WriteLocked(FileNode* node, const void* buf, size_t count,
                                   uint64_t offset, bool append, uint64_t* offset_used) {
  if (count == 0) {
    if (offset_used != nullptr) {
      *offset_used = offset;
    }
    return static_cast<size_t>(0);
  }
  stats_.writes.fetch_add(1);
  const char* src = static_cast<const char*>(buf);

  bool exclusive;
  uint64_t size;
  if (append) {
    // O_APPEND: the write offset is the size read UNDER the exclusive inode lock. Reading
    // it before locking loses concurrent appends (two writers see the same old size and
    // one overwrites the other).
    node->inode_lock.lock();
    exclusive = true;
    size = pool_.Load64(&node->dirent->size);
    offset = size;
  } else {
    while (true) {
      size = pool_.Load64(&node->dirent->size);
      // Tier entries convert to NVM pages only under the exclusive inode lock (two
      // shared-lock writers would race on the same index slot); see RangeHasTierEntries
      // for why the pre-lock check is stable.
      exclusive = offset + count > size || RangeHasTierEntries(node, offset, count);
      if (exclusive) {
        node->inode_lock.lock();
        // Size may have grown while we waited; the exclusive lock is still fine.
        size = pool_.Load64(&node->dirent->size);
      } else {
        node->inode_lock.lock_shared();
        const uint64_t now_size = pool_.Load64(&node->dirent->size);
        if (offset + count > now_size) {
          node->inode_lock.unlock_shared();
          continue;  // Raced with a truncate; retry on the exclusive path.
        }
      }
      break;
    }
  }
  if (offset_used != nullptr) {
    *offset_used = offset;
  }

  const bool extend = offset + count > size;
  // Fine-grained concurrency (§4.2): extension holds the inode lock exclusively; in-place
  // writers hold it shared plus a write range lock over the touched bytes.
  if (!exclusive) {
    node->range_lock.LockRange(offset, count, /*exclusive=*/true);
  }

  const bool delegate = config_.use_delegation && kernel_.delegation() != nullptr &&
                        count >= WriteDelegateThreshold();
  // All chunks of this write accumulate into one batch: one ring push and one fence per
  // touched node, instead of one of each per 4 KiB chunk. On the op-ring drainer the
  // batch is the pass-wide one (shared by every delegated write of the drain pass);
  // elsewhere it is a local per-op batch.
  DelegationBatch* pass_batch = delegate ? PassBatch() : nullptr;
  std::optional<DelegationBatch> local_batch;
  if (delegate && pass_batch == nullptr) {
    local_batch.emplace(*kernel_.delegation());
  }
  DelegationBatch* batch = pass_batch != nullptr
                               ? pass_batch
                               : (local_batch.has_value() ? &*local_batch : nullptr);

  // At most three fences, in crash order (§4.4): (1) every payload and zeroing byte,
  // (2) the index-chain pointers and entries of pages this write allocated, (3) the size
  // commit, which makes the write visible.
  obs::PersistSpan span(pool_, &persist_stats_);
  Status status = OkStatus();
  // Pages this write allocates or promotes, in ascending page order.
  std::vector<std::pair<uint64_t, PageNumber>> to_link;
  const size_t linked_index_pages = node->index_pages.size();
  if (extend) {
    status = EnsureIndexCapacity(node, (offset + count - 1) / kPageSize, &span);
  }
  if (status.ok()) {
    uint64_t cursor = offset;
    const uint64_t end = offset + count;
    while (cursor < end) {
      const uint64_t page_index = cursor / kPageSize;
      const uint64_t in_page = cursor % kPageSize;
      const size_t chunk = std::min<uint64_t>(kPageSize - in_page, end - cursor);
      PageNumber page = node->radix.Lookup(page_index);
      if (page != 0 && IsTierEntry(page)) {
        // Writing a digested page: promote it back to NVM authority. The tagged entry
        // is replaced when to_link is linked; the orphaned backend slot is released when
        // this write session reconciles.
        const bool full_page = in_page == 0 && chunk == kPageSize;
        Result<PageNumber> promoted =
            PromoteForWrite(node, page_index, TierSlotOfEntry(page), /*fill=*/!full_page);
        if (!promoted.ok()) {
          status = promoted.status();
          break;
        }
        page = *promoted;
        to_link.push_back({page_index, page});
      } else if (page == 0) {
        Result<PageNumber> fresh = AllocDataPage(node, page_index, in_page, chunk, &span);
        if (!fresh.ok()) {
          status = fresh.status();
          break;
        }
        page = *fresh;
        to_link.push_back({page_index, page});
      }
      CopyToNvm(pool_.PageAddress(page) + in_page, src + (cursor - offset), chunk,
                batch, config_.sync_data, &span);
      if (!config_.sync_data) {
        std::lock_guard<SpinLock> guard(node->dirty_lock);
        node->dirty_pages.insert(page);
      }
      cursor += chunk;
    }
  }

  // (1) Payload fence. The delegated path fences once per touched node inside the batch,
  // and that fence also commits the zeroing this thread persisted (a fence commits every
  // pending line); the direct path fences here. A pass-wide batch is flushed only when
  // this op links or commits below: a pure in-place write has nothing to order against,
  // so its chunks ride until the pass-end flush (which precedes the epoch close and
  // therefore every CQE).
  const bool allocated = node->index_pages.size() > linked_index_pages || !to_link.empty();
  if (pass_batch != nullptr) {
    if (extend || allocated) {
      FlushPass();
    }
  } else if (delegate) {
    local_batch->Submit();
    local_batch->Wait();
  } else {
    span.Fence();
  }

  // (2) Link fence. A write that failed part-way still links what it allocated: those
  // bytes are durable, and the DRAM index chain already counts the new index pages.
  if (allocated) {
    LinkIndexPages(node, linked_index_pages, &span);
    LinkDataPages(node, to_link, &span);
    span.Fence();
  }

  // (3) Commit. mtime shares the size's cache line (format.h), so the size commit's one
  // flush and fence make both durable together.
  if (status.ok() && extend) {
    const int64_t now = FakeTimeNs();
    pool_.Write(&node->dirent->mtime_ns, &now, sizeof(now));
    span.CommitStore64(&node->dirent->size, offset + count);
  }

  if (!exclusive) {
    node->range_lock.UnlockRange(offset, count, true);
    node->inode_lock.unlock_shared();
  } else {
    node->inode_lock.unlock();
  }
  if (!status.ok()) {
    return status;
  }
  return count;
}

Result<size_t> ArckFs::ReadLocked(FileNode* node, void* buf, size_t count, uint64_t offset) {
  stats_.reads.fetch_add(1);
  char* dst = static_cast<char*>(buf);
  ReadGuard<BravoRwLock> inode_guard(node->inode_lock);
  const uint64_t size = pool_.Load64(&node->dirent->size);
  if (offset >= size) {
    return static_cast<size_t>(0);
  }
  count = std::min<uint64_t>(count, size - offset);
  RangeGuard range_guard(node->range_lock, offset, count, /*exclusive=*/false);

  const bool delegate = config_.use_delegation && kernel_.delegation() != nullptr &&
                        count >= ReadDelegateThreshold();
  std::optional<DelegationBatch> batch;
  if (delegate) {
    batch.emplace(*kernel_.delegation());
  }

  uint64_t cursor = offset;
  const uint64_t end = offset + count;
  while (cursor < end) {
    const uint64_t page_index = cursor / kPageSize;
    const uint64_t in_page = cursor % kPageSize;
    const size_t chunk = std::min<uint64_t>(kPageSize - in_page, end - cursor);
    const PageNumber page = node->radix.Lookup(page_index);
    if (page == 0) {
      std::memset(dst + (cursor - offset), 0, chunk);  // Hole.
    } else if (IsTierEntry(page)) {
      // Digested page: promote-cache hit or kernel promote; always copied inline (the
      // source is a DRAM-resident cache page or freshly promoted, not cold NVM).
      Status tier = ReadTierPage(node, page_index, TierSlotOfEntry(page), in_page,
                                 dst + (cursor - offset), chunk);
      if (!tier.ok()) {
        return tier;
      }
    } else {
      CopyFromNvm(dst + (cursor - offset), pool_.PageAddress(page) + in_page, chunk,
                  delegate ? &*batch : nullptr);
    }
    cursor += chunk;
  }
  if (delegate) {
    batch->Submit();
    batch->Wait();
  }
  return count;
}

Status ArckFs::TruncateLocked(FileNode* node, uint64_t new_size) {
  WriteGuard<BravoRwLock> inode_guard(node->inode_lock);
  const uint64_t old_size = pool_.Load64(&node->dirent->size);
  if (new_size == old_size) {
    return OkStatus();
  }
  obs::PersistSpan span(pool_, &persist_stats_);
  if (new_size > old_size) {
    // Growing: the index chain must cover the new size (I1), holes read as zeros. New
    // index pages' zeros are fenced, then their links, then the size is committed.
    const size_t linked_index_pages = node->index_pages.size();
    const Status status = EnsureIndexCapacity(node, (new_size - 1) / kPageSize, &span);
    span.Fence();
    LinkIndexPages(node, linked_index_pages, &span);
    span.Fence();
    TRIO_RETURN_IF_ERROR(status);
    span.CommitStore64(&node->dirent->size, new_size);
    return OkStatus();
  }
  // Shrinking: commit the size first; everything beyond is garbage we now scrub.
  span.CommitStore64(&node->dirent->size, new_size);
  // Zero the tail of the boundary page so a later size-only grow reads zeros.
  if (new_size % kPageSize != 0) {
    const uint64_t boundary_index = new_size / kPageSize;
    PageNumber boundary = node->radix.Lookup(boundary_index);
    if (boundary != 0 && IsTierEntry(boundary)) {
      // The boundary page is digested and its surviving bytes must be scrubbed in
      // place: promote it back to NVM (filled), link the copy, then zero the tail of
      // the copy. The orphaned slot is released at reconcile.
      TRIO_ASSIGN_OR_RETURN(
          PageNumber promoted,
          PromoteForWrite(node, boundary_index, TierSlotOfEntry(boundary), /*fill=*/true));
      LinkDataPages(node, {{boundary_index, promoted}}, &span);
      boundary = promoted;
    }
    if (boundary != 0) {
      const uint64_t keep = new_size % kPageSize;
      pool_.Set(pool_.PageAddress(boundary) + keep, 0, kPageSize - keep);
      span.Persist(pool_.PageAddress(boundary) + keep, kPageSize - keep);
    }
  }
  const uint64_t first_dead = (new_size + kPageSize - 1) / kPageSize;
  const uint64_t last_page = old_size == 0 ? 0 : (old_size - 1) / kPageSize;
  for (uint64_t index = first_dead; index <= last_page; ++index) {
    const PageNumber page = node->radix.Lookup(index);
    if (page == 0) {
      continue;
    }
    const size_t chain_slot = index / kIndexEntriesPerPage;
    auto* chain =
        reinterpret_cast<IndexPage*>(pool_.PageAddress(node->index_pages[chain_slot]));
    pool_.Store64(&chain->entries[index % kIndexEntriesPerPage], 0);
    span.Persist(&chain->entries[index % kIndexEntriesPerPage], sizeof(uint64_t));
    node->radix.Erase(index);
    if (IsTierEntry(page)) {
      // A truncated digested page has no NVM page to reuse; drop any promoted copy.
      // The backend slot itself is released when this write session reconciles.
      const PageNumber cached = promote_cache_.Erase(node->ino, index);
      if (cached != 0) {
        leases_.RecyclePage(cached);
      }
      continue;
    }
    std::lock_guard<SpinLock> guard(node->tails_lock);
    node->reuse_pages.push_back(page);
  }
  span.Fence();
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Fd-based FsInterface operations
// ---------------------------------------------------------------------------

Status ArckFs::Close(Fd fd) {
  obs::OpScope op("Close");
  return fds_.Release(fd);
}

Result<size_t> ArckFs::Read(Fd fd, void* buf, size_t count) {
  obs::OpScope op("Read");
  auto* entry = fds_.Get(fd);
  if (entry == nullptr) {
    return BadFd();
  }
  const uint64_t offset = entry->offset.load(std::memory_order_relaxed);
  TRIO_ASSIGN_OR_RETURN(size_t done, Pread(fd, buf, count, offset));
  // fetch_add on the completed byte count: a plain store would lose the other side's
  // advance when two threads share the fd.
  entry->offset.fetch_add(done, std::memory_order_relaxed);
  return done;
}

Result<size_t> ArckFs::Write(Fd fd, const void* buf, size_t count) {
  obs::OpScope op("Write");
  auto* entry = fds_.Get(fd);
  if (entry == nullptr) {
    return BadFd();
  }
  if (entry->append) {
    if (!entry->writable) {
      return BadFd("fd not opened for writing");
    }
    FileNode* node = entry->file.get();
    if (node->is_dir) {
      return IsDir();
    }
    if (count == 0) {
      return static_cast<size_t>(0);
    }
    // The append offset is chosen by WriteLocked under the exclusive inode lock; reading
    // the size here would race with concurrent appenders.
    TRIO_RETURN_IF_ERROR(LockForOp(node, 2));
    uint64_t used = 0;
    Result<size_t> result = WriteLocked(node, buf, count, 0, /*append=*/true, &used);
    UnlockOp(node);
    if (!result.ok()) {
      return result;
    }
    entry->offset.store(used + *result, std::memory_order_relaxed);
    return result;
  }
  const uint64_t offset = entry->offset.load(std::memory_order_relaxed);
  TRIO_ASSIGN_OR_RETURN(size_t done, Pwrite(fd, buf, count, offset));
  entry->offset.fetch_add(done, std::memory_order_relaxed);
  return done;
}

Result<size_t> ArckFs::Pread(Fd fd, void* buf, size_t count, uint64_t offset) {
  obs::OpScope op("Pread");
  auto* entry = fds_.Get(fd);
  if (entry == nullptr) {
    return BadFd();
  }
  FileNode* node = entry->file.get();
  if (node->is_dir) {
    return IsDir();
  }
  return ReadOp(node, [&] { return ReadLocked(node, buf, count, offset); });
}

Result<size_t> ArckFs::Pwrite(Fd fd, const void* buf, size_t count, uint64_t offset) {
  obs::OpScope op("Pwrite");
  auto* entry = fds_.Get(fd);
  if (entry == nullptr) {
    return BadFd();
  }
  if (!entry->writable) {
    return BadFd("fd not opened for writing");
  }
  FileNode* node = entry->file.get();
  if (node->is_dir) {
    return IsDir();
  }
  TRIO_RETURN_IF_ERROR(LockForOp(node, 2));
  Result<size_t> result = WriteLocked(node, buf, count, offset);
  UnlockOp(node);
  return result;
}

Result<uint64_t> ArckFs::Seek(Fd fd, uint64_t offset) {
  obs::OpScope op("Seek");
  auto* entry = fds_.Get(fd);
  if (entry == nullptr) {
    return BadFd();
  }
  entry->offset.store(offset, std::memory_order_relaxed);
  return offset;
}

Status ArckFs::Fsync(Fd fd) {
  obs::OpScope op("Fsync");
  auto* entry = fds_.Get(fd);
  if (entry == nullptr) {
    return BadFd();
  }
  if (!config_.sync_data && !entry->file->is_dir) {
    // Relaxed-data mode: the write path deferred its flushes to here.
    FlushDirtyData(entry->file.get());
  }
  // In the default mode every operation is already synchronous (§4.4).
  return OkStatus();
}

Status ArckFs::Ftruncate(Fd fd, uint64_t size) {
  obs::OpScope op("Ftruncate");
  auto* entry = fds_.Get(fd);
  if (entry == nullptr || !entry->writable) {
    return BadFd();
  }
  FileNode* node = entry->file.get();
  TRIO_RETURN_IF_ERROR(LockForOp(node, 2));
  Status status = TruncateLocked(node, size);
  UnlockOp(node);
  return status;
}

Status ArckFs::Truncate(const std::string& path, uint64_t size) {
  obs::OpScope op("Truncate");
  TRIO_ASSIGN_OR_RETURN(NodePtr node, OpenNodeByPath(path, /*write=*/true));
  if (node->is_dir) {
    return IsDir(path);
  }
  TRIO_RETURN_IF_ERROR(LockForOp(node.get(), 2));
  Status status = TruncateLocked(node.get(), size);
  UnlockOp(node.get());
  return status;
}

}  // namespace trio
