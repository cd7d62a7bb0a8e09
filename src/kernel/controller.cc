// KernelController lifecycle, mount/recovery, resource leasing, permission changes, the
// write-map log, ownership views, and the shard plumbing (shard index map, busy-waiters).
// The implementation is split across three translation units behind the single
// KernelController class:
//   controller.cc        — this file
//   controller_map.cc    — map/unmap/sharing and lease revocation
//   controller_verify.cc — verify/reconcile, checkpoint/rollback, quarantine, reclaim
// Every LibFS-callable entry point opens a SyscallScope (see syscall_boundary.h).
//
// Locking: see the hierarchy in controller.h. Shard mutexes are PLAIN mutexes; the
// verifier and every LibFS callback run with no shard held (in-flight verifications pin
// their record with FileRecord::busy instead), so there is no reentrancy to forgive.

#include "src/kernel/controller.h"

#include <algorithm>
#include <functional>

#include "src/kernel/controller_internal.h"
#include "src/kernel/digestion.h"
#include "src/kernel/syscall_boundary.h"
#include "src/obs/persist_span.h"
#include "src/sim/backend.h"

namespace trio {

using controller_internal::WmapSlots;

// ---------------------------------------------------------------------------
// Construction / shard plumbing
// ---------------------------------------------------------------------------

KernelController::KernelController(NvmPool& pool, KernelConfig config, Clock* clock)
    : pool_(pool), config_(config), clock_(clock) {
  size_t shards = std::max<size_t>(1, std::min(config_.controller_shards,
                                               ShardRank::kMaxShards));
  size_t cap = 1;
  while (cap < shards) {
    cap <<= 1;
  }
  shards_.reserve(cap);
  for (size_t i = 0; i < cap; ++i) {
    shards_.push_back(std::make_unique<Shard>(stats_.shard_lock_contended));
  }
  shard_mask_ = cap - 1;
  page_table_.Resize(pool_.num_pages());
  verifier_ = std::make_unique<IntegrityVerifier>(pool_, *this, *this, clock_);
  // Digestion starts at Mount(), not here: its occupancy/cold scans read state the
  // mount rescan builds (file_region_pages_, the record tables).
}

KernelController::~KernelController() {
  digestion_.reset();  // Stop the migration thread before any state it walks goes away.
  delegation_.reset();
}

void KernelController::StartDelegation() {
  if (delegation_ == nullptr) {
    delegation_ = std::make_unique<DelegationPool>(pool_, config_.delegation);
  }
}

KernelController::FileRecord* KernelController::WaitNotBusyLocked(
    Shard& shard, std::unique_lock<std::mutex>& lk, Ino ino) {
  for (;;) {
    FileRecord* record = FindRecordLocked(shard, ino);
    if (record == nullptr || !record->busy) {
      return record;
    }
    shard.cv.wait(lk);
  }
}

std::shared_ptr<KernelController::LibFsRecord> KernelController::FindLibFs(
    LibFsId id) const {
  std::lock_guard<std::mutex> guard(registry_mu_);
  auto it = libfses_.find(id);
  return it == libfses_.end() ? nullptr : it->second;
}

std::vector<ShardMutex*> KernelController::ShardMutexesFor(
    const std::vector<size_t>& indices) const {
  std::vector<ShardMutex*> mutexes;
  mutexes.reserve(indices.size());
  for (size_t i : indices) {
    mutexes.push_back(&shards_[i]->mu);
  }
  return mutexes;
}

std::vector<size_t> KernelController::AllShardIndices() const {
  std::vector<size_t> indices(shards_.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    indices[i] = i;
  }
  return indices;
}

void KernelController::ReleasePageToFree(PageNumber page) {
  page_table_.Set(page, ResourceState::kFree, 0);
  std::lock_guard<std::mutex> guard(alloc_mu_);
  free_pages_by_node_[pool_.NodeOfPage(page)].push_back(page);
}

// ---------------------------------------------------------------------------
// Mount / unmount / recovery
// ---------------------------------------------------------------------------

Status KernelController::Mount() {
  TRIO_RETURN_IF_ERROR(CheckSuperblock(pool_));
  // Acquire-all: mount rebuilds every table, so it is the one operation that freezes the
  // whole controller (ascending order, like every multi-shard acquire).
  const std::vector<size_t> all = AllShardIndices();
  OrderedShardSpan span(ShardMutexesFor(all), all);
  Superblock* sb = SuperblockOf(pool_);
  needs_recovery_ = sb->clean_shutdown == 0;
  file_region_pages_ = sb->total_pages - sb->file_region_page;
  if (config_.tier.backend != nullptr) {
    // The backend owner table is auxiliary state too: forget it and re-adopt every slot
    // the tree rescan finds referenced by a tier entry.
    config_.tier.backend->BeginRebuild();
  }

  for (auto& shard : shards_) {
    shard->records.clear();
  }
  page_table_.Clear();
  if (ino_table_.size() == 0) {
    ino_table_.Resize(sb->max_inodes);
    map_epochs_.Resize(sb->max_inodes);
    wmap_slot_of_.Resize(sb->max_inodes);
  }
  ino_table_.Clear();
  LoadWmapIndex();
  {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    free_pages_by_node_.assign(pool_.topology().num_nodes, {});
    free_inos_.clear();
    next_ino_ = kRootIno + 1;
  }

  // The ownership tables are auxiliary state (§3.2): rebuild them by walking the core
  // state from the root, each page and ino claimed by its first claimant.
  Status scan = ScanTreeLocked(kRootIno, kInvalidIno, /*dirent_page=*/0, /*dirent_slot=*/0,
                               sb->root);
  if (!scan.ok()) {
    TRIO_LOG(kWarn) << "mount scan found damage: " << scan.ToString();
  }

  // Everything in the file region not owned by a file is free.
  {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    for (PageNumber p = sb->file_region_page; p < sb->total_pages; ++p) {
      if (page_table_.Get(p).state == ResourceState::kFree) {
        free_pages_by_node_[pool_.NodeOfPage(p)].push_back(p);
      }
    }
  }

  // We are live: a crash from here on is unclean until Unmount().
  const uint64_t live = 0;
  pool_.Write(&sb->clean_shutdown, &live, sizeof(live));
  obs::PersistSpan(pool_, &persist_stats_).PersistNow(&sb->clean_shutdown, sizeof(live));
  mounted_ = true;
  if (config_.tier.backend != nullptr && config_.tier.start_digestion) {
    StartDigestion();  // Only now: the scans above built the state digestion walks.
  }
  return OkStatus();
}

Status KernelController::ScanTreeLocked(Ino ino, Ino parent, PageNumber dirent_page,
                                        size_t dirent_slot, const DirentBlock& dirent) {
  // A torn rename can leave the same ino under two names; the first keeps it, and the LibFS
  // recovery program resolves the journal.
  if (!ino_table_.Claim(ino, ResourceState::kOwned, parent)) {
    return Corrupted("inode appears twice in tree or is out of range");
  }
  FileRecord record;
  record.ino = ino;
  record.parent = parent;
  record.is_dir = dirent.IsDirectory();
  record.dirent_page = dirent_page;
  record.dirent_slot = dirent_slot;
  record.first_index_page = dirent.first_index_page;
  record.chain_generation = NextChainGeneration();

  // Claim this file's pages; tolerate damage by stopping at the first bad page.
  Status walk = ForEachIndexPage(pool_, dirent.first_index_page, [&](PageNumber p) -> Status {
    if (!page_table_.Claim(p, ResourceState::kOwned, ino)) {
      return Corrupted("index page claimed twice");
    }
    record.pages.insert(p);
    return OkStatus();
  });
  if (walk.ok()) {
    walk = ForEachDataEntry(pool_, dirent.first_index_page,
                            [&](uint64_t, uint64_t entry) -> Status {
                              if (IsTierEntry(entry)) {
                                if (record.is_dir) {
                                  return Corrupted("tier entry inside a directory chain");
                                }
                                if (config_.tier.backend == nullptr) {
                                  return Corrupted("tier entry with no backend configured");
                                }
                                const uint64_t slot = TierSlotOfEntry(entry);
                                TRIO_RETURN_IF_ERROR(config_.tier.backend->Adopt(slot, ino));
                                record.backend_slots.insert(slot);
                                return OkStatus();
                              }
                              if (!page_table_.Claim(entry, ResourceState::kOwned, ino)) {
                                return Corrupted("data page claimed twice");
                              }
                              record.pages.insert(entry);
                              return OkStatus();
                            });
  }

  {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    if (ino >= next_ino_) {
      next_ino_ = ino + 1;
    }
  }

  // Adopt files that were created but never reconciled before a crash: give them a shadow
  // inode matching their dirent (the recovery verify pass re-checks structure).
  ShadowInode* shadow = ShadowInodeOf(pool_, ino);
  if (shadow != nullptr && !shadow->Exists()) {
    ShadowInode fresh{dirent.mode, dirent.uid, dirent.gid, 1};
    pool_.Write(shadow, &fresh, sizeof(fresh));
    obs::PersistSpan(pool_, &persist_stats_).PersistNow(shadow, sizeof(fresh));
  }

  Status children_status = OkStatus();
  if (record.is_dir && walk.ok()) {
    children_status = ForEachDirent(
        pool_, dirent.first_index_page,
        [&](DirentBlock* child, Ino child_ino, PageNumber page, size_t slot) -> Status {
          Status s = ScanTreeLocked(child_ino, ino, page, slot, *child);
          if (!s.ok()) {
            TRIO_LOG(kWarn) << "mount: subtree of ino " << child_ino
                            << " damaged: " << s.ToString();
          }
          return OkStatus();
        });
  }

  ShardOf(ino).records[ino] = std::move(record);
  if (!walk.ok()) {
    return walk;
  }
  return children_status;
}

Status KernelController::Unmount() {
  {
    std::lock_guard<std::mutex> guard(registry_mu_);
    if (!libfses_.empty()) {
      return Busy("LibFSes still registered");
    }
  }
  Superblock* sb = SuperblockOf(pool_);
  const uint64_t clean = 1;
  pool_.Write(&sb->clean_shutdown, &clean, sizeof(clean));
  obs::PersistSpan(pool_, &persist_stats_).PersistNow(&sb->clean_shutdown, sizeof(clean));
  mounted_ = false;
  return OkStatus();
}

Status KernelController::RunRecovery() {
  // Phase 1: untrusted LibFS recovery programs (journal undo). No controller locks: the
  // programs may call back into any syscall.
  std::vector<std::function<void()>> programs;
  {
    std::lock_guard<std::mutex> guard(registry_mu_);
    for (auto& [id, libfs] : libfses_) {
      if (libfs->callbacks.recovery) {
        programs.push_back(libfs->callbacks.recovery);
      }
    }
  }
  bool program_timed_out = false;
  for (auto& program : programs) {
    // Recovery programs are arbitrary user code; one that never returns must not wedge
    // recovery for everyone. On timeout the program's journal state is unknown, so
    // coverage escalates below to verifying every file, not just the logged ones.
    if (!RunGuarded(config_.recovery_timeout_ms, program)) {
      program_timed_out = true;
      TRIO_LOG(kWarn) << "recovery: a LibFS recovery program overran "
                      << config_.recovery_timeout_ms
                      << "ms and was abandoned; escalating to full-tree verification";
    }
  }

  // Phase 2: the recovery programs may have moved dirents around; rebuild the tables.
  TRIO_RETURN_IF_ERROR(Mount());

  // Phase 3: verify every file that was write-mapped when the crash happened (§4.4).
  // If the write-map log overflowed before the crash (or a recovery program hung),
  // coverage is unknown: verify the whole tree instead (an online fsck over every record).
  //
  // Idempotence: the log slots and the overflow flag are cleared only AFTER every
  // verification (and any resulting removal) has been persisted. A crash anywhere during
  // recovery leaves the obligations on media, so a second RunRecovery redoes them and
  // converges — verification is read-only and removal of an already-removed file is a
  // no-op.
  Superblock* sb = SuperblockOf(pool_);
  std::vector<Ino> to_verify;
  auto* log = reinterpret_cast<uint64_t*>(pool_.PageAddress(sb->wmap_log_page));
  const bool overflow = pool_.Load64(&sb->wmap_log_overflow) != 0;
  if (overflow || program_timed_out) {
    for (size_t si = 0; si < shards_.size(); ++si) {
      ShardLock sl(shards_[si]->mu, si);
      for (const auto& [ino, record] : shards_[si]->records) {
        to_verify.push_back(ino);
      }
    }
  }
  for (size_t i = 0; i < WmapSlots(pool_); ++i) {
    if (log[i] != kInvalidIno) {
      to_verify.push_back(log[i]);
    }
  }
  std::sort(to_verify.begin(), to_verify.end());
  to_verify.erase(std::unique(to_verify.begin(), to_verify.end()), to_verify.end());
  for (Ino ino : to_verify) {
    const size_t si = ShardIndexOf(ino);
    VerifyRequest request;
    {
      ShardLock sl(shards_[si]->mu, si);
      FileRecord* record = WaitNotBusyLocked(*shards_[si], sl.lock(), ino);
      if (record == nullptr) {
        continue;
      }
      record->busy = true;  // Pin across the (lock-free) verification below.
      request.ino = ino;
      request.dirent = DirentOfLocked(*record);
      request.writer = kNoLibFs;
      const ShadowInode* shadow = ShadowInodeOf(pool_, ino);
      request.writer_uid = shadow != nullptr ? shadow->uid : 0;
      request.writer_gid = shadow != nullptr ? shadow->gid : 0;
      if (config_.verify_timeout_ms != 0) {
        request.deadline_ns = NowNs() + config_.verify_timeout_ms * 1000000ull;
      }
    }
    Result<VerifyReport> report = verifier_->Verify(request);
    stats_.verifications.fetch_add(1);
    if (!report.ok() && report.status().Is(ErrorCode::kTimeout)) {
      stats_.verify_timeouts.fetch_add(1);
    }
    {
      ShardLock sl(shards_[si]->mu, si);
      FileRecord* record = FindRecordLocked(*shards_[si], ino);
      if (record != nullptr) {
        record->busy = false;
        if (!report.ok() && ino != kRootIno) {
          DirentBlock* dirent = DirentOfLocked(*record);
          obs::PersistSpan(pool_, &persist_stats_).CommitStore64(&dirent->ino, kInvalidIno);
        }
      }
      shards_[si]->cv.notify_all();
    }
    if (!report.ok()) {
      TRIO_LOG(kWarn) << "recovery: ino " << ino
                      << " failed verification: " << report.status().ToString()
                      << (ino != kRootIno ? "; removing"
                                          : "; root cannot be removed — left for fsck");
      if (ino != kRootIno) {
        ReclaimTree(ino);
      }
    }
  }

  // Phase 4: scrub orphaned shadow inodes. A crash between invalidating a dirent and
  // clearing its shadow inode (removal is two persists) leaves a live shadow no tree
  // entry references — exactly fsck's G6 orphan. Any live shadow without a record is one.
  for (Ino ino = kRootIno + 1; ino < sb->max_inodes; ++ino) {
    bool known;
    {
      const size_t si = ShardIndexOf(ino);
      ShardLock sl(shards_[si]->mu, si);
      known = shards_[si]->records.count(ino) != 0;
    }
    if (known) {
      continue;
    }
    ShadowInode* shadow = ShadowInodeOf(pool_, ino);
    if (shadow != nullptr && shadow->Exists()) {
      ShadowInode cleared{};
      pool_.Write(shadow, &cleared, sizeof(cleared));
      obs::PersistSpan(pool_, &persist_stats_).PersistNow(shadow, sizeof(cleared));
      TRIO_LOG(kInfo) << "recovery: cleared orphaned shadow inode " << ino;
    }
  }

  // All obligations discharged: retire the log.
  {
    std::lock_guard<std::mutex> guard(wmap_mu_);
    obs::PersistSpan span(pool_, &persist_stats_);
    for (size_t i = 0; i < WmapSlots(pool_); ++i) {
      if (log[i] != kInvalidIno) {
        span.CommitStore64(&log[i], kInvalidIno);
      }
    }
    if (overflow) {
      span.CommitStore64(&sb->wmap_log_overflow, 0);
    }
  }
  LoadWmapIndex();
  needs_recovery_ = false;
  return OkStatus();
}

// ---------------------------------------------------------------------------
// LibFS lifecycle
// ---------------------------------------------------------------------------

LibFsId KernelController::RegisterLibFs(const LibFsOptions& options) {
  SyscallScope syscall(stats_, *clock_, "RegisterLibFs");
  auto record = std::make_shared<LibFsRecord>(pool_.num_pages());
  record->uid = options.uid;
  record->gid = options.gid;
  record->callbacks = options.callbacks;
  // Every LibFS can read the superblock.
  record->mmu.Grant(0, PagePerm::kRead);
  LibFsId id;
  {
    std::lock_guard<std::mutex> guard(registry_mu_);
    id = next_libfs_id_++;
    record->id = id;
    libfses_[id] = std::move(record);
  }
  return id;
}

void KernelController::UnregisterLibFs(LibFsId libfs) {
  SyscallScope syscall(stats_, *clock_, "UnregisterLibFs");
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return;
  }

  // Release read mappings (page permissions fall with the record's page table).
  std::vector<Ino> reads;
  {
    std::lock_guard<std::mutex> guard(me->mu);
    reads.assign(me->read_mapped.begin(), me->read_mapped.end());
    me->read_mapped.clear();
  }
  for (Ino ino : reads) {
    const size_t si = ShardIndexOf(ino);
    ShardLock sl(shards_[si]->mu, si);
    FileRecord* file = FindRecordLocked(*shards_[si], ino);
    if (file != nullptr) {
      file->readers.erase(libfs);
    }
  }

  // Release write mappings: verify and reconcile each. Directories first: their
  // verification claims moved children (so a renamed file's record points at its current
  // dirent before the file is verified) and registers freshly created children as
  // implicit write grants — which is why this drains in rounds until nothing is left.
  for (;;) {
    std::vector<Ino> snapshot;
    {
      std::lock_guard<std::mutex> guard(me->mu);
      snapshot.assign(me->write_mapped.begin(), me->write_mapped.end());
    }
    if (snapshot.empty()) {
      break;
    }
    std::stable_partition(snapshot.begin(), snapshot.end(), [&](Ino ino) {
      const size_t si = ShardIndexOf(ino);
      ShardLock sl(shards_[si]->mu, si);
      const FileRecord* file = FindRecordLocked(*shards_[si], ino);
      return file != nullptr && file->is_dir;
    });
    for (Ino ino : snapshot) {
      bool is_writer = false;
      {
        const size_t si = ShardIndexOf(ino);
        ShardLock sl(shards_[si]->mu, si);
        FileRecord* file = WaitNotBusyLocked(*shards_[si], sl.lock(), ino);
        if (file != nullptr && file->writer == libfs) {
          file->busy = true;
          is_writer = true;
        }
      }
      if (is_writer) {
        (void)VerifyAndReconcile(ino);
        FinishWriteRelease(libfs, ino, me);
      } else {
        std::lock_guard<std::mutex> guard(me->mu);
        me->write_mapped.erase(ino);
      }
    }
  }
  ReclaimTransits(me);

  // Return leases: the tables' entries naming this LibFS.
  page_table_.EndLeasesOf(libfs, [&](PageNumber page) {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    free_pages_by_node_[pool_.NodeOfPage(page)].push_back(page);
  });
  ino_table_.EndLeasesOf(libfs, [&](Ino ino) {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    free_inos_.push_back(ino);
  });
  // From here MmuCheck finds no LibFS; the page table dies with the last record reference.
  std::lock_guard<std::mutex> guard(registry_mu_);
  libfses_.erase(libfs);
}

// ---------------------------------------------------------------------------
// Resource leasing
// ---------------------------------------------------------------------------

Status KernelController::AllocPages(LibFsId libfs, size_t count, int node_hint,
                                    std::vector<PageNumber>* out) {
  SyscallScope syscall(stats_, *clock_, "AllocPages");
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }
  std::vector<PageNumber> granted;
  granted.reserve(count);
  auto pop_page = [&]() -> PageNumber {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    const int nodes = static_cast<int>(free_pages_by_node_.size());
    const int node = node_hint >= 0 && node_hint < nodes ? node_hint : 0;
    for (int attempt = 0; attempt < nodes; ++attempt) {
      auto& free_list = free_pages_by_node_[(node + attempt) % nodes];
      if (!free_list.empty()) {
        const PageNumber page = free_list.back();
        free_list.pop_back();
        return page;
      }
    }
    return kInvalidPage;
  };
  for (size_t i = 0; i < count; ++i) {
    PageNumber page = pop_page();
    if (page == kInvalidPage && config_.tier.backend != nullptr) {
      // NVM exhausted: the absorb tier digests synchronously (a watermark stall — the
      // background thread fell behind) and the allocation retries once.
      tier_stats_.watermark_stalls.fetch_add(1);
      if (DigestNow(std::max(count, config_.tier.batch_pages)) > 0) {
        page = pop_page();
      }
    }
    if (page == kInvalidPage) {
      // All-or-nothing: roll back what this call handed out.
      for (PageNumber p : granted) {
        ReleasePageToFree(p);
      }
      return NoSpace("out of NVM pages");
    }
    // Zero before leasing: a freed page must not leak another user's data.
    pool_.Set(pool_.PageAddress(page), 0, kPageSize);
    granted.push_back(page);
  }
  // MMU grants first, the lease last: a FreePages racing this call cannot free a page
  // before the references it would release exist.
  me->mmu.GrantPages(granted, PagePerm::kReadWrite);
  for (PageNumber page : granted) {
    page_table_.Set(page, ResourceState::kLeased, libfs);
  }
  stats_.pages_allocated.fetch_add(granted.size());
  out->insert(out->end(), granted.begin(), granted.end());
  return OkStatus();
}

Status KernelController::FreePages(LibFsId libfs, const std::vector<PageNumber>& pages) {
  SyscallScope syscall(stats_, *clock_, "FreePages");
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }
  for (PageNumber page : pages) {
    if (page_table_.EndLease(page, libfs)) {
      me->mmu.Revoke(page, PagePerm::kReadWrite);
      {
        std::lock_guard<std::mutex> guard(alloc_mu_);
        free_pages_by_node_[pool_.NodeOfPage(page)].push_back(page);
      }
      stats_.pages_freed.fetch_add(1);
      continue;
    }
    const OwnershipTable::Entry entry = page_table_.Get(page);
    if (entry.state == ResourceState::kOwned) {
      // The page belongs to a file: only its current writer may free it. Lock the owning
      // file's shard and re-validate (ownership may have moved while unlocked).
      const Ino owner = entry.holder;
      const size_t si = ShardIndexOf(owner);
      ShardLock sl(shards_[si]->mu, si);
      FileRecord* file = WaitNotBusyLocked(*shards_[si], sl.lock(), owner);
      if (file == nullptr || !page_table_.Is(page, ResourceState::kOwned, owner)) {
        return PermissionDenied("page not freeable by caller");
      }
      if (file->writer != libfs) {
        return PermissionDenied("freeing a page of a file not write-mapped by caller");
      }
      file->pages.erase(page);
      if (file->checkpoint != nullptr) {
        file->checkpoint->verified = false;  // Its chain may still reference the page.
      }
      me->mmu.Revoke(page, PagePerm::kReadWrite);
      ReleasePageToFree(page);
      stats_.pages_freed.fetch_add(1);
    } else if (entry.state == ResourceState::kFree) {
      return InvalidArgument("freeing a page that is not allocated");
    } else {
      return PermissionDenied("page not freeable by caller");
    }
  }
  return OkStatus();
}

Result<Ino> KernelController::AllocIno(LibFsId libfs) {
  std::vector<Ino> out;
  TRIO_RETURN_IF_ERROR(AllocInos(libfs, 1, &out));
  return out[0];
}

Status KernelController::AllocInos(LibFsId libfs, size_t count, std::vector<Ino>* out) {
  SyscallScope syscall(stats_, *clock_, "AllocInos");
  if (FindLibFs(libfs) == nullptr) {
    return InvalidArgument("unknown LibFS");
  }
  std::vector<Ino> granted;
  granted.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Ino ino = kInvalidIno;
    {
      std::lock_guard<std::mutex> guard(alloc_mu_);
      if (!free_inos_.empty()) {
        ino = free_inos_.back();
        free_inos_.pop_back();
      } else if (next_ino_ < SuperblockOf(pool_)->max_inodes) {
        ino = next_ino_++;
      }
    }
    if (ino == kInvalidIno) {
      for (Ino undo : granted) {
        if (ino_table_.EndLease(undo, libfs)) {
          std::lock_guard<std::mutex> guard(alloc_mu_);
          free_inos_.push_back(undo);
        }
      }
      return NoSpace("out of inode numbers");
    }
    ino_table_.Set(ino, ResourceState::kLeased, libfs);
    granted.push_back(ino);
  }
  out->insert(out->end(), granted.begin(), granted.end());
  return OkStatus();
}

Status KernelController::FreeIno(LibFsId libfs, Ino ino) {
  SyscallScope syscall(stats_, *clock_, "FreeIno");
  if (!ino_table_.EndLease(ino, libfs)) {
    return InvalidArgument("ino not leased to caller");
  }
  std::lock_guard<std::mutex> guard(alloc_mu_);
  free_inos_.push_back(ino);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Permission changes
// ---------------------------------------------------------------------------

Status KernelController::Chmod(LibFsId libfs, Ino ino, uint32_t perm_bits) {
  SyscallScope syscall(stats_, *clock_, "Chmod");
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }
  const size_t si = ShardIndexOf(ino);
  ShardLock sl(shards_[si]->mu, si);
  FileRecord* record = FindRecordLocked(*shards_[si], ino);
  ShadowInode* shadow = ShadowInodeOf(pool_, ino);
  if (record == nullptr || shadow == nullptr || !shadow->Exists()) {
    return NotFound("no such file");
  }
  if (me->uid != 0 && me->uid != shadow->uid) {
    return PermissionDenied("only the owner may chmod");
  }
  ShadowInode updated = *shadow;
  updated.mode = (updated.mode & kModeTypeMask) | (perm_bits & kModePermMask);
  obs::PersistSpan span(pool_, &persist_stats_);
  pool_.Write(shadow, &updated, sizeof(updated));
  span.PersistNow(shadow, sizeof(updated));
  // Refresh the cached copy in the dirent so I4 stays consistent.
  DirentBlock* dirent = DirentOfLocked(*record);
  pool_.Write(&dirent->mode, &updated.mode, sizeof(updated.mode));
  span.PersistNow(&dirent->mode, sizeof(updated.mode));
  return OkStatus();
}

Status KernelController::Chown(LibFsId libfs, Ino ino, uint32_t uid, uint32_t gid) {
  SyscallScope syscall(stats_, *clock_, "Chown");
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }
  if (me->uid != 0) {
    return PermissionDenied("only root may chown");
  }
  const size_t si = ShardIndexOf(ino);
  ShardLock sl(shards_[si]->mu, si);
  FileRecord* record = FindRecordLocked(*shards_[si], ino);
  ShadowInode* shadow = ShadowInodeOf(pool_, ino);
  if (record == nullptr || shadow == nullptr || !shadow->Exists()) {
    return NotFound("no such file");
  }
  ShadowInode updated = *shadow;
  updated.uid = uid;
  updated.gid = gid;
  obs::PersistSpan span(pool_, &persist_stats_);
  pool_.Write(shadow, &updated, sizeof(updated));
  span.PersistNow(shadow, sizeof(updated));
  DirentBlock* dirent = DirentOfLocked(*record);
  pool_.Write(&dirent->uid, &updated.uid, sizeof(updated.uid));
  pool_.Write(&dirent->gid, &updated.gid, sizeof(updated.gid));
  span.PersistNow(&dirent->uid, sizeof(uint32_t) * 2);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// OwnershipView / VerifyEnv
// ---------------------------------------------------------------------------

// One lock-free load each; the verifier calls these mid-verify with no lock held.
PageState KernelController::StateOfPage(PageNumber page) const {
  if (page < FileRegionStart(pool_)) {
    return PageState{ResourceState::kReserved, kNoLibFs, kInvalidIno};
  }
  const OwnershipTable::Entry entry = page_table_.Get(page);
  return PageState{entry.state, entry.lessee(), entry.owner()};
}

InoState KernelController::StateOfIno(Ino ino) const {
  const OwnershipTable::Entry entry = ino_table_.Get(ino);
  return InoState{entry.state, entry.lessee(), entry.owner(), entry.mover()};
}

Status KernelController::CheckRemovedChildDir(Ino child, LibFsId writer) const {
  const size_t si = ShardIndexOf(child);
  ShardLock sl(shards_[si]->mu, si);
  const FileRecord* record = FindRecordLocked(*shards_[si], child);
  if (record == nullptr) {
    return OkStatus();  // Already reclaimed.
  }
  if ((record->writer != kNoLibFs && record->writer != writer) ||
      std::any_of(record->readers.begin(), record->readers.end(),
                  [&](LibFsId r) { return r != writer; })) {
    return Corrupted("I3: removed child directory still mapped by another LibFS");
  }
  Result<uint64_t> live = CountDirents(const_cast<NvmPool&>(pool_), record->first_index_page);
  if (!live.ok()) {
    return live.status();
  }
  if (*live != 0) {
    return Corrupted("I3: removed child directory is not empty");
  }
  return OkStatus();
}

bool KernelController::IsWriteHeldBy(Ino dir, LibFsId writer) const {
  const size_t si = ShardIndexOf(dir);
  ShardLock sl(shards_[si]->mu, si);
  const FileRecord* record = FindRecordLocked(*shards_[si], dir);
  return record != nullptr && record->writer == writer;
}

// ---------------------------------------------------------------------------
// Write-map log (crash recovery, §4.4)
// ---------------------------------------------------------------------------

void KernelController::WmapLogAdd(Ino ino) {
  std::lock_guard<std::mutex> guard(wmap_mu_);
  std::atomic<uint64_t>* logged = wmap_slot_of_.FindOrAdd(ino);
  if (logged != nullptr && logged->load(std::memory_order_relaxed) != 0) {
    return;
  }
  if (logged != nullptr && !wmap_free_.empty()) {
    std::pop_heap(wmap_free_.begin(), wmap_free_.end(), std::greater<>());
    const uint32_t slot = wmap_free_.back();
    wmap_free_.pop_back();
    auto* log =
        reinterpret_cast<uint64_t*>(pool_.PageAddress(SuperblockOf(pool_)->wmap_log_page));
    obs::PersistSpan(pool_, &persist_stats_).CommitStore64(&log[slot], ino);
    logged->store(slot + 1, std::memory_order_relaxed);
    return;
  }
  // Log full: fall back to verify-everything-at-recovery semantics.
  Superblock* sb = SuperblockOf(pool_);
  if (pool_.Load64(&sb->wmap_log_overflow) == 0) {
    obs::PersistSpan(pool_, &persist_stats_).CommitStore64(&sb->wmap_log_overflow, 1);
    TRIO_LOG(kInfo) << "write-map log full; recovery will verify the full tree";
  }
}

void KernelController::WmapLogRemove(Ino ino) {
  std::lock_guard<std::mutex> guard(wmap_mu_);
  std::atomic<uint64_t>* logged = wmap_slot_of_.Find(ino);
  const uint64_t slot_plus_one =
      logged == nullptr ? 0 : logged->load(std::memory_order_relaxed);
  if (slot_plus_one == 0) {
    return;
  }
  auto* log = reinterpret_cast<uint64_t*>(pool_.PageAddress(SuperblockOf(pool_)->wmap_log_page));
  obs::PersistSpan(pool_, &persist_stats_).CommitStore64(&log[slot_plus_one - 1], kInvalidIno);
  logged->store(0, std::memory_order_relaxed);
  wmap_free_.push_back(static_cast<uint32_t>(slot_plus_one - 1));
  std::push_heap(wmap_free_.begin(), wmap_free_.end(), std::greater<>());
}

void KernelController::LoadWmapIndex() {
  std::lock_guard<std::mutex> guard(wmap_mu_);
  wmap_slot_of_.ForEach([](uint64_t, std::atomic<uint64_t>& word) {
    word.store(0, std::memory_order_relaxed);
  });
  wmap_free_.clear();
  const auto* log =
      reinterpret_cast<const uint64_t*>(pool_.PageAddress(SuperblockOf(pool_)->wmap_log_page));
  for (size_t i = 0; i < WmapSlots(pool_); ++i) {
    const Ino ino = pool_.Load64(&log[i]);
    if (ino == kInvalidIno) {
      wmap_free_.push_back(static_cast<uint32_t>(i));
      continue;
    }
    // A second slot naming the same ino, or an ino past the table, stays taken and
    // unindexed until RunRecovery retires the log.
    std::atomic<uint64_t>* logged = wmap_slot_of_.FindOrAdd(ino);
    if (logged != nullptr && logged->load(std::memory_order_relaxed) == 0) {
      logged->store(i + 1, std::memory_order_relaxed);
    }
  }
  std::make_heap(wmap_free_.begin(), wmap_free_.end(), std::greater<>());
}

bool KernelController::RunGuarded(uint64_t timeout_ms, std::function<void()> fn) {
  if (!config_.guard_callbacks) {
    fn();
    return true;
  }
  // Wall time, like the guard's deadline (clock_ may be a test's FakeClock).
  SystemClock* wall = SystemClock::Instance();
  const uint64_t t0 = wall->NowNs();
  const bool completed = callback_guard_.Run(timeout_ms, std::move(fn));
  stats_.callback_wait_ns.fetch_add(wall->NowNs() - t0);
  stats_.callback_runs.fetch_add(1);
  if (!completed) {
    stats_.callback_timeouts.fetch_add(1);
  }
  return completed;
}

// ---------------------------------------------------------------------------
// Inspection helpers
// ---------------------------------------------------------------------------

size_t KernelController::FreePageCount() const {
  std::lock_guard<std::mutex> guard(alloc_mu_);
  size_t total = 0;
  for (const auto& list : free_pages_by_node_) {
    total += list.size();
  }
  return total;
}

bool KernelController::MmuCheck(LibFsId libfs, PageNumber page, bool write) const {
  const std::shared_ptr<LibFsRecord> record = FindLibFs(libfs);
  return record != nullptr && record->mmu.Check(page, write);
}

bool KernelController::MmuCheckRange(LibFsId libfs, const void* addr, size_t len,
                                     bool write) const {
  const std::shared_ptr<LibFsRecord> record = FindLibFs(libfs);
  return record != nullptr && record->mmu.CheckRange(pool_, addr, len, write);
}

bool KernelController::IsWriteMapped(Ino ino) const {
  const size_t si = ShardIndexOf(ino);
  ShardLock sl(shards_[si]->mu, si);
  const FileRecord* record = FindRecordLocked(*shards_[si], ino);
  return record != nullptr && record->writer != kNoLibFs;
}

Result<Ino> KernelController::ParentOf(Ino ino) const {
  const size_t si = ShardIndexOf(ino);
  ShardLock sl(shards_[si]->mu, si);
  const FileRecord* record = FindRecordLocked(*shards_[si], ino);
  if (record == nullptr) {
    return NotFound("no such file");
  }
  return record->parent;
}

}  // namespace trio
