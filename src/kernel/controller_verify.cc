// KernelController verification and safety: CommitFile, verify-and-reconcile on unmap,
// report application (page/ino reconciliation, new children, claims, transits),
// checkpointing, quarantine, and rollback. Part of the KernelController split; see
// controller.cc for the TU map.
//
// Verification runs with NO shard lock held: the caller pins the record with
// FileRecord::busy under its shard lock, releases the lock, verifies, then applies the
// report under an ordered span over the shards it names. The busy pin keeps
// release/reclaim/grant paths off the record (they wait on the shard cv).
//
// A file's parent and dirent location come from the directory that names it: a
// directory's verification claims the existing children it names at a slot not on record
// and puts those it dropped in transit, and the mover's quiescence reclaims what is still
// in transit by it (DESIGN.md §4.3).

#include "src/kernel/controller.h"

#include <algorithm>
#include <cstring>

#include "src/kernel/controller_internal.h"
#include "src/kernel/syscall_boundary.h"
#include "src/obs/persist_span.h"
#include "src/sim/backend.h"

namespace trio {

namespace {

// Absolute verifier deadline for one verification pass, from the config budget.
uint64_t VerifyDeadline(const KernelConfig& config, uint64_t now_ns) {
  return config.verify_timeout_ms == 0 ? 0 : now_ns + config.verify_timeout_ms * 1000000ull;
}

}  // namespace

Status KernelController::CommitFile(LibFsId libfs, Ino ino) {
  SyscallScope syscall(stats_, *clock_, "CommitFile");
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }
  const size_t si = ShardIndexOf(ino);
  VerifyRequest request;
  {
    ShardLock sl(shards_[si]->mu, si);
    FileRecord* record = WaitNotBusyLocked(*shards_[si], sl.lock(), ino);
    if (record == nullptr || record->writer != libfs) {
      return InvalidArgument("file not write-mapped by caller");
    }
    record->busy = true;
    request.ino = ino;
    request.dirent = DirentOfLocked(*record);
    request.writer = libfs;
    request.writer_uid = me->uid;
    request.writer_gid = me->gid;
    SetCheckpointInputsLocked(*record, &request);
  }

  // Verify the current state without the corruption-handling fallback: a failed commit
  // simply leaves the old checkpoint in force (§4.3).
  ShardRank::AssertNoneHeld();
  const uint64_t v0 = NowNs();
  request.deadline_ns = VerifyDeadline(config_, v0);
  Result<VerifyReport> report = verifier_->Verify(request);
  stats_.verifications.fetch_add(1);
  stats_.verify_ns.fetch_add(NowNs() - v0);

  Status result = OkStatus();
  if (!report.ok()) {
    stats_.verify_failures.fetch_add(1);
    if (report.status().Is(ErrorCode::kTimeout)) {
      stats_.verify_timeouts.fetch_add(1);
    }
    result = report.status();
  } else {
    result = ApplyReport(ino, std::move(*report));
  }

  ShardLock sl(shards_[si]->mu, si);
  FileRecord* record = FindRecordLocked(*shards_[si], ino);
  if (record != nullptr) {
    if (result.ok()) {
      result = TakeCheckpointLocked(record);
    }
    record->busy = false;
  }
  shards_[si]->cv.notify_all();
  return result;
}

void KernelController::SetCheckpointInputsLocked(const FileRecord& record,
                                                 VerifyRequest* request) const {
  const FileCheckpointData* checkpoint = record.checkpoint.get();
  if (checkpoint == nullptr) {
    return;
  }
  if (record.is_dir) {
    request->checkpoint_dir_pages = &checkpoint->dir_pages;
  } else if (checkpoint->verified) {
    request->verified_chain = &checkpoint->images;
  }
}

Status KernelController::VerifyAndReconcile(Ino ino) {
  const size_t si = ShardIndexOf(ino);
  VerifyRequest request;
  LibFsId writer = kNoLibFs;
  {
    ShardLock sl(shards_[si]->mu, si);
    FileRecord* record = FindRecordLocked(*shards_[si], ino);
    if (record == nullptr) {
      return Internal("record vanished under busy pin");
    }
    writer = record->writer;
    request.ino = ino;
    request.dirent = DirentOfLocked(*record);
    request.writer = writer;
    SetCheckpointInputsLocked(*record, &request);
  }
  std::shared_ptr<LibFsRecord> me = FindLibFs(writer);
  if (me == nullptr) {
    return Internal("writer vanished");
  }
  request.writer_uid = me->uid;
  request.writer_gid = me->gid;

  ShardRank::AssertNoneHeld();
  const uint64_t v0 = NowNs();
  request.deadline_ns = VerifyDeadline(config_, v0);
  Result<VerifyReport> report = verifier_->Verify(request);
  stats_.verifications.fetch_add(1);
  stats_.verify_ns.fetch_add(NowNs() - v0);
  if (report.ok()) {
    return ApplyReport(ino, std::move(*report));
  }

  stats_.verify_failures.fetch_add(1);
  Status failure = report.status();
  TRIO_LOG(kInfo) << "verification failed for ino " << ino << ": " << failure.ToString();

  // §4.3: "ArckFS notifies LibFS A to fix the corruption with a timeout." The callback
  // runs with no locks held (ShardRank would abort otherwise); the busy pin keeps the
  // record stable underneath it.
  auto fix = me->callbacks.fix_corruption;
  if (fix) {
    const uint64_t deadline = NowNs() + config_.fix_timeout_ms * 1000000ull;
    // fix_timeout_ms is a real deadline, not an honor-system check: the callback runs on
    // a watchdog thread and a hang is abandoned, escalating to rollback below. The result
    // lives in a shared_ptr because an abandoned callback may write it late.
    auto claimed = std::make_shared<std::atomic<bool>>(false);
    const bool completed = RunGuarded(config_.fix_timeout_ms, [fix, ino, failure, claimed] {
      claimed->store(fix(ino, failure), std::memory_order_release);
    });
    if (!completed) {
      TRIO_LOG(kWarn) << "fix_corruption for ino " << ino
                      << " hung past fix_timeout_ms; rolling back to checkpoint";
    }
    if (completed && claimed->load(std::memory_order_acquire) && NowNs() <= deadline) {
      {
        // Re-read the dirent location: a concurrent parent reconcile may have moved it.
        ShardLock sl(shards_[si]->mu, si);
        FileRecord* record = FindRecordLocked(*shards_[si], ino);
        if (record == nullptr) {
          return failure;
        }
        request.dirent = DirentOfLocked(*record);
      }
      request.deadline_ns = VerifyDeadline(config_, NowNs());
      Result<VerifyReport> retry = verifier_->Verify(request);
      stats_.verifications.fetch_add(1);
      if (retry.ok()) {
        stats_.corruptions_fixed_by_libfs.fetch_add(1);
        return ApplyReport(ino, std::move(*retry));
      }
      failure = retry.status();
    }
  }

  // Quarantine the corrupted image for the offender, then roll back to the checkpoint.
  // A verification that overran its deadline lands here too: the state is UNVERIFIED,
  // which the kernel must treat exactly like corruption rather than accept unchecked.
  if (failure.Is(ErrorCode::kTimeout)) {
    stats_.verify_timeouts.fetch_add(1);
  }
  {
    ShardLock sl(shards_[si]->mu, si);
    FileRecord* record = FindRecordLocked(*shards_[si], ino);
    if (record != nullptr) {
      QuarantineLocked(record, failure);
      RollbackToCheckpointLocked(record);
    }
  }
  stats_.corruptions_rolled_back.fetch_add(1);

  // Tell the offender its file was impounded so it drops cached mappings. Untrusted code:
  // bounded by the watchdog, and run outside every lock.
  auto notify = me->callbacks.quarantined;
  if (notify) {
    ShardRank::AssertNoneHeld();
    (void)RunGuarded(config_.fix_timeout_ms, [notify, ino, failure] { notify(ino, failure); });
  }
  return failure;
}

Status KernelController::ApplyReport(Ino ino, VerifyReport&& report) {
  // Every shard the report touches: the verified file plus each named child (new,
  // claimed, or removed).
  std::vector<size_t> indices{ShardIndexOf(ino)};
  for (const NewChildInfo& child : report.new_children) {
    indices.push_back(ShardIndexOf(child.ino));
  }
  for (const ClaimedChild& claim : report.claimed) {
    indices.push_back(ShardIndexOf(claim.ino));
  }
  for (Ino removed : report.removed_children) {
    indices.push_back(ShardIndexOf(removed));
  }
  const std::vector<size_t> set = SortedShardSet(std::move(indices));
  if (set.size() > 1) {
    stats_.cross_shard_acquires.fetch_add(1);
  }
  // Reclaims are deferred past the span: ReclaimTree takes shard locks itself.
  std::vector<Ino> reclaim;
  {
    OrderedShardSpan span(ShardMutexesFor(set), set);
    FileRecord* record = FindRecordLocked(ShardOf(ino), ino);
    if (record == nullptr) {
      return Internal("record vanished under busy pin");
    }
    const LibFsId writer_id = record->writer;
    std::shared_ptr<LibFsRecord> writer =
        writer_id != kNoLibFs ? FindLibFs(writer_id) : nullptr;

    if (!record->is_dir) {
      // The chain this pass accepted, kept for the next grant and verification.
      if (record->checkpoint == nullptr) {
        record->checkpoint = std::make_unique<FileCheckpointData>();
      }
      record->checkpoint->verified = true;
      if (!report.chain_unchanged) {
        record->checkpoint->images = std::move(report.chain);
        record->chain_generation = NextChainGeneration();
      }
    }
    // An unchanged chain references what the record already holds.
    if (!report.chain_unchanged) {
      ReconcilePagesLocked(record, writer.get(), report);
    }

    // FaultSim (kFaultKernelLeakOnContendedTransfer): on a transfer that raced a lease
    // revocation, leak one still-referenced page back onto the free list. A later
    // allocation hands it to another tenant => durable cross-file double reference, which
    // only fsck after a crash sees (the online verifier checks one file at a time). The
    // schedule explorer exists to find exactly this class of bug.
    if (fault_injector_ != nullptr && !record->pages.empty() &&
        revokes_in_flight_.load(std::memory_order_relaxed) > 0 &&
        fault_injector_->ShouldFire(kFaultKernelLeakOnContendedTransfer)) {
      const PageNumber leaked =
          *std::max_element(record->pages.begin(), record->pages.end());
      std::lock_guard<std::mutex> guard(alloc_mu_);
      free_pages_by_node_[pool_.NodeOfPage(leaked)].push_back(leaked);
    }

    // Fresh children become live files with shadow inodes and an implicit write grant to
    // their creator (their own pages reconcile at their own first verification).
    for (const NewChildInfo& child : report.new_children) {
      Shard& child_shard = ShardOf(child.ino);
      ino_table_.Set(child.ino, ResourceState::kOwned, ino);  // Ends the writer's lease.

      FileRecord fresh;
      fresh.ino = child.ino;
      fresh.parent = ino;
      fresh.is_dir = child.is_dir;
      fresh.dirent_page = child.dirent_page;
      fresh.dirent_slot = child.dirent_slot;
      fresh.first_index_page = child.first_index_page;
      fresh.chain_generation = NextChainGeneration();

      ShadowInode shadow{child.mode, child.uid, child.gid, 1};
      ShadowInode* slot = ShadowInodeOf(pool_, child.ino);
      pool_.Write(slot, &shadow, sizeof(shadow));
      obs::PersistSpan(pool_, &persist_stats_).PersistNow(slot, sizeof(shadow));

      if (writer_id != kNoLibFs) {
        fresh.writer = writer_id;
        fresh.lease_deadline_ns = NowNs() + config_.lease_ms * 1000000ull;
        if (writer != nullptr) {
          std::lock_guard<std::mutex> guard(writer->mu);
          writer->write_mapped.insert(child.ino);
        }
        WmapLogAdd(child.ino);
        // The implicit write grant's dirent-page reference: the child's co-located inode
        // lives in a page the writer already maps through the parent, and the child's
        // own teardown will release one RW dirent reference — without this matching
        // grant it would consume the parent mapping's reference (refcounted MMU).
        if (writer != nullptr && child.dirent_page != 0) {
          writer->mmu.Grant(child.dirent_page, PagePerm::kReadWrite);
        }
      }
      auto [it, inserted] = child_shard.records.emplace(child.ino, std::move(fresh));
      if (inserted && it->second.writer != kNoLibFs) {
        (void)TakeCheckpointLocked(&it->second);
      }
    }

    // Existing children named at a slot not on record. A claim that finds its child no
    // longer owned or in transit by this writer lost to the reclaim of that transit.
    for (const ClaimedChild& claim : report.claimed) {
      FileRecord* child = FindRecordLocked(ShardOf(claim.ino), claim.ino);
      const OwnershipTable::Entry entry = ino_table_.Get(claim.ino);
      const bool claimable =
          entry.state == ResourceState::kOwned ||
          (entry.state == ResourceState::kInTransit && entry.holder == writer_id);
      if (child == nullptr || !claimable ||
          !ino_table_.Transition(claim.ino, entry, ResourceState::kOwned, ino)) {
        continue;
      }
      stats_.children_claimed.fetch_add(1);
      // The co-located inode moved to a new parent data page: every holder's MMU
      // reference on the old dirent page must move with it, or the old page keeps a
      // stale justification and the new one underflows at unmap.
      if (child->dirent_page != claim.dirent_page) {
        auto move_reference = [&](LibFsId holder, PagePerm perm) {
          const std::shared_ptr<LibFsRecord> holder_record = FindLibFs(holder);
          if (holder_record == nullptr) {
            return;
          }
          if (child->dirent_page != 0) {
            holder_record->mmu.Revoke(child->dirent_page, perm);
          }
          if (claim.dirent_page != 0) {
            holder_record->mmu.Grant(claim.dirent_page, perm);
          }
        };
        if (child->writer != kNoLibFs) {
          move_reference(child->writer, PagePerm::kReadWrite);
        }
        for (LibFsId reader : child->readers) {
          move_reference(reader, PagePerm::kRead);
        }
      }
      child->parent = ino;
      child->dirent_page = claim.dirent_page;
      child->dirent_slot = claim.dirent_slot;
    }

    // Children that vanished and that no other directory has claimed yet: deleted, or
    // moved to a directory not verified since. Each waits in transit until a directory
    // claims it or the writer quiesces; with the writer gone, nothing can claim it.
    const OwnershipTable::Entry here{ResourceState::kOwned, ino};
    for (Ino removed : report.removed_children) {
      if (writer == nullptr) {
        if (ino_table_.Transition(removed, here, ResourceState::kFree, 0)) {
          reclaim.push_back(removed);
        }
      } else if (ino_table_.Transition(removed, here, ResourceState::kInTransit, writer_id)) {
        std::lock_guard<std::mutex> guard(writer->mu);
        writer->transits.insert(removed);
      }
    }
  }  // span released

  for (Ino r : reclaim) {
    ReclaimTree(r);
  }
  return OkStatus();
}

void KernelController::ReconcilePagesLocked(FileRecord* record, LibFsRecord* writer,
                                            const VerifyReport& report) {
  const Ino ino = record->ino;
  // Pages: adopt newly referenced leased pages, free no-longer-referenced owned pages.
  // The record's set is updated in place against one sorted copy of the report's pages:
  // only pages the session added cost a set node.
  std::vector<PageNumber> new_pages(report.pages);
  std::sort(new_pages.begin(), new_pages.end());
  for (auto it = record->pages.begin(); it != record->pages.end();) {
    const PageNumber page = *it;
    if (std::binary_search(new_pages.begin(), new_pages.end(), page)) {
      ++it;
      continue;
    }
    // Dropped from the file (truncate / shrink): back to the free pool.
    if (writer != nullptr) {
      writer->mmu.Revoke(page, PagePerm::kReadWrite);
    }
    ReleasePageToFree(page);
    stats_.pages_freed.fetch_add(1);
    it = record->pages.erase(it);
  }
  for (PageNumber page : new_pages) {
    if (page_table_.Get(page).state == ResourceState::kLeased) {
      page_table_.Set(page, ResourceState::kOwned, ino);  // Ends the writer's lease.
    }
    record->pages.insert(page);
  }
  record->first_index_page = DirentOfLocked(*record)->first_index_page;

  // Backend slots reconcile exactly like pages: slots no longer referenced by a tier
  // entry (the writer truncated or overwrote a digested page) are freed on the backend.
  // A writer cannot *mint* slots — CheckTierSlot already rejected any slot the backend
  // does not record as owned by this file — so the report's set is always a subset of
  // union(record set, adopted-at-mount set).
  {
    std::unordered_set<uint64_t> new_slots(report.backend_slots.begin(),
                                           report.backend_slots.end());
    SlowBackend* backend = config_.tier.backend;
    for (uint64_t slot : record->backend_slots) {
      if (new_slots.count(slot) != 0 || backend == nullptr) {
        continue;
      }
      (void)backend->Free(slot, ino);
      tier_stats_.backend_slots_freed.fetch_add(1);
    }
    record->backend_slots = std::move(new_slots);
  }
}

void KernelController::ReclaimTransits(const std::shared_ptr<LibFsRecord>& mover) {
  std::vector<Ino> transits;
  {
    std::lock_guard<std::mutex> guard(mover->mu);
    transits.assign(mover->transits.begin(), mover->transits.end());
    mover->transits.clear();
  }
  const OwnershipTable::Entry moved{ResourceState::kInTransit, mover->id};
  for (Ino ino : transits) {
    bool reclaim = false;
    {
      // A directory removed in transit was checked empty by I3 when it was dropped.
      const size_t si = ShardIndexOf(ino);
      ShardLock sl(shards_[si]->mu, si);
      reclaim = ino_table_.Transition(ino, moved, ResourceState::kFree, 0);
    }
    if (reclaim) {
      stats_.transits_reclaimed.fetch_add(1);
      ReclaimTree(ino);
    }
  }
}

void KernelController::ReclaimTree(Ino root) {
  // Collect the subtree breadth-first (mass deletion by page rewrite is legal
  // tombstoning), scanning one shard at a time, then reclaim leaf-first.
  std::vector<Ino> order{root};
  for (size_t i = 0; i < order.size(); ++i) {
    const Ino cur = order[i];
    for (size_t si = 0; si < shards_.size(); ++si) {
      ShardLock sl(shards_[si]->mu, si);
      for (const auto& [child_ino, child] : shards_[si]->records) {
        if (child.parent == cur && child_ino != cur) {
          order.push_back(child_ino);
        }
      }
    }
  }
  for (size_t i = order.size(); i-- > 0;) {
    ReclaimOne(order[i]);
  }
}

void KernelController::ReclaimOne(Ino ino) {
  std::vector<PageNumber> pages;
  std::vector<uint64_t> backend_slots;
  {
    const size_t si = ShardIndexOf(ino);
    ShardLock sl(shards_[si]->mu, si);
    FileRecord* record = WaitNotBusyLocked(*shards_[si], sl.lock(), ino);
    if (record == nullptr) {
      return;
    }
    // Holders still mapping the deleted file lose its pages before they are freed: a
    // page re-leased to another LibFS must not stay reachable through this file. Readers
    // are dropped as a write grant drops them, so their next op finds the file gone.
    DropReadersLocked(*record);
    if (const std::shared_ptr<LibFsRecord> writer =
            record->writer != kNoLibFs ? FindLibFs(record->writer) : nullptr) {
      {
        std::lock_guard<std::mutex> guard(writer->mu);
        writer->write_mapped.erase(ino);
      }
      RevokeFilePagesLocked(*writer, *record, /*write=*/true);
    }
    pages.assign(record->pages.begin(), record->pages.end());
    backend_slots.assign(record->backend_slots.begin(), record->backend_slots.end());
    shards_[si]->records.erase(ino);
    shards_[si]->cv.notify_all();  // MapFile calls waiting for a turn on it find it gone.
    ino_table_.Set(ino, ResourceState::kFree, 0);
  }
  for (PageNumber page : pages) {
    ReleasePageToFree(page);
    stats_.pages_freed.fetch_add(1);
  }
  if (config_.tier.backend != nullptr) {
    for (uint64_t slot : backend_slots) {
      (void)config_.tier.backend->Free(slot, ino);
      tier_stats_.backend_slots_freed.fetch_add(1);
    }
  }
  ShadowInode* shadow = ShadowInodeOf(pool_, ino);
  if (shadow != nullptr) {
    ShadowInode cleared{};
    pool_.Write(shadow, &cleared, sizeof(cleared));
    obs::PersistSpan(pool_, &persist_stats_).PersistNow(shadow, sizeof(cleared));
  }
  WmapLogRemove(ino);
  // The ino returns to the free pool LAST: nothing above may observe it re-leased while
  // its old record is still being torn down.
  std::lock_guard<std::mutex> guard(alloc_mu_);
  free_inos_.push_back(ino);
}

Status KernelController::TakeCheckpointLocked(FileRecord* record) {
  if (record->checkpoint != nullptr && record->checkpoint->verified) {
    // The chain a passing verification checked, unchanged since: only the dirent is new.
    record->checkpoint->meta = *DirentOfLocked(*record);
    return OkStatus();
  }
  auto checkpoint = std::make_unique<FileCheckpointData>();
  checkpoint->meta = *DirentOfLocked(*record);

  // §4.3: checkpoint the file's metadata — index pages for a regular file; both index and
  // data pages for a directory (directory data pages *are* metadata).
  const PageNumber first = checkpoint->meta.first_index_page;
  TRIO_RETURN_IF_ERROR(ForEachIndexPage(pool_, first, [&](PageNumber page) -> Status {
    checkpoint->images.Add(pool_, page);
    return OkStatus();
  }));
  if (record->is_dir) {
    TRIO_RETURN_IF_ERROR(
        ForEachDataPage(pool_, first, [&](uint64_t, PageNumber page) -> Status {
          checkpoint->dir_pages.Add(pool_, page);
          return OkStatus();
        }));
  }
  record->checkpoint = std::move(checkpoint);
  return OkStatus();
}

void KernelController::QuarantineLocked(FileRecord* record, const Status& reason) {
  std::lock_guard<std::mutex> guard(quarantine_mu_);
  QuarantineEntry entry;
  entry.offender = record->writer;
  entry.error = reason;
  entry.sequence = ++quarantine_sequence_;
  for (PageNumber page : record->pages) {
    std::vector<char> image(kPageSize);
    std::memcpy(image.data(), pool_.PageAddress(page), kPageSize);
    entry.images.push_back(std::move(image));
  }
  quarantine_fifo_.emplace_back(entry.sequence, record->ino);
  quarantine_[record->ino] = std::move(entry);
  stats_.files_quarantined.fetch_add(1);

  // Bound kernel memory: an adversary corrupting file after file must not grow the
  // quarantine without limit. Evict oldest-first off the sequence-ordered FIFO —
  // O(1) amortized, where the old whole-map min-scan was O(n) per insert (O(n²) for a
  // corruption storm, a kernel-side DoS amplifier). Entries whose sequence no longer
  // matches the map (retrieved, or re-quarantined with a newer image) are stale; skip
  // them lazily.
  while (config_.max_quarantined_files != 0 &&
         quarantine_.size() > config_.max_quarantined_files &&
         !quarantine_fifo_.empty()) {
    const auto [sequence, ino] = quarantine_fifo_.front();
    quarantine_fifo_.pop_front();
    auto it = quarantine_.find(ino);
    if (it == quarantine_.end() || it->second.sequence != sequence) {
      continue;  // Stale FIFO entry.
    }
    quarantine_.erase(it);
    stats_.quarantine_evictions.fetch_add(1);
  }
}

std::vector<std::vector<char>> KernelController::RetrieveQuarantine(LibFsId libfs, Ino ino) {
  SyscallScope syscall(stats_, *clock_, "RetrieveQuarantine");
  std::lock_guard<std::mutex> guard(quarantine_mu_);
  auto it = quarantine_.find(ino);
  if (it == quarantine_.end() || it->second.offender != libfs) {
    return {};
  }
  std::vector<std::vector<char>> images = std::move(it->second.images);
  quarantine_.erase(it);  // The FIFO entry goes stale and is skipped at eviction time.
  return images;
}

Status KernelController::QuarantineErrorOf(Ino ino) const {
  std::lock_guard<std::mutex> guard(quarantine_mu_);
  auto it = quarantine_.find(ino);
  if (it == quarantine_.end()) {
    return NotFound("ino not quarantined");
  }
  return it->second.error;
}

size_t KernelController::QuarantineCount() const {
  std::lock_guard<std::mutex> guard(quarantine_mu_);
  return quarantine_.size();
}

void KernelController::RollbackToCheckpointLocked(FileRecord* record) {
  // The restored and scrubbed chain is not one a verification checked.
  record->chain_generation = NextChainGeneration();
  FileCheckpointData* checkpoint = record->checkpoint.get();
  if (checkpoint != nullptr) {
    checkpoint->verified = false;
  }
  DirentBlock* dirent = DirentOfLocked(*record);
  // One span for the whole rollback protocol: page restores batch under a single fence,
  // metadata and scrub writes each fence at their original points.
  obs::PersistSpan span(pool_, &persist_stats_);
  if (checkpoint == nullptr) {
    // A brand-new file with no checkpoint: the safe state is "empty". (Residual MMU
    // references on the freed pages intentionally persist until the holder unregisters —
    // matching the pre-shard behavior the attack tests pin down.)
    DirentBlock cleared = *dirent;
    cleared.first_index_page = 0;
    cleared.size = 0;
    pool_.Write(dirent, &cleared, sizeof(cleared));
    span.PersistNow(dirent, sizeof(cleared));
    record->first_index_page = 0;
    for (PageNumber page : record->pages) {
      ReleasePageToFree(page);
    }
    record->pages.clear();
    return;
  }

  // Restore checkpointed page images where the page still belongs to this file.
  for (const PageImages* kept : {&checkpoint->images, &checkpoint->dir_pages}) {
    for (size_t i = 0; i < kept->pages.size(); ++i) {
      const PageNumber page = kept->pages[i];
      if (page_table_.Is(page, ResourceState::kOwned, record->ino)) {
        pool_.Write(pool_.PageAddress(page), kept->contents[i].get(), kPageSize);
        span.Persist(pool_.PageAddress(page), kPageSize);
      }
    }
  }
  span.ForceFence();

  // Restore the metadata (the dirent+inode block). Size mismatches against surviving data
  // resolve as holes, which read back as zeros ("trimming or padding zero bits", §4.3).
  pool_.Write(dirent, &checkpoint->meta, sizeof(checkpoint->meta));
  span.PersistNow(dirent, sizeof(checkpoint->meta));
  record->first_index_page = checkpoint->meta.first_index_page;

  // Scrub: drop index entries that reference pages this file no longer owns, and rebuild
  // the owned-page set from the restored chain.
  std::unordered_set<PageNumber> restored;
  Status scrub = ForEachIndexPage(pool_, record->first_index_page, [&](PageNumber p) -> Status {
    if (!page_table_.Is(p, ResourceState::kOwned, record->ino)) {
      return Corrupted("restored chain broken");
    }
    restored.insert(p);
    auto* index = reinterpret_cast<IndexPage*>(pool_.PageAddress(p));
    for (size_t i = 0; i < kIndexEntriesPerPage; ++i) {
      const PageNumber entry = index->entries[i];
      if (entry == 0) {
        continue;
      }
      if (IsTierEntry(entry)) {
        // A restored tier entry is legitimate iff its slot is still recorded for this
        // file (digestion never touches write-mapped files, so the recorded set is
        // stable across the whole write session). Anything else — a forged or stale
        // digested-page mapping the writer smuggled in — scrubs to a hole.
        if (record->backend_slots.count(TierSlotOfEntry(entry)) == 0) {
          span.CommitStore64(&index->entries[i], 0);
        }
        continue;
      }
      if (!page_table_.Is(entry, ResourceState::kOwned, record->ino)) {
        span.CommitStore64(&index->entries[i], 0);
      } else {
        restored.insert(entry);
      }
    }
    return OkStatus();
  });
  if (!scrub.ok()) {
    // The chain head itself was lost; fall back to an empty file.
    DirentBlock cleared = checkpoint->meta;
    cleared.first_index_page = 0;
    cleared.size = 0;
    pool_.Write(dirent, &cleared, sizeof(cleared));
    span.PersistNow(dirent, sizeof(cleared));
    record->first_index_page = 0;
    restored.clear();
  }

  // Pages that were owned but are no longer reachable go back to the free pool.
  const std::shared_ptr<LibFsRecord> writer = FindLibFs(record->writer);
  for (PageNumber page : record->pages) {
    if (restored.count(page) != 0) {
      continue;
    }
    if (writer != nullptr) {
      writer->mmu.Revoke(page, PagePerm::kReadWrite);
    }
    ReleasePageToFree(page);
  }
  record->pages = std::move(restored);
}

}  // namespace trio
