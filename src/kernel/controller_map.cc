// KernelController mapping and sharing: file record lookup, page-permission grants and
// revocation (reference counted in each LibFS's MmuSim page table, which the caller reaches
// through the LibFS record it already holds — no global MMU lock, no registry lookup per
// page), MapFile/UnmapFile with lease-based revocation of a conflicting writer, readers
// dropped in the kernel behind a per-file map epoch, and forced release of unresponsive
// writers. Part of the KernelController split; see controller.cc for the TU map.
//
// Grant/revoke pairing (the refcount contract with MmuSim; a file's pages go in one
// GrantPages/RevokePages call):
//   AllocPages          +RW per leased page      FreePages(leased)      -RW
//   MapFile(write)      +RW per owned page       FinishWriteRelease     -RW per owned page
//                       +RW dirent page                                 -RW dirent page
//   MapFile(read)       +RO per owned page       UnmapFile(read),       -RO per owned page
//                       +RO dirent page          DropReadersLocked      -RO dirent page
//   reconcile: leased page becomes owned — its lease ref is CONSUMED by the write
//   teardown's per-page release (the page is in record.pages by then); new children's
//   implicit write grants add +RW on their dirent page (their pages carry lease refs).
// A read mapping upgraded to write releases its RO refs before the RW grant.

#include "src/kernel/controller.h"

#include <memory>
#include <ranges>
#include <thread>

#include "src/common/seqlock.h"
#include "src/kernel/controller_internal.h"
#include "src/kernel/syscall_boundary.h"

namespace trio {

using controller_internal::AccessAllowed;

KernelController::FileRecord* KernelController::FindRecordLocked(Shard& shard, Ino ino) {
  auto it = shard.records.find(ino);
  return it == shard.records.end() ? nullptr : &it->second;
}

DirentBlock* KernelController::DirentOfLocked(const FileRecord& record) const {
  if (record.dirent_page == 0) {
    return &SuperblockOf(pool_)->root;
  }
  auto* page = reinterpret_cast<DirDataPage*>(pool_.PageAddress(record.dirent_page));
  return &page->slots[record.dirent_slot];
}

void KernelController::GrantFilePagesLocked(LibFsRecord& libfs, const FileRecord& record,
                                            bool write) {
  const PagePerm perm = write ? PagePerm::kReadWrite : PagePerm::kRead;
  libfs.mmu.GrantPages(record.pages, perm);
  if (record.dirent_page != 0) {
    // The co-located inode lives in the parent's data page (§4.1): stat needs read, size /
    // metadata updates need write. Page-granularity is the documented caveat here.
    libfs.mmu.Grant(record.dirent_page, perm);
  }
}

void KernelController::RevokeFilePagesLocked(LibFsRecord& libfs, const FileRecord& record,
                                             bool write) {
  const PagePerm perm = write ? PagePerm::kReadWrite : PagePerm::kRead;
  // Leave leased pages mapped; only release the file's own pages.
  libfs.mmu.RevokePages(record.pages | std::views::filter([&](PageNumber page) {
                          return !page_table_.Is(page, ResourceState::kLeased, libfs.id);
                        }),
                        perm);
  if (record.dirent_page != 0) {
    // Refcounted: dropping THIS mapping's dirent reference cannot strip a sibling
    // mapping's justification, so the old cross-file "strongest surviving permission"
    // rescan (which read every other record this LibFS had mapped — a cross-shard walk
    // the one-big-mutex silently permitted) is gone.
    libfs.mmu.Revoke(record.dirent_page, perm);
  }
}

std::atomic<uint64_t>& KernelController::MapEpochOf(Ino ino) {
  std::atomic<uint64_t>* epoch = map_epochs_.FindOrAdd(ino);
  TRIO_CHECK(epoch != nullptr) << "ino " << ino << " past the map epoch table";
  return *epoch;
}

void KernelController::DropReadersLocked(FileRecord& record) {
  if (record.readers.empty()) {
    return;
  }
  for (LibFsId reader : record.readers) {
    // An unregistered reader's page table went with its record.
    if (const std::shared_ptr<LibFsRecord> holder = FindLibFs(reader)) {
      {
        std::lock_guard<std::mutex> guard(holder->mu);
        holder->read_mapped.erase(record.ino);
      }
      RevokeFilePagesLocked(*holder, record, /*write=*/false);
    }
  }
  stats_.readers_dropped.fetch_add(record.readers.size());
  record.readers.clear();
  BumpEpoch(MapEpochOf(record.ino));
}

Result<MapInfo> KernelController::MapRoot(LibFsId libfs, bool write) {
  return MapFile(libfs, kRootIno, write);
}

Result<MapInfo> KernelController::MapFile(LibFsId libfs, Ino ino, bool write) {
  SyscallScope syscall(stats_, *clock_, "MapFile");
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }

  const size_t si = ShardIndexOf(ino);
  Shard& shard = *shards_[si];
  // The writer whose revoke callback completed last round. If the next round finds it
  // still holding the grant while our turn stood, it answered without releasing: it no
  // longer believes it holds the file (e.g. its node state is long torn down while we
  // carry an implicit grant from a parent commit), and another callback cannot help, so
  // reclaim by force. It cannot have released and re-mapped in between, because the turn
  // held every other LibFS's MapFile off. A live writer is therefore never forced:
  // forcing one mid-op would hand on a file it is still storing into.
  const std::thread::id self = std::this_thread::get_id();
  LibFsId revoked = kNoLibFs;
  uint64_t now = syscall.start_ns();
  for (int round = 0;; ++round) {
    if (round > 0) {
      now = NowNs();  // The previous round ran a revoke or a release unlocked.
    }
    // The conflicting writer, staged out of the locked section because its revoke
    // callback, forced release or dead-writer verification must run unlocked; every round
    // re-evaluates the record from scratch.
    LibFsId writer = kNoLibFs;
    std::shared_ptr<LibFsRecord> holder;
    uint64_t lease_end = 0;
    bool dead = false;
    bool force = false;

    {
      ShardLock sl(shard.mu, si);
      FileRecord* record = WaitNotBusyLocked(shard, sl.lock(), ino);
      while (record != nullptr && record->turn_libfs != kNoLibFs &&
             record->turn_libfs != libfs) {
        shard.cv.wait(sl.lock());
        record = WaitNotBusyLocked(shard, sl.lock(), ino);
      }
      if (record == nullptr) {
        return NotFound("no such file");
      }
      // Our turn, unless a sibling thread of our LibFS took it over, ends with this round
      // unless the round finds a writer again.
      const bool our_turn = record->turn_libfs != kNoLibFs && record->turn_thread == self;
      if (our_turn) {
        record->turn_libfs = kNoLibFs;
        record->turn_thread = {};
        shard.cv.notify_all();
      }

      // Permission check against the shadow inode (ground truth).
      const ShadowInode* shadow = ShadowInodeOf(pool_, ino);
      if (shadow == nullptr || !shadow->Exists()) {
        return NotFound("file has no shadow inode");
      }
      if (!AccessAllowed(*shadow, me->uid, me->gid, write)) {
        return PermissionDenied("access denied by shadow inode");
      }

      std::atomic<uint64_t>& epoch = MapEpochOf(ino);
      MapInfo info{record->dirent_page, record->dirent_slot, write, 0,
                   DirentOfLocked(*record)->first_index_page, LoadEpoch(epoch),
                   record->is_dir ? 0 : record->chain_generation};
      // Already mapped suitably?
      if (record->writer == libfs) {
        record->lease_deadline_ns = now + config_.lease_ms * 1000000ull;
        record->last_use_ns = now;
        info.writable = true;
        info.lease_deadline_ns = record->lease_deadline_ns;
        syscall.ChargeTo(stats_.map_ns);
        return info;
      }
      if (!write && record->readers.count(libfs) != 0 && record->writer == kNoLibFs) {
        syscall.ChargeTo(stats_.map_ns);
        return info;
      }

      if (record->writer == kNoLibFs) {
        // No conflict (§3.2: concurrent read XOR exclusive write): grant, entirely under
        // this one shard lock. A writer drops every other reader here: a reader holds
        // nothing uncommitted, so on hardware it would simply fault on its next load.
        if (write) {
          if (record->readers.erase(libfs) > 0) {
            // Upgrading our own read mapping: release the RO references before granting
            // RW ones (refcounted MMU — the old absolute-overwrite Grant hid this).
            {
              std::lock_guard<std::mutex> guard(me->mu);
              me->read_mapped.erase(ino);
            }
            RevokeFilePagesLocked(*me, *record, /*write=*/false);
          }
          DropReadersLocked(*record);
          const uint64_t c0 = NowNs();
          Status checkpoint_status = TakeCheckpointLocked(record);
          stats_.checkpoint_ns.fetch_add(NowNs() - c0);
          if (!checkpoint_status.ok()) {
            return checkpoint_status;
          }
          record->writer = libfs;
          record->lease_deadline_ns = now + config_.lease_ms * 1000000ull;
          info.lease_deadline_ns = record->lease_deadline_ns;
          {
            std::lock_guard<std::mutex> guard(me->mu);
            me->write_mapped.insert(ino);
          }
          WmapLogAdd(ino);
        } else {
          record->readers.insert(libfs);
          std::lock_guard<std::mutex> guard(me->mu);
          me->read_mapped.insert(ino);
        }
        GrantFilePagesLocked(*me, *record, write);
        record->last_use_ns = now;  // Digestion's cold scan orders by last grant.
        stats_.maps.fetch_add(1);
        syscall.ChargeTo(stats_.map_ns);
        return info;
      }

      // Another LibFS holds the write grant. Its lease bounds how long it can stall us,
      // and the next grant is ours: without the turn, a writer that re-maps as soon as it
      // is revoked wins every race against our return from the upcall.
      record->turn_libfs = libfs;
      record->turn_thread = self;
      writer = record->writer;
      holder = FindLibFs(writer);
      if (holder == nullptr || !holder->callbacks.revoke) {
        // Dead or unresponsive writer: force the release ourselves.
        record->busy = true;  // Pin for the verification below.
        dead = true;
      } else {
        // NOTE: busy is NOT set for a revoke. The writer's revoke callback calls
        // UnmapFile, which must be able to claim the record itself.
        lease_end = record->lease_deadline_ns;
        force = our_turn && writer == revoked;
      }
    }  // shard lock released

    if (dead) {
      (void)VerifyAndReconcile(ino);
      FinishWriteRelease(writer, ino, holder);
      continue;
    }
    ShardRank::AssertNoneHeld();
    if (force) {
      ForceRelease(ino, writer);
      continue;
    }

    // Ask the writer to release. With a FaultSim injector attached, transfers this
    // revocation triggers count as contended while we wait
    // (kFaultKernelLeakOnContendedTransfer keys off revokes_in_flight_).
    stats_.revocations.fetch_add(1);
    FaultInjector* const injector = fault_injector_;
    if (injector != nullptr) {
      revokes_in_flight_.fetch_add(1, std::memory_order_relaxed);
    }
    // Lease enforcement: the writer is trusted to cooperate only until its lease expires.
    // Its callback may run for its lease remainder plus grace; then its grant is reclaimed
    // by force, so an unresponsive writer cannot stall a conflicting mapper beyond its
    // lease.
    const uint64_t revoke_ns = NowNs();
    const uint64_t remaining_ms =
        lease_end > revoke_ns ? (lease_end - revoke_ns + 999999ull) / 1000000ull : 0;
    const bool completed = RunGuarded(remaining_ms + config_.revoke_grace_ms,
                                      [fn = holder->callbacks.revoke, ino] { fn(ino); });
    if (injector != nullptr) {
      revokes_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (!completed) {
      TRIO_LOG(kWarn) << "revoke of ino " << ino << " from LibFS " << writer
                      << " overran the lease deadline; forcing release";
      ForceRelease(ino, writer);
    }
    revoked = completed ? writer : kNoLibFs;
    // Re-evaluate from scratch; records may have been reclaimed.
  }
}

void KernelController::FinishWriteRelease(LibFsId libfs, Ino ino,
                                          const std::shared_ptr<LibFsRecord>& me) {
  const size_t si = ShardIndexOf(ino);
  {
    ShardLock sl(shards_[si]->mu, si);
    FileRecord* record = FindRecordLocked(*shards_[si], ino);
    if (record != nullptr) {
      record->writer = kNoLibFs;
      if (record->is_dir) {
        record->checkpoint.reset();  // A regular file keeps its verified chain.
      }
      if (me != nullptr) {
        // An unregistered holder's page table went with its record.
        RevokeFilePagesLocked(*me, *record, /*write=*/true);
      }
      record->busy = false;
    }
    shards_[si]->cv.notify_all();
  }
  WmapLogRemove(ino);
  if (me != nullptr) {
    bool quiesced;
    {
      std::lock_guard<std::mutex> guard(me->mu);
      me->write_mapped.erase(ino);
      quiesced = me->write_mapped.empty();
    }
    if (quiesced) {
      ReclaimTransits(me);
    }
  }
}

void KernelController::ForceRelease(Ino ino, LibFsId holder) {
  std::shared_ptr<LibFsRecord> holder_record = FindLibFs(holder);
  const size_t si = ShardIndexOf(ino);
  {
    ShardLock sl(shards_[si]->mu, si);
    FileRecord* record = WaitNotBusyLocked(*shards_[si], sl.lock(), ino);
    if (record == nullptr || record->writer != holder) {
      return;
    }
    // Same teardown as a cooperative unmap: the writer's work is verified (and rolled
    // back if corrupt) before the lease is handed on. The writer itself gets no say.
    record->busy = true;
  }
  (void)VerifyAndReconcile(ino);
  FinishWriteRelease(holder, ino, holder_record);
  stats_.forced_releases.fetch_add(1);
}

Status KernelController::UnmapFile(LibFsId libfs, Ino ino) {
  SyscallScope syscall(stats_, *clock_, "UnmapFile");
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }
  const size_t si = ShardIndexOf(ino);
  bool writer_path = false;
  {
    ShardLock sl(shards_[si]->mu, si);
    FileRecord* record = WaitNotBusyLocked(*shards_[si], sl.lock(), ino);
    if (record == nullptr) {
      std::lock_guard<std::mutex> guard(me->mu);
      me->write_mapped.erase(ino);
      me->read_mapped.erase(ino);
      return NotFound("no such file");
    }
    if (record->writer == libfs) {
      record->busy = true;  // Verification runs below, outside the lock.
      writer_path = true;
    } else if (record->readers.erase(libfs) > 0) {
      {
        std::lock_guard<std::mutex> guard(me->mu);
        me->read_mapped.erase(ino);
      }
      RevokeFilePagesLocked(*me, *record, /*write=*/false);
    } else {
      return InvalidArgument("file not mapped by caller");
    }
  }
  Status result = OkStatus();
  if (writer_path) {
    result = VerifyAndReconcile(ino);
    FinishWriteRelease(libfs, ino, me);
  }
  stats_.unmaps.fetch_add(1);
  syscall.ChargeTo(stats_.unmap_ns);
  return result;
}

}  // namespace trio
