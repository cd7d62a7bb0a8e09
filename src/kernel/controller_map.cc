// KernelController mapping and sharing: file record lookup, page-permission grants and
// revocation (reference counted in each LibFS's MmuSim page table, which the caller reaches
// through the LibFS record it already holds — no global MMU lock, no registry lookup per
// page), MapFile/UnmapFile with lease-based revocation of conflicting holders, and forced
// release of unresponsive LibFSes. Part of the KernelController split; see controller.cc
// for the TU map.
//
// Grant/revoke pairing (the refcount contract with MmuSim; a file's pages go in one
// GrantPages/RevokePages call):
//   AllocPages          +RW per leased page      FreePages(leased)      -RW
//   MapFile(write)      +RW per owned page       FinishWriteRelease     -RW per owned page
//                       +RW dirent page                                 -RW dirent page
//   MapFile(read)       +RO per owned page       UnmapFile(read)        -RO per owned page
//                       +RO dirent page                                 -RO dirent page
//   reconcile: leased page becomes owned — its lease ref is CONSUMED by the write
//   teardown's per-page release (the page is in record.pages by then); new children's
//   implicit write grants add +RW on their dirent page (their pages carry lease refs).
// A read mapping upgraded to write releases its RO refs before the RW grant.

#include "src/kernel/controller.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <ranges>
#include <vector>

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

Result<MapInfo> KernelController::MapRoot(LibFsId libfs, bool write) {
  return MapFile(libfs, kRootIno, write);
}

Result<MapInfo> KernelController::MapFile(LibFsId libfs, Ino ino, bool write) {
  SyscallScope syscall(stats_, "MapFile");
  const uint64_t t0 = NowNs();
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }

  const size_t si = ShardIndexOf(ino);
  // Escalation, per holder. Each holder whose revoke callback COMPLETED is remembered
  // with the lease deadline its grant carried and its grant count when we revoked. If
  // the next round finds that very holder still in conflict with the SAME deadline and
  // no grant since, its grant survived a revoke it answered: the holder no longer
  // believes it holds the file (e.g. its node state is long torn down while we carry an
  // implicit grant from a parent commit) — another callback cannot help, so reclaim by
  // force. A CHANGED deadline or a new grant means the holder cooperatively unmapped and
  // re-mapped (or renewed) after its callback: it is live and mid-operation, and forcing
  // now would verify-and-roll-back a half-committed op that the holder then finishes
  // against the rolled-back image (observed as lost renames under the fleet shuttle).
  // Revoke it again instead, bounded by kMaxRevokeRounds so a holder that re-maps
  // forever still cannot stall a mapper indefinitely.
  constexpr int kMaxRevokeRounds = 8;
  struct Revoked {
    LibFsId holder;
    uint64_t lease_end;
    uint64_t grants;
    int rounds;
  };
  std::vector<Revoked> revoked;
  // One round's conflict handling, staged out of the locked section because it must run
  // unlocked (revoke callbacks, forced releases, dead-writer verification); every round
  // re-evaluates the record from scratch.
  struct Revoke {
    LibFsId holder;
    std::function<void(Ino)> fn;
    uint64_t lease_end;
    uint64_t grants;
  };
  std::vector<Revoke> revokes;
  std::vector<LibFsId> forced;
  while (true) {
    revokes.clear();
    forced.clear();
    LibFsId dead_writer = kNoLibFs;
    std::shared_ptr<LibFsRecord> dead_writer_record;

    {
      ShardLock sl(shards_[si]->mu, si);
      FileRecord* record = WaitNotBusyLocked(*shards_[si], sl.lock(), ino);
      if (record == nullptr) {
        return NotFound("no such file");
      }

      // Permission check against the shadow inode (ground truth).
      const ShadowInode* shadow = ShadowInodeOf(pool_, ino);
      if (shadow == nullptr || !shadow->Exists()) {
        return NotFound("file has no shadow inode");
      }
      if (!AccessAllowed(*shadow, me->uid, me->gid, write)) {
        return PermissionDenied("access denied by shadow inode");
      }

      // Already mapped suitably?
      if (record->writer == libfs) {
        record->lease_deadline_ns = NowNs() + config_.lease_ms * 1000000ull;
        record->last_use_ns = NowNs();
        MapInfo info{record->dirent_page, record->dirent_slot, true,
                     record->lease_deadline_ns, DirentOfLocked(*record)->first_index_page};
        stats_.map_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
        return info;
      }
      if (!write && record->readers.count(libfs) != 0 && record->writer == kNoLibFs) {
        MapInfo info{record->dirent_page, record->dirent_slot, false, 0,
                     DirentOfLocked(*record)->first_index_page};
        stats_.map_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
        return info;
      }

      // Conflicts: a writer blocks everyone; readers block a writer (§3.2: concurrent
      // read XOR exclusive write). Leases bound how long a holder can stall us; every
      // conflicting holder is asked to release via its revoke callback, all of them in
      // one guarded upcall.
      auto stage_revoke = [&](LibFsId id, LibFsRecord& holder) {
        uint64_t grants;
        {
          std::lock_guard<std::mutex> guard(holder.mu);
          grants = holder.grants;
        }
        auto seen = std::find_if(revoked.begin(), revoked.end(),
                                 [id](const Revoked& r) { return r.holder == id; });
        if (seen != revoked.end() &&
            ((record->lease_deadline_ns == seen->lease_end && grants == seen->grants) ||
             ++seen->rounds > kMaxRevokeRounds)) {
          forced.push_back(id);
        } else {
          // NOTE: busy is NOT set here. The holder's revoke callback calls UnmapFile,
          // which must be able to claim the record itself.
          revokes.push_back(
              Revoke{id, holder.callbacks.revoke, record->lease_deadline_ns, grants});
        }
      };
      if (record->writer != kNoLibFs && record->writer != libfs) {
        std::shared_ptr<LibFsRecord> holder = FindLibFs(record->writer);
        if (holder == nullptr || !holder->callbacks.revoke) {
          // Dead or unresponsive writer: force the release ourselves.
          record->busy = true;  // Pin for the verification staged below.
          dead_writer = record->writer;
          dead_writer_record = std::move(holder);
        } else {
          stage_revoke(record->writer, *holder);
        }
      } else if (write) {
        for (auto it = record->readers.begin(); it != record->readers.end();) {
          const LibFsId reader = *it;
          if (reader == libfs) {
            ++it;
            continue;
          }
          std::shared_ptr<LibFsRecord> holder = FindLibFs(reader);
          if (holder == nullptr || !holder->callbacks.revoke) {
            // Dead or unresponsive reader: drop its mapping ourselves.
            it = record->readers.erase(it);
            if (holder != nullptr) {
              std::lock_guard<std::mutex> guard(holder->mu);
              holder->read_mapped.erase(ino);
            }
            continue;
          }
          stage_revoke(reader, *holder);
          ++it;
        }
      }

      if (dead_writer == kNoLibFs && revokes.empty() && forced.empty()) {
        // No conflict: grant, entirely under this one shard lock.
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
          const uint64_t c0 = NowNs();
          Status checkpoint_status = TakeCheckpointLocked(record);
          stats_.checkpoint_ns.fetch_add(NowNs() - c0, std::memory_order_relaxed);
          if (!checkpoint_status.ok()) {
            return checkpoint_status;
          }
          record->writer = libfs;
          record->lease_deadline_ns = NowNs() + config_.lease_ms * 1000000ull;
          {
            std::lock_guard<std::mutex> guard(me->mu);
            me->write_mapped.insert(ino);
            ++me->grants;
          }
          WmapLogAdd(ino);
        } else {
          record->readers.insert(libfs);
          std::lock_guard<std::mutex> guard(me->mu);
          me->read_mapped.insert(ino);
          ++me->grants;
        }
        GrantFilePagesLocked(*me, *record, write);
        record->last_use_ns = NowNs();  // Digestion's cold scan orders by last grant.
        stats_.maps.fetch_add(1, std::memory_order_relaxed);
        MapInfo info{record->dirent_page, record->dirent_slot, write,
                     write ? record->lease_deadline_ns : 0,
                     DirentOfLocked(*record)->first_index_page};
        stats_.map_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
        return info;
      }
    }  // shard lock released

    if (dead_writer != kNoLibFs) {
      (void)VerifyAndReconcile(ino);
      FinishWriteRelease(dead_writer, ino, dead_writer_record);
      continue;
    }
    ShardRank::AssertNoneHeld();
    for (LibFsId holder : forced) {
      ForceRelease(ino, holder);
    }
    if (revokes.empty()) {
      continue;
    }

    // Ask every staged holder to release, in order, in one upcall. With a FaultSim
    // injector attached, transfers these revocations trigger count as contended while we
    // wait (kFaultKernelLeakOnContendedTransfer keys off revokes_in_flight_).
    const int in_flight = static_cast<int>(revokes.size());
    stats_.revocations.fetch_add(revokes.size(), std::memory_order_relaxed);
    FaultInjector* const injector = fault_injector_;
    if (injector != nullptr) {
      revokes_in_flight_.fetch_add(in_flight, std::memory_order_relaxed);
    }
    // Lease enforcement: a holder is trusted to cooperate only until its lease expires.
    // Each callback may run until its lease remainder (plus grace) has passed since it
    // started; then that holder's mapping is reclaimed by force — an unresponsive holder
    // cannot stall a conflicting mapper beyond its lease, and a slow one cannot spend the
    // next holder's budget.
    const uint64_t now = NowNs();
    std::vector<CallbackGuard::Task> tasks;
    tasks.reserve(revokes.size());
    for (Revoke& revoke : revokes) {
      const uint64_t remaining_ms =
          revoke.lease_end > now ? (revoke.lease_end - now + 999999ull) / 1000000ull : 0;
      tasks.push_back(CallbackGuard::Task{remaining_ms + config_.revoke_grace_ms,
                                          [fn = std::move(revoke.fn), ino] { fn(ino); }});
    }
    const size_t completed = RunGuarded(std::move(tasks));
    if (injector != nullptr) {
      revokes_in_flight_.fetch_sub(in_flight, std::memory_order_relaxed);
    }
    for (size_t i = 0; i < completed; ++i) {
      auto seen = std::find_if(revoked.begin(), revoked.end(), [&](const Revoked& r) {
        return r.holder == revokes[i].holder;
      });
      if (seen == revoked.end()) {
        revoked.push_back(
            Revoked{revokes[i].holder, revokes[i].lease_end, revokes[i].grants, 0});
      } else {
        seen->lease_end = revokes[i].lease_end;
        seen->grants = revokes[i].grants;
      }
    }
    if (completed < revokes.size()) {
      // The holders after the one that overran never ran; the next round re-evaluates
      // them.
      TRIO_LOG(kWarn) << "revoke of ino " << ino << " from LibFS " << revokes[completed].holder
                      << " overran the lease deadline; forcing release";
      ForceRelease(ino, revokes[completed].holder);
    }
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
      record->checkpoint.reset();
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
      ResolveOrphans(me);
    }
  }
}

void KernelController::ForceRelease(Ino ino, LibFsId holder) {
  std::shared_ptr<LibFsRecord> holder_record = FindLibFs(holder);
  const size_t si = ShardIndexOf(ino);
  bool writer_path = false;
  {
    ShardLock sl(shards_[si]->mu, si);
    FileRecord* record = WaitNotBusyLocked(*shards_[si], sl.lock(), ino);
    if (record == nullptr) {
      return;
    }
    if (record->writer == holder) {
      // Same teardown as a cooperative unmap: the holder's work is verified (and rolled
      // back if corrupt) before the lease is handed on. The holder itself gets no say.
      record->busy = true;
      writer_path = true;
    } else if (record->readers.erase(holder) > 0) {
      if (holder_record != nullptr) {
        {
          std::lock_guard<std::mutex> guard(holder_record->mu);
          holder_record->read_mapped.erase(ino);
        }
        RevokeFilePagesLocked(*holder_record, *record, /*write=*/false);
      }
    } else {
      return;
    }
  }
  if (writer_path) {
    (void)VerifyAndReconcile(ino);
    FinishWriteRelease(holder, ino, holder_record);
  }
  stats_.forced_releases.fetch_add(1, std::memory_order_relaxed);
}

Status KernelController::UnmapFile(LibFsId libfs, Ino ino) {
  SyscallScope syscall(stats_, "UnmapFile");
  const uint64_t t0 = NowNs();
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
  stats_.unmaps.fetch_add(1, std::memory_order_relaxed);
  stats_.unmap_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  return result;
}

}  // namespace trio
