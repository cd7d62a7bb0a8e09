// ArckFs node + mapping machinery: the in-DRAM FileNode table, kernel map/unmap
// handshakes, the op-lock acquisition protocol, revocation, and auxiliary-state rebuild.

#include <thread>

#include "src/libfs/arckfs.h"
#include "src/libfs/arckfs_internal.h"
#include "src/obs/op_context.h"

namespace trio {

ArckFs::NodePtr ArckFs::GetOrCreateNode(Ino ino, Ino parent, bool is_dir,
                                        DirentBlock* dirent) {
  std::lock_guard<std::mutex> guard(nodes_mutex_);
  auto it = nodes_.find(ino);
  if (it != nodes_.end()) {
    if (dirent != nullptr && it->second->dirent == nullptr) {
      it->second->dirent = dirent;
    }
    return it->second;
  }
  auto node = std::make_shared<FileNode>();
  node->ino = ino;
  node->parent = parent;
  node->is_dir = is_dir;
  node->dirent = dirent;
  nodes_[ino] = node;
  return node;
}

ArckFs::NodePtr ArckFs::CreateNode(Ino ino, Ino parent, bool is_dir, DirentBlock* dirent) {
  NodePtr node = GetOrCreateNode(ino, parent, is_dir, dirent);
  std::lock_guard<std::mutex> guard(node->map_mutex);
  node->dirent = dirent;
  if (node->revoked) {
    // A node cached under a recycled ino: its revoke kept the deleted file's auxiliary
    // state. Rebuilding from the new file's (empty) core state empties it in place.
    TRIO_CHECK_OK(RebuildAux(node.get()));
    node->revoked = false;
  } else if (is_dir) {
    node->dir_index = std::make_unique<DirIndex>();  // Empty directory aux.
  }
  node->locally_created = true;
  node->aux_generation = 0;  // Built here, not from a chain the kernel has seen.
  ++node->map_revision;
  node->map_state.store(2, std::memory_order_release);
  return node;
}

ArckFs::NodePtr ArckFs::FindNode(Ino ino) {
  std::lock_guard<std::mutex> guard(nodes_mutex_);
  auto it = nodes_.find(ino);
  return it == nodes_.end() ? nullptr : it->second;
}

void ArckFs::DropNode(Ino ino) {
  std::lock_guard<std::mutex> guard(nodes_mutex_);
  nodes_.erase(ino);
}

template <typename Fn>
void ArckFs::UnmapLocally(FileNode* node, Fn&& release) {
  ++node->map_revision;  // Invalidate any MapFile grant in flight in EnsureMapped.
  node->op_lock.lock();  // Drain in-flight operations.
  release();
  // Auxiliary state stays allocated: map_state 0 keeps every op out of it, and the next
  // map's RebuildAux resets and refills it in place from the (possibly
  // verified-and-rolled-back) core state.
  {
    // Promoted tier copies go — after the handoff the kernel may digest a newer version
    // of these pages, and a stale cached copy would serve old bytes.
    std::vector<PageNumber> recycled;
    promote_cache_.EraseFile(node->ino, &recycled);
    leases_.RecyclePages(recycled);
  }
  node->locally_created = false;
  node->revoked = true;
  node->map_state.store(0, std::memory_order_release);
  node->op_lock.unlock();
}

Status ArckFs::EnsureMapped(FileNode* node, bool write) {
  obs::TraceSpan span("EnsureMapped");
  std::unique_lock<std::mutex> guard(node->map_mutex);
  const int need = write ? 2 : 1;
  auto tear_down = [&] {
    UnmapLocally(node, [] {});
    stats_.reader_teardowns.fetch_add(1);
  };
  for (;;) {
    // A dropped read grant goes before anything maps over it. An upgrade to write would
    // otherwise keep auxiliary state built from bytes another writer has since changed.
    if (ReadGrantDropped(node)) {
      tear_down();
    }
    if (!node->stale.load(std::memory_order_acquire) &&
        node->map_state.load(std::memory_order_acquire) >= need) {
      return OkStatus();
    }
    bool unmapped =
        node->map_state.load(std::memory_order_relaxed) == 0 || node->stale.load();
    const uint64_t revision = node->map_revision;
    // The kernel crossing runs WITHOUT our node lock: MapFile may synchronously revoke
    // the conflicting writer, and that writer's RevokeNode takes its own node's
    // map_mutex — holding ours across the call is an ABBA inversion when two tenants
    // revoke each other. If THIS node is unmapped or mapped by another thread in the
    // unlocked window, the revision moves and the state is evaluated again: the grant
    // may be stale, and a second RebuildAux would reset the auxiliary state under the
    // ops the first mapping let in. A grant the kernel still holds for us is
    // revalidated by the same call.
    guard.unlock();
    Result<MapInfo> mapped = kernel_.MapFile(libfs_, node->ino, write);
    guard.lock();
    TRIO_RETURN_IF_ERROR(mapped.status());
    if (node->map_revision != revision) {
      continue;
    }
    const MapInfo& info = *mapped;
    if (!unmapped && info.map_epoch != node->map_epoch.load(std::memory_order_relaxed)) {
      // Our read grant was dropped in the unlocked window, before this upgrade.
      tear_down();
      unmapped = true;
    }
    if (info.dirent_page == 0) {
      node->dirent = &SuperblockOf(pool_)->root;
    } else {
      auto* page = reinterpret_cast<DirDataPage*>(pool_.PageAddress(info.dirent_page));
      node->dirent = &page->slots[info.dirent_slot];
    }
    if (unmapped && (info.chain_generation == 0 ||
                     info.chain_generation != node->aux_generation)) {
      node->aux_generation = 0;
      Status rebuilt = RebuildAux(node);
      // A read grant dropped during the rebuild may have let it read a chain a writer was
      // changing; the state is then of no known generation.
      const bool held = info.writable || kernel_.MapEpochHolds(node->ino, info.map_epoch);
      if (!rebuilt.ok()) {
        if (!held) {
          continue;  // Rebuilt from bytes a writer was changing: map again.
        }
        return rebuilt;
      }
      if (held) {
        node->aux_generation = info.chain_generation;
      }
    }
    ++node->map_revision;
    node->map_epoch.store(info.map_epoch, std::memory_order_relaxed);
    node->revoked = false;
    node->stale.store(false, std::memory_order_release);
    node->map_state.store(info.writable ? 2 : 1, std::memory_order_release);
    return OkStatus();
  }
}

Status ArckFs::AcquireOpLock(FileNode* node, int level) {
  for (int attempt = 0;; ++attempt) {
    if (node->stale.load(std::memory_order_acquire) ||
        node->map_state.load(std::memory_order_acquire) < level || ReadGrantDropped(node)) {
      TRIO_RETURN_IF_ERROR(EnsureMapped(node, level == 2));
    }
    node->op_lock.lock_shared();
    if (!node->stale.load(std::memory_order_acquire) &&
        node->map_state.load(std::memory_order_acquire) >= level) {
      return OkStatus();
    }
    node->op_lock.unlock_shared();
    if (attempt > 1000) {
      std::this_thread::yield();
    }
  }
}

Status ArckFs::LockForOp(FileNode* node, int level) {
  auto* op = obs::OpContext::Current();
  if (TRIO_OBS_UNLIKELY(op != nullptr)) {
    obs::TraceSpan span("LockForOp");
    const uint64_t t0 = obs::MonotonicNowNs();
    Status status = AcquireOpLock(node, level);
    const uint64_t waited = obs::MonotonicNowNs() - t0;
    op->counters.lock_wait_ns.fetch_add(waited, std::memory_order_relaxed);
    stats_.lock_wait_ns.fetch_add(waited);
    return status;
  }
  return AcquireOpLock(node, level);
}

void ArckFs::RevokeNode(Ino ino) {
  NodePtr node = FindNode(ino);
  if (node == nullptr) {
    (void)kernel_.UnmapFile(libfs_, ino);
    return;
  }
  std::lock_guard<std::mutex> guard(node->map_mutex);
  node->stale.store(true, std::memory_order_release);
  UnmapLocally(node.get(), [&] {
    if (!config_.sync_data && !node->is_dir) {
      FlushDirtyData(node.get());  // Shared data must be durable before the handoff.
    }
    if (node->locally_created) {
      // The kernel only learns about files we created when the parent directory is
      // verified; reconcile it now so the unmap below targets a known record. Harmless
      // if the parent was already released (the kernel reconciled it then).
      (void)kernel_.CommitFile(libfs_, node->parent);
    }
    // Always answer the kernel, even when we believe we hold nothing: the kernel may
    // carry an implicit write grant for this ino (created when a parent-directory commit
    // reconciled our locally-created children AFTER we had already torn down the node).
    // Skipping the unmap here left that grant in place and the revoking mapper looping on
    // completed-but-ineffective revoke callbacks. UnmapFile is idempotent — it returns
    // kNotFound/kInvalidArgument when there is truly nothing to release.
    (void)kernel_.UnmapFile(libfs_, ino);
  });
  node->stale.store(false, std::memory_order_release);
  stats_.revocations.fetch_add(1);
}

void ArckFs::OnQuarantine(Ino ino, const Status& reason) {
  {
    std::lock_guard<std::mutex> guard(quarantine_mutex_);
    quarantine_notices_.emplace_back(ino, reason);
  }
  NodePtr node = FindNode(ino);
  if (node != nullptr) {
    // The kernel already stripped the mapping and rolled the file back; staleness makes
    // the next op re-map and rebuild auxiliary state from the restored core state. No
    // drain here: this may run on a watchdog thread while our own unmap holds the node.
    node->stale.store(true, std::memory_order_release);
  }
}

std::vector<std::pair<Ino, Status>> ArckFs::QuarantineNotices() {
  std::lock_guard<std::mutex> guard(quarantine_mutex_);
  return quarantine_notices_;
}

Status ArckFs::RebuildAux(FileNode* node) {
  obs::TraceSpan span("RebuildAux");
  const uint64_t t0 = kernel_.clock()->NowNs();
  TRIO_CHECK(node->dirent != nullptr);
  const PageNumber first = node->dirent->first_index_page;

  // Every container below is reset in place: a revoke left it allocated, and refilling
  // it from core state reuses that memory.
  if (!node->is_dir) {
    node->radix.Reset();
    node->index_pages.clear();
    node->reuse_pages.clear();
    TRIO_RETURN_IF_ERROR(ForEachIndexPage(pool_, first, [&](PageNumber p) -> Status {
      node->index_pages.push_back(p);
      return OkStatus();
    }));
    // Raw entries, tier tags included: the radix mirrors the index chain verbatim so
    // the data path can distinguish NVM pages from digested (tagged) mappings.
    TRIO_RETURN_IF_ERROR(
        ForEachDataEntry(pool_, first, [&](uint64_t index, uint64_t entry) -> Status {
          node->radix.Insert(index, entry);
          return OkStatus();
        }));
    // Promoted copies from a previous mapping epoch are untrustworthy: the pages may
    // have been rewritten and re-digested to new slots while we held no grant.
    std::vector<PageNumber> recycled;
    promote_cache_.EraseFile(node->ino, &recycled);
    for (PageNumber p : recycled) {
      leases_.RecyclePage(p);
    }
  } else {
    if (node->dir_index == nullptr) {
      node->dir_index = std::make_unique<DirIndex>();
    } else {
      node->dir_index->Reset();
    }
    node->dir_first_nonfull.store(0, std::memory_order_relaxed);
    node->dir_index_pages.clear();
    node->dir_next_entry = 0;
    TRIO_RETURN_IF_ERROR(ForEachIndexPage(pool_, first, [&](PageNumber p) -> Status {
      node->dir_index_pages.push_back(p);
      return OkStatus();
    }));
    size_t tails = 0;
    TRIO_RETURN_IF_ERROR(
        ForEachDataPage(pool_, first, [&](uint64_t, PageNumber p) -> Status {
          if (tails == node->dir_tails.size()) {
            node->dir_tails.push_back(std::make_unique<FileNode::DirTail>());
          }
          FileNode::DirTail& tail = *node->dir_tails[tails];
          tail.page = p;
          uint32_t live = 0;
          TRIO_RETURN_IF_ERROR(ForEachDirentInPage(
              pool_, p, [&](DirentBlock* d, Ino ino, PageNumber, size_t s) -> Status {
                ++live;
                node->dir_index->Refill(
                    d->Name(), DirSlot{p, static_cast<uint32_t>(s), ino, d->IsDirectory()});
                return OkStatus();
              }));
          tail.full.store(live == kDirentsPerPage, std::memory_order_relaxed);
          node->dir_tail_index[p] = tails++;
          return OkStatus();
        }));
    node->dir_tails.resize(tails);
    if (node->dir_tail_index.size() != tails) {
      // Pages the directory no longer links.
      std::erase_if(node->dir_tail_index, [&](const auto& entry) {
        return entry.second >= tails || node->dir_tails[entry.second]->page != entry.first;
      });
    }
    if (!node->dir_index_pages.empty()) {
      const auto* last =
          reinterpret_cast<const IndexPage*>(pool_.PageAddress(node->dir_index_pages.back()));
      size_t used = 0;
      for (size_t i = 0; i < kIndexEntriesPerPage; ++i) {
        if (last->entries[i] != 0) {
          used = i + 1;
        }
      }
      node->dir_next_entry = used;
    }
  }
  stats_.rebuilds.fetch_add(1);
  stats_.rebuild_ns.fetch_add(kernel_.clock()->NowNs() - t0);
  return OkStatus();
}

}  // namespace trio
