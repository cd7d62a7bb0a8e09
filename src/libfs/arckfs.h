// ArckFS (§4): the generic POSIX-like LibFS built on the Trio architecture. One ArckFs
// instance is one LibFS belonging to one application (or to one trust group whose
// processes share it, §3.2). It realizes the full file system design in userspace:
//
//  * Direct access: after the kernel controller maps a file, every data and metadata
//    operation runs on loads/stores to the core state — no kernel crossing.
//  * Auxiliary state (§4.2): per-file radix tree, readers-writer inode lock + range lock;
//    per-directory resizable chained hash table with per-bucket locks, multiple logging
//    tails and an index tail; fd table; per-CPU leases of pages/inos; per-CPU undo journal.
//  * Crash consistency (§4.4): metadata ops are synchronous and atomic (ordered persists
//    committing on an 8-byte store); data ops are synchronous, not atomic; rename uses the
//    undo journal; fsync is a no-op.
//  * Optane adaptation (§4.5): large accesses are shipped to the kernel's delegation
//    threads (reads >= 32 KiB, writes >= 256 B) and file pages are striped across NUMA
//    nodes by page index.
//
// KVFS and FPFS (§5) subclass this and replace auxiliary state / interfaces — which is
// precisely the customization Trio permits without touching the trusted entities.

#ifndef SRC_LIBFS_ARCKFS_H_
#define SRC_LIBFS_ARCKFS_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/range_lock.h"
#include "src/common/rwlock.h"
#include "src/kernel/controller.h"
#include "src/libfs/dir_index.h"
#include "src/libfs/fd_table.h"
#include "src/libfs/fs_interface.h"
#include "src/libfs/journal.h"
#include "src/libfs/lease_cache.h"
#include "src/libfs/op_ring.h"
#include "src/libfs/promote_cache.h"
#include "src/libfs/radix_tree.h"
#include "src/obs/stats.h"

namespace trio {

struct ArckFsConfig {
  uint32_t uid = 0;
  uint32_t gid = 0;
  // Ship large copies to the kernel's delegation threads (requires
  // kernel.StartDelegation()). Off = the "ArckFS-no-dele" configuration of §6.
  bool use_delegation = false;
  size_t page_batch = 64;
  size_t ino_batch = 64;
  // §4.4: "Extending the LibFS to support other consistency modes is simple by following
  // the prior approaches." sync_data=false is the relaxed-data mode: data writes skip the
  // per-write flush and become durable at fsync/release; metadata stays synchronous and
  // atomic.
  bool sync_data = true;
  // Per-LibFS overrides of the delegation size thresholds (§4.5). 0 = inherit the
  // kernel delegation pool's DelegationConfig values.
  size_t delegate_read_threshold = 0;
  size_t delegate_write_threshold = 0;
  // Journal pages from a previous incarnation to undo during crash recovery (§4.4). The
  // application persists these page numbers across restarts (in a real deployment the
  // LibFS would stash them in a well-known private file).
  std::vector<PageNumber> recover_journal_pages;
  // Optional corruption-fix hook the kernel calls on a failed verification of our file.
  std::function<bool(Ino, const Status&)> fix_corruption;
  // Async submission rings (src/libfs/op_ring.h). enabled=true starts a per-LibFS
  // drainer; application threads then reach ring_engine() for the async path. The
  // synchronous FsInterface API keeps working either way.
  OpRingConfig ring;
  // Promote cache for digested (backend-tier) pages (src/libfs/promote_cache.h).
  // 0 slots = disabled: tier reads still work but pay a kernel promote every time.
  size_t promote_cache_slots = 0;
};

// Registered into obs::StatRegistry under layer "libfs" (summed across instances).
struct LibFsStats : obs::StatGroup {
  obs::Counter rebuilds{this, "rebuilds"};
  obs::Counter rebuild_ns{this, "rebuild_ns"};
  obs::Counter reads{this, "reads"};
  obs::Counter writes{this, "writes"};
  obs::Counter creates{this, "creates"};
  obs::Counter unlinks{this, "unlinks"};
  obs::Counter lookups{this, "lookups"};
  // Mappings handed back through RevokeNode (a writer's revoke upcall, or a release).
  obs::Counter revocations{this, "revocations"};
  // Read mappings torn down here because the kernel dropped their grant (the file's map
  // epoch moved), and read-level ops that ran again because it moved while they ran.
  obs::Counter reader_teardowns{this, "reader_teardowns"};
  obs::Counter read_retries{this, "read_retries"};
  // Cumulative ns ops spent waiting in LockForOp, attributed per-op when tracing is on.
  obs::Counter lock_wait_ns{this, "lock_wait_ns"};

 private:
  obs::ScopedRegistration reg_{"libfs", *this};
};

class ArckFs : public FsInterface, private RingPassHooks {
 public:
  explicit ArckFs(KernelController& kernel, ArckFsConfig config = {});
  ~ArckFs() override;
  ArckFs(const ArckFs&) = delete;
  ArckFs& operator=(const ArckFs&) = delete;

  // ---- FsInterface ----
  Result<Fd> Open(const std::string& path, OpenFlags flags, uint32_t mode = 0644) override;
  Status Close(Fd fd) override;
  Result<size_t> Read(Fd fd, void* buf, size_t count) override;
  Result<size_t> Write(Fd fd, const void* buf, size_t count) override;
  Result<size_t> Pread(Fd fd, void* buf, size_t count, uint64_t offset) override;
  Result<size_t> Pwrite(Fd fd, const void* buf, size_t count, uint64_t offset) override;
  Result<uint64_t> Seek(Fd fd, uint64_t offset) override;
  Status Fsync(Fd fd) override;
  Status Ftruncate(Fd fd, uint64_t size) override;
  Status Mkdir(const std::string& path, uint32_t mode = 0755) override;
  Status Rmdir(const std::string& path) override;
  Status Unlink(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Result<StatInfo> Stat(const std::string& path) override;
  Result<std::vector<DirEntryInfo>> ReadDir(const std::string& path) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Status Chmod(const std::string& path, uint32_t perm) override;
  std::string Name() const override { return "ArckFS"; }

  // ---- Trio extensions ----
  // Voluntarily release this LibFS's mapping of `path` (write release triggers
  // verification; §6.5's sharing benchmarks call this between operations).
  Status ReleaseFile(const std::string& path);
  // Verify + re-checkpoint without releasing (§4.3 commit call).
  Status Commit(const std::string& path);

  LibFsId id() const { return libfs_; }
  KernelController& kernel() { return kernel_; }
  LibFsStats& libfs_stats() { return stats_; }
  // Quarantine notices the kernel delivered: (ino, structured VerifyError status). The
  // lease is already gone when one arrives; the node's cached state was invalidated.
  std::vector<std::pair<Ino, Status>> QuarantineNotices();
  // Non-null iff config.ring.enabled: the async submission path into this LibFS.
  OpRingEngine* ring_engine() { return ring_engine_.get(); }
  // The digested-page promote cache (tier hit-rate counters live in its stats()).
  PromoteCache& promote_cache() { return promote_cache_; }
  // The lease cache (async/sync refill counters).
  LeaseCache& leases() { return leases_; }
  // Current journal page numbers (persist these to recover after a crash).
  std::vector<PageNumber> JournalPages();

 protected:
  // Per-ino auxiliary state. Directories and regular files share the node type; the
  // directory members stay null for files and vice versa.
  struct FileNode {
    Ino ino = kInvalidIno;
    Ino parent = kInvalidIno;
    bool is_dir = false;
    bool locally_created = false;  // Created by us, not yet reconciled by the kernel.

    // Mapping state machine, driven under map_mutex; ops hold op_lock shared.
    std::mutex map_mutex;
    BravoRwLock op_lock;
    std::atomic<int> map_state{0};  // 0 = unmapped, 1 = read, 2 = write.
    std::atomic<bool> stale{false};
    // Set by UnmapLocally, cleared by the next map (both under map_mutex). While set the
    // auxiliary state is the revoked file's, so CreateNode under a recycled ino rebuilds
    // it.
    bool revoked = false;
    // Bumped under map_mutex whenever the node is mapped or unmapped. EnsureMapped
    // releases map_mutex across the kernel MapFile crossing (the kernel may synchronously
    // revoke another tenant, whose RevokeNode takes ITS node's map_mutex — holding ours
    // would be an ABBA inversion between two LibFS instances revoking each other); the
    // revision tells it whether the node changed in that window and must be looked at
    // again.
    uint64_t map_revision = 0;
    // The file's map epoch when the kernel issued the grant (MapInfo::map_epoch), set
    // under map_mutex. While map_state is 1 the read grant stands only as long as the
    // kernel's epoch stays here; ops read it under op_lock.
    std::atomic<uint64_t> map_epoch{0};
    // The chain generation (MapInfo::chain_generation) the auxiliary state was built from,
    // or 0 if unknown; set under map_mutex. A map at the same generation skips RebuildAux.
    uint64_t aux_generation = 0;
    DirentBlock* dirent = nullptr;

    // Regular-file auxiliary state (§4.2).
    BravoRwLock inode_lock;
    RangeLock range_lock;
    PageRadixTree radix;
    std::vector<PageNumber> index_pages;  // Chain order; guarded by inode_lock exclusive
                                          // (extension happens only on the exclusive path).
    std::vector<PageNumber> reuse_pages;  // Owned, unlinked by truncate; reusable in-file.
    std::unordered_set<PageNumber> dirty_pages;  // Relaxed-data mode: awaiting fsync.
    SpinLock dirty_lock;

    // Directory auxiliary state (§4.2).
    std::unique_ptr<DirIndex> dir_index;
    struct DirTail {
      PageNumber page = 0;
      SpinLock lock;
      // Logging tails are only useful for non-full pages (§4.2); full ones are skipped
      // until an unlink frees a slot in them.
      std::atomic<bool> full{false};
    };
    SpinLock tails_lock;  // Guards dir_tails + dir_tail_index + dir_index_pages +
                          // dir_next_entry.
    std::vector<std::unique_ptr<DirTail>> dir_tails;
    std::unordered_map<PageNumber, size_t> dir_tail_index;  // page -> dir_tails slot.
    // First possibly-non-full tail: creates start scanning here, keeping the common
    // create O(1) in directory size.
    std::atomic<size_t> dir_first_nonfull{0};
    std::vector<PageNumber> dir_index_pages;
    size_t dir_next_entry = 0;  // Free entries used in the last index page (index tail).
  };
  using NodePtr = std::shared_ptr<FileNode>;

  // ---- Node / mapping machinery (shared with KVFS and FPFS) ----
  NodePtr GetOrCreateNode(Ino ino, Ino parent, bool is_dir, DirentBlock* dirent);
  // Node for a file or directory we just created, write-held until the kernel reconciles
  // it, with empty auxiliary state even when a node cached under a recycled ino still
  // holds a deleted file's (revokes keep it).
  NodePtr CreateNode(Ino ino, Ino parent, bool is_dir, DirentBlock* dirent);
  NodePtr FindNode(Ino ino);
  void DropNode(Ino ino);
  // Maps the node (read or write) through the kernel and, if the mapping was
  // (re)established, rebuilds auxiliary state unless it was built at the chain generation
  // the grant carries. A read mapping whose grant the kernel dropped is torn down first,
  // an upgrade to write included. Never call while holding op_lock.
  Status EnsureMapped(FileNode* node, bool write);
  // Acquire op_lock shared and confirm the mapping is still live at `level` (1=read,
  // 2=write); retries via EnsureMapped on staleness or a dropped read grant. Returns with
  // op_lock held shared. When an OpContext is active, the wait is charged to its
  // lock_wait_ns counter.
  Status LockForOp(FileNode* node, int level);
  void UnlockOp(FileNode* node) { node->op_lock.unlock_shared(); }
  // Runs `fn`, a read-level op on `node`, under LockForOp(node, 1), and returns what it
  // returned, an error as much as bytes, only if the node's read grant still stood when
  // it finished. The kernel drops a reader's grant without asking (a write grant to
  // another LibFS), so the op may have loaded bytes that writer was changing; this check
  // stands in for the fault such a load takes on hardware, and the op runs again from
  // LockForOp, which maps the file anew. `fn` returns Status or Result<T>.
  template <typename Fn>
  auto ReadOp(FileNode* node, Fn&& fn) -> decltype(fn()) {
    for (;;) {
      TRIO_RETURN_IF_ERROR(LockForOp(node, 1));
      const uint64_t epoch = ReadEpoch(node);
      auto result = fn();
      const bool held = ReadEpochHolds(node, epoch);
      UnlockOp(node);
      if (held) {
        return result;
      }
      stats_.read_retries.fetch_add(1);
    }
  }
  // The grant epoch an op holding LockForOp(node, 1) must still find when it ends, or
  // kWriteMapped: a write grant is taken back only through RevokeNode, which waits the op
  // out.
  static constexpr uint64_t kWriteMapped = ~uint64_t{0};
  uint64_t ReadEpoch(FileNode* node) const {
    return node->map_state.load(std::memory_order_acquire) == 1
               ? node->map_epoch.load(std::memory_order_relaxed)
               : kWriteMapped;
  }
  // True iff no other LibFS can have held a write grant on the node's file since the grant
  // behind `epoch` was issued, so every load made since saw committed bytes.
  bool ReadEpochHolds(FileNode* node, uint64_t epoch) const {
    return epoch == kWriteMapped || kernel_.MapEpochHolds(node->ino, epoch);
  }
  // Revoker-side: quiesce, unmap, drop auxiliary state.
  void RevokeNode(Ino ino);
  // Kernel-side quarantine notification (may arrive on a watchdog thread, possibly while
  // this LibFS is itself mid-unmap on the same node): record the notice and mark the node
  // stale. Deliberately lock-free on the node — staleness makes the next op re-map and
  // rebuild from the rolled-back core state. Must not call back into the kernel.
  void OnQuarantine(Ino ino, const Status& reason);
  // The LockForOp acquisition loop (no instrumentation; LockForOp wraps it).
  Status AcquireOpLock(FileNode* node, int level);
  // The node is read-mapped and the kernel has dropped that grant.
  bool ReadGrantDropped(FileNode* node) const {
    return node->map_state.load(std::memory_order_acquire) == 1 &&
           !kernel_.MapEpochHolds(node->ino, node->map_epoch.load(std::memory_order_relaxed));
  }
  // RevokeNode's local half, under map_mutex: waits out the node's in-flight ops, runs
  // `release` while none can start, and leaves the node unmapped, its auxiliary state kept
  // for the next map's RebuildAux.
  template <typename Fn>
  void UnmapLocally(FileNode* node, Fn&& release);

  // ---- Path resolution ----
  // Virtual so customized LibFSes can replace the strategy: FPFS swaps the per-component
  // walk for a global full-path hash table (§5) — pure auxiliary-state customization.
  virtual Result<NodePtr> ResolveDir(const std::vector<std::string>& components);
  Result<DirSlot> FindEntry(FileNode* dir, std::string_view name);

  // ---- Directory core-state operations (callers hold dir op_lock shared + write map) ----
  Result<DirSlot> CreateEntry(FileNode* dir, std::string_view name, uint32_t mode,
                              bool exclusive);
  Status RemoveEntry(FileNode* dir, std::string_view name, bool must_be_dir,
                     bool must_be_file);
  DirentBlock* SlotPointer(const DirSlot& slot);

  // ---- Regular-file data path (callers hold file op_lock shared + suitable map) ----
  // `append` computes the write offset from the file size UNDER the exclusive inode lock
  // (the only race-free place; O_APPEND correctness depends on it) and reports the offset
  // actually used through `offset_used`.
  Result<size_t> WriteLocked(FileNode* node, const void* buf, size_t count, uint64_t offset,
                             bool append = false, uint64_t* offset_used = nullptr);
  Result<size_t> ReadLocked(FileNode* node, void* buf, size_t count, uint64_t offset);
  Status TruncateLocked(FileNode* node, uint64_t new_size);

  // Rebuilding auxiliary state from core state (§4.2).
  Status RebuildAux(FileNode* node);

  // Data-page plumbing. A write persists its payload and zeros through one span, fences,
  // links, fences, then commits the size (DESIGN.md §4.4). The helpers below persist
  // through the caller's span and never fence.
  // Grows the DRAM index chain until entry `max_page_index` exists. New index pages are
  // zeroed and persisted but not yet linked on NVM (LinkIndexPages does that).
  Status EnsureIndexCapacity(FileNode* node, uint64_t max_page_index,
                             obs::PersistSpan* span);
  // Stores and persists the NVM chain pointers to index_pages[first..].
  void LinkIndexPages(FileNode* node, size_t first, obs::PersistSpan* span);
  // A new data page for `page_index` whose bytes outside [in_page, in_page + len), the
  // part the write leaves uncovered, are zeroed and persisted.
  Result<PageNumber> AllocDataPage(FileNode* node, uint64_t page_index, size_t in_page,
                                   size_t len, obs::PersistSpan* span);
  // Stores and persists the index entries of `pages` (ascending page order) and makes
  // them visible in the radix tree.
  void LinkDataPages(FileNode* node, const std::vector<std::pair<uint64_t, PageNumber>>& pages,
                     obs::PersistSpan* span);
  Status AppendDirDataPage(FileNode* dir);

  // ---- Tier promote path (DESIGN.md §4.11) ----
  // Read `len` bytes at `in_page` within digested file page `page_index` (backend slot
  // `slot`): promote-cache hit, or fault the page into a leased NVM page via the kernel
  // and cache the copy.
  Status ReadTierPage(FileNode* node, uint64_t page_index, uint64_t slot,
                      uint64_t in_page, char* dst, size_t len);
  // Bring a digested page back to NVM authority for writing: allocate a leased page,
  // fill it from the backend when `fill` (skip on a full-page overwrite), and drop any
  // cached promoted copy. The caller links the page and the old slot is released at
  // verify-time reconcile.
  Result<PageNumber> PromoteForWrite(FileNode* node, uint64_t page_index, uint64_t slot,
                                     bool fill);
  // Any tier entry among the file pages covering [offset, offset+count)? Tier entries
  // are converted to NVM pages under the exclusive inode lock (a shared-lock writer
  // could otherwise race another on the same index slot); while write-mapped no NEW
  // tier entry can appear (digestion skips mapped files), so a pre-lock check is stable.
  bool RangeHasTierEntries(FileNode* node, uint64_t offset, size_t count);

  // Copies with optional delegation: a non-null `batch` queues the chunk into the
  // current operation's DelegationBatch (submitted + fenced once per node at the end of
  // the op); null copies inline. `persist` = flush the written lines now (the
  // synchronous-data mode) through `span`, whose fence the caller issues after the loop;
  // relaxed mode records dirty pages instead.
  void CopyToNvm(char* dst, const char* src, size_t len, DelegationBatch* batch,
                 bool persist, obs::PersistSpan* span);
  // Relaxed-data mode: persist everything this node dirtied since the last flush.
  void FlushDirtyData(FileNode* node);

  // ---- Op-ring drain-pass plumbing (drainer thread only) ----
  // RingPassHooks: one DelegationBatch is shared by every delegated write of a drain
  // pass; FlushPass submits/waits/resets it so its data is durable before any dependent
  // metadata commit, and before every epoch close.
  void BeginPass() override;
  void FlushPass() override;
  void EndPass() override;
  // The calling thread's pass batch (null off the drainer / without delegation).
  DelegationBatch* PassBatch();
  void CopyFromNvm(char* dst, const char* src, size_t len, DelegationBatch* batch);
  // Effective delegation thresholds: config overrides, else the pool's DelegationConfig.
  size_t ReadDelegateThreshold() const;
  size_t WriteDelegateThreshold() const;

  UndoJournal& JournalShard();
  void ReplayJournals();

  Result<NodePtr> OpenNodeByPath(const std::string& path, bool write);
  LibFsId RegisterWithKernel(KernelController& kernel, const ArckFsConfig& config);
  // The kernel learns about files we created only when the parent is verified; force that
  // reconciliation before kernel calls that need a record of `ino` (chmod, commit, ...).
  Status EnsureReconciled(Ino ino);

  KernelController& kernel_;
  NvmPool& pool_;
  ArckFsConfig config_;
  LibFsId libfs_ = kNoLibFs;
  LeaseCache leases_;
  PromoteCache promote_cache_;
  FdTable<FileNode> fds_;
  LibFsStats stats_;
  // Persistence accounting for every PersistSpan this LibFS opens (layer "libfs").
  obs::PersistStats persist_stats_{"libfs"};

  std::mutex nodes_mutex_;
  std::unordered_map<Ino, NodePtr> nodes_;

  std::mutex quarantine_mutex_;
  std::vector<std::pair<Ino, Status>> quarantine_notices_;

  // Destroyed first in ~ArckFs (declaration order notwithstanding): the drainer calls
  // back into this object, so it must stop before any other member is torn down.
  std::unique_ptr<OpRingEngine> ring_engine_;

  std::mutex journal_init_mutex_;
  std::vector<std::unique_ptr<UndoJournal>> journals_;
  std::mutex rename_mutex_;  // Simplification: renames serialize (VFS has a global
                             // equivalent; per-shard journals could relax this).
};

}  // namespace trio

#endif  // SRC_LIBFS_ARCKFS_H_
