// The in-kernel access controller (§3.2, §4.3, §4.5). It decides which shared file-system
// resources (NVM pages, inode numbers) each LibFS can access, enforces the
// concurrent-read/exclusive-write file sharing policy with leases, maintains the global
// ownership information the integrity verifier reads (I2), checkpoints file metadata
// before write grants, drives verification when write access transfers, and handles
// corruption (fix-with-timeout, quarantine-to-offender, checkpoint rollback).
//
// In the paper this is a Linux kernel module; here it is an in-process object. Every public
// entry point models one user->kernel crossing and is counted in stats().syscalls, which
// the cost models in src/sim consume.
//
// Scale-out (DESIGN.md §4.10): the controller is SHARDED. File records are partitioned by
// hash(ino) into `controller_shards` shards, each guarded by a plain (non-recursive) mutex.
// Page and ino ownership live in two flat OwnershipTables of one atomic word per page or
// ino; they are also the only record of which LibFS leases what, and a read is one
// lock-free load. Reconciliation that touches children in other shards collects the shard
// set, then acquires it in ascending index order (enforced at runtime by ShardRank).
//
// Lock hierarchy (acquire strictly downward; each level optional):
//   shard mutexes (ascending index only)
//     -> per-LibFS record mutex (at most one at a time)
//       -> alloc_mu_ (free pages / free inos / next_ino_)
//       -> quarantine_mu_ / wmap_mu_
// The ownership tables and each LibFS's MmuSim page table (in its LibFsRecord) take no
// lock: their updates are atomic, valid at any level of this hierarchy. registry_mu_
// protects the LibFS registry only and is never held across any other acquisition
// (lookups copy out a shared_ptr). LibFS callbacks and the integrity verifier ALWAYS run
// with no shard held (ShardRank::AssertNoneHeld); in-flight verifications pin their file
// with a per-record `busy` flag instead of holding a lock, and waiters sleep on the shard's
// condition variable.

#ifndef SRC_KERNEL_CONTROLLER_H_
#define SRC_KERNEL_CONTROLLER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/common/seqlock.h"
#include "src/core/core_state.h"
#include "src/core/format.h"
#include "src/core/ownership.h"
#include "src/kernel/chunked_words.h"
#include "src/kernel/delegation.h"
#include "src/kernel/mmu_sim.h"
#include "src/kernel/shard.h"
#include "src/kernel/watchdog.h"
#include "src/obs/stats.h"
#include "src/verifier/verifier.h"

namespace trio {

class SlowBackend;      // src/sim/backend.h
class DigestionService;  // src/kernel/digestion.h

// Tiering (DESIGN.md §4.11): the NVM pool absorbs every write at NVM latency; a
// background digestion service migrates cold, unmapped files' data pages to the slow
// backend when NVM occupancy crosses high_watermark and stops once it falls back under
// low_watermark. Reads of digested pages fault back in through PromoteRead.
struct TierConfig {
  SlowBackend* backend = nullptr;  // Not owned; null disables tiering entirely.
  double high_watermark = 0.75;    // Background digestion starts above this occupancy...
  double low_watermark = 0.50;     // ...and stops below this.
  size_t batch_pages = 32;         // Pages migrated per digest batch (one fence each).
  bool start_digestion = false;    // Spin up the background digestion thread.
  uint64_t scan_interval_ms = 2;   // Background thread poll period.
};

struct KernelConfig {
  uint64_t lease_ms = 100;        // §6.5: "ArckFS's 100ms lease time".
  uint64_t fix_timeout_ms = 10;   // Deadline for a LibFS to fix its own corruption.
  // Run untrusted LibFS callbacks (fix_corruption, recovery, revoke) under a deadline
  // watchdog (CallbackGuard). A callback that overruns is abandoned and the kernel
  // escalates: failed fix -> quarantine + checkpoint rollback; hung recovery program ->
  // verify every file (its journal state is unknown); hung revoke past the lease
  // deadline -> forced release. Off = trust every callback to return (the pre-FaultSim
  // behavior, with no helper-thread hop on the revoke path).
  bool guard_callbacks = true;
  uint64_t recovery_timeout_ms = 1000;  // Deadline for one LibFS recovery program.
  // Budget for one integrity verification (0 = unbounded). Enforced cooperatively inside
  // the verifier's walks (see VerifyRequest::deadline_ns); an overrun is treated exactly
  // like corruption — the state is unverifiable, so rollback + quarantine.
  uint64_t verify_timeout_ms = 50;
  // Quarantined files retained at once; the oldest entry is evicted beyond this (a
  // malicious tenant must not grow kernel memory without bound by corrupting files).
  size_t max_quarantined_files = 16;
  // Extra wall-clock grace past the lease deadline before an unresponsive holder's
  // mapping is reclaimed by force.
  uint64_t revoke_grace_ms = 50;
  // Thresholds, ring sizing, spin/park and stealing knobs for the delegation pool
  // (§4.5); benchmarks sweep these through here.
  DelegationConfig delegation;
  // Controller shards (rounded up to a power of two, clamped to [1, 64]). 1 reproduces
  // the legacy one-big-mutex controller; the fleet bench gates 8 > 1.
  size_t controller_shards = 8;
  // NVM absorb tier / slow-backend digestion (DESIGN.md §4.11).
  TierConfig tier;
};

// Callbacks a LibFS registers with the kernel controller.
struct LibFsCallbacks {
  // The kernel asks the LibFS to release a file it holds a write grant on (lease
  // revocation). Must synchronously flush and call UnmapFile before returning. May be
  // invoked from another app's thread. Read grants are dropped without it (MapFile).
  std::function<void(Ino)> revoke;
  // Corruption detected in a file this LibFS wrote; it may repair the core state in place.
  // Return true to request re-verification. Called with the failure diagnostic.
  std::function<bool(Ino, const Status&)> fix_corruption;
  // Crash-recovery program (§4.4): replay/undo this LibFS's journal. Untrusted: the kernel
  // re-verifies all write-mapped files afterwards.
  std::function<void()> recovery;
  // This LibFS's file failed verification and was impounded (rolled back + quarantined);
  // the mapping is already gone. The LibFS should drop cached state for `ino` and may
  // RetrieveQuarantine the condemned images. Must not call back into the kernel.
  std::function<void(Ino, const Status&)> quarantined;
};

struct LibFsOptions {
  uint32_t uid = 0;
  uint32_t gid = 0;
  LibFsCallbacks callbacks;
};

struct MapInfo {
  PageNumber dirent_page = 0;  // 0 => the root dirent inside the superblock.
  size_t dirent_slot = 0;
  bool writable = false;
  uint64_t lease_deadline_ns = 0;
  PageNumber first_index_page = 0;  // As of grant time (convenience for rebuild).
  // The file's map epoch (MapEpochHolds) as the grant was decided, before a write grant
  // moved it to drop other readers. A read grant stands while the epoch stays here; a
  // LibFS whose read grant carries this epoch still held it when it asked for more.
  uint64_t map_epoch = 0;
  // A regular file's chain generation, unique within the controller: while it stays the
  // same, the file's index chain has not changed, so auxiliary state a LibFS built from the
  // chain at this generation is still current. 0 for a directory (always rebuild).
  uint64_t chain_generation = 0;
};

// Registered into obs::StatRegistry under layer "kernel" (summed across controllers).
struct KernelStats : obs::StatGroup {
  obs::Counter syscalls{this, "syscalls"};
  obs::Counter maps{this, "maps"};
  obs::Counter unmaps{this, "unmaps"};
  obs::Counter verifications{this, "verifications"};
  obs::Counter verify_failures{this, "verify_failures"};
  obs::Counter corruptions_fixed_by_libfs{this, "corruptions_fixed_by_libfs"};
  obs::Counter corruptions_rolled_back{this, "corruptions_rolled_back"};
  // Writers asked to release a file (one per revoke callback).
  obs::Counter revocations{this, "revocations"};
  // Read grants the kernel dropped itself, with no upcall: by a write grant to another
  // LibFS, or when the file was reclaimed.
  obs::Counter readers_dropped{this, "readers_dropped"};
  // Guarded upcalls, the callers' wall time spent waiting for them (revoke handoffs
  // included), and upcalls abandoned on a hung fix/recovery/revoke callback.
  obs::Counter callback_runs{this, "callback_runs"};
  obs::Counter callback_wait_ns{this, "callback_wait_ns"};
  obs::Counter callback_timeouts{this, "callback_timeouts"};
  // Leases reclaimed from unresponsive holders.
  obs::Counter forced_releases{this, "forced_releases"};
  // Verifications that overran verify_timeout_ms.
  obs::Counter verify_timeouts{this, "verify_timeouts"};
  obs::Counter files_quarantined{this, "files_quarantined"};
  // Existing files a verified directory took at a dirent slot the kernel did not have on
  // record (renamed within it, moved in, or back from transit), and files reclaimed
  // because they were still in transit when their mover's last write grant went.
  obs::Counter children_claimed{this, "children_claimed"};
  obs::Counter transits_reclaimed{this, "transits_reclaimed"};
  // Oldest entries dropped past max_quarantined_files.
  obs::Counter quarantine_evictions{this, "quarantine_evictions"};
  obs::Counter pages_allocated{this, "pages_allocated"};
  obs::Counter pages_freed{this, "pages_freed"};
  // Sharding telemetry: shard-mutex acquisitions that found the lock held, and
  // multi-shard (two-phase) acquisitions.
  obs::Counter shard_lock_contended{this, "shard_lock_contended"};
  obs::Counter cross_shard_acquires{this, "cross_shard_acquires"};
  // Sharing-cost breakdown (Fig 8): cumulative nanoseconds per phase.
  obs::Counter map_ns{this, "map_ns"};
  obs::Counter unmap_ns{this, "unmap_ns"};
  obs::Counter verify_ns{this, "verify_ns"};
  obs::Counter checkpoint_ns{this, "checkpoint_ns"};
  // Per-syscall latency distribution (boundary entry to exit), recorded by SyscallScope.
  obs::LatencyHistogram syscall_latency{this, "syscall_latency"};

 private:
  obs::ScopedRegistration reg_{"kernel", *this};
};

// Kernel-side tier counters, registered under layer "tier" (summed with the backend's
// own media counters and the LibFS promote-cache counters).
struct KernelTierStats : obs::StatGroup {
  obs::Counter digest_batches{this, "digest_batches"};  // Committed, one fence each.
  obs::Counter digest_pages{this, "digest_pages"};      // NVM pages moved to the backend.
  obs::Counter digest_bytes{this, "digest_bytes"};      // Bytes those pages carried.
  // AllocPages calls that had to digest synchronously.
  obs::Counter watermark_stalls{this, "watermark_stalls"};
  // PromoteRead calls served from the backend.
  obs::Counter promote_reads{this, "promote_reads"};
  // Slots released at reconcile/reclaim.
  obs::Counter backend_slots_freed{this, "backend_slots_freed"};

 private:
  obs::ScopedRegistration reg_{"tier", *this};
};

// The ownership of one kind of resource, pages or inos (§4.3, I2), indexed by page number or
// ino. It is also the kernel's only record of leases. Each entry is one atomic word: the
// ResourceState in the low byte and, above it, the lessee while kLeased, the owning file
// (a page) or parent directory (an ino) while kOwned, or the mover while kInTransit. A
// read is one lock-free load, and an index past the table reads as free: page numbers and
// inos arrive from untrusted LibFSes. Each write is a release store by the one thread that
// owns the transition: the thread that took the resource off a free list, the reconcile
// that adopts it into a file under the file's shard lock, or the thread that removed it
// from its file's record and frees it before it returns to a free list. A lease ends with
// one compare-exchange, so it ends once. So does a transit, under the file's shard lock:
// the directory that claims the file and the reclaim at its mover's quiescence each
// decide with one compare-exchange, and only one of them wins.
class OwnershipTable {
 public:
  struct Entry {
    ResourceState state = ResourceState::kFree;
    uint64_t holder = 0;  // The lessee (kLeased), or the owning file or parent (kOwned).

    LibFsId lessee() const {
      return state == ResourceState::kLeased ? static_cast<LibFsId>(holder) : kNoLibFs;
    }
    Ino owner() const { return state == ResourceState::kOwned ? holder : kInvalidIno; }
    LibFsId mover() const {
      return state == ResourceState::kInTransit ? static_cast<LibFsId>(holder) : kNoLibFs;
    }
  };

  // Sizes the table, dropping every entry. Only while no other thread can read it; after
  // that Clear() zeroes it in place.
  void Resize(uint64_t entries) { words_.Resize(entries); }
  uint64_t size() const { return words_.size(); }

  Entry Get(uint64_t index) const {
    const uint64_t word = Load(index);
    return Entry{static_cast<ResourceState>(word & 0xff), word >> 8};
  }
  bool Is(uint64_t index, ResourceState state, uint64_t holder) const {
    return Load(index) == Pack(state, holder);
  }
  void Set(uint64_t index, ResourceState state, uint64_t holder) {
    if (std::atomic<uint64_t>* word = words_.FindOrAdd(index)) {
      word->store(Pack(state, holder), std::memory_order_release);
    }
  }
  // Free -> (state, holder). False if the entry was taken, or is past the table.
  bool Claim(uint64_t index, ResourceState state, uint64_t holder) {
    return Exchange(words_.FindOrAdd(index), 0, Pack(state, holder));
  }
  // `from` -> (state, holder). False if the entry was not `from`, or is past the table.
  bool Transition(uint64_t index, Entry from, ResourceState state, uint64_t holder) {
    return Exchange(words_.Find(index), Pack(from.state, from.holder), Pack(state, holder));
  }
  // Leased to `libfs` -> free. False if `libfs` held no lease on it.
  bool EndLease(uint64_t index, LibFsId libfs) {
    return Exchange(words_.Find(index), Pack(ResourceState::kLeased, libfs), 0);
  }
  // Ends every lease `libfs` holds, calling fn(index) for each.
  template <typename Fn>
  void EndLeasesOf(LibFsId libfs, Fn&& fn) {
    const uint64_t leased = Pack(ResourceState::kLeased, libfs);
    words_.ForEach([&](uint64_t index, std::atomic<uint64_t>& word) {
      if (word.load(std::memory_order_relaxed) == leased && Exchange(&word, leased, 0)) {
        fn(index);
      }
    });
  }
  void Clear() {
    words_.ForEach([](uint64_t, std::atomic<uint64_t>& word) {
      word.store(0, std::memory_order_release);
    });
  }

 private:
  static uint64_t Pack(ResourceState state, uint64_t holder) {
    return holder << 8 | static_cast<uint64_t>(state);
  }
  uint64_t Load(uint64_t index) const {
    const std::atomic<uint64_t>* word = words_.Find(index);
    return word == nullptr ? 0 : word->load(std::memory_order_acquire);
  }
  static bool Exchange(std::atomic<uint64_t>* word, uint64_t from, uint64_t to) {
    return word != nullptr &&
           word->compare_exchange_strong(from, to, std::memory_order_acq_rel);
  }

  ChunkedWords words_;
};

class KernelController : public OwnershipView, public VerifyEnv {
 public:
  KernelController(NvmPool& pool, KernelConfig config = {},
                   Clock* clock = SystemClock::Instance());
  ~KernelController();
  KernelController(const KernelController&) = delete;
  KernelController& operator=(const KernelController&) = delete;

  // Rebuilds ownership tables by scanning the directory tree from the root (the tables are
  // auxiliary state, §3.2). Detects an unclean shutdown; call RunRecovery() after LibFSes
  // have re-registered in that case.
  Status Mount();
  // Marks a clean shutdown. All LibFSes must have unregistered.
  Status Unmount();
  bool NeedsRecovery() const { return needs_recovery_; }
  // §4.4: invoke each registered LibFS's recovery program, then verify every file that was
  // write-mapped at crash time.
  Status RunRecovery();

  // ---- LibFS lifecycle ----
  LibFsId RegisterLibFs(const LibFsOptions& options);
  void UnregisterLibFs(LibFsId libfs);

  // ---- Resource leasing ----
  Status AllocPages(LibFsId libfs, size_t count, int node_hint,
                    std::vector<PageNumber>* out);
  Status FreePages(LibFsId libfs, const std::vector<PageNumber>& pages);
  Result<Ino> AllocIno(LibFsId libfs);
  // Batched form: LibFSes amortize the kernel crossing over many creates (§4.5 per-CPU
  // inode allocators live LibFS-side as caches over this).
  Status AllocInos(LibFsId libfs, size_t count, std::vector<Ino>* out);
  Status FreeIno(LibFsId libfs, Ino ino);

  // ---- Mapping / sharing ----
  Result<MapInfo> MapRoot(LibFsId libfs, bool write);
  // Grants `libfs` read or write access to `ino` after the shadow-inode permission check.
  // Another LibFS's write grant is revoked through its revoke callback; a write grant drops
  // every other reader here, with no upcall, and moves the file's map epoch. A grant the
  // LibFS already holds at a sufficient strength is answered as it stands, a write lease
  // renewed: re-mapping is how a LibFS revalidates a grant.
  Result<MapInfo> MapFile(LibFsId libfs, Ino ino, bool write);
  Status UnmapFile(LibFsId libfs, Ino ino);
  // True iff `ino`'s map epoch is still `epoch` (from MapInfo::map_epoch), so no read grant
  // issued at it has been dropped: bytes loaded since through that grant are committed.
  // Call it after the loads it covers. Not a kernel crossing: the epochs stand for a page
  // the kernel maps read-only into every LibFS, and this is one load from it. A grant
  // added the word before it was issued, so a LibFS checking a grant's epoch finds it.
  bool MapEpochHolds(Ino ino, uint64_t epoch) const {
    const std::atomic<uint64_t>* word = map_epochs_.Find(ino);
    return word != nullptr && EpochUnchanged(*word, epoch);
  }
  // Verify now and replace the checkpoint with the current (valid) state, keeping the
  // write grant (§4.3 "commit call").
  Status CommitFile(LibFsId libfs, Ino ino);

  // ---- Permission changes (I4 path: shadow inode is ground truth) ----
  Status Chmod(LibFsId libfs, Ino ino, uint32_t perm_bits);
  Status Chown(LibFsId libfs, Ino ino, uint32_t uid, uint32_t gid);

  // Corrupted files quarantined to their offending writer (§4.3: "makes the corrupted file
  // a private file to LibFS A"): raw page images the LibFS can salvage.
  std::vector<std::vector<char>> RetrieveQuarantine(LibFsId libfs, Ino ino);
  // Inspection: the structured VerifyError status that condemned `ino`, or NotFound if the
  // ino is not quarantined. (Harnesses assert the taxonomy class without draining images.)
  Status QuarantineErrorOf(Ino ino) const;
  size_t QuarantineCount() const;

  // ---- OwnershipView (read access for the integrity verifier) ----
  PageState StateOfPage(PageNumber page) const override;
  InoState StateOfIno(Ino ino) const override;

  // ---- VerifyEnv ----
  Status CheckRemovedChildDir(Ino child, LibFsId writer) const override;
  bool IsWriteHeldBy(Ino dir, LibFsId writer) const override;
  Status CheckTierSlot(Ino ino, uint64_t slot) const override;

  // ---- Tiering (src/kernel/digestion.cc) ----
  // Promote-back half of digestion: copies backend slot `slot` (a tier entry of `ino`,
  // which the caller must hold a grant on) into `dest`, an NVM page leased to the
  // caller, then persists + fences the destination — so a subsequent index-entry commit
  // referencing `dest` can never become durable ahead of the data it points at.
  Status PromoteRead(LibFsId libfs, Ino ino, uint64_t slot, PageNumber dest);
  // Synchronously digests up to `target_pages` cold data pages NVM -> backend.
  // Returns the number of pages migrated (0 when tiering is disabled or nothing is cold).
  size_t DigestNow(size_t target_pages);
  // Fraction of the file region currently in use (1.0 = no free NVM pages).
  double NvmOccupancy() const;
  void StartDigestion();
  SlowBackend* backend() const { return config_.tier.backend; }
  KernelTierStats& tier_stats() { return tier_stats_; }

  NvmPool& pool() { return pool_; }
  // The simulated MMU (§3.2): would a load (write=false) or store by `libfs` to `page`, or
  // to every byte of [addr, addr + len), be permitted? False for an unknown LibFS.
  bool MmuCheck(LibFsId libfs, PageNumber page, bool write) const;
  bool MmuCheckRange(LibFsId libfs, const void* addr, size_t len, bool write) const;
  KernelStats& stats() { return stats_; }
  IntegrityVerifier& verifier() { return *verifier_; }
  // Attaches FaultSim (kFaultKernelLeakOnContendedTransfer); nullptr detaches. Set it
  // while no revocation is in flight.
  void set_fault_injector(FaultInjector* injector) { fault_injector_ = injector; }
  DelegationPool* delegation() { return delegation_.get(); }
  void StartDelegation();
  Clock* clock() { return clock_; }
  const KernelConfig& config() const { return config_; }
  size_t shard_count() const { return shards_.size(); }

  // Test/inspection helpers.
  size_t FreePageCount() const;
  bool IsWriteMapped(Ino ino) const;
  Result<Ino> ParentOf(Ino ino) const;

 private:
  // The state a write session rolls back to (§4.3): the dirent as the grant found it and the
  // file's metadata pages. A directory's is taken at each write grant and dropped at
  // release; its verification finds in `dir_pages` the slot each child had at the grant.
  // A regular file's index chain outlives the session: after a passing verification it is
  // the chain that pass checked (`verified`), which the next write grant reuses as it
  // stands and the next verification compares against before it walks.
  struct FileCheckpointData {
    DirentBlock meta;
    PageImages images;     // Index pages.
    PageImages dir_pages;  // A directory's data pages, in chain order.
    // `images` is a passing verification's chain, every page of which has been the file's
    // since. Cleared by rollback and by a FreePages of one of the file's pages; digestion
    // drops the whole checkpoint.
    bool verified = false;
  };

  struct FileRecord {
    Ino ino = kInvalidIno;
    Ino parent = kInvalidIno;
    bool is_dir = false;
    PageNumber dirent_page = 0;  // 0 => superblock root.
    size_t dirent_slot = 0;
    PageNumber first_index_page = 0;  // As of last reconcile.
    std::unordered_set<PageNumber> pages;
    // Backend slots this file's tier entries reference (the backend-tier analogue of
    // `pages`; maintained by digestion, reconcile, and the mount rescan).
    std::unordered_set<uint64_t> backend_slots;
    // MapInfo::chain_generation: moves whenever a regular file's chain may have changed (a
    // verification that walked it, rollback, digestion), from NextChainGeneration.
    uint64_t chain_generation = 0;
    LibFsId writer = kNoLibFs;
    std::unordered_set<LibFsId> readers;
    uint64_t lease_deadline_ns = 0;
    // Last grant activity (MapFile), for coldest-first digestion ordering.
    uint64_t last_use_ns = 0;
    std::unique_ptr<FileCheckpointData> checkpoint;
    // Verification in flight: the record is pinned (no release/reclaim/grant may touch
    // it) while its writer's work is verified OUTSIDE the shard lock. Waiters sleep on
    // the shard cv. This replaces the recursive-mutex reentry the verifier used to need.
    bool busy = false;
    // The MapFile call that found another LibFS's write grant in its way, by LibFS and
    // calling thread: the next grant is that LibFS's, and other LibFSes' MapFile calls
    // wait on the shard cv until the call has come back for it.
    LibFsId turn_libfs = kNoLibFs;
    std::thread::id turn_thread;
  };

  struct LibFsRecord {
    explicit LibFsRecord(uint64_t pool_pages) : mmu(pool_pages) {}
    LibFsId id = kNoLibFs;
    uint32_t uid = 0;             // Immutable after registration.
    uint32_t gid = 0;             // Immutable after registration.
    LibFsCallbacks callbacks;     // Immutable after registration.
    // `mu` guards the three sets below (the ownership tables record this LibFS's
    // leases). Rank: after shard mutexes; at most one LibFS record mutex held at a time;
    // nothing else is acquired under it.
    std::mutex mu;
    std::unordered_set<Ino> write_mapped;
    std::unordered_set<Ino> read_mapped;
    // Inos this LibFS's verifications put in transit since it last held no write grant:
    // where ReclaimTransits looks. The ino's word decides; a claimed ino stays listed.
    std::unordered_set<Ino> transits;
    // This LibFS's page table. Lock-free; it dies with the record, so a holder of the
    // record's shared_ptr may program it after the LibFS has unregistered.
    MmuSim mmu;
  };

  struct Shard {
    explicit Shard(obs::Counter& contended) : mu(contended) {}
    ShardMutex mu;
    std::condition_variable cv;  // Signalled when a record's busy flag clears.
    std::unordered_map<Ino, FileRecord> records;
  };

  // Naming discipline (enforceable now that shard mutexes are non-recursive):
  //   *Locked        — caller holds the shard lock(s) covering every ino the method
  //                    touches (single shard, an OrderedShardSpan, or all shards).
  //   everything else — must be entered with NO shard lock held; acquires what it needs.
  // ShardRank aborts on any violation of the ascending-acquire order at runtime.

  // ---- shard plumbing (controller.cc) ----
  size_t ShardIndexOf(Ino ino) const {
    return static_cast<size_t>((ino * 0x9e3779b97f4a7c15ull) >> 32) & shard_mask_;
  }
  Shard& ShardOf(Ino ino) const { return *shards_[ShardIndexOf(ino)]; }
  static FileRecord* FindRecordLocked(Shard& shard, Ino ino);
  // Blocks on the shard cv until `ino`'s record is not busy; returns the re-found record
  // (nullptr if it vanished while waiting). `lk` is the shard lock, held on entry/exit.
  FileRecord* WaitNotBusyLocked(Shard& shard, std::unique_lock<std::mutex>& lk, Ino ino);
  std::shared_ptr<LibFsRecord> FindLibFs(LibFsId id) const;
  std::vector<ShardMutex*> ShardMutexesFor(const std::vector<size_t>& indices) const;
  std::vector<size_t> AllShardIndices() const;
  void ReleasePageToFree(PageNumber page);  // Table entry freed + free-list push (alloc_mu_).

  // ---- mapping / grants (controller_map.cc) ----
  DirentBlock* DirentOfLocked(const FileRecord& record) const;
  // Records the dirent as it stands into the checkpoint, and copies the metadata pages
  // unless the checkpoint holds a verified chain.
  Status TakeCheckpointLocked(FileRecord* record);
  uint64_t NextChainGeneration() {
    return chain_generations_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void GrantFilePagesLocked(LibFsRecord& libfs, const FileRecord& record, bool write);
  // Releases the MMU references this LibFS's mapping of `record` holds. `write` names the
  // mapping strength being torn down (the MMU refcounts per strength; see MmuSim).
  void RevokeFilePagesLocked(LibFsRecord& libfs, const FileRecord& record, bool write);
  // `ino`'s map epoch word, added on first use (every ino with a record is in range).
  std::atomic<uint64_t>& MapEpochOf(Ino ino);
  // Drops every read grant on `record` with no upcall: each reader leaves `readers` and
  // its `read_mapped` and loses its RO MMU references, then the map epoch moves once, so
  // each reader's next op finds its grant gone.
  void DropReadersLocked(FileRecord& record);
  // Tear down `libfs`'s write session on `ino`: clear writer/checkpoint, release MMU
  // refs, drop the wmap log slot, clear busy, reclaim transits if the session quiesced.
  // PRE: this thread set `busy` on the record; no locks held.
  void FinishWriteRelease(LibFsId libfs, Ino ino,
                          const std::shared_ptr<LibFsRecord>& me);
  // Reclaims writer `holder`'s grant on `ino` after its revoke callback overran the lease
  // deadline, or returned without releasing: verify-and-reconcile, then the writer
  // teardown.
  void ForceRelease(Ino ino, LibFsId holder);

  // ---- verification / safety (controller_verify.cc) ----
  // Verify `ino`'s write session and reconcile (or fix/quarantine/rollback on failure).
  // PRE: this thread set `busy` on the record; no locks held. The caller still owns the
  // writer teardown (FinishWriteRelease) afterwards.
  Status VerifyAndReconcile(Ino ino);
  // Points `request` at what the record's checkpoint contributes to verifying it: a
  // directory's data pages at the grant (I3, claims), a regular file's verified chain. The
  // caller's busy pin keeps both in place until the report is applied.
  void SetCheckpointInputsLocked(const FileRecord& record, VerifyRequest* request) const;
  // Apply a verification report under the shard of `ino` plus the shards of every child
  // the report names, acquired ascending: new children get records, claimed ones their
  // new parent and slot, and removed ones go into transit. A regular file's report leaves
  // its chain in the checkpoint, verified.
  Status ApplyReport(Ino ino, VerifyReport&& report);
  // ApplyReport's page and backend-slot half: adopts what the report's chain references and
  // frees what it no longer does.
  void ReconcilePagesLocked(FileRecord* record, LibFsRecord* writer,
                            const VerifyReport& report);
  void RollbackToCheckpointLocked(FileRecord* record);
  void QuarantineLocked(FileRecord* record, const Status& reason);
  // Self-locking subtree reclaim (leaf-first; waits out busy records). PRE: no locks
  // held and this thread does not itself hold `busy` on anything in the subtree.
  void ReclaimTree(Ino ino);
  void ReclaimOne(Ino ino);
  // Reclaims each ino `mover` listed whose word still says it is in transit by `mover`:
  // no directory named it before the mover's last write grant went, so it was deleted.
  void ReclaimTransits(const std::shared_ptr<LibFsRecord>& mover);

  // ---- tiering internals (digestion.cc) ----
  // Cold-file scan: files with no writer, no readers, not busy, with NVM data pages left
  // to migrate; coldest (smallest last_use_ns) first. Each shard is scanned under its
  // own lock, one at a time.
  std::vector<Ino> CollectDigestCandidates(size_t max_files);
  // Migrates up to `max_pages` data pages of `ino` to the backend (one fence for the
  // whole batch). Pins the record busy while copying OUTSIDE the shard lock, exactly
  // like verification — so a migration can never race a grant. Returns pages moved.
  size_t DigestFile(Ino ino, size_t max_pages);

  // ---- lifecycle internals (controller.cc) ----
  Status ScanTreeLocked(Ino ino, Ino parent, PageNumber dirent_page, size_t dirent_slot,
                        const DirentBlock& dirent);
  // The write-map log: one commit store each, found through the DRAM index below.
  void WmapLogAdd(Ino ino);
  void WmapLogRemove(Ino ino);
  // Rebuilds the DRAM index from the NVM log (Mount, and RunRecovery once it retired it).
  void LoadWmapIndex();
  // Runs an untrusted LibFS callback as one guarded upcall on callback_guard_. True iff it
  // completed within `timeout_ms`. Counts the upcall, the caller's wall time inside the
  // guard and a timeout here, on the caller's side: an abandoned callback may outlive
  // this controller. With guard_callbacks off it runs `fn` inline, returns true and counts
  // nothing.
  bool RunGuarded(uint64_t timeout_ms, std::function<void()> fn);
  uint64_t NowNs() { return clock_->NowNs(); }

  NvmPool& pool_;
  KernelConfig config_;
  Clock* clock_;
  KernelStats stats_;
  // Persistence accounting for every PersistSpan the controller opens (layer "kernel").
  obs::PersistStats persist_stats_{"kernel"};
  std::unique_ptr<IntegrityVerifier> verifier_;
  std::unique_ptr<DelegationPool> delegation_;
  std::unique_ptr<DigestionService> digestion_;  // Background tier migration thread.
  mutable KernelTierStats tier_stats_;
  uint64_t file_region_pages_ = 0;  // Denominator for NvmOccupancy (set at Mount).
  CallbackGuard callback_guard_;  // Deadline watchdog for untrusted LibFS callbacks.

  // Sharded ownership state. unique_ptr: Shard holds a condition_variable (immovable).
  // mutable: const read paths (VerifyEnv, inspection) still take shard locks.
  mutable std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;
  // Page ownership, sized to the pool; ino ownership, sized from max_inodes at the first
  // Mount. Mount zeroes them in place: a LibFS may read them during RunRecovery's Mount.
  OwnershipTable page_table_;
  OwnershipTable ino_table_;
  // One map epoch per ino, sized with ino_table_ and never cleared: an epoch only grows,
  // so a remount cannot bring a dropped reader's epoch back.
  ChunkedWords map_epochs_;

  // LibFS registry. registry_mu_ is never held across any other lock acquisition;
  // lookups copy the shared_ptr out.
  mutable std::mutex registry_mu_;
  std::unordered_map<LibFsId, std::shared_ptr<LibFsRecord>> libfses_;
  LibFsId next_libfs_id_ = 1;

  // One impounded file (§4.3): who corrupted it, the structured verdict, and the raw page
  // images at condemnation time. `sequence` orders entries for oldest-first eviction;
  // fifo_ is the eviction queue (stale entries — retrieved or re-quarantined — are
  // skipped lazily, keeping eviction O(1) amortized instead of an O(n) rescan per
  // insert).
  struct QuarantineEntry {
    LibFsId offender = kNoLibFs;
    Status error;
    std::vector<std::vector<char>> images;
    uint64_t sequence = 0;
  };
  mutable std::mutex quarantine_mu_;
  std::unordered_map<Ino, QuarantineEntry> quarantine_;
  std::deque<std::pair<uint64_t, Ino>> quarantine_fifo_;  // (sequence, ino), oldest first.
  uint64_t quarantine_sequence_ = 0;

  // FaultSim (not owned; null = off). revokes_in_flight_ counts revocations in flight
  // only while an injector is attached; kFaultKernelLeakOnContendedTransfer reads it
  // racily by design (the schedule explorer drives it single-threaded, where it is exact).
  FaultInjector* fault_injector_ = nullptr;
  std::atomic<int> revokes_in_flight_{0};

  // Free resources. Per-NUMA-node free page lists (per-CPU sharding happens in the
  // LibFS-side allocator cache; the kernel hands out batches).
  mutable std::mutex alloc_mu_;
  std::vector<std::vector<PageNumber>> free_pages_by_node_;
  Ino next_ino_ = 2;
  std::vector<Ino> free_inos_;

  // The write-map log's DRAM index, guarded by wmap_mu_: its free slots as a min-heap, so
  // a grant takes the lowest free slot, and each logged ino's slot + 1 (0 = not logged),
  // sized with ino_table_.
  std::mutex wmap_mu_;
  std::vector<uint32_t> wmap_free_;
  ChunkedWords wmap_slot_of_;

  // The last chain generation handed out (NextChainGeneration); never reset, so a
  // generation names one state of one record for the controller's lifetime.
  std::atomic<uint64_t> chain_generations_{0};

  bool mounted_ = false;
  bool needs_recovery_ = false;  // Mount/RunRecovery/Unmount are single-threaded.
};

}  // namespace trio

#endif  // SRC_KERNEL_CONTROLLER_H_
