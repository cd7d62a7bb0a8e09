// Emulated byte-addressable NVM.
//
// The paper's hardware (Intel Optane PM across 8 NUMA nodes) is replaced by a DRAM-backed
// pool that preserves exactly the properties the file systems rely on (§2.1): byte
// addressability, unprivileged load/store access, page-granular protection (enforced by
// MmuSim in src/kernel), and explicit persistence (clwb/sfence).
//
// Crash simulation: in kTracking mode the pool keeps a shadow copy representing what has
// actually reached persistence. Stores are volatile until Persist() (clwb) + Fence()
// (sfence) commit their cachelines to the shadow. SimulateCrash() discards everything that
// was not persisted — optionally persisting a random subset of unflushed lines to emulate
// spontaneous cache eviction, which real hardware is allowed to do at any moment. Crash-
// consistency property tests in tests/ are built on this.
//
// In kFast mode all of that compiles down to plain memcpy, for benchmarks.

#ifndef SRC_NVM_NVM_H_
#define SRC_NVM_NVM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/obs/stats.h"

namespace trio {

class FaultInjector;  // src/sim/fault_injector.h

inline constexpr size_t kPageSize = 4096;
inline constexpr size_t kCacheLineSize = 64;
inline constexpr uint64_t kInvalidPage = 0;  // Page 0 is the superblock; never handed out.

using PageNumber = uint64_t;

// Static description of the emulated machine's NVM topology (§6.1: eight NUMA nodes).
struct NumaTopology {
  int num_nodes = 1;
  // Delegation threads per node (§4.5; OdinFS default is twelve).
  int delegation_threads_per_node = 2;
};

enum class NvmMode {
  kFast,      // No persistence tracking; Write == memcpy. For benchmarks.
  kTracking,  // Shadow-copy persistence tracking. For crash-consistency tests.
};

// Modeled persistence costs. On DRAM emulation Persist/Fence are nearly free, so a bench
// cannot observe the ordering-point savings the real hardware would show. With a cost
// model armed, the pool charges what Optane would stall a core for, and nothing more:
//   - per-line write-back: each Persist() charges flush_ns_per_line per covered cacheline
//     (the clwb's writeback bandwidth);
//   - fence drain: each Fence() charges fence_ns (the sfence draining the write-pending
//     queue).
// A charge is added to the calling thread's stall debt, and the debt is paid by busy-
// waiting at that thread's next Fence() (an sfence is where a core waits for its earlier
// clwbs), or at once when it exceeds the cost of reading the stall clock, or by DrainStall()
// (PersistSpan::Disarm, before a delegation worker hands its persists to another thread's
// fence). The stall clock is the CPU's cycle counter (steady_clock where there is none),
// calibrated once when a pool first arms a non-zero model; a wait that overshoots its debt
// by up to one clock read credits the overshoot to the thread's next charge, so the spin
// pays for its own clock reads. The stores themselves are real DRAM stores, charged as
// they cost. Defaults are zero: no modeling, no overhead. Benches arm Optane-calibrated
// figures (~100ns fence); correctness tests leave it off.
struct NvmCostModel {
  uint32_t fence_ns = 0;
  uint32_t flush_ns_per_line = 0;

  bool enabled() const { return fence_ns != 0 || flush_ns_per_line != 0; }
};

// Statistics the cost models and benches read. Per-thread counters; cheap enough to keep
// on. Registered into obs::StatRegistry under layer "nvm" (summed across pools).
struct NvmStats : obs::StatGroup {
  obs::Counter bytes_written{this, "bytes_written"};
  obs::Counter bytes_read{this, "bytes_read"};
  obs::Counter lines_flushed{this, "lines_flushed"};
  obs::Counter fences{this, "fences"};

 private:
  obs::ScopedRegistration reg_{"nvm", *this};
};

class NvmPool {
 public:
  // `pages` includes page 0. The pool is divided into `topology.num_nodes` equal stripes;
  // page p lives on node NodeOfPage(p).
  NvmPool(size_t pages, NvmMode mode = NvmMode::kFast, NumaTopology topology = {});
  // File-backed pool: mmap(MAP_SHARED) over `backing_file` (created/extended as needed),
  // the emulated equivalent of a DAX-mapped NVM device — contents survive process exit.
  NvmPool(const std::string& backing_file, size_t pages, NvmMode mode = NvmMode::kFast,
          NumaTopology topology = {});
  ~NvmPool();
  NvmPool(const NvmPool&) = delete;
  NvmPool& operator=(const NvmPool&) = delete;

  bool file_backed() const { return file_backed_; }
  // File-backed pools: force dirty pages to the backing file (the msync analogue of a
  // deep flush). No-op for anonymous pools.
  void SyncBackingFile();

  size_t num_pages() const { return num_pages_; }
  NvmMode mode() const { return mode_; }
  // Arms (or, with a zero model, disarms) the cost model. Call it between measured ops,
  // not concurrently with them: the first non-zero model calibrates the stall clock.
  void set_cost_model(NvmCostModel model);
  const NvmCostModel& cost_model() const { return cost_model_; }
  const NumaTopology& topology() const { return topology_; }
  NvmStats& stats() { return stats_; }

  char* base() { return main_; }
  const char* base() const { return main_; }

  char* PageAddress(PageNumber page) {
    TRIO_DCHECK(page < num_pages_);
    return main_ + page * kPageSize;
  }
  const char* PageAddress(PageNumber page) const {
    TRIO_DCHECK(page < num_pages_);
    return main_ + page * kPageSize;
  }

  PageNumber PageOf(const void* ptr) const {
    const char* p = static_cast<const char*>(ptr);
    TRIO_DCHECK(p >= main_ && p < main_ + num_pages_ * kPageSize);
    return static_cast<PageNumber>((p - main_) / kPageSize);
  }

  bool Contains(const void* ptr) const {
    const char* p = static_cast<const char*>(ptr);
    return p >= main_ && p < main_ + num_pages_ * kPageSize;
  }

  // Which NUMA node a page lives on. Pages are striped in equal contiguous regions.
  int NodeOfPage(PageNumber page) const {
    return static_cast<int>(page / pages_per_node_);
  }
  int NodeOfAddress(const void* ptr) const { return NodeOfPage(PageOf(ptr)); }
  // [first, last) page range owned by a node.
  PageNumber NodeFirstPage(int node) const { return node * pages_per_node_; }
  PageNumber NodeLastPage(int node) const {
    return (node == topology_.num_nodes - 1) ? num_pages_ : (node + 1) * pages_per_node_;
  }
  // Bytes in one node's contiguous stripe (the unit delegation batches split at).
  size_t NodeStripeBytes() const { return pages_per_node_ * kPageSize; }

  // ---- Store / load primitives. All NVM mutation in the repo goes through these. ----

  void Write(void* dst, const void* src, size_t len) {
    std::memcpy(dst, src, len);
    stats_.bytes_written.fetch_add(len);
    if (mode_ == NvmMode::kTracking) {
      MarkDirty(dst, len);
    }
  }

  void Set(void* dst, int value, size_t len) {
    std::memset(dst, value, len);
    stats_.bytes_written.fetch_add(len);
    if (mode_ == NvmMode::kTracking) {
      MarkDirty(dst, len);
    }
  }

  void Read(void* dst, const void* src, size_t len) {
    std::memcpy(dst, src, len);
    stats_.bytes_read.fetch_add(len);
  }

  // 8-byte store used for the atomic commit fields (§4.4: hardware supports atomic NVM
  // updates; the ino field of a DirentBlock is committed with one of these).
  void Store64(uint64_t* dst, uint64_t value) {
    reinterpret_cast<std::atomic<uint64_t>*>(dst)->store(value, std::memory_order_release);
    stats_.bytes_written.fetch_add(8);
    if (mode_ == NvmMode::kTracking) {
      MarkDirty(dst, 8);
    }
  }

  uint64_t Load64(const uint64_t* src) const {
    return reinterpret_cast<const std::atomic<uint64_t>*>(src)->load(std::memory_order_acquire);
  }

  // clwb: request writeback of the cachelines covering [dst, dst+len).
  void Persist(const void* dst, size_t len);

  // sfence: all previously requested writebacks are durable after this returns.
  void Fence();

  // Pays the calling thread's outstanding modeled stall now rather than at its next
  // fence: for a thread that hands its persists to a fence another thread issues.
  void DrainStall();

  // Persist + Fence.
  void PersistNow(const void* dst, size_t len) {
    Persist(dst, len);
    Fence();
  }

  // Store64 + Persist + Fence: the atomic durable commit.
  void CommitStore64(uint64_t* dst, uint64_t value) {
    Store64(dst, value);
    PersistNow(dst, sizeof(uint64_t));
  }

  // ---- Fault injection (FaultSim). ----

  // Attaches an injector (not owned; null = off, one-branch overhead). Armable points:
  // kFaultNvmTornPersist (a multi-line Persist silently drops a non-empty subset of its
  // cachelines — they stay dirty, so only a crash before a later flush loses them) and
  // kFaultNvmBitFlip (a Fence commits one of its lines with a single bit flipped).
  // Components owning a pool reference (DelegationPool, KernelController) reach the
  // injector through here as well.
  void set_fault_injector(FaultInjector* injector) { fault_injector_ = injector; }
  FaultInjector* fault_injector() const { return fault_injector_; }

  // Targeted media corruption: flips one uniformly chosen bit of [addr, addr+len), in the
  // live image and (kTracking) the persisted image — a durable media fault that survives
  // crashes and recovery. Returns the byte offset of the flipped bit within the range.
  size_t InjectBitFlip(void* addr, size_t len, Rng& rng);

  // ---- Crash simulation (kTracking only). ----

  // Reverts main memory to the persisted image. Each line that was written but not yet
  // durable survives with probability `evict_probability` (cache eviction can persist data
  // behind the program's back; 0.0 = strictest loss, 1.0 = everything survives).
  void SimulateCrash(Rng* rng = nullptr, double evict_probability = 0.0);

  // Number of cachelines currently written-but-not-durable (diagnostics for tests).
  size_t UnpersistedLineCount();

  // ---- Fence recording (kTracking only): Chipmunk-style crash-point enumeration. ----
  // While recording, every Fence() appends the set of cachelines it committed (with their
  // contents). MaterializeAt(k, out) reconstructs the persisted image as it stood
  // immediately after the k-th recorded fence — i.e. the state a crash at that point
  // leaves behind. Crash-consistency tests remount from these images.
  void StartFenceRecording();
  void StopFenceRecording();
  size_t RecordedFenceCount();
  // `out` must hold num_pages() * kPageSize bytes.
  void MaterializeAt(size_t fence_index, char* out);

  // Overwrites this pool's contents with a raw image (e.g. one produced by
  // MaterializeAt) — the "reboot onto the persisted state" step of a crash test.
  void LoadImage(const char* image);

 private:
  void MarkDirty(const void* dst, size_t len);
  // Adds `cost` (stall-clock units) to the calling thread's debt and pays the debt once
  // it exceeds one clock read.
  void ChargeStall(int64_t cost);
  uint64_t LineOf(const void* ptr) const {
    return (static_cast<const char*>(ptr) - main_) / kCacheLineSize;
  }
  void Init();

  size_t num_pages_;
  NvmMode mode_;
  NumaTopology topology_;
  size_t pages_per_node_;
  char* main_ = nullptr;             // Anonymous heap buffer or MAP_SHARED mapping.
  bool file_backed_ = false;
  std::unique_ptr<char[]> heap_;     // Owns main_ when not file-backed.
  std::unique_ptr<char[]> shadow_;   // Persisted image (kTracking only).
  NvmStats stats_;
  NvmCostModel cost_model_;
  // cost_model_ in stall-clock units of 1/256 tick, and the cost of one clock read.
  int64_t fence_stall_ = 0;
  int64_t line_stall_ = 0;
  int64_t clock_read_stall_ = 0;
  FaultInjector* fault_injector_ = nullptr;

  std::mutex track_mutex_;
  std::unordered_set<uint64_t> dirty_lines_;    // Stored, clwb not yet issued.
  std::unordered_set<uint64_t> pending_lines_;  // clwb issued, fence not yet reached.

  struct FenceDelta {
    std::vector<std::pair<uint64_t, std::array<char, kCacheLineSize>>> lines;
  };
  bool recording_ = false;
  std::vector<char> recording_base_;       // Shadow image when recording started.
  std::vector<FenceDelta> fence_deltas_;   // One delta per Fence() while recording.
};

}  // namespace trio

#endif  // SRC_NVM_NVM_H_
