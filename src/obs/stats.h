// The unified metrics registry (the "op spine" observability layer). Every layer of the
// stack — NvmPool, the kernel controller, the delegation pool, each LibFS — owns a stats
// struct whose fields are obs::Counter / obs::LatencyHistogram members registered into
// the process-global StatRegistry under a layer name. The registry serializes to JSON so
// every bench binary can emit a per-layer breakdown (fences, kernel crossings, bytes
// persisted) next to its throughput numbers, and tests can assert on per-layer values
// without reaching into component internals.
//
// A stats struct derives from StatGroup and names each stat once, where it declares it:
//
//   struct KernelStats : obs::StatGroup {
//     obs::Counter maps{this, "maps"};
//     ...
//    private:
//     obs::ScopedRegistration reg_{"kernel", *this};  // Last member.
//   };
//
// Registration is the last member, so it is constructed after every stat it lists and
// destroyed before any of them. Multiple instances of a layer (two ArckFs, eight
// delegation nodes) each register their own group; reads and the JSON snapshot sum per
// (layer, name).
//
// Storage is per thread. Each thread that bumps a group gets its own slab of the group's
// cells (one per Counter, kBins + 1 per LatencyHistogram, in declaration order, so the
// stats an op bumps sit on as few lines as the group's declaration spans). A bump is a
// relaxed load and store of the thread's own cell: no lock-prefixed instruction, no line
// shared with another thread. Reads, registry snapshots and Reset sum or zero across
// every slab of the group. A slab outlives its thread: its counts stay in the sums, and
// the next thread to bump the group reuses it.

#ifndef SRC_OBS_STATS_H_
#define SRC_OBS_STATS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace trio {
namespace obs {

class Counter;
class LatencyHistogram;
class StatGroup;

// One named stat inside a registered group: exactly one of counter / histogram is set.
struct StatRef {
  const char* name = "";
  Counter* counter = nullptr;
  LatencyHistogram* histogram = nullptr;

  StatRef(const char* n, Counter* c) : name(n), counter(c) {}
  StatRef(const char* n, LatencyHistogram* h) : name(n), histogram(h) {}
};

namespace internal {

struct Slab;  // One thread's cells of one group (stats.cc).

// A thread's table of its slabs, indexed by group slot. A slot is reused once its group
// is destroyed, so an entry also carries the group's uid, which never is.
struct SlabRef {
  uint64_t uid;
  std::atomic<uint64_t>* cells;
};
struct ThreadSlabs {
  SlabRef* refs;
  uint32_t size;
  bool exited;  // The thread's table is gone (bumps from later thread-exit destructors).
};
inline constinit thread_local ThreadSlabs t_slabs{nullptr, 0, false};

}  // namespace internal

// Base of every stats struct: the stats its members declare, in declaration order, and
// every thread's slab of their cells.
class StatGroup {
 public:
  StatGroup();
  ~StatGroup();
  StatGroup(const StatGroup&) = delete;
  StatGroup& operator=(const StatGroup&) = delete;

  // Zeroes every counter and histogram of the group in every slab. A bump racing the
  // Reset on another thread may survive it.
  void Reset();

  const std::vector<StatRef>& stats() const { return stats_; }

 private:
  friend class Counter;
  friend class LatencyHistogram;

  // Reserves `count` cells for a stat being declared; returns the first.
  uint32_t AddCells(uint32_t count);

  // The calling thread's cells, attached on its first bump of this group.
  std::atomic<uint64_t>* LocalCells() {
    const internal::ThreadSlabs& table = internal::t_slabs;
    if (__builtin_expect(slot_ < table.size, 1) && table.refs[slot_].uid == uid_) {
      return table.refs[slot_].cells;
    }
    return Attach();
  }
  std::atomic<uint64_t>* Attach();

  // Cell `index` summed over every slab.
  uint64_t Sum(uint32_t index) const;
  // Zeroes cells [index, index + count) in every slab.
  void Zero(uint32_t index, uint32_t count);

  std::vector<StatRef> stats_;
  uint32_t cells_ = 0;
  uint32_t slot_;
  uint64_t uid_;
  std::atomic<internal::Slab*> slabs_{nullptr};
};

// A per-thread sharded count. `Counter name{this, "name"}` inside a StatGroup declares
// it as that group's stat "name"; a default-constructed Counter belongs to no group and
// keeps its own one-cell group.
class Counter {
 public:
  Counter();
  Counter(StatGroup* group, const char* name);
  ~Counter();
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  // The sum over every thread's cell.
  uint64_t load() const { return group_->Sum(index_); }
  void fetch_add(uint64_t d) {
    std::atomic<uint64_t>& cell = group_->LocalCells()[index_];
    cell.store(cell.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
  // The sum wraps modulo 2^64, so a cell may go "negative" while the sum is exact.
  void fetch_sub(uint64_t d) { fetch_add(0 - d); }
  // Sets the sum: zeroes every thread's cell, then adds `v` in the calling thread's.
  void store(uint64_t v) {
    group_->Zero(index_, 1);
    fetch_add(v);
  }
  Counter& operator=(uint64_t v) {
    store(v);
    return *this;
  }

 private:
  StatGroup* group_;
  uint32_t index_;
  bool owns_group_;
};

// Log-binned latency histogram: Record(ns) lands in bin floor(log2(ns)) (bin 0 for 0–1ns).
// 64 bins cover the full uint64 range; recording bumps the bin's cell and the sum's.
class LatencyHistogram {
 public:
  static constexpr size_t kBins = 64;

  LatencyHistogram();
  LatencyHistogram(StatGroup* group, const char* name);  // As for Counter.
  ~LatencyHistogram();
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(uint64_t ns) {
    std::atomic<uint64_t>* cells = group_->LocalCells() + index_;
    std::atomic<uint64_t>& bin = cells[BinOf(ns)];
    bin.store(bin.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    std::atomic<uint64_t>& sum = cells[kBins];
    sum.store(sum.load(std::memory_order_relaxed) + ns, std::memory_order_relaxed);
  }

  static size_t BinOf(uint64_t ns) {
    return ns == 0 ? 0 : 63 - static_cast<size_t>(__builtin_clzll(ns));
  }
  // Inclusive upper bound of a bin (2^(bin+1) - 1).
  static uint64_t BinUpperNs(size_t bin) {
    return bin >= 63 ? ~0ull : (2ull << bin) - 1;
  }

  uint64_t BinCount(size_t bin) const { return group_->Sum(index_ + bin); }
  uint64_t TotalCount() const {
    uint64_t total = 0;
    for (size_t bin = 0; bin < kBins; ++bin) {
      total += BinCount(bin);
    }
    return total;
  }
  uint64_t SumNs() const { return group_->Sum(index_ + kBins); }

  void Reset() { group_->Zero(index_, kBins + 1); }

 private:
  StatGroup* group_;
  uint32_t index_;
  bool owns_group_;
};

// Process-global registry. Components register a (layer, stats) group at construction and
// unregister at destruction (via ScopedRegistration); snapshots sum per (layer, name).
class StatRegistry {
 public:
  static StatRegistry& Global();

  uint64_t Register(std::string layer, std::vector<StatRef> stats);
  void Unregister(uint64_t id);

  // Sum of counter `name` across every live group of `layer` (0 if absent).
  uint64_t CounterValue(const std::string& layer, const std::string& name) const;
  std::vector<std::string> Layers() const;

  // {"layer":{"counter":N,...,"hist":{"count":N,"sum_ns":S,"bins":{"<=UPPER":N}}},...}
  // Counters and histogram bins sum across instances of the same layer.
  std::string ToJson() const;

 private:
  struct Group {
    uint64_t id = 0;
    std::string layer;
    std::vector<StatRef> stats;
  };

  mutable std::mutex mutex_;
  std::vector<Group> groups_;
  uint64_t next_id_ = 1;
};

// RAII registration handle owned by each stats struct.
class ScopedRegistration {
 public:
  ScopedRegistration(std::string layer, std::vector<StatRef> stats)
      : id_(StatRegistry::Global().Register(std::move(layer), std::move(stats))) {}
  ScopedRegistration(std::string layer, const StatGroup& group)
      : ScopedRegistration(std::move(layer), group.stats()) {}
  ~ScopedRegistration() { StatRegistry::Global().Unregister(id_); }
  ScopedRegistration(const ScopedRegistration&) = delete;
  ScopedRegistration& operator=(const ScopedRegistration&) = delete;

 private:
  const uint64_t id_;
};

// Per-layer persistence counters fed by PersistSpan (src/obs/persist_span.h): every layer
// that issues persists owns one of these, so fence accounting is attributable per layer.
struct PersistStats : StatGroup {
  Counter persists{this, "persists"};                // Persist() calls.
  Counter bytes_persisted{this, "bytes_persisted"};  // Bytes covered by those calls.
  Counter fences{this, "fences"};                    // Fences actually issued to the pool.
  // Fence() calls skipped because nothing was pending.
  Counter coalesced_fences{this, "coalesced_fences"};
  // 8-byte atomic durable commits (CommitStore64).
  Counter commit_stores{this, "commit_stores"};
  // Span fences absorbed into a group-commit epoch.
  Counter deferred_fences{this, "deferred_fences"};
  // Epoch Close() fences (each covering >=1 deferral).
  Counter epoch_fences{this, "epoch_fences"};

  explicit PersistStats(std::string layer) : reg_(std::move(layer), *this) {}

 private:
  ScopedRegistration reg_;
};

}  // namespace obs
}  // namespace trio

#endif  // SRC_OBS_STATS_H_
