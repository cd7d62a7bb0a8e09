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
// (layer, name). The hot path is one relaxed atomic increment.

#ifndef SRC_OBS_STATS_H_
#define SRC_OBS_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace trio {
namespace obs {

class StatGroup;

// One atomic word with relaxed-by-default operations. `Counter name{this, "name"}` inside
// a StatGroup declares it as that group's stat "name"; a default-constructed Counter
// belongs to no group.
class Counter {
 public:
  Counter() = default;
  Counter(StatGroup* group, const char* name);
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  uint64_t load(std::memory_order mo = std::memory_order_relaxed) const {
    return value_.load(mo);
  }
  void store(uint64_t v, std::memory_order mo = std::memory_order_relaxed) {
    value_.store(v, mo);
  }
  uint64_t fetch_add(uint64_t d, std::memory_order mo = std::memory_order_relaxed) {
    return value_.fetch_add(d, mo);
  }
  uint64_t fetch_sub(uint64_t d, std::memory_order mo = std::memory_order_relaxed) {
    return value_.fetch_sub(d, mo);
  }
  Counter& operator=(uint64_t v) {
    store(v);
    return *this;
  }

 private:
  std::atomic<uint64_t> value_{0};
};
static_assert(sizeof(Counter) == 8, "a Counter is one atomic word");

// Log-binned latency histogram: Record(ns) lands in bin floor(log2(ns)) (bin 0 for 0–1ns).
// 64 bins cover the full uint64 range; recording is two relaxed fetch_adds.
class LatencyHistogram {
 public:
  static constexpr size_t kBins = 64;

  LatencyHistogram() = default;
  LatencyHistogram(StatGroup* group, const char* name);  // As for Counter.
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(uint64_t ns) {
    bins_[BinOf(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  static size_t BinOf(uint64_t ns) {
    return ns == 0 ? 0 : 63 - static_cast<size_t>(__builtin_clzll(ns));
  }
  // Inclusive upper bound of a bin (2^(bin+1) - 1).
  static uint64_t BinUpperNs(size_t bin) {
    return bin >= 63 ? ~0ull : (2ull << bin) - 1;
  }

  uint64_t BinCount(size_t bin) const {
    return bins_[bin].load(std::memory_order_relaxed);
  }
  uint64_t TotalCount() const {
    uint64_t total = 0;
    for (const auto& bin : bins_) {
      total += bin.load(std::memory_order_relaxed);
    }
    return total;
  }
  uint64_t SumNs() const { return sum_ns_.load(std::memory_order_relaxed); }

  void Reset() {
    for (auto& bin : bins_) {
      bin.store(0, std::memory_order_relaxed);
    }
    sum_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, kBins> bins_{};
  std::atomic<uint64_t> sum_ns_{0};
};

// One named stat inside a registered group: exactly one of counter / histogram is set.
struct StatRef {
  const char* name = "";
  Counter* counter = nullptr;
  LatencyHistogram* histogram = nullptr;

  StatRef(const char* n, Counter* c) : name(n), counter(c) {}
  StatRef(const char* n, LatencyHistogram* h) : name(n), histogram(h) {}
};

// Base of every stats struct: the stats its members declare, in declaration order.
class StatGroup {
 public:
  StatGroup() = default;
  StatGroup(const StatGroup&) = delete;
  StatGroup& operator=(const StatGroup&) = delete;

  // Zeroes every counter and histogram of the group.
  void Reset();

  const std::vector<StatRef>& stats() const { return stats_; }

 private:
  friend class Counter;
  friend class LatencyHistogram;
  std::vector<StatRef> stats_;
};

inline Counter::Counter(StatGroup* group, const char* name) {
  group->stats_.emplace_back(name, this);
}

inline LatencyHistogram::LatencyHistogram(StatGroup* group, const char* name) {
  group->stats_.emplace_back(name, this);
}

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
