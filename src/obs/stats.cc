#include "src/obs/stats.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <new>

#include "src/common/logging.h"

namespace trio {
namespace obs {

StatRegistry& StatRegistry::Global() {
  static StatRegistry* registry = new StatRegistry();  // Leaked: outlives all statics.
  return *registry;
}

namespace internal {

// One thread's cells of one group, as the group's slab list and that thread's table link
// them. The cells follow this header, which fills one cache line.
struct alignas(64) Slab {
  StatGroup* group;  // Null once the group is destroyed (the owning thread frees it).
  const void* owner;  // The owning thread's table; null once that thread has exited.
  Slab* next;         // The group's next slab; fixed before the slab is published.

  std::atomic<uint64_t>* Cells() { return reinterpret_cast<std::atomic<uint64_t>*>(this + 1); }
};

}  // namespace internal

namespace {

using internal::Slab;
using internal::SlabRef;
using internal::ThreadSlabs;

// Group slots and slab ownership. Taken only off the hot path: a thread's first bump of
// a group, thread exit, and group construction and destruction.
struct SlabBook {
  std::mutex mu;
  std::vector<uint32_t> free_slots;
  uint32_t next_slot = 0;
  uint64_t next_uid = 1;
};

SlabBook& Book() {
  static SlabBook* book = new SlabBook();  // Leaked: thread-exit hooks outlive statics.
  return *book;
}

Slab* NewSlab(StatGroup* group, const void* owner, uint32_t cells) {
  void* memory = ::operator new(sizeof(Slab) + cells * sizeof(uint64_t),
                                std::align_val_t{alignof(Slab)});
  Slab* slab = new (memory) Slab{group, owner, nullptr};
  for (uint32_t i = 0; i < cells; ++i) {
    new (&slab->Cells()[i]) std::atomic<uint64_t>(0);
  }
  return slab;
}

void FreeSlab(Slab* slab) { ::operator delete(slab, std::align_val_t{alignof(Slab)}); }

Slab* SlabOf(std::atomic<uint64_t>* cells) { return reinterpret_cast<Slab*>(cells) - 1; }

// Hands the exiting thread's slabs on: a live group keeps the slab (and its counts) for
// the next thread that bumps it; a destroyed group's slab is freed here.
struct ThreadExit {
  bool armed = false;
  ~ThreadExit() {
    ThreadSlabs& table = internal::t_slabs;
    {
      std::lock_guard<std::mutex> guard(Book().mu);
      for (uint32_t i = 0; i < table.size; ++i) {
        if (table.refs[i].cells == nullptr) {
          continue;
        }
        Slab* slab = SlabOf(table.refs[i].cells);
        if (slab->group == nullptr) {
          FreeSlab(slab);
        } else {
          slab->owner = nullptr;
        }
      }
    }
    delete[] table.refs;
    table = ThreadSlabs{nullptr, 0, true};
  }
};
thread_local ThreadExit t_exit;

}  // namespace

StatGroup::StatGroup() {
  SlabBook& book = Book();
  std::lock_guard<std::mutex> guard(book.mu);
  if (book.free_slots.empty()) {
    slot_ = book.next_slot++;
  } else {
    slot_ = book.free_slots.back();
    book.free_slots.pop_back();
  }
  uid_ = book.next_uid++;
}

StatGroup::~StatGroup() {
  SlabBook& book = Book();
  std::lock_guard<std::mutex> guard(book.mu);
  Slab* slab = slabs_.load(std::memory_order_relaxed);
  while (slab != nullptr) {
    Slab* next = slab->next;
    if (slab->owner == nullptr) {
      FreeSlab(slab);
    } else {
      slab->group = nullptr;  // Its thread still lists it; the thread frees it.
    }
    slab = next;
  }
  book.free_slots.push_back(slot_);
}

uint32_t StatGroup::AddCells(uint32_t count) {
  TRIO_CHECK(slabs_.load(std::memory_order_relaxed) == nullptr)
      << "a stat was declared after its group was first bumped";
  const uint32_t first = cells_;
  cells_ += count;
  return first;
}

std::atomic<uint64_t>* StatGroup::Attach() {
  ThreadSlabs& table = internal::t_slabs;
  std::lock_guard<std::mutex> guard(Book().mu);
  const void* owner = table.exited ? nullptr : &table;
  Slab* slab = nullptr;
  for (Slab* s = slabs_.load(std::memory_order_relaxed); s != nullptr; s = s->next) {
    if (s->owner == nullptr) {
      slab = s;  // Left by an exited thread: its counts stay, ours add to them.
      break;
    }
  }
  if (slab == nullptr) {
    slab = NewSlab(this, owner, cells_);
    slab->next = slabs_.load(std::memory_order_relaxed);
    slabs_.store(slab, std::memory_order_release);
  }
  slab->owner = owner;
  if (table.exited) {
    // No table to cache it in; the next bump looks it up again. A live thread may adopt
    // the same slab meanwhile, so a bump from a thread-exit destructor can be lost.
    return slab->Cells();
  }
  t_exit.armed = true;  // Registers the thread-exit hook.
  if (slot_ >= table.size) {
    const uint32_t size = std::max<uint32_t>(slot_ + 1, table.size * 2);
    SlabRef* refs = new SlabRef[size]();
    std::copy(table.refs, table.refs + table.size, refs);
    delete[] table.refs;
    table.refs = refs;
    table.size = size;
  }
  SlabRef& ref = table.refs[slot_];
  if (ref.cells != nullptr) {
    FreeSlab(SlabOf(ref.cells));  // The slot's previous group is gone: it orphaned this.
  }
  ref = SlabRef{uid_, slab->Cells()};
  return ref.cells;
}

uint64_t StatGroup::Sum(uint32_t index) const {
  uint64_t total = 0;
  for (Slab* slab = slabs_.load(std::memory_order_acquire); slab != nullptr;
       slab = slab->next) {
    total += slab->Cells()[index].load(std::memory_order_relaxed);
  }
  return total;
}

void StatGroup::Zero(uint32_t index, uint32_t count) {
  for (Slab* slab = slabs_.load(std::memory_order_acquire); slab != nullptr;
       slab = slab->next) {
    for (uint32_t i = index; i < index + count; ++i) {
      slab->Cells()[i].store(0, std::memory_order_relaxed);
    }
  }
}

void StatGroup::Reset() { Zero(0, cells_); }

Counter::Counter() : group_(new StatGroup()), owns_group_(true) {
  index_ = group_->AddCells(1);
}

Counter::Counter(StatGroup* group, const char* name) : group_(group), owns_group_(false) {
  index_ = group_->AddCells(1);
  group_->stats_.emplace_back(name, this);
}

Counter::~Counter() {
  if (owns_group_) {
    delete group_;
  }
}

LatencyHistogram::LatencyHistogram() : group_(new StatGroup()), owns_group_(true) {
  index_ = group_->AddCells(kBins + 1);
}

LatencyHistogram::LatencyHistogram(StatGroup* group, const char* name)
    : group_(group), owns_group_(false) {
  index_ = group_->AddCells(kBins + 1);
  group_->stats_.emplace_back(name, this);
}

LatencyHistogram::~LatencyHistogram() {
  if (owns_group_) {
    delete group_;
  }
}

uint64_t StatRegistry::Register(std::string layer, std::vector<StatRef> stats) {
  std::lock_guard<std::mutex> guard(mutex_);
  Group group;
  group.id = next_id_++;
  group.layer = std::move(layer);
  group.stats = std::move(stats);
  groups_.push_back(std::move(group));
  return groups_.back().id;
}

void StatRegistry::Unregister(uint64_t id) {
  std::lock_guard<std::mutex> guard(mutex_);
  groups_.erase(std::remove_if(groups_.begin(), groups_.end(),
                               [id](const Group& g) { return g.id == id; }),
                groups_.end());
}

uint64_t StatRegistry::CounterValue(const std::string& layer,
                                    const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  uint64_t total = 0;
  for (const Group& group : groups_) {
    if (group.layer != layer) {
      continue;
    }
    for (const StatRef& stat : group.stats) {
      if (stat.counter != nullptr && name == stat.name) {
        total += stat.counter->load();
      }
    }
  }
  return total;
}

std::vector<std::string> StatRegistry::Layers() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<std::string> layers;
  for (const Group& group : groups_) {
    if (std::find(layers.begin(), layers.end(), group.layer) == layers.end()) {
      layers.push_back(group.layer);
    }
  }
  std::sort(layers.begin(), layers.end());
  return layers;
}

std::string StatRegistry::ToJson() const {
  // Aggregate under the lock, render after: counters sum; histograms merge bin-wise.
  struct HistAgg {
    uint64_t sum_ns = 0;
    std::array<uint64_t, LatencyHistogram::kBins> bins{};
  };
  std::map<std::string, std::map<std::string, uint64_t>> counters;
  std::map<std::string, std::map<std::string, HistAgg>> histograms;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    for (const Group& group : groups_) {
      for (const StatRef& stat : group.stats) {
        if (stat.counter != nullptr) {
          counters[group.layer][stat.name] += stat.counter->load();
        } else if (stat.histogram != nullptr) {
          HistAgg& agg = histograms[group.layer][stat.name];
          agg.sum_ns += stat.histogram->SumNs();
          for (size_t bin = 0; bin < LatencyHistogram::kBins; ++bin) {
            agg.bins[bin] += stat.histogram->BinCount(bin);
          }
        }
      }
    }
  }

  std::string out = "{";
  bool first_layer = true;
  // Layers that have only histograms (or only counters) still appear once.
  std::map<std::string, bool> layers;
  for (const auto& [layer, _] : counters) {
    layers[layer] = true;
  }
  for (const auto& [layer, _] : histograms) {
    layers[layer] = true;
  }
  char buf[64];
  for (const auto& [layer, _] : layers) {
    if (!first_layer) {
      out += ",";
    }
    first_layer = false;
    out += "\"" + layer + "\":{";
    bool first_stat = true;
    auto counter_it = counters.find(layer);
    if (counter_it != counters.end()) {
      for (const auto& [name, value] : counter_it->second) {
        if (!first_stat) {
          out += ",";
        }
        first_stat = false;
        std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(value));
        out += "\"" + name + "\":" + buf;
      }
    }
    auto hist_it = histograms.find(layer);
    if (hist_it != histograms.end()) {
      for (const auto& [name, agg] : hist_it->second) {
        if (!first_stat) {
          out += ",";
        }
        first_stat = false;
        uint64_t count = 0;
        for (uint64_t bin : agg.bins) {
          count += bin;
        }
        out += "\"" + name + "\":{";
        std::snprintf(buf, sizeof(buf), "\"count\":%llu,\"sum_ns\":%llu,\"bins\":{",
                      static_cast<unsigned long long>(count),
                      static_cast<unsigned long long>(agg.sum_ns));
        out += buf;
        bool first_bin = true;
        for (size_t bin = 0; bin < LatencyHistogram::kBins; ++bin) {
          if (agg.bins[bin] == 0) {
            continue;
          }
          if (!first_bin) {
            out += ",";
          }
          first_bin = false;
          std::snprintf(buf, sizeof(buf), "\"<=%llu\":%llu",
                        static_cast<unsigned long long>(LatencyHistogram::BinUpperNs(bin)),
                        static_cast<unsigned long long>(agg.bins[bin]));
          out += buf;
        }
        out += "}}";
      }
    }
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace obs
}  // namespace trio
