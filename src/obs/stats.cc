#include "src/obs/stats.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace trio {
namespace obs {

StatRegistry& StatRegistry::Global() {
  static StatRegistry* registry = new StatRegistry();  // Leaked: outlives all statics.
  return *registry;
}

void StatGroup::Reset() {
  for (const StatRef& stat : stats_) {
    if (stat.counter != nullptr) {
      stat.counter->store(0);
    } else {
      stat.histogram->Reset();
    }
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
