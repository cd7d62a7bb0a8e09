// Table 5: LevelDB (db_bench) over the evaluated file systems (§6.6) — reproduced with
// minildb, the from-scratch LSM store in src/minildb, running the same six workloads with
// 100-byte values. Functional wall-clock measurements on the emulated NVM pool; the
// paper's ordering (ArckFS > WineFS/NOVA > ext4; ArckFS-nd ahead on small-file workloads,
// behind on fill100K) is the reproduction target.
//
// Every system's pool runs with the NVM cost model armed (100 ns per fence, 5 ns per
// flushed cache line, the e2ebench figures): on DRAM emulation fences are otherwise free,
// and the ordering points the file systems differ in would cost nothing. Kernel baselines
// also pay a modeled 300 ns user->kernel crossing per call. Each cell runs 5 times,
// systems interleaved within a repetition so host drift hits them alike, with the
// measuring thread pinned to one CPU (see CellPin). The table prints medians; the JSON
// written to argv[1] (default BENCH_table5.json) holds median, min and max per cell plus
// the run conditions, and scripts/check_paper_orderings.py gates it.
//
// Default 8000 ops per workload; set TRIO_DBBENCH_OPS=1000000 to match the paper's
// object count. fill100K runs num/1000 ops, as db_bench does, but at least 400.

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/baselines/fs_factory.h"
#include "src/minildb/db_bench.h"

namespace trio {
namespace bench {
namespace {

constexpr NvmCostModel kCostModel{100, 5};
constexpr uint64_t kTrapCostNs = 300;
constexpr uint64_t kReps = 5;
constexpr uint64_t kPoolHeadroomBytes = 64 << 20;

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::strtoull(env, nullptr, 10) : fallback;
}

// Sizes a cell's pool from the bytes its workload stores: every entry it puts (the
// prefill too), twice over because a compaction writes its whole output before it unlinks
// its inputs, plus kPoolHeadroomBytes for the WAL, the L0 tables and file-system metadata.
// A quick cell then zeroes tens of MiB, not a fixed 256 MiB, and a paper-count cell fits.
size_t PoolPages(DbBenchWorkload workload, uint64_t ops) {
  constexpr uint64_t kKeyAndHeaderBytes = 16 + 8;
  const uint64_t value_bytes = workload == DbBenchWorkload::kFill100K ? 100 * 1024 : 100;
  const bool prefilled = workload == DbBenchWorkload::kReadRandom ||
                         workload == DbBenchWorkload::kDeleteRandom;
  const uint64_t stored = ops * (kKeyAndHeaderBytes + value_bytes) +
                          (prefilled ? ops * (kKeyAndHeaderBytes + 100) : 0);
  return (2 * stored + kPoolHeadroomBytes + kPageSize - 1) / kPageSize;
}

// Pins the calling thread to the CPU it is on until destroyed. A cell runs about 20 ms,
// and a migration between vCPUs inside it spread single runs of one cell up to 2x on a
// shared 4-vCPU host. Taken after the file system is built, so its background threads
// keep the process's mask, as e2ebench leaves them.
class CellPin {
 public:
  CellPin() {
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;  // Unpinned: the cell still runs, only noisier.
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~CellPin() {
    if (pinned_) {
      (void)sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }
  CellPin(const CellPin&) = delete;
  CellPin& operator=(const CellPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

struct Cell {
  std::vector<double> runs;  // ops/ms, one per repetition.

  double Median() const {
    std::vector<double> sorted = runs;
    std::sort(sorted.begin(), sorted.end());
    const size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2;
  }
  double Min() const { return *std::min_element(runs.begin(), runs.end()); }
  double Max() const { return *std::max_element(runs.begin(), runs.end()); }
};

}  // namespace
}  // namespace bench
}  // namespace trio

int main(int argc, char** argv) {
  using namespace trio;
  using namespace trio::bench;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_table5.json";
  const uint64_t ops = EnvOr("TRIO_DBBENCH_OPS", 8000);
  const uint64_t fill100k_ops = std::max<uint64_t>(ops / 1000, 400);
  std::printf("Table 5 reproduction: minildb db_bench, 1 thread, 100B values, %llu ops, "
              "median of %llu runs (§6.6) [measured; NVM cost model %u ns/fence, "
              "%u ns/line]\n",
              static_cast<unsigned long long>(ops), static_cast<unsigned long long>(kReps),
              kCostModel.fence_ns, kCostModel.flush_ns_per_line);

  const std::vector<DbBenchWorkload> workloads = {
      DbBenchWorkload::kFill100K,   DbBenchWorkload::kFillSeq,
      DbBenchWorkload::kFillSync,   DbBenchWorkload::kFillRandom,
      DbBenchWorkload::kReadRandom, DbBenchWorkload::kDeleteRandom,
  };
  const std::vector<std::string> systems = {"ext4", "NOVA", "WineFS", "ArckFS-nd"};

  std::map<std::string, std::map<std::string, Cell>> cells;  // workload -> system.
  for (uint64_t rep = 0; rep < kReps; ++rep) {
    for (DbBenchWorkload workload : workloads) {
      const uint64_t n = workload == DbBenchWorkload::kFill100K ? fill100k_ops : ops;
      for (const std::string& fs_name : systems) {
        FsFactoryOptions options;
        options.pool_pages = PoolPages(workload, n);
        options.vfs_trap_cost_ns = kTrapCostNs;
        FsInstance instance = MakeFs(fs_name, options);
        instance.pool->set_cost_model(kCostModel);
        Result<DbBenchResult> result = [&] {
          CellPin pin;
          return RunDbBench(*instance.fs, workload, n);
        }();
        TRIO_CHECK(result.ok()) << fs_name << "/" << DbBenchName(workload) << ": "
                                << result.status().ToString();
        instance.pool->set_cost_model({});
        cells[DbBenchName(workload)][fs_name].runs.push_back(result->ops_per_ms());
      }
    }
  }

  Table table("Table 5: throughput (ops/ms, median)");
  std::vector<std::string> header{"workload"};
  header.insert(header.end(), systems.begin(), systems.end());
  table.SetHeader(header);
  for (DbBenchWorkload workload : workloads) {
    std::vector<std::string> row{DbBenchName(workload)};
    for (const std::string& fs_name : systems) {
      row.push_back(Fmt(cells[DbBenchName(workload)][fs_name].Median(), 1));
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf("\nExpected shape (paper): ArckFS beats WineFS by up to 3.1x and ext4 by "
              "1.5x-17x across the workloads.\n");

  std::ofstream out(out_path);
  out << "{\n  \"conditions\": {\"ops\": " << ops << ", \"fill100K_ops\": " << fill100k_ops
      << ", \"reps\": " << kReps << ", \"value_bytes\": 100, \"threads\": 1"
      << ", \"pool_bytes\": \"2 x stored + " << (kPoolHeadroomBytes >> 20)
      << " MiB per cell\", \"nvm_cost_model\": {\"fence_ns\": "
      << kCostModel.fence_ns << ", \"flush_ns_per_line\": " << kCostModel.flush_ns_per_line
      << "}, \"vfs_trap_cost_ns\": " << kTrapCostNs << ", \"measuring_thread\": \"pinned\""
      << ", \"nproc\": " << std::thread::hardware_concurrency() << "},\n  \"results\": {";
  for (size_t w = 0; w < workloads.size(); ++w) {
    const std::string name = DbBenchName(workloads[w]);
    out << (w == 0 ? "" : ",") << "\n    \"" << name << "\": {";
    for (size_t s = 0; s < systems.size(); ++s) {
      const Cell& cell = cells[name][systems[s]];
      out << (s == 0 ? "" : ",") << "\n      \"" << systems[s] << "\": {\"median\": "
          << Fmt(cell.Median(), 1) << ", \"min\": " << Fmt(cell.Min(), 1)
          << ", \"max\": " << Fmt(cell.Max(), 1) << ", \"runs\": [";
      for (size_t r = 0; r < cell.runs.size(); ++r) {
        out << (r == 0 ? "" : ", ") << Fmt(cell.runs[r], 1);
      }
      out << "]}";
    }
    out << "\n    }";
  }
  out << "\n  }\n}\n";
  TRIO_CHECK(out.good()) << "cannot write " << out_path;
  std::printf("wrote %s\n", out_path.c_str());
  trio::bench::EmitLayerStats("bench_table5");
  return 0;
}
