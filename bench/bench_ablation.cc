// Ablation microbenchmarks (google-benchmark) for the design choices DESIGN.md calls
// out: the BRAVO-biased readers-writer lock vs the plain counter lock (§4.5), the
// per-directory hash table vs a radix-style index for name lookup (§6.2), the per-file
// radix tree, the MPMC delegation ring, the delegation size threshold (§4.5), multiple
// logging tails vs a single tail (§4.2), the kernel's per-page leasing cost, and the
// end-to-end create/write hot paths.

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/baselines/fs_factory.h"
#include "src/common/mpmc_ring.h"
#include "src/common/rwlock.h"
#include "src/core/core_state.h"
#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"
#include "src/libfs/dir_index.h"
#include "src/libfs/radix_tree.h"

namespace trio {
namespace {

// ---- Locks: BRAVO bias removes the shared-counter bounce on the read path ----

void BM_RwLockSharedAcquire(benchmark::State& state) {
  static RwLock lock;
  for (auto _ : state) {
    lock.lock_shared();
    benchmark::DoNotOptimize(&lock);
    lock.unlock_shared();
  }
}
BENCHMARK(BM_RwLockSharedAcquire)->Threads(1)->Threads(4);

void BM_BravoSharedAcquire(benchmark::State& state) {
  static BravoRwLock lock;
  for (auto _ : state) {
    lock.lock_shared();
    benchmark::DoNotOptimize(&lock);
    lock.unlock_shared();
  }
}
BENCHMARK(BM_BravoSharedAcquire)->Threads(1)->Threads(4);

// ---- Directory index: hash table vs ordered map (the NOVA-radix stand-in, §6.2) ----

void BM_DirIndexLookup(benchmark::State& state) {
  DirIndex index;
  for (int i = 0; i < 4096; ++i) {
    index.Insert("file" + std::to_string(i), DirSlot{1, 0, Ino(i + 2), false});
  }
  uint64_t i = 0;
  DirSlot slot;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Lookup("file" + std::to_string(i++ % 4096), &slot));
  }
}
BENCHMARK(BM_DirIndexLookup);

void BM_OrderedMapLookup(benchmark::State& state) {
  std::map<std::string, DirSlot> index;
  for (int i = 0; i < 4096; ++i) {
    index["file" + std::to_string(i)] = DirSlot{1, 0, Ino(i + 2), false};
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.find("file" + std::to_string(i++ % 4096)));
  }
}
BENCHMARK(BM_OrderedMapLookup);

// ---- Per-file radix tree ----

void BM_RadixLookup(benchmark::State& state) {
  PageRadixTree tree;
  for (uint64_t i = 0; i < 1 << 16; ++i) {
    tree.Insert(i, i + 100);
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(i++ % (1 << 16)));
  }
}
BENCHMARK(BM_RadixLookup);

// ---- MPMC delegation ring ----

void BM_MpmcRingRoundTrip(benchmark::State& state) {
  static MpmcRing<uint64_t> ring(1024);
  uint64_t v = 0;
  for (auto _ : state) {
    ring.Push(v);
    uint64_t out;
    benchmark::DoNotOptimize(ring.TryPop(out));
  }
}
BENCHMARK(BM_MpmcRingRoundTrip)->Threads(1)->Threads(2);

// ---- Kernel page leasing: one LibFS leases and frees 64-page batches ----

// Items are pages, so items_per_second is the inverse of the per-page cost of AllocPages
// plus FreePages (each page zeroed, MMU-granted and entered in the ownership table).
void BM_KernelAllocFreePages(benchmark::State& state) {
  constexpr size_t kBatch = 64;
  NvmPool pool(1 << 14);
  TRIO_CHECK_OK(Format(pool, FormatOptions{}));
  KernelController kernel(pool);
  TRIO_CHECK_OK(kernel.Mount());
  const LibFsId id = kernel.RegisterLibFs(LibFsOptions{});
  std::vector<PageNumber> pages;
  for (auto _ : state) {
    pages.clear();
    TRIO_CHECK_OK(kernel.AllocPages(id, kBatch, 0, &pages));
    TRIO_CHECK_OK(kernel.FreePages(id, pages));
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  kernel.UnregisterLibFs(id);
}
BENCHMARK(BM_KernelAllocFreePages);

// ---- End-to-end hot paths on the real stack ----

struct StackFixture {
  StackFixture() : instance(MakeFs("ArckFS-nd")) {
    Result<Fd> opened = instance.fs->Open("/bench", OpenFlags::CreateRw());
    TRIO_CHECK(opened.ok());
    fd = *opened;
    std::string prefill(1 << 20, 'p');
    TRIO_CHECK(instance.fs->Pwrite(fd, prefill.data(), prefill.size(), 0).ok());
  }
  FsInstance instance;
  Fd fd = -1;
};

void BM_ArckFsPwrite4K(benchmark::State& state) {
  static StackFixture fixture;
  char block[4096] = {};
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.instance.fs->Pwrite(fixture.fd, block, sizeof(block), (i++ % 256) * 4096));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ArckFsPwrite4K);

void BM_ArckFsPread4K(benchmark::State& state) {
  static StackFixture fixture;
  char block[4096];
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.instance.fs->Pread(fixture.fd, block, sizeof(block), (i++ % 256) * 4096));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ArckFsPread4K);

// Create+unlink pairs so the namespace stays bounded at benchmark scale.
void BM_ArckFsCreateUnlink(benchmark::State& state) {
  static FsInstance instance = MakeFs("ArckFS-nd", [] {
    FsFactoryOptions options;
    options.pool_pages = 1 << 16;
    return options;
  }());
  uint64_t i = 0;
  for (auto _ : state) {
    const std::string path = "/c" + std::to_string(i++ % 64);
    Result<Fd> fd = instance.fs->Open(path, OpenFlags::CreateRw());
    TRIO_CHECK(fd.ok());
    TRIO_CHECK_OK(instance.fs->Close(*fd));
    TRIO_CHECK_OK(instance.fs->Unlink(path));
  }
}
BENCHMARK(BM_ArckFsCreateUnlink);

void BM_BaselineCreateUnlink(benchmark::State& state) {
  static FsInstance instance = MakeFs("NOVA", [] {
    FsFactoryOptions options;
    options.pool_pages = 1 << 16;
    return options;
  }());
  uint64_t i = 0;
  for (auto _ : state) {
    const std::string path = "/c" + std::to_string(i++ % 64);
    Result<Fd> fd = instance.fs->Open(path, OpenFlags::CreateRw());
    TRIO_CHECK(fd.ok());
    TRIO_CHECK_OK(instance.fs->Close(*fd));
    TRIO_CHECK_OK(instance.fs->Unlink(path));
  }
}
BENCHMARK(BM_BaselineCreateUnlink);

// ---- Delegation threshold sweep (§4.5: why writes >= 256 B delegate) ----

void BM_DelegationThreshold(benchmark::State& state) {
  const size_t bytes = state.range(0);
  const bool delegate = state.range(1) != 0;
  static std::unique_ptr<FsInstance> direct;
  static std::unique_ptr<FsInstance> delegated;
  if (direct == nullptr) {
    FsFactoryOptions options;
    options.pool_pages = 1 << 16;
    direct = std::make_unique<FsInstance>(MakeFs("ArckFS-nd", options));
    options.arckfs_delegation = true;
    delegated = std::make_unique<FsInstance>(MakeFs("ArckFS", options));
  }
  FsInterface& fs = delegate ? *delegated->fs : *direct->fs;
  Result<Fd> fd = fs.Open("/thresh", OpenFlags::CreateRw());
  TRIO_CHECK(fd.ok());
  std::string block(bytes, 'd');
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.Pwrite(*fd, block.data(), block.size(), 0));
  }
  TRIO_CHECK_OK(fs.Close(*fd));
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_DelegationThreshold)
    ->ArgsProduct({{256, 4096, 65536, 1 << 20}, {0, 1}});

// Sweep the write-delegation threshold itself (now a DelegationConfig field plumbed
// through the factory): a fixed 16 KiB write flips between the direct and delegated
// paths as the threshold moves past it.
void BM_DelegationWriteThresholdSweep(benchmark::State& state) {
  const size_t threshold = state.range(0);
  FsFactoryOptions options;
  options.pool_pages = 1 << 16;
  options.arckfs_delegation = true;
  options.delegate_write_threshold = threshold;
  FsInstance instance = MakeFs("ArckFS", options);
  Result<Fd> fd = instance.fs->Open("/sweep", OpenFlags::CreateRw());
  TRIO_CHECK(fd.ok());
  std::string block(16 * 1024, 's');
  for (auto _ : state) {
    benchmark::DoNotOptimize(instance.fs->Pwrite(*fd, block.data(), block.size(), 0));
  }
  TRIO_CHECK_OK(instance.fs->Close(*fd));
  state.SetBytesProcessed(state.iterations() * block.size());
}
BENCHMARK(BM_DelegationWriteThresholdSweep)
    ->ArgName("write_threshold")
    ->Arg(256)
    ->Arg(4096)
    ->Arg(64 << 10)
    ->Arg(1 << 20);

}  // namespace
}  // namespace trio

// Expanded BENCHMARK_MAIN so the per-layer StatRegistry breakdown rides along with the
// benchmark's own JSON output.
int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  trio::bench::EmitLayerStats("bench_ablation");
  return 0;
}
