// Unit tests for the emulated NVM pool: addressing, NUMA striping, persistence tracking,
// crash simulation and the cost model's stalls. The delegation pool built on top of it is covered by
// tests/delegation_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/nvm/nvm.h"
#include "src/sim/fault_injector.h"
#include "tests/test_seed.h"

namespace trio {
namespace {

TEST(NvmPoolTest, PageAddressing) {
  NvmPool pool(64);
  EXPECT_EQ(pool.num_pages(), 64u);
  char* p5 = pool.PageAddress(5);
  EXPECT_EQ(pool.PageOf(p5), 5u);
  EXPECT_EQ(pool.PageOf(p5 + kPageSize - 1), 5u);
  EXPECT_EQ(pool.PageOf(p5 + kPageSize), 6u);
  EXPECT_TRUE(pool.Contains(p5));
  EXPECT_FALSE(pool.Contains(&pool));
}

TEST(NvmPoolTest, ZeroInitialized) {
  NvmPool pool(16);
  for (size_t i = 0; i < 16 * kPageSize; ++i) {
    ASSERT_EQ(pool.base()[i], 0);
  }
}

TEST(NvmPoolTest, NumaStriping) {
  NumaTopology topo;
  topo.num_nodes = 4;
  NvmPool pool(64, NvmMode::kFast, topo);
  EXPECT_EQ(pool.NodeOfPage(0), 0);
  EXPECT_EQ(pool.NodeOfPage(15), 0);
  EXPECT_EQ(pool.NodeOfPage(16), 1);
  EXPECT_EQ(pool.NodeOfPage(63), 3);
  EXPECT_EQ(pool.NodeFirstPage(1), 16u);
  EXPECT_EQ(pool.NodeLastPage(3), 64u);
}

TEST(NvmPoolTest, StatsCountWrites) {
  NvmPool pool(16);
  char buf[100] = {};
  pool.Write(pool.PageAddress(1), buf, sizeof(buf));
  EXPECT_EQ(pool.stats().bytes_written.load(), 100u);
  pool.Read(buf, pool.PageAddress(1), 50);
  EXPECT_EQ(pool.stats().bytes_read.load(), 50u);
  pool.PersistNow(pool.PageAddress(1), 100);
  EXPECT_GE(pool.stats().lines_flushed.load(), 2u);
  EXPECT_EQ(pool.stats().fences.load(), 1u);
}

// ---------------------------------------------------------------------------
// Cost model: what a persist or fence costs in wall time with NvmCostModel{100, 5}.
// ---------------------------------------------------------------------------

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__) || !defined(NDEBUG)
// Instrumented or unoptimized code adds its own time to every call: only the lower bound
// (the stall never charges less than the model) holds there.
constexpr bool kCheckStallUpperBounds = false;
#else
constexpr bool kCheckStallUpperBounds = true;
#endif

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
      .count();
}

// Wall nanoseconds per call of `op`: the fastest of 5 trials of 2000 calls, so a trial a
// preemption hits does not count.
template <typename Op>
double FastestNsPerCall(Op op) {
  double best = 1e18;
  for (int trial = 0; trial < 5; ++trial) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 2000; ++i) {
      op();
    }
    best = std::min(best, ElapsedNs(start) / 2000);
  }
  return best;
}

TEST(NvmCostModelTest, FencesNeverChargeLessThanTheModel) {
  NvmPool pool(16);
  pool.set_cost_model({100, 5});
  constexpr int kFences = 10000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kFences; ++i) {
    pool.Fence();
  }
  const double ns = ElapsedNs(start);
  pool.set_cost_model({});
  EXPECT_GE(ns, kFences * 100.0);
  EXPECT_EQ(pool.stats().fences.load(), static_cast<uint64_t>(kFences));
}

TEST(NvmCostModelTest, PersistAndFenceCostCloseToTheModel) {
  if (!kCheckStallUpperBounds) {
    GTEST_SKIP() << "upper bounds need an optimized, uninstrumented build";
  }
  NvmPool pool(16);
  pool.set_cost_model({100, 5});
  const double persist = FastestNsPerCall([&] { pool.Persist(pool.PageAddress(1), 8); });
  const double fence = FastestNsPerCall([&] { pool.Fence(); });
  pool.set_cost_model({});
  EXPECT_LE(persist, 35.0) << "a one-line Persist is modeled at 5 ns";
  EXPECT_LE(fence, 130.0) << "a Fence is modeled at 100 ns";
}

TEST(CrashSimTest, UnpersistedStoreIsLost) {
  NvmPool pool(16, NvmMode::kTracking);
  const char data[] = "hello";
  pool.Write(pool.PageAddress(2), data, sizeof(data));
  EXPECT_GT(pool.UnpersistedLineCount(), 0u);
  pool.SimulateCrash();
  EXPECT_EQ(std::memcmp(pool.PageAddress(2), "\0\0\0\0\0\0", 6), 0);
}

TEST(CrashSimTest, PersistedStoreSurvives) {
  NvmPool pool(16, NvmMode::kTracking);
  const char data[] = "hello";
  pool.Write(pool.PageAddress(2), data, sizeof(data));
  pool.PersistNow(pool.PageAddress(2), sizeof(data));
  EXPECT_EQ(pool.UnpersistedLineCount(), 0u);
  pool.SimulateCrash();
  EXPECT_EQ(std::memcmp(pool.PageAddress(2), "hello", 6), 0);
}

TEST(CrashSimTest, ClwbWithoutFenceIsNotDurable) {
  NvmPool pool(16, NvmMode::kTracking);
  const char data[] = "abc";
  pool.Write(pool.PageAddress(1), data, sizeof(data));
  pool.Persist(pool.PageAddress(1), sizeof(data));  // clwb issued, no fence.
  pool.SimulateCrash();
  EXPECT_EQ(pool.PageAddress(1)[0], 0);
}

TEST(CrashSimTest, RedirtyAfterClwbRequiresNewFlush) {
  NvmPool pool(16, NvmMode::kTracking);
  char* addr = pool.PageAddress(1);
  pool.Write(addr, "AAAA", 4);
  pool.Persist(addr, 4);
  pool.Fence();  // "AAAA" durable.
  pool.Write(addr, "BBBB", 4);  // Re-dirtied, not flushed.
  pool.SimulateCrash();
  EXPECT_EQ(std::memcmp(addr, "AAAA", 4), 0);
}

TEST(CrashSimTest, CommitStore64IsAtomicDurable) {
  NvmPool pool(16, NvmMode::kTracking);
  auto* slot = reinterpret_cast<uint64_t*>(pool.PageAddress(3));
  pool.CommitStore64(slot, 0xdeadbeefull);
  pool.SimulateCrash();
  EXPECT_EQ(pool.Load64(slot), 0xdeadbeefull);
}

TEST(CrashSimTest, EvictionMayPersistUnflushedLines) {
  // With evict probability 1.0 every dirty line survives the crash.
  NvmPool pool(16, NvmMode::kTracking);
  Rng rng(TestSeed());
  pool.Write(pool.PageAddress(2), "xyz", 3);
  pool.SimulateCrash(&rng, /*evict_probability=*/1.0);
  EXPECT_EQ(std::memcmp(pool.PageAddress(2), "xyz", 3), 0);
}

TEST(FaultSimTest, TornPersistLosesLinesAcrossACrash) {
  NvmPool pool(16, NvmMode::kTracking);
  FaultInjector injector(TestSeed());
  injector.Arm(kFaultNvmTornPersist, FaultPolicy::Once());
  pool.set_fault_injector(&injector);

  char* base = pool.PageAddress(2);
  std::vector<char> data(4 * kCacheLineSize, 'T');
  pool.Write(base, data.data(), data.size());
  pool.Persist(base, data.size());  // Torn: a non-empty subset of the 4 lines is dropped.
  pool.Fence();
  EXPECT_EQ(injector.StatsFor(kFaultNvmTornPersist).fires, 1u);
  // Dropped lines stayed dirty — they are NOT durable despite the persist+fence.
  EXPECT_GT(pool.UnpersistedLineCount(), 0u);
  pool.SimulateCrash();
  // The last line of a torn persist is always among the dropped set.
  EXPECT_EQ(base[3 * kCacheLineSize], 0);
}

TEST(FaultSimTest, TornPersistIsRepairedByRepersisting) {
  NvmPool pool(16, NvmMode::kTracking);
  FaultInjector injector(TestSeed());
  injector.Arm(kFaultNvmTornPersist, FaultPolicy::Once());
  pool.set_fault_injector(&injector);

  char* base = pool.PageAddress(2);
  std::vector<char> data(4 * kCacheLineSize, 'R');
  pool.Write(base, data.data(), data.size());
  pool.PersistNow(base, data.size());  // Torn (fires once).
  EXPECT_GT(pool.UnpersistedLineCount(), 0u);
  pool.PersistNow(base, data.size());  // Clean retry: dropped lines are still dirty.
  EXPECT_EQ(pool.UnpersistedLineCount(), 0u);
  pool.SimulateCrash();
  EXPECT_EQ(std::memcmp(base, data.data(), data.size()), 0);
}

TEST(FaultSimTest, SingleLinePersistIsNeverTorn) {
  // A torn persist must drop a strict subset only when there is more than one line.
  NvmPool pool(16, NvmMode::kTracking);
  FaultInjector injector(TestSeed());
  injector.Arm(kFaultNvmTornPersist, FaultPolicy::Always());
  pool.set_fault_injector(&injector);
  auto* slot = reinterpret_cast<uint64_t*>(pool.PageAddress(3));
  pool.CommitStore64(slot, 0x1234ull);  // 8-byte commit: one line, never torn.
  pool.SimulateCrash();
  EXPECT_EQ(pool.Load64(slot), 0x1234ull);
}

TEST(FaultSimTest, FenceBitFlipCorruptsExactlyOneBitDurably) {
  NvmPool pool(16, NvmMode::kTracking);
  FaultInjector injector(TestSeed());
  injector.Arm(kFaultNvmBitFlip, FaultPolicy::Once());
  pool.set_fault_injector(&injector);

  char* base = pool.PageAddress(2);
  std::vector<char> data(kCacheLineSize, 'b');
  pool.Write(base, data.data(), data.size());
  pool.PersistNow(base, data.size());
  EXPECT_EQ(injector.StatsFor(kFaultNvmBitFlip).fires, 1u);

  auto flipped_bits = [&] {
    int bits = 0;
    for (size_t i = 0; i < kCacheLineSize; ++i) {
      bits += __builtin_popcount(static_cast<unsigned char>(base[i] ^ 'b'));
    }
    return bits;
  };
  EXPECT_EQ(flipped_bits(), 1);  // Live image took the media error...
  pool.SimulateCrash();
  EXPECT_EQ(flipped_bits(), 1);  // ...and so did the persisted image.
}

TEST(FaultSimTest, InjectBitFlipSurvivesCrash) {
  NvmPool pool(16, NvmMode::kTracking);
  char* addr = pool.PageAddress(3);
  std::vector<char> data(kCacheLineSize, 'x');
  pool.Write(addr, data.data(), data.size());
  pool.PersistNow(addr, data.size());

  Rng rng(TestSeed());
  const size_t offset = pool.InjectBitFlip(addr, data.size(), rng);
  ASSERT_LT(offset, data.size());
  EXPECT_NE(addr[offset], 'x');
  pool.SimulateCrash();
  EXPECT_NE(addr[offset], 'x') << "media fault must survive a crash";
}

TEST(CrashSimTest, CacheLineGranularity) {
  // Persisting one line must not persist its neighbour.
  NvmPool pool(16, NvmMode::kTracking);
  char* base = pool.PageAddress(4);
  pool.Write(base, "A", 1);
  pool.Write(base + kCacheLineSize, "B", 1);
  pool.PersistNow(base, 1);  // Only the first line.
  pool.SimulateCrash();
  EXPECT_EQ(base[0], 'A');
  EXPECT_EQ(base[kCacheLineSize], 0);
}

}  // namespace
}  // namespace trio
