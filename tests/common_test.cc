// Unit tests for src/common: status/result, rng, hash, locks, ring buffer, per-cpu, clock.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/hash.h"
#include "src/common/mpmc_ring.h"
#include "src/common/parker.h"
#include "src/common/per_cpu.h"
#include "src/common/random.h"
#include "src/common/range_lock.h"
#include "src/common/result.h"
#include "src/common/rwlock.h"
#include "src/common/seqlock.h"
#include "tests/test_seed.h"
#include "src/common/spinlock.h"
#include "src/common/status.h"

namespace trio {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("no such file 'x'");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.Is(ErrorCode::kNotFound));
  EXPECT_EQ(s.ToString(), "not_found: no such file 'x'");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_STRNE(ErrorCodeName(static_cast<ErrorCode>(c)), "unknown");
  }
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Busy("locked"); };
  auto wrapper = [&]() -> Status {
    TRIO_RETURN_IF_ERROR(fails());
    return OkStatus();
  };
  EXPECT_TRUE(wrapper().Is(ErrorCode::kBusy));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NoSpace("full");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().Is(ErrorCode::kNoSpace));
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = [](bool fail) -> Result<int> {
    if (fail) {
      return IoError("boom");
    }
    return 7;
  };
  auto consume = [&](bool fail) -> Result<int> {
    TRIO_ASSIGN_OR_RETURN(int v, produce(fail));
    return v + 1;
  };
  EXPECT_EQ(*consume(false), 8);
  EXPECT_TRUE(consume(true).status().Is(ErrorCode::kIo));
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(TestSeed());
  Rng b(TestSeed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(TestSeed());
  Rng b(TestSeed() + 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(TestSeed());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(TestSeed() + 1);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(TestSeed() + 2);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(HashTest, StableAndDistinct) {
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(HashTest, LowBitsSpread) {
  // Bucket index uses low bits; sequential names must not collide pathologically.
  std::set<uint64_t> buckets;
  for (int i = 0; i < 256; ++i) {
    buckets.insert(HashString("file" + std::to_string(i)) % 64);
  }
  EXPECT_GT(buckets.size(), 32u);
}

TEST(SpinLockTest, MutualExclusion) {
  SpinLock lock;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, 40000);
}

TEST(SpinLockTest, TryLock) {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

template <typename LockT>
void ExerciseRwLock() {
  LockT lock;
  int64_t value = 0;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        lock.lock();
        int64_t v = value;
        value = v + 1;
        lock.unlock();
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        lock.lock_shared();
        if (value < 0) {
          failed = true;
        }
        lock.unlock_shared();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(value, 4000);
  EXPECT_FALSE(failed);
}

TEST(RwLockTest, WritersAreExclusive) { ExerciseRwLock<RwLock>(); }

TEST(BravoRwLockTest, WritersAreExclusive) { ExerciseRwLock<BravoRwLock>(); }

TEST(RwLockTest, TryLockShared) {
  RwLock lock;
  lock.lock();
  EXPECT_FALSE(lock.try_lock_shared());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock_shared());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock_shared();
}

TEST(BravoRwLockTest, ReaderFastPathThenWriterRevokes) {
  BravoRwLock lock;
  lock.lock_shared();
  lock.unlock_shared();
  lock.lock();  // Must drain any fast-path readers without deadlock.
  lock.unlock();
  lock.lock_shared();
  lock.unlock_shared();
}

// A lock only writers use scans the visible-readers table once, for its first writer.
TEST(BravoRwLockTest, WriterOnlyLockScansAtMostOnce) {
  BravoRwLock lock;
  for (int i = 0; i < 10000; ++i) {
    lock.lock();
    lock.unlock();
  }
  EXPECT_LE(lock.revocations(), 1u);
}

// With a reader between writers, the reader turns bias back on after the first two
// writers and every 8th, as the writers did before: 10^4 cycles scan 1251 times.
TEST(BravoRwLockTest, ReadersBetweenWritersScanAsBefore) {
  BravoRwLock lock;
  for (int i = 0; i < 10000; ++i) {
    lock.lock_shared();
    lock.unlock_shared();
    lock.lock();
    lock.unlock();
  }
  EXPECT_EQ(lock.revocations(), 1251u);
}

TEST(RangeLockTest, DisjointWritersProceed) {
  RangeLock lock;
  lock.LockRange(0, RangeLock::kSegmentSize, /*exclusive=*/true);
  // A disjoint range must not block (would deadlock this single thread if it did).
  lock.LockRange(RangeLock::kSegmentSize, RangeLock::kSegmentSize, /*exclusive=*/true);
  lock.UnlockRange(RangeLock::kSegmentSize, RangeLock::kSegmentSize, true);
  lock.UnlockRange(0, RangeLock::kSegmentSize, true);
}

TEST(RangeLockTest, ConcurrentReadersSameRange) {
  RangeLock lock;
  lock.LockRange(0, 100, /*exclusive=*/false);
  lock.LockRange(0, 100, /*exclusive=*/false);
  lock.UnlockRange(0, 100, false);
  lock.UnlockRange(0, 100, false);
}

TEST(RangeLockTest, ZeroLengthIsNoop) {
  RangeLock lock;
  lock.LockRange(0, 0, true);
  lock.UnlockRange(0, 0, true);
}

TEST(RangeLockTest, WriterExcludesOverlappingWriter) {
  RangeLock lock;
  lock.LockRange(0, 4096, true);
  std::atomic<bool> acquired{false};
  std::thread other([&] {
    lock.LockRange(100, 10, true);
    acquired = true;
    lock.UnlockRange(100, 10, true);
  });
  // Give the other thread a chance; it must be blocked.
  for (int i = 0; i < 100 && !acquired; ++i) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(acquired.load());
  lock.UnlockRange(0, 4096, true);
  other.join();
  EXPECT_TRUE(acquired.load());
}

TEST(MpmcRingTest, FifoSingleThread) {
  MpmcRing<int> ring(8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
  }
  EXPECT_FALSE(ring.TryPush(99));  // Full.
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.TryPop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.TryPop(out));  // Empty.
}

TEST(MpmcRingTest, ConcurrentProducersConsumers) {
  MpmcRing<uint64_t> ring(64);
  constexpr int kPerProducer = 5000;
  std::atomic<uint64_t> sum{0};
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ring.Push(static_cast<uint64_t>(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      uint64_t v;
      while (consumed.load() < 2 * kPerProducer) {
        if (ring.TryPop(v)) {
          sum.fetch_add(v);
          consumed.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const uint64_t n = 2 * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(SpscRingTest, FifoAndBoundsSingleThread) {
  SpscRing<int> ring(8);
  for (int round = 0; round < 3; ++round) {  // Wraps exercise the sequence arithmetic.
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(ring.TryPush(round * 8 + i));
    }
    EXPECT_FALSE(ring.TryPush(99));  // Full.
    int out = -1;
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(ring.TryPop(out));
      EXPECT_EQ(out, round * 8 + i);
    }
    EXPECT_FALSE(ring.TryPop(out));  // Empty.
  }
}

TEST(SpscRingTest, OrderPreservedAcrossThreads) {
  SpscRing<uint64_t> ring(16);
  constexpr uint64_t kItems = 20000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kItems; ++i) {
      while (!ring.TryPush(i)) {
        std::this_thread::yield();
      }
    }
  });
  uint64_t expected = 0;
  uint64_t v;
  while (expected < kItems) {
    if (!ring.TryPop(v)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(v, expected);  // SPSC must be strictly FIFO, no loss, no duplication.
    ++expected;
  }
  producer.join();
  EXPECT_FALSE(ring.TryPop(v));
}

TEST(SpscRingTest, BatchHooksUseFastPath) {
  SpscRing<int> ring(8);
  const int items[5] = {1, 2, 3, 4, 5};
  EXPECT_EQ(ring.TryPushBatch(items, 5), 5u);
  EXPECT_EQ(ring.ApproxSize(), 5u);
  int out[8] = {};
  EXPECT_EQ(ring.TryPopBatch(out, 8), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i], items[i]);
  }
  EXPECT_TRUE(ring.ApproxEmpty());
}

// Polls `pred` (yielding) until it holds or `limit` passes; returns whether it held.
template <typename Pred>
bool WaitFor(const Pred& pred, std::chrono::seconds limit = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

TEST(ParkerTest, NoLostWakeupAcrossManyParkRounds) {
  constexpr uint64_t kRounds = 10000;
  Parker parker;
  std::atomic<uint64_t> published{0};  // Last round the notifier released.
  std::atomic<uint64_t> consumed{0};   // Last round the waiter observed.
  std::atomic<uint64_t> parks{0};
  std::thread waiter([&] {
    for (uint64_t round = 1; round <= kRounds; ++round) {
      const auto ready = [&] { return published.load(std::memory_order_acquire) >= round; };
      while (!ready()) {
        if (parker.Await(ready)) {
          parks.fetch_add(1, std::memory_order_relaxed);
        }
      }
      consumed.store(round, std::memory_order_release);
    }
  });
  uint64_t lost_round = 0;
  for (uint64_t round = 1; round <= kRounds && lost_round == 0; ++round) {
    // Publish only once the waiter has registered as a sleeper, so every round races the
    // notify against the waiter's final check and sleep: the window a lost wakeup needs.
    // A round-dependent delay moves the publish across that window.
    const bool registered = WaitFor([&] { return parker.sleepers() != 0; });
    for (uint64_t i = 0; i < round % 32; ++i) {
      CpuRelax();
    }
    published.store(round, std::memory_order_release);
    parker.NotifyOne();
    if (!registered ||
        !WaitFor([&] { return consumed.load(std::memory_order_acquire) == round; })) {
      lost_round = round;
    }
  }
  if (lost_round != 0) {
    published.store(kRounds, std::memory_order_release);  // Let the waiter finish.
    parker.NotifyAll();
  }
  waiter.join();
  EXPECT_EQ(lost_round, 0u) << "round " << lost_round << " never reached the waiter";
  EXPECT_GT(parks.load(), 0u) << "the waiter never slept, so no round tested the park path";
}

TEST(ParkerTest, NotifyAllWakesEverySleeper) {
  constexpr uint32_t kSleepers = 4;
  Parker parker;
  std::atomic<bool> released{false};
  std::atomic<uint32_t> woken{0};
  const auto is_released = [&] { return released.load(std::memory_order_acquire); };
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kSleepers; ++t) {
    threads.emplace_back([&] {
      if (parker.Await(is_released)) {
        woken.fetch_add(1);
      }
    });
  }
  const bool all_parked = WaitFor([&] { return parker.sleepers() == kSleepers; });
  parker.NotifyAll();  // `released` is still false: only the notify ends these Awaits.
  const bool all_woken = WaitFor([&] { return woken.load() == kSleepers; });
  released.store(true, std::memory_order_release);
  parker.NotifyAll();
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_TRUE(all_parked);
  EXPECT_TRUE(all_woken) << woken.load() << " of " << kSleepers << " sleepers woke";
}

TEST(ParkerTest, NotifyWakesSleeperWhoseConditionIsStillFalse) {
  Parker parker;
  std::atomic<int> slept{-1};  // -1 while the sleeper is still inside Await.
  std::thread sleeper([&] {
    slept.store(parker.Await([] { return false; }) ? 1 : 0, std::memory_order_release);
  });
  const bool parked = WaitFor([&] { return parker.sleepers() == 1; });
  parker.NotifyOne();
  const bool returned = WaitFor([&] { return slept.load(std::memory_order_acquire) != -1; });
  if (!returned) {
    parker.NotifyAll();
  }
  sleeper.join();
  EXPECT_TRUE(parked);
  EXPECT_TRUE(returned) << "a notify must end Await even though its condition is false";
  EXPECT_EQ(slept.load(), 1);
  EXPECT_EQ(parker.sleepers(), 0u);
}

TEST(ParkerTest, AwaitWithConditionAlreadyTrueReturnsWithoutSleeping) {
  Parker parker;
  int checks = 0;
  EXPECT_FALSE(parker.Await([&] {
    ++checks;
    return true;
  }));
  EXPECT_EQ(checks, 1);
  // A condition that turns true during the spin phase does not sleep either.
  checks = 0;
  EXPECT_FALSE(parker.Await([&] { return ++checks == 10; }));
  EXPECT_EQ(checks, 10);
  EXPECT_EQ(parker.sleepers(), 0u);
  parker.NotifyOne();  // Nobody parked: no-ops.
  parker.NotifyAll();
}

// Two writers store one value into all four words of a Seqlock-protected record and bump
// a plain counter, while readers validate reads of the record. Every thread waits at a
// start line so the writers really contend.
TEST(SeqlockTest, ValidatedReadsAreWholeAndWritersExcludeEachOther) {
  constexpr uint64_t kWritesPerWriter = 200000;
  constexpr int kReaders = 3;
  std::atomic<int> at_start{0};
  const auto start_line = [&] {
    at_start.fetch_add(1);
    while (at_start.load() < kReaders + 2) {
      std::this_thread::yield();
    }
  };
  Seqlock lock;
  std::atomic<uint64_t> words[4] = {};
  uint64_t writes = 0;  // Plain: only writer exclusion keeps the increments whole.
  std::atomic<int> writers_inside{0};
  std::atomic<uint64_t> overlaps{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> validated{0};
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      start_line();
      // Read until the writers are done and one more read has validated.
      for (;;) {
        const uint64_t begin = lock.ReadBegin();
        uint64_t v[4];
        for (int w = 0; w < 4; ++w) {
          v[w] = words[w].load(std::memory_order_relaxed);
        }
        const bool stopping = done.load(std::memory_order_acquire);
        if (!lock.ReadValidate(begin)) {
          continue;
        }
        validated.fetch_add(1, std::memory_order_relaxed);
        if (v[1] != v[0] || v[2] != v[0] || v[3] != v[0]) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
        if (stopping) {
          return;
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (uint64_t t = 1; t <= 2; ++t) {
    writers.emplace_back([&, t] {
      start_line();
      for (uint64_t i = 0; i < kWritesPerWriter; ++i) {
        lock.WriteLock();
        if (writers_inside.fetch_add(1, std::memory_order_relaxed) != 0) {
          overlaps.fetch_add(1, std::memory_order_relaxed);
        }
        for (int w = 0; w < 4; ++w) {
          words[w].store(t << 32 | i, std::memory_order_relaxed);
        }
        ++writes;
        writers_inside.fetch_sub(1, std::memory_order_relaxed);
        lock.WriteUnlock();
      }
    });
  }
  for (auto& th : writers) {
    th.join();
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_EQ(overlaps.load(), 0u) << "two writers held the lock at once";
  EXPECT_EQ(writes, 2 * kWritesPerWriter);
  EXPECT_EQ(torn.load(), 0u) << "a validated read mixed two writes";
  EXPECT_GE(validated.load(), static_cast<uint64_t>(kReaders));
}

// Acquire and release fences belong to the one seqlock protocol: a second hand-rolled
// copy would have to get the same ordering argument right again.
TEST(SeqlockEnforcementTest, NoAcquireOrReleaseFenceOutsideSeqlockHeader) {
  const std::filesystem::path root(TRIO_SOURCE_DIR);
  ASSERT_TRUE(std::filesystem::exists(root / "src")) << root;
  const std::regex fence(
      R"(atomic_thread_fence\s*\(\s*std::memory_order_(acquire|release|acq_rel)\b)");
  std::vector<std::string> violations;
  for (const char* dir : {"src", "bench"}) {
    for (const auto& entry : std::filesystem::recursive_directory_iterator(root / dir)) {
      const std::string ext = entry.path().extension().string();
      if (!entry.is_regular_file() || (ext != ".cc" && ext != ".h") ||
          entry.path() == root / "src/common/seqlock.h") {
        continue;
      }
      std::ifstream in(entry.path());
      std::string line;
      size_t lineno = 0;
      while (std::getline(in, line)) {
        ++lineno;
        if (std::regex_search(line, fence)) {
          violations.push_back(entry.path().string() + ":" + std::to_string(lineno));
        }
      }
    }
  }
  EXPECT_TRUE(violations.empty()) << [&] {
    std::string all = "acquire/release fences outside src/common/seqlock.h:\n";
    for (const std::string& v : violations) {
      all += "  " + v + "\n";
    }
    return all;
  }();
}

TEST(PerCpuTest, ShardsAreIndependent) {
  PerCpu<int> counters(4);
  counters.Shard(0) = 1;
  counters.Shard(1) = 2;
  EXPECT_EQ(counters.Shard(0), 1);
  EXPECT_EQ(counters.Shard(1), 2);
  int total = 0;
  counters.ForEach([&](int& v) { total += v; });
  EXPECT_EQ(total, 3);
}

TEST(PerCpuTest, LocalIsStablePerThread) {
  PerCpu<int> counters(8);
  counters.Local() = 42;
  EXPECT_EQ(counters.Local(), 42);
}

TEST(FakeClockTest, AdvancesManually) {
  FakeClock clock;
  const uint64_t t0 = clock.NowNs();
  clock.AdvanceMs(5);
  EXPECT_EQ(clock.NowNs(), t0 + 5000000ull);
}

TEST(SystemClockTest, Monotonic) {
  SystemClock* clock = SystemClock::Instance();
  const uint64_t a = clock->NowNs();
  const uint64_t b = clock->NowNs();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace trio
