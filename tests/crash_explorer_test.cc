// FaultSim end-to-end tests: the crash explorer sweeps every fence of multi-op workloads
// (fsck + POSIX-oracle clean at each point, double recovery converges), injected media
// faults are either contained by recovery or flagged with a minimal failing crash point,
// and the kernel's deadline watchdog resolves hung LibFS callbacks (fix_corruption,
// recovery programs, revoke) by escalation instead of hanging with them.

#include "src/sim/crash_explorer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/core_state.h"
#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"
#include "src/verifier/fsck.h"
#include "tests/test_seed.h"

namespace trio {
namespace {

constexpr size_t kPoolPages = 2048;

// A hang the test can end: hung callbacks block here until Release().
struct SharedLatch {
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;

  void Release() {
    {
      std::lock_guard<std::mutex> guard(mutex);
      released = true;
    }
    cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return released; });
  }
};

// Abandoned watchdog helpers finish a few instructions after the latch releases; give
// them time to exit before test-local state is destroyed.
void DrainAbandonedCallbacks(const std::shared_ptr<SharedLatch>& latch) {
  latch->Release();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

std::string ReadAll(ArckFs& fs, const std::string& path) {
  Result<StatInfo> info = fs.Stat(path);
  if (!info.ok()) {
    return "<stat failed>";
  }
  std::string data(info->size, '\0');
  Result<Fd> fd = fs.Open(path, OpenFlags::ReadOnly());
  if (!fd.ok()) {
    return "<open failed>";
  }
  if (info->size > 0 && !fs.Pread(*fd, data.data(), data.size(), 0).ok()) {
    (void)fs.Close(*fd);
    return "<read failed>";
  }
  (void)fs.Close(*fd);
  return data;
}

void WriteAll(ArckFs& fs, const std::string& path, const std::string& data) {
  Result<Fd> fd = fs.Open(path, OpenFlags::CreateTrunc());
  TRIO_CHECK(fd.ok()) << fd.status().ToString();
  TRIO_CHECK(fs.Pwrite(*fd, data.data(), data.size(), 0).ok());
  TRIO_CHECK_OK(fs.Close(*fd));
}

// Locates a root-directory child's dirent in core state (for targeted media faults).
DirentBlock* FindRootDirent(NvmPool& pool, std::string_view name) {
  Superblock* sb = SuperblockOf(pool);
  PageNumber index = sb->root.first_index_page;
  while (index != 0) {
    auto* ip = reinterpret_cast<IndexPage*>(pool.PageAddress(index));
    for (size_t i = 0; i < kIndexEntriesPerPage; ++i) {
      if (ip->entries[i] == 0) {
        continue;
      }
      auto* page = reinterpret_cast<DirDataPage*>(pool.PageAddress(ip->entries[i]));
      for (DirentBlock& slot : page->slots) {
        if (!slot.IsFree() && slot.Name() == name) {
          return &slot;
        }
      }
    }
    index = ip->next;
  }
  return nullptr;
}

CrashExplorerOptions SmallPoolOptions() {
  CrashExplorerOptions options;
  options.pool_pages = 1024;
  options.max_inodes = 256;
  options.seed = TestSeed();
  return options;
}

std::string FirstFailure(const CrashExplorerReport& report) {
  if (report.Clean()) {
    return "(clean)";
  }
  return "fence " + std::to_string(report.failures.front().fence) + ": " +
         report.failures.front().what;
}

// ---------------------------------------------------------------------------
// Exhaustive crash-point sweeps over multi-op workloads
// ---------------------------------------------------------------------------

TEST(CrashExplorerTest, CreateWriteRenameMixCleanAtEveryFence) {
  CrashExplorerOptions options = SmallPoolOptions();
  options.explore_recovery = true;
  options.max_recovery_points = 3;  // Sampled double-recovery at every outer point.
  CrashExplorer explorer(options);

  Result<CrashExplorerReport> report = explorer.Explore(
      [](ArckFs& fs) {
        TRIO_CHECK_OK(fs.Mkdir("/d"));
        WriteAll(fs, "/d/a", "alpha");
        WriteAll(fs, "/f", "beta-data!");
        TRIO_CHECK_OK(fs.Rename("/d/a", "/d/b"));
        TRIO_CHECK_OK(fs.Rename("/f", "/d/f"));
        WriteAll(fs, "/d/b", "ALPHA");
      },
      [](ArckFs& fs) -> Status {
        // Workload semantics: every name that exists holds a state some op prefix
        // produced — never a torn mix.
        for (const char* path : {"/d/a", "/d/b"}) {
          if (fs.Stat(path).ok()) {
            const std::string data = ReadAll(fs, path);
            if (data != "" && data != "alpha" && data != "ALPHA") {
              return Corrupted(std::string(path) + " holds torn content: " + data);
            }
          }
        }
        for (const char* path : {"/f", "/d/f"}) {
          if (fs.Stat(path).ok()) {
            const std::string data = ReadAll(fs, path);
            if (data != "" && data != "beta-data!") {
              return Corrupted(std::string(path) + " holds torn content: " + data);
            }
          }
        }
        return OkStatus();
      });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->Clean()) << FirstFailure(*report);
  EXPECT_GT(report->fences, 10u);
  // Exhaustive: every fence plus the initial state, nothing sampled out.
  EXPECT_EQ(report->explored, report->fences + 1);
  const CrashExplorerStats& stats = explorer.stats();
  EXPECT_EQ(stats.fences_recorded.load(), report->fences);
  EXPECT_EQ(stats.crash_points_explored.load(), report->explored);
  // (sampled_out is nonzero here only from the capped INNER recovery sweep; the outer
  // sweep's exhaustiveness is asserted by explored == fences + 1 above.)
  EXPECT_GE(stats.fsck_runs.load(), report->explored);
  EXPECT_GE(stats.oracle_checks.load(), report->explored);
  EXPECT_GT(stats.recovery_points_explored.load(), 0u);
  EXPECT_EQ(stats.faults_injected.load(), 0u);
}

TEST(CrashExplorerTest, AppendHeavyWorkloadCleanAtEveryFence) {
  CrashExplorerOptions options = SmallPoolOptions();
  CrashExplorer explorer(options);

  auto expected = std::make_shared<std::string>();
  Result<CrashExplorerReport> report = explorer.Explore(
      [expected](ArckFs& fs) {
        Result<Fd> fd = fs.Open("/log", OpenFlags::CreateTrunc());
        TRIO_CHECK(fd.ok());
        for (int i = 0; i < 10; ++i) {
          const std::string chunk(static_cast<size_t>(200 + i * 137),
                                  static_cast<char>('a' + i));
          TRIO_CHECK(fs.Pwrite(*fd, chunk.data(), chunk.size(), expected->size()).ok());
          *expected += chunk;
        }
        TRIO_CHECK_OK(fs.Close(*fd));
        WriteAll(fs, "/side", "sidecar");
      },
      [expected](ArckFs& fs) -> Status {
        Result<StatInfo> info = fs.Stat("/log");
        if (!info.ok()) {
          return OkStatus();  // Crash before the create committed.
        }
        if (info->size > expected->size()) {
          return Corrupted("/log grew past everything ever written");
        }
        const std::string data = ReadAll(fs, "/log");
        if (data != expected->substr(0, info->size)) {
          return Corrupted("/log is not a prefix of the appended stream at size " +
                           std::to_string(info->size));
        }
        return OkStatus();
      });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->Clean()) << FirstFailure(*report);
  EXPECT_GT(report->fences, 10u);
  EXPECT_EQ(report->explored, report->fences + 1);
  EXPECT_EQ(explorer.stats().sampled_out.load(), 0u);
}

TEST(CrashExplorerTest, SizeAndMtimeCommitTogether) {
  // A data write makes mtime durable with the size commit, not after it: at every fence
  // the file's (size, mtime) is a pair some completed write left behind, and its bytes
  // are the written prefix. The workload appends inside a page, across pages, and once
  // past 2 MiB so the write links a second index page.
  CrashExplorerOptions options = SmallPoolOptions();
  options.pool_pages = kPoolPages;
  CrashExplorer explorer(options);

  struct Recorded {
    std::string data;
    std::vector<std::pair<uint64_t, int64_t>> states;  // (size, mtime_ns) per write.
  };
  auto recorded = std::make_shared<Recorded>();
  Result<CrashExplorerReport> report = explorer.Explore(
      [recorded](ArckFs& fs) {
        Result<Fd> fd = fs.Open("/f", OpenFlags::CreateTrunc());
        TRIO_CHECK(fd.ok());
        auto record = [&] {
          Result<StatInfo> info = fs.Stat("/f");
          TRIO_CHECK(info.ok());
          recorded->states.push_back({info->size, info->mtime_ns});
        };
        record();
        const size_t lengths[] = {100, 300, 5000, 200, (2u << 20) + 8192, 64};
        for (size_t i = 0; i < sizeof(lengths) / sizeof(lengths[0]); ++i) {
          std::string chunk(lengths[i], '\0');
          for (size_t b = 0; b < chunk.size(); ++b) {
            chunk[b] = static_cast<char>('a' + (i * 7 + b / kPageSize) % 26);
          }
          TRIO_CHECK(fs.Pwrite(*fd, chunk.data(), chunk.size(), recorded->data.size()).ok());
          recorded->data += chunk;
          record();
        }
        TRIO_CHECK_OK(fs.Close(*fd));
      },
      [recorded](ArckFs& fs) -> Status {
        Result<StatInfo> info = fs.Stat("/f");
        if (!info.ok()) {
          return OkStatus();  // Crash before the create committed.
        }
        const std::pair<uint64_t, int64_t> state{info->size, info->mtime_ns};
        if (std::find(recorded->states.begin(), recorded->states.end(), state) ==
            recorded->states.end()) {
          return Corrupted("/f has size " + std::to_string(info->size) + " with mtime " +
                           std::to_string(info->mtime_ns) + ", a pair no write left");
        }
        if (ReadAll(fs, "/f") != recorded->data.substr(0, info->size)) {
          return Corrupted("/f is not the written prefix at size " +
                           std::to_string(info->size));
        }
        return OkStatus();
      });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->Clean()) << FirstFailure(*report);
  EXPECT_GT(report->fences, 15u);
  EXPECT_EQ(report->explored, report->fences + 1);
  EXPECT_EQ(explorer.stats().sampled_out.load(), 0u);
}

TEST(CrashExplorerTest, RenameWorkloadCleanAtEveryFence) {
  // Satellite: rename-focused crash sweep. Same-directory rename, cross-directory
  // rename, and an overwriting rename each run under the undo journal; crashing at any
  // fence must leave every name holding a state some op prefix produced (old content,
  // new content, or absent) — never a torn dirent or a doubly-linked ino.
  CrashExplorerOptions options = SmallPoolOptions();
  options.explore_recovery = true;
  options.max_recovery_points = 2;
  CrashExplorer explorer(options);

  Result<CrashExplorerReport> report = explorer.Explore(
      [](ArckFs& fs) {
        TRIO_CHECK_OK(fs.Mkdir("/dir"));
        WriteAll(fs, "/one", "first");
        WriteAll(fs, "/two", "second");
        TRIO_CHECK_OK(fs.Rename("/one", "/renamed"));      // Same-directory.
        TRIO_CHECK_OK(fs.Rename("/renamed", "/dir/deep")); // Cross-directory.
        TRIO_CHECK_OK(fs.Rename("/two", "/dir/deep"));     // Overwrite existing file.
      },
      [](ArckFs& fs) -> Status {
        // The moving "first" payload exists under at most one of its three names.
        int live = 0;
        for (const char* path : {"/one", "/renamed"}) {
          if (fs.Stat(path).ok()) {
            ++live;
            const std::string data = ReadAll(fs, path);
            if (data != "" && data != "first") {
              return Corrupted(std::string(path) + " holds torn content: " + data);
            }
          }
        }
        if (fs.Stat("/dir/deep").ok()) {
          const std::string data = ReadAll(fs, "/dir/deep");
          if (data == "first") {
            ++live;
          } else if (data != "" && data != "second") {
            return Corrupted("/dir/deep holds torn content: " + data);
          }
        }
        if (live > 1) {
          return Corrupted("renamed file visible under multiple names");
        }
        if (fs.Stat("/two").ok()) {
          const std::string data = ReadAll(fs, "/two");
          if (data != "" && data != "second") {
            return Corrupted("/two holds torn content: " + data);
          }
        }
        return OkStatus();
      });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->Clean()) << FirstFailure(*report);
  EXPECT_GT(report->fences, 10u);
  EXPECT_EQ(report->explored, report->fences + 1);
}

TEST(CrashExplorerTest, RecoveryIsIdempotentAtEveryInnerFence) {
  // Satellite: crash at each fence INSIDE RunRecovery, run recovery again, and require
  // convergence. The workload leaves a file write-mapped (never released) and a rename
  // in its history, so every crash image has journal state and wmap-log entries — the
  // recovery being re-crashed does real work.
  CrashExplorerOptions options = SmallPoolOptions();
  options.explore_recovery = true;
  options.max_crash_points = 8;     // A few outer points...
  options.max_recovery_points = 0;  // ...with EXHAUSTIVE mid-recovery crashes at each.
  CrashExplorer explorer(options);

  Result<CrashExplorerReport> report = explorer.Explore([](ArckFs& fs) {
    Result<Fd> keep = fs.Open("/keep", OpenFlags::CreateTrunc());
    TRIO_CHECK(keep.ok());
    TRIO_CHECK(fs.Pwrite(*keep, "keep-data", 9, 0).ok());
    WriteAll(fs, "/x", "xdata");
    TRIO_CHECK_OK(fs.Rename("/x", "/y"));
    // /keep stays open (write-mapped) so the wmap log is non-empty at crash time.
  });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->Clean()) << FirstFailure(*report);
  const CrashExplorerStats& stats = explorer.stats();
  EXPECT_GT(stats.recovery_points_explored.load(), 0u);
  EXPECT_GT(stats.sampled_out.load(), 0u);  // The outer cap logged its truncation.
  // Every inner point re-ran recovery on a crashed-recovery image.
  EXPECT_GE(stats.recoveries.load(), stats.recovery_points_explored.load());
}

// ---------------------------------------------------------------------------
// Media faults through the explorer
// ---------------------------------------------------------------------------

TEST(CrashExplorerTest, TornPersistsAreFlaggedWithMinimalFailingFence) {
  // Every multi-line persist in the workload silently drops cachelines. Commit words
  // still land (8-byte commits are single-line), so some crash point exposes a committed
  // dirent whose name/metadata line never became durable — an I1/G2 violation recovery
  // cannot repair (the root directory cannot be removed). The explorer must flag it and
  // shrink to the earliest failing fence.
  CrashExplorerOptions options = SmallPoolOptions();
  options.faults.push_back({kFaultNvmTornPersist, FaultPolicy::Always()});
  options.max_failures = 3;  // A handful of failing points is proof enough.
  CrashExplorer explorer(options);

  Result<CrashExplorerReport> report = explorer.Explore([](ArckFs& fs) {
    WriteAll(fs, "/t1", "torn-one");
    WriteAll(fs, "/t2", "torn-two");
  });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(explorer.stats().faults_injected.load(), 0u)
      << "the torn-persist fault point was never exercised";
  EXPECT_GT(explorer.injector().StatsFor(kFaultNvmTornPersist).fires, 0u);
  EXPECT_FALSE(report->Clean())
      << "dropping cachelines from every persist cannot be crash-consistent";
  EXPECT_NE(report->minimal_failing_fence, SIZE_MAX);
  EXPECT_LE(report->minimal_failing_fence, report->failures.front().fence);
  EXPECT_EQ(explorer.stats().min_failing_fence.load(), report->minimal_failing_fence);
}

TEST(FaultSimKernelTest, BitFlipCaughtByVerifierAndRolledBack) {
  // A durable media bit-flip lands in a write-mapped file's dirent (its reserved bytes,
  // which I1 requires to be zero). The release-time verification must catch it and
  // restore the checkpointed state — content included.
  NvmPool pool(kPoolPages, NvmMode::kFast);
  FormatOptions format;
  format.max_inodes = 256;
  TRIO_CHECK_OK(Format(pool, format));
  KernelController kernel(pool);
  TRIO_CHECK_OK(kernel.Mount());
  ArckFs fs(kernel);

  WriteAll(fs, "/f", "hello");
  TRIO_CHECK_OK(fs.ReleaseFile("/f"));  // Verified + reconciled: kernel knows "hello".

  // Re-map for write: the kernel checkpoints the intact state.
  Result<Fd> fd = fs.Open("/f", OpenFlags::ReadWrite());
  ASSERT_TRUE(fd.ok());
  DirentBlock* dirent = FindRootDirent(pool, "f");
  ASSERT_NE(dirent, nullptr);
  Rng rng(TestSeed());
  pool.InjectBitFlip(dirent->reserved, sizeof(dirent->reserved), rng);

  TRIO_CHECK_OK(fs.Close(*fd));
  // Verification runs at release, fails, and the kernel repairs via checkpoint rollback —
  // so the release itself succeeds: the corruption was resolved, not propagated.
  EXPECT_TRUE(fs.ReleaseFile("/f").ok());
  EXPECT_GE(kernel.stats().verify_failures.load(), 1u);
  EXPECT_EQ(kernel.stats().corruptions_rolled_back.load(), 1u);
  EXPECT_EQ(kernel.stats().corruptions_fixed_by_libfs.load(), 0u);

  // Rollback repaired the dirent and kept the data.
  EXPECT_EQ(ReadAll(fs, "/f"), "hello");
  Result<FsckReport> fsck = RunFsck(pool);
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck->Clean()) << fsck->problems.front().detail;
}

// ---------------------------------------------------------------------------
// Deadline watchdog: hung LibFS callbacks are escalated, not waited on forever
// ---------------------------------------------------------------------------

TEST(FaultSimKernelTest, HungFixCorruptionResolvedByTimeoutAndRollback) {
  NvmPool pool(kPoolPages, NvmMode::kFast);
  FormatOptions format;
  format.max_inodes = 256;
  TRIO_CHECK_OK(Format(pool, format));
  KernelConfig config;
  config.fix_timeout_ms = 25;
  KernelController kernel(pool, config);
  TRIO_CHECK_OK(kernel.Mount());

  auto latch = std::make_shared<SharedLatch>();
  auto fix_calls = std::make_shared<std::atomic<uint64_t>>(0);
  ArckFsConfig fs_config;
  fs_config.fix_corruption = [latch, fix_calls](Ino, const Status&) {
    fix_calls->fetch_add(1);
    latch->Wait();  // Hangs far past fix_timeout_ms.
    return true;
  };
  ArckFs fs(kernel, fs_config);

  WriteAll(fs, "/f", "hello");
  TRIO_CHECK_OK(fs.ReleaseFile("/f"));
  Result<Fd> fd = fs.Open("/f", OpenFlags::ReadWrite());
  ASSERT_TRUE(fd.ok());
  DirentBlock* dirent = FindRootDirent(pool, "f");
  ASSERT_NE(dirent, nullptr);
  Rng rng(TestSeed());
  pool.InjectBitFlip(dirent->reserved, sizeof(dirent->reserved), rng);
  TRIO_CHECK_OK(fs.Close(*fd));

  const auto start = std::chrono::steady_clock::now();
  Status released = fs.ReleaseFile("/f");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(released.ok());  // Rollback resolved the corruption.
  // The kernel did not hang with the callback: it timed out and escalated.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_EQ(fix_calls->load(), 1u);
  EXPECT_GE(kernel.stats().callback_timeouts.load(), 1u);
  EXPECT_EQ(kernel.stats().corruptions_rolled_back.load(), 1u);
  EXPECT_EQ(kernel.stats().corruptions_fixed_by_libfs.load(), 0u);
  EXPECT_EQ(ReadAll(fs, "/f"), "hello");

  DrainAbandonedCallbacks(latch);
}

TEST(FaultSimKernelTest, HungRecoveryProgramTimedOutAndRecoveryCompletes) {
  // Build an unclean image with a write-mapped file, then recover it on a kernel whose
  // only registered LibFS has a recovery program that never returns.
  NvmPool pool(kPoolPages, NvmMode::kTracking);
  FormatOptions format;
  format.max_inodes = 256;
  TRIO_CHECK_OK(Format(pool, format));
  auto kernel1 = std::make_unique<KernelController>(pool);
  TRIO_CHECK_OK(kernel1->Mount());
  auto fs1 = std::make_unique<ArckFs>(*kernel1);
  pool.StartFenceRecording();
  WriteAll(*fs1, "/done", "done-data");
  Result<Fd> keep = fs1->Open("/open", OpenFlags::CreateTrunc());
  TRIO_CHECK(keep.ok());
  TRIO_CHECK(fs1->Pwrite(*keep, "open-data", 9, 0).ok());
  pool.StopFenceRecording();
  std::vector<char> image(kPoolPages * kPageSize);
  pool.MaterializeAt(pool.RecordedFenceCount(), image.data());

  NvmPool crashed(kPoolPages, NvmMode::kFast);
  crashed.LoadImage(image.data());
  KernelConfig config;
  config.recovery_timeout_ms = 25;
  KernelController kernel2(crashed, config);
  TRIO_CHECK_OK(kernel2.Mount());
  ASSERT_TRUE(kernel2.NeedsRecovery());

  auto latch = std::make_shared<SharedLatch>();
  LibFsOptions libfs_options;
  libfs_options.callbacks.recovery = [latch] { latch->Wait(); };
  kernel2.RegisterLibFs(libfs_options);

  const auto start = std::chrono::steady_clock::now();
  Status recovered = kernel2.RunRecovery();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_GE(kernel2.stats().callback_timeouts.load(), 1u);
  Result<FsckReport> fsck = RunFsck(crashed);
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck->Clean()) << fsck->problems.front().detail;

  DrainAbandonedCallbacks(latch);
}

TEST(FaultSimKernelTest, UnresponsiveLeaseHolderIsForciblyReleased) {
  NvmPool pool(kPoolPages, NvmMode::kFast);
  FormatOptions format;
  format.max_inodes = 256;
  TRIO_CHECK_OK(Format(pool, format));
  KernelConfig config;
  config.lease_ms = 10;
  config.revoke_grace_ms = 10;
  KernelController kernel(pool, config);
  TRIO_CHECK_OK(kernel.Mount());

  auto latch = std::make_shared<SharedLatch>();
  auto revokes = std::make_shared<std::atomic<uint64_t>>(0);
  LibFsOptions holder_options;
  holder_options.callbacks.revoke = [latch, revokes](Ino) {
    revokes->fetch_add(1);
    latch->Wait();  // Never releases voluntarily.
  };
  const LibFsId holder = kernel.RegisterLibFs(holder_options);
  Result<MapInfo> held = kernel.MapRoot(holder, /*write=*/true);
  ASSERT_TRUE(held.ok());

  const LibFsId contender = kernel.RegisterLibFs(LibFsOptions{});
  const auto start = std::chrono::steady_clock::now();
  Result<MapInfo> granted = kernel.MapRoot(contender, /*write=*/true);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  // The contender was granted the write lease once the holder's lease (plus grace)
  // expired — without waiting for the hung revoke callback.
  ASSERT_TRUE(granted.ok()) << granted.status().ToString();
  EXPECT_TRUE(granted->writable);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_EQ(revokes->load(), 1u);
  EXPECT_GE(kernel.stats().callback_timeouts.load(), 1u);
  EXPECT_EQ(kernel.stats().forced_releases.load(), 1u);
  TRIO_CHECK_OK(kernel.UnmapFile(contender, kRootIno));

  DrainAbandonedCallbacks(latch);
}

TEST(FaultSimKernelTest, ForcedReleaseRacingLeaseReacquire) {
  // While a contender's map is mid-ForceReleaseLocked (the holder's revoke callback is
  // hung and the kernel lock is dropped around the guarded wait), the original holder
  // concurrently re-acquires the same lease. Both calls must return, nobody deadlocks,
  // and the kernel's ownership state stays consistent no matter which racer wins.
  NvmPool pool(kPoolPages, NvmMode::kFast);
  FormatOptions format;
  format.max_inodes = 256;
  TRIO_CHECK_OK(Format(pool, format));
  KernelConfig config;
  config.lease_ms = 10;
  config.revoke_grace_ms = 10;
  KernelController kernel(pool, config);
  TRIO_CHECK_OK(kernel.Mount());

  auto latch = std::make_shared<SharedLatch>();
  LibFsOptions holder_options;
  holder_options.callbacks.revoke = [latch](Ino) { latch->Wait(); };
  const LibFsId holder = kernel.RegisterLibFs(holder_options);
  ASSERT_TRUE(kernel.MapRoot(holder, /*write=*/true).ok());

  const LibFsId contender = kernel.RegisterLibFs(LibFsOptions{});
  const auto start = std::chrono::steady_clock::now();
  Result<MapInfo> contender_grant = InvalidArgument("not run");
  std::thread contending([&] {
    contender_grant = kernel.MapRoot(contender, /*write=*/true);
  });
  // Land the re-acquire inside the contender's guarded revoke wait (the kernel lock is
  // released there). Exact interleaving does not matter for the invariants below — under
  // sanizer-slowed schedules this may also land before or after the force.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Result<MapInfo> holder_regrant = kernel.MapRoot(holder, /*write=*/true);
  contending.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_LT(elapsed, std::chrono::seconds(5));
  // The contender cannot be starved by the hung holder: its map must have resolved, by
  // force if necessary.
  ASSERT_TRUE(contender_grant.ok()) << contender_grant.status().ToString();
  EXPECT_TRUE(contender_grant->writable);
  // The holder's concurrent re-acquire either won a (possibly later-revoked) grant or
  // failed cleanly — it must not corrupt the writer bookkeeping.
  if (holder_regrant.ok()) {
    EXPECT_TRUE(holder_regrant->writable);
  }
  EXPECT_GE(kernel.stats().forced_releases.load(), 1u);

  // Exactly one of the racers holds the write lease now; its unmap succeeds, the loser's
  // reports no mapping. Either way the root is releasable and the image stays clean.
  const Status unmap_holder = kernel.UnmapFile(holder, kRootIno);
  const Status unmap_contender = kernel.UnmapFile(contender, kRootIno);
  EXPECT_TRUE(unmap_holder.ok() || unmap_contender.ok())
      << unmap_holder.ToString() << " / " << unmap_contender.ToString();
  Result<FsckReport> fsck = RunFsck(pool);
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck->Clean()) << fsck->problems.front().detail;

  DrainAbandonedCallbacks(latch);
}

}  // namespace
}  // namespace trio
