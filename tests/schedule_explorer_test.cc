// Multi-tenant schedule exploration: two LibFS instances race on a shared file under
// seeded PCT-style interleavings, with a crash materialized at every fence of every
// schedule. The acceptance gate for the explorer is a planted cross-tenant bug: the
// FaultSim point kFaultKernelLeakOnContendedTransfer double-frees a page during
// contended ownership transfers. With the point armed, the explorer must find a failing
// interleaving, shrink it, and the shrunken schedule must replay to the same verdict
// from nothing but its bit-vector; the no-preemption baselines stay clean (the bug needs
// contention). With nothing armed, a full sweep passes clean.

#include "src/sim/schedule_explorer.h"

#include <gtest/gtest.h>

#include <string>

#include "src/verifier/fsck.h"
#include "tests/test_seed.h"

namespace trio {
namespace {

// Tenant A: creates /shared and holds the write lease across two steps, releasing only
// in its last step. The release step matters: in the all-A-then-B baseline, tenant B
// then reads /shared WITHOUT revoking anybody, so the baseline has zero contention.
TenantScript TenantA() {
  return {
      [](ArckFs& fs) {
        Result<Fd> fd = fs.Open("/shared", OpenFlags::CreateTrunc());
        if (!fd.ok()) {
          return;
        }
        const std::string data(2 * kPageSize, 'a');
        (void)fs.Pwrite(*fd, data.data(), data.size(), 0);
        (void)fs.Close(*fd);  // Lease retained: close does not release.
      },
      [](ArckFs& fs) {
        Result<Fd> fd = fs.Open("/shared", OpenFlags::ReadWrite());
        if (!fd.ok()) {
          return;
        }
        const std::string more(kPageSize, 'A');
        (void)fs.Pwrite(*fd, more.data(), more.size(), 2 * kPageSize);
        (void)fs.Close(*fd);
      },
      [](ArckFs& fs) {
        (void)fs.ReleaseFile("/shared");
        (void)fs.ReleaseFile("/");
      },
  };
}

// Tenant B: reads /shared (revoking A's write lease when interleaved mid-hold — the
// contended transfer the canary keys on), then creates its own file. With page_batch=1
// every allocation goes to the kernel, so a page the canary leaked onto the free list is
// handed straight to /b_private — turning the leak into a durable cross-file double
// reference that fsck flags as a double claim.
TenantScript TenantB() {
  return {
      [](ArckFs& fs) {
        Result<Fd> fd = fs.Open("/shared", OpenFlags::ReadOnly());
        if (!fd.ok()) {
          return;  // Interleavings where /shared does not exist yet are fine.
        }
        char buf[64];
        (void)fs.Pread(*fd, buf, sizeof(buf), 0);
        (void)fs.Close(*fd);
        (void)fs.ReleaseFile("/shared");
      },
      [](ArckFs& fs) {
        Result<Fd> fd = fs.Open("/b_private", OpenFlags::CreateTrunc());
        if (!fd.ok()) {
          return;
        }
        const std::string data(kPageSize, 'b');
        (void)fs.Pwrite(*fd, data.data(), data.size(), 0);
        (void)fs.Close(*fd);
      },
      [](ArckFs& fs) {
        (void)fs.ReleaseFile("/b_private");
        (void)fs.ReleaseFile("/");
      },
  };
}

ScheduleExplorerOptions BaseOptions() {
  ScheduleExplorerOptions options;
  options.pool_pages = 2048;
  options.max_inodes = 256;
  options.seed = TestSeed();
  options.schedules = 12;
  options.max_preemptions = 4;
  options.max_crash_points = 6;  // Sampled sweep keeps the suite fast; live fsck is full.
  options.tenant_b.page_batch = 1;
  return options;
}

TEST(ScheduleExplorerTest, GeneratorIsDeterministicAndBounded) {
  ScheduleExplorer explorer(BaseOptions());
  ScheduleExplorer twin(BaseOptions());
  for (size_t i = 0; i < 8; ++i) {
    const Schedule s = explorer.GenerateSchedule(i, 3, 3);
    EXPECT_EQ(s, twin.GenerateSchedule(i, 3, 3)) << "schedule " << i;
    EXPECT_EQ(s.size(), 6u);
    size_t alternations = 0;
    for (size_t j = 1; j < s.size(); ++j) {
      alternations += s[j] != s[j - 1] ? 1 : 0;
    }
    EXPECT_LE(alternations, BaseOptions().max_preemptions + 1);
  }
}

TEST(ScheduleExplorerTest, CleanKernelSweepsClean) {
  ScheduleExplorer explorer(BaseOptions());
  Result<ScheduleExplorerReport> report = explorer.Explore(TenantA(), TenantB());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->Clean())
      << report->failures.front().what << " (fence " << report->failures.front().fence
      << ")";
  // Two baselines + the random schedules, each crash-swept.
  EXPECT_EQ(report->schedules_explored, 2 + BaseOptions().schedules);
  EXPECT_GT(explorer.stats().crash_points_explored.load(), 0u);
  EXPECT_GT(explorer.stats().fsck_runs.load(), 0u);
}

TEST(ScheduleExplorerTest, PlantedCanaryFoundMinimizedAndReplayable) {
  ScheduleExplorerOptions options = BaseOptions();
  options.schedules = 24;  // Enough seeded interleavings to hit a contended transfer.
  ScheduleExplorer explorer(options);
  explorer.injector().Arm(kFaultKernelLeakOnContendedTransfer, FaultPolicy::Always());

  Result<ScheduleExplorerReport> report = explorer.Explore(TenantA(), TenantB());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->Clean()) << "planted cross-tenant leak was not found";
  const ScheduleFailure& failure = report->failures.front();

  // The bug needs contention, so no FULL baseline fails — but the minimized repro may
  // legitimately LOOK sequential (tail truncation typically shrinks to "A holds the
  // lease, then B runs": e.g. AABB, where A's release step was cut). Assert it is not
  // one of the complete baselines rather than counting preemptions.
  EXPECT_FALSE(failure.baseline) << failure.what;
  EXPECT_FALSE(failure.what.empty());
  TenantScript a = TenantA();
  TenantScript b = TenantB();
  Schedule all_a_then_b(a.size(), 0);
  all_a_then_b.insert(all_a_then_b.end(), b.size(), 1);
  Schedule all_b_then_a(b.size(), 1);
  all_b_then_a.insert(all_b_then_a.end(), a.size(), 0);
  EXPECT_NE(failure.schedule, all_a_then_b);
  EXPECT_NE(failure.schedule, all_b_then_a);

  // Replayable from the bit-vector alone: a FRESH explorer with the same options
  // reproduces the failure verdict.
  ScheduleExplorer replayer(options);
  replayer.injector().Arm(kFaultKernelLeakOnContendedTransfer, FaultPolicy::Always());
  const ScheduleFailure replayed =
      replayer.Replay(TenantA(), TenantB(), failure.schedule);
  EXPECT_NE(replayed.fence, SIZE_MAX - 1) << "minimized schedule no longer fails";

  // Both zero-preemption baselines stay clean with the canary armed: the point is
  // invisible without cross-tenant contention.
  EXPECT_EQ(replayer.Replay(a, b, all_a_then_b).fence, SIZE_MAX - 1);
  EXPECT_EQ(replayer.Replay(a, b, all_b_then_a).fence, SIZE_MAX - 1);
}

}  // namespace
}  // namespace trio
