// Fleet-scale tests for the sharded kernel controller: a ctest-sized fleet smoke
// (64 LibFS tenants, Zipfian-shared files, concurrent cross-shard renames) plus one
// shard-canary regression test per lock bug fixed during the shard refactor:
//
//   * RevokeAfterHolderTeardownCompletes — the MapFile revoke livelock: a holder whose
//     node state was torn down before the kernel learned of its implicit grant used to
//     no-op every revoke callback, looping the mapper forever.
//   * UncooperativeHolderIsForceReleasedAfterCompletedRevoke — the kernel-side half of
//     the same bug: a completed revoke that does not dislodge the holder must escalate
//     to ForceRelease instead of re-issuing callbacks past the lease deadline.
//   * StaleGrantInvalidatedOnChmod — re-mapping a held grant re-checks the shadow
//     inode, so a permission change denies it.
//   * RequarantineKeepsEvictionOrder — the O(1) FIFO quarantine eviction must skip
//     stale sequence entries left behind when the same ino is quarantined twice.
//
// Randomized parts derive from TRIO_TEST_SEED (tests/test_seed.h) and replay exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/attacks/attacks.h"
#include "src/core/core_state.h"
#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"
#include "src/workloads/workloads.h"
#include "tests/test_seed.h"

namespace trio {
namespace {

class FleetTest : public ::testing::Test {
 protected:
  void Build(size_t shards) {
    pool_ = std::make_unique<NvmPool>(1 << 13);
    FormatOptions options;
    options.max_inodes = 4096;
    TRIO_CHECK_OK(Format(*pool_, options));
    KernelConfig config;
    config.controller_shards = shards;
    kernel_ = std::make_unique<KernelController>(*pool_, config);
    TRIO_CHECK_OK(kernel_->Mount());
  }

  std::unique_ptr<NvmPool> pool_;
  std::unique_ptr<KernelController> kernel_;
};

// ---- Fleet smoke: 64 tenants, Zipfian sharing, renames across the shard map ----

TEST_F(FleetTest, SixtyFourTenantsZipfianSharing) {
  Build(8);
  FleetConfig config;
  config.tenants = 64;
  config.shared_files = 64;
  config.seed = TestSeed();
  FleetWorkload fleet(*kernel_, config);
  ASSERT_TRUE(fleet.Prepare().ok());

  constexpr int kThreads = 4;
  constexpr uint64_t kOpsPerTenant = 20;
  const int per_thread = config.tenants / kThreads;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::vector<Status> first_failure(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int t = w * per_thread; t < (w + 1) * per_thread; ++t) {
        for (uint64_t i = 0; i < kOpsPerTenant; ++i) {
          Status status = fleet.Op(t, i);
          if (!status.ok()) {
            if (failures.fetch_add(1) == 0) {
              first_failure[w] = status;
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  std::string detail;
  for (const Status& status : first_failure) {
    if (!status.ok()) {
      detail = status.ToString();
    }
  }
  EXPECT_EQ(failures.load(), 0) << detail;

  uint64_t total_ops = 0;
  for (int t = 0; t < config.tenants; ++t) {
    total_ops += fleet.stats(t).ops;
  }
  EXPECT_EQ(total_ops, static_cast<uint64_t>(config.tenants) * kOpsPerTenant);
  // The rename mix must have exercised the two-phase cross-shard acquire at least once.
  EXPECT_GT(kernel_->stats().cross_shard_acquires.load(), 0u);
}

// ---- Concurrent cross-shard renames: opposite directions, consistent outcome ----

TEST_F(FleetTest, ConcurrentCrossShardRenamesConverge) {
  Build(8);
  constexpr int kTenants = 8;
  constexpr int kRounds = 10;
  ArckFsConfig fs_config;
  std::vector<std::unique_ptr<ArckFs>> tenants;
  for (int t = 0; t < kTenants; ++t) {
    tenants.push_back(std::make_unique<ArckFs>(*kernel_, fs_config));
  }
  ArckFs& provisioner = *tenants[0];
  TRIO_CHECK_OK(provisioner.Mkdir("/a"));
  TRIO_CHECK_OK(provisioner.Mkdir("/b"));
  for (int t = 0; t < kTenants; ++t) {
    Result<Fd> fd =
        provisioner.Open("/a/f" + std::to_string(t), OpenFlags::CreateTrunc());
    TRIO_CHECK(fd.ok());
    TRIO_CHECK(provisioner.Pwrite(*fd, "fleet", 5, 0).ok());
    TRIO_CHECK_OK(provisioner.Close(*fd));
  }
  TRIO_CHECK_OK(provisioner.ReleaseFile("/a"));
  TRIO_CHECK_OK(provisioner.ReleaseFile("/b"));
  for (int t = 0; t < kTenants; ++t) {
    TRIO_CHECK_OK(provisioner.ReleaseFile("/a/f" + std::to_string(t)));
  }

  // Each tenant shuttles its own file between the two directories; every rename
  // write-maps BOTH directories, so concurrent tenants continually revoke each other.
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      const std::string name = "/f" + std::to_string(t);
      for (int round = 0; round < kRounds; ++round) {
        const std::string from = (round % 2 == 0 ? "/a" : "/b") + name;
        const std::string to = (round % 2 == 0 ? "/b" : "/a") + name;
        Status moved = tenants[t]->Rename(from, to);
        if (!moved.ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // A fresh observer forces reconciliation of both directories: every file must be
  // found in exactly one of them (kRounds even => back in /a). A failure prints the
  // kernel's rare decisions along with it.
  ArckFs observer(*kernel_, fs_config);
  const KernelStats& stats = kernel_->stats();
  for (int t = 0; t < kTenants; ++t) {
    const std::string name = "/f" + std::to_string(t);
    const bool in_a = observer.Stat("/a" + name).ok();
    const bool in_b = observer.Stat("/b" + name).ok();
    EXPECT_TRUE(in_a != in_b) << name << " in_a=" << in_a << " in_b=" << in_b
                              << " children_claimed=" << stats.children_claimed.load()
                              << " transits_reclaimed=" << stats.transits_reclaimed.load()
                              << " verify_failures=" << stats.verify_failures.load()
                              << " files_quarantined=" << stats.files_quarantined.load();
  }
}

// ---- Canary: revoke of a holder that already tore down its node state ----

TEST_F(FleetTest, RevokeAfterHolderTeardownCompletes) {
  Build(8);
  ArckFsConfig fs_config;
  ArckFs creator(*kernel_, fs_config);
  TRIO_CHECK_OK(creator.Mkdir("/x"));
  Result<Fd> fd = creator.Open("/x/f", OpenFlags::CreateTrunc());
  TRIO_CHECK(fd.ok());
  TRIO_CHECK(creator.Pwrite(*fd, "payload", 7, 0).ok());
  TRIO_CHECK_OK(creator.Close(*fd));
  // Pathological release order: the file release is a kernel-side no-op (the kernel has
  // never heard of the ino), and the directory release then registers the child WITH an
  // implicit write grant to `creator` — whose node state is already gone.
  TRIO_CHECK_OK(creator.ReleaseFile("/x/f"));
  TRIO_CHECK_OK(creator.ReleaseFile("/x"));

  // Before the fix this spun forever: each revoke callback found no node state, skipped
  // the UnmapFile, and the kernel re-issued the callback indefinitely.
  ArckFs reader(*kernel_, fs_config);
  Result<Fd> rfd = reader.Open("/x/f", OpenFlags::ReadOnly());
  ASSERT_TRUE(rfd.ok()) << rfd.status().ToString();
  char buffer[7];
  Result<size_t> n = reader.Pread(*rfd, buffer, sizeof(buffer), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 7u);
  EXPECT_EQ(std::string(buffer, 7), "payload");
  TRIO_CHECK_OK(reader.Close(*rfd));
}

// ---- Canary: completed-but-ineffective revoke escalates to ForceRelease ----

TEST_F(FleetTest, UncooperativeHolderIsForceReleasedAfterCompletedRevoke) {
  Build(8);
  ArckFsConfig fs_config;
  ArckFs creator(*kernel_, fs_config);
  Result<Fd> fd = creator.Open("/hostage", OpenFlags::CreateTrunc());
  TRIO_CHECK(fd.ok());
  TRIO_CHECK(creator.Pwrite(*fd, "data", 4, 0).ok());
  TRIO_CHECK_OK(creator.Close(*fd));
  TRIO_CHECK_OK(creator.ReleaseFile("/"));
  TRIO_CHECK_OK(creator.ReleaseFile("/hostage"));
  Result<StatInfo> info = creator.Stat("/hostage");
  TRIO_CHECK(info.ok());

  // A raw registrant whose revoke callback completes without releasing anything — the
  // lease contract says it cannot stall a conflicting mapper beyond cooperation failure.
  LibFsOptions options;
  options.callbacks.revoke = [](Ino) {};
  LibFsId squatter = kernel_->RegisterLibFs(options);
  Result<MapInfo> grabbed = kernel_->MapFile(squatter, info->ino, true);
  ASSERT_TRUE(grabbed.ok()) << grabbed.status().ToString();

  ArckFs reader(*kernel_, fs_config);
  Result<Fd> rfd = reader.Open("/hostage", OpenFlags::ReadOnly());
  ASSERT_TRUE(rfd.ok()) << rfd.status().ToString();
  TRIO_CHECK_OK(reader.Close(*rfd));
  EXPECT_GE(kernel_->stats().forced_releases.load(), 1u);
  kernel_->UnregisterLibFs(squatter);
}

// ---- Canary: a held grant is re-checked against the shadow inode on every map ----

TEST_F(FleetTest, StaleGrantInvalidatedOnChmod) {
  Build(8);
  // Root is uid 0 / 0755, and uid 0 bypasses AccessAllowed entirely — so the actors
  // here must be non-root, working in a world-writable directory an admin provisions.
  ArckFs admin(*kernel_);
  TRIO_CHECK_OK(admin.Mkdir("/pub", 0777));
  TRIO_CHECK_OK(admin.ReleaseFile("/"));
  TRIO_CHECK_OK(admin.ReleaseFile("/pub"));

  ArckFsConfig owner_config;
  owner_config.uid = 100;
  owner_config.gid = 100;
  ArckFs owner(*kernel_, owner_config);
  Result<Fd> fd = owner.Open("/pub/secret", OpenFlags::CreateTrunc(), 0644);
  TRIO_CHECK(fd.ok());
  TRIO_CHECK(owner.Pwrite(*fd, "top", 3, 0).ok());
  TRIO_CHECK_OK(owner.Close(*fd));
  TRIO_CHECK_OK(owner.ReleaseFile("/pub"));
  TRIO_CHECK_OK(owner.ReleaseFile("/pub/secret"));

  ArckFsConfig other_config;
  other_config.uid = 200;
  other_config.gid = 200;
  ArckFs other(*kernel_, other_config);
  Result<Fd> rfd = other.Open("/pub/secret", OpenFlags::ReadOnly());
  ASSERT_TRUE(rfd.ok()) << rfd.status().ToString();
  Result<StatInfo> info = other.Stat("/pub/secret");
  TRIO_CHECK(info.ok());
  // The open holds a read grant; re-mapping revalidates it.
  ASSERT_TRUE(kernel_->MapFile(other.id(), info->ino, /*write=*/false).ok());

  TRIO_CHECK_OK(owner.Chmod("/pub/secret", 0600));
  // The re-map checks the shadow inode before it answers from the held grant, so it
  // denies: answering from the grant alone would hand uid 200 a file its permissions no
  // longer cover.
  Result<MapInfo> stale = kernel_->MapFile(other.id(), info->ino, /*write=*/false);
  EXPECT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().Is(ErrorCode::kPermission)) << stale.status().ToString();
  TRIO_CHECK_OK(other.Close(*rfd));
}

// ---- Cross-shard trust-boundary attacks (src/attacks #12 and #13) ----

TEST_F(FleetTest, CrossShardForeignClaimDetected) {
  Build(8);
  ArckFs victim(*kernel_);
  Result<Fd> fd = victim.Open("/prize", OpenFlags::CreateTrunc());
  TRIO_CHECK(fd.ok());
  TRIO_CHECK(victim.Pwrite(*fd, "gold", 4, 0).ok());
  TRIO_CHECK_OK(victim.Close(*fd));
  TRIO_CHECK_OK(victim.ReleaseFile("/"));
  TRIO_CHECK_OK(victim.ReleaseFile("/prize"));

  // The attacker owns /evil (with one pad file so the directory has a data page with
  // free slots) and must NOT write-map root, the victim's parent — release it first.
  MaliciousLibFs attacker(*kernel_);
  TRIO_CHECK_OK(attacker.Mkdir("/evil"));
  Result<Fd> pad = attacker.Open("/evil/pad", OpenFlags::CreateTrunc());
  TRIO_CHECK(pad.ok());
  TRIO_CHECK_OK(attacker.Close(*pad));
  TRIO_CHECK_OK(attacker.ReleaseFile("/evil/pad"));
  TRIO_CHECK_OK(attacker.ReleaseFile("/evil"));
  TRIO_CHECK_OK(attacker.ReleaseFile("/"));

  ASSERT_TRUE(attacker.AttackCrossShardForeignClaim("/evil", "/prize").ok());
  // The forged fields match the shadow inode exactly; only the cross-shard ownership
  // walk (the child's shard + its real parent's shard, taken in order) can reject it.
  Status released = attacker.ReleaseTarget("/evil");
  EXPECT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();

  // The victim's file is untouched and still reachable by an honest tenant.
  ArckFs reader(*kernel_);
  Result<Fd> rfd = reader.Open("/prize", OpenFlags::ReadOnly());
  ASSERT_TRUE(rfd.ok()) << rfd.status().ToString();
  char buffer[4];
  Result<size_t> n = reader.Pread(*rfd, buffer, sizeof(buffer), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buffer, *n), "gold");
  TRIO_CHECK_OK(reader.Close(*rfd));
}

TEST_F(FleetTest, MovedInPermissionLiftDetected) {
  Build(8);
  ArckFs victim(*kernel_);
  Result<Fd> fd = victim.Open("/lifted", OpenFlags::CreateTrunc(), 0644);
  TRIO_CHECK(fd.ok());
  TRIO_CHECK(victim.Pwrite(*fd, "data", 4, 0).ok());
  TRIO_CHECK_OK(victim.Close(*fd));
  TRIO_CHECK_OK(victim.ReleaseFile("/"));
  TRIO_CHECK_OK(victim.ReleaseFile("/lifted"));

  MaliciousLibFs attacker(*kernel_);
  TRIO_CHECK_OK(attacker.Mkdir("/evil2"));
  Result<Fd> pad = attacker.Open("/evil2/pad", OpenFlags::CreateTrunc());
  TRIO_CHECK(pad.ok());
  TRIO_CHECK_OK(attacker.Close(*pad));
  TRIO_CHECK_OK(attacker.ReleaseFile("/"));

  // The attack itself re-acquires root's WRITE map, so the cross-directory move is
  // permitted — the forgery is the mode/uid lift smuggled inside the "rename".
  ASSERT_TRUE(attacker.AttackMovedInPermissionLift("/evil2", "/lifted").ok());
  Status released = attacker.ReleaseTarget("/evil2");
  EXPECT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();

  // Ground truth unchanged: the shadow inode still says 0644.
  ArckFs reader(*kernel_);
  Result<StatInfo> info = reader.Stat("/lifted");
  TRIO_CHECK(info.ok());
  EXPECT_EQ(info->mode & 0777u, 0644u);
}

// ---- Canary: FIFO quarantine eviction skips stale re-quarantine entries ----

TEST_F(FleetTest, RequarantineKeepsEvictionOrder) {
  pool_ = std::make_unique<NvmPool>(1 << 13);
  FormatOptions options;
  options.max_inodes = 4096;
  TRIO_CHECK_OK(Format(*pool_, options));
  KernelConfig config;
  config.controller_shards = 8;
  config.max_quarantined_files = 2;
  kernel_ = std::make_unique<KernelController>(*pool_, config);
  TRIO_CHECK_OK(kernel_->Mount());

  ArckFs victim(*kernel_);
  MaliciousLibFs attacker(*kernel_);
  auto corrupt = [&](const std::string& path) {
    ASSERT_TRUE(attacker.AttackSizeBeyondCapacity(path).ok());
    Status released = attacker.ReleaseTarget(path);
    ASSERT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();
  };
  std::vector<Ino> inos;
  for (int i = 0; i < 3; ++i) {
    const std::string path = "/q" + std::to_string(i);
    Result<Fd> fd = victim.Open(path, OpenFlags::CreateTrunc());
    TRIO_CHECK(fd.ok());
    TRIO_CHECK(victim.Pwrite(*fd, "data", 4, 0).ok());
    TRIO_CHECK_OK(victim.Close(*fd));
    Result<StatInfo> info = victim.Stat(path);
    TRIO_CHECK(info.ok());
    inos.push_back(info->ino);
    TRIO_CHECK_OK(victim.ReleaseFile(path));
  }
  TRIO_CHECK_OK(victim.ReleaseFile("/"));

  // Quarantine q0 twice: the second impound supersedes the first, leaving a stale
  // sequence entry at the FIFO head. The naive "pop oldest" would evict q0 on the first
  // stale entry and then q0 AGAIN (double-count) or skip a live file, breaking the
  // oldest-first contract the deque-based rewrite must keep.
  corrupt("/q0");
  corrupt("/q0");
  EXPECT_EQ(kernel_->QuarantineCount(), 1u);
  corrupt("/q1");  // Count 2 == capacity, no eviction yet.
  EXPECT_EQ(kernel_->QuarantineCount(), 2u);
  corrupt("/q2");  // Evicts exactly one file: q0 (its LIVE entry, not the stale one).
  EXPECT_EQ(kernel_->QuarantineCount(), 2u);
  EXPECT_EQ(kernel_->stats().quarantine_evictions.load(), 1u);
  EXPECT_TRUE(kernel_->QuarantineErrorOf(inos[0]).Is(ErrorCode::kNotFound));
  EXPECT_FALSE(kernel_->QuarantineErrorOf(inos[1]).Is(ErrorCode::kNotFound));
  EXPECT_FALSE(kernel_->QuarantineErrorOf(inos[2]).Is(ErrorCode::kNotFound));
}

}  // namespace
}  // namespace trio
