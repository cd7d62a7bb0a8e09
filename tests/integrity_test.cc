// §6.5 "Metadata Integrity": the eleven handcrafted attacks and the scripted corruption
// sweep. In every scenario the integrity verifier must detect the corruption and the
// kernel controller must restore the file to a consistent state, confining the damage to
// the attacker (§3.2's guarantee).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/attacks/attacks.h"
#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"
#include "src/verifier/verify_error.h"

namespace trio {
namespace {

class IntegrityTest : public ::testing::Test {
 protected:
  IntegrityTest() : pool_(8192) {
    FormatOptions options;
    options.max_inodes = 4096;
    TRIO_CHECK_OK(Format(pool_, options));
    kernel_ = std::make_unique<KernelController>(pool_);
    TRIO_CHECK_OK(kernel_->Mount());
    victim_ = std::make_unique<ArckFs>(*kernel_);
    attacker_ = std::make_unique<MaliciousLibFs>(*kernel_);
  }

  ~IntegrityTest() override {
    attacker_.reset();
    victim_.reset();
  }

  // Victim creates a file with content and releases it so the attacker can map it.
  void VictimCreates(const std::string& path, const std::string& content) {
    Result<Fd> fd = victim_->Open(path, OpenFlags::CreateTrunc());
    TRIO_CHECK(fd.ok()) << fd.status().ToString();
    TRIO_CHECK(victim_->Pwrite(*fd, content.data(), content.size(), 0).ok());
    TRIO_CHECK_OK(victim_->Close(*fd));
    TRIO_CHECK_OK(victim_->ReleaseFile(path));
    TRIO_CHECK_OK(victim_->ReleaseFile("/"));
  }

  std::string VictimReads(const std::string& path) {
    Result<Fd> fd = victim_->Open(path, OpenFlags::ReadOnly());
    TRIO_CHECK(fd.ok()) << fd.status().ToString();
    Result<StatInfo> info = victim_->Stat(path);
    TRIO_CHECK(info.ok());
    std::string out(info->size, '\0');
    Result<size_t> n = victim_->Pread(*fd, out.data(), out.size(), 0);
    TRIO_CHECK(n.ok()) << n.status().ToString();
    out.resize(*n);
    TRIO_CHECK_OK(victim_->Close(*fd));
    return out;
  }

  NvmPool pool_;
  std::unique_ptr<KernelController> kernel_;
  std::unique_ptr<ArckFs> victim_;
  std::unique_ptr<MaliciousLibFs> attacker_;
};

TEST_F(IntegrityTest, MmuBlocksUnmappedAccess) {
  EXPECT_TRUE(attacker_->ProbeUnmappedPageFaults());
}

TEST_F(IntegrityTest, Attack1_IndexPointerHijackDetectedAndRolledBack) {
  VictimCreates("/target", "precious data");
  ASSERT_TRUE(attacker_->AttackPointIndexOutside("/target").ok());
  Status released = attacker_->ReleaseTarget("/target");
  EXPECT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();
  EXPECT_GE(kernel_->stats().corruptions_rolled_back.load(), 1u);
  // The victim sees the checkpointed (pre-attack) state.
  EXPECT_EQ(VictimReads("/target"), "precious data");
}

TEST_F(IntegrityTest, Attack2_RemoveNonEmptyDirDetected) {
  TRIO_CHECK_OK(victim_->Mkdir("/dir"));
  VictimCreates("/dir/child", "x");
  TRIO_CHECK_OK(victim_->ReleaseFile("/dir"));
  ASSERT_TRUE(attacker_->AttackRemoveNonEmptyDir("/dir").ok());
  // The corruption lives in the root directory's pages; releasing the root verifies it.
  Status released = attacker_->ReleaseTarget("/");
  EXPECT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();
  // Rollback restored the dirent: the subtree is reachable again.
  EXPECT_EQ(VictimReads("/dir/child"), "x");
}

TEST_F(IntegrityTest, Attack3_SlashInNameDetected) {
  VictimCreates("/victimfile", "safe");
  ASSERT_TRUE(attacker_->AttackSlashInName("/victimfile").ok());
  Status released = attacker_->ReleaseTarget("/victimfile");
  EXPECT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();
  EXPECT_EQ(VictimReads("/victimfile"), "safe");
}

TEST_F(IntegrityTest, Attack4_IndexCycleDetected) {
  VictimCreates("/loopy", std::string(kPageSize * 2, 'l'));
  ASSERT_TRUE(attacker_->AttackIndexCycle("/loopy").ok());
  Status released = attacker_->ReleaseTarget("/loopy");
  EXPECT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();
  EXPECT_EQ(VictimReads("/loopy"), std::string(kPageSize * 2, 'l'));
}

TEST_F(IntegrityTest, Attack5_DuplicateNameDetected) {
  TRIO_CHECK_OK(victim_->Mkdir("/dups"));
  VictimCreates("/dups/a", "1");
  VictimCreates("/dups/b", "2");
  TRIO_CHECK_OK(victim_->ReleaseFile("/dups"));
  ASSERT_TRUE(attacker_->AttackDuplicateName("/dups").ok());
  Status released = attacker_->ReleaseTarget("/dups");
  EXPECT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();
  EXPECT_EQ(VictimReads("/dups/a"), "1");
  EXPECT_EQ(VictimReads("/dups/b"), "2");
}

TEST_F(IntegrityTest, Attack6_DoubleReferenceDetected) {
  VictimCreates("/dref", std::string(100, 'd'));
  ASSERT_TRUE(attacker_->AttackDoubleReference("/dref").ok());
  Status released = attacker_->ReleaseTarget("/dref");
  EXPECT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();
  EXPECT_EQ(VictimReads("/dref"), std::string(100, 'd'));
}

TEST_F(IntegrityTest, Attack7_PermissionEscalationDetected) {
  VictimCreates("/secret", "root only");
  ASSERT_TRUE(attacker_->AttackPermissionEscalation("/secret").ok());
  Status released = attacker_->ReleaseTarget("/secret");
  EXPECT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();
  // The shadow inode (ground truth) was never affected.
  EXPECT_EQ(VictimReads("/secret"), "root only");
}

TEST_F(IntegrityTest, Attack8_SizeBeyondCapacityDetected) {
  VictimCreates("/sz", "1234");
  ASSERT_TRUE(attacker_->AttackSizeBeyondCapacity("/sz").ok());
  Status released = attacker_->ReleaseTarget("/sz");
  EXPECT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();
  EXPECT_EQ(VictimReads("/sz"), "1234");
}

TEST_F(IntegrityTest, Attack9_StealForeignPageDetected) {
  VictimCreates("/mine", std::string(kPageSize, 'm'));
  VictimCreates("/theirs", std::string(kPageSize, 't'));
  // Find a page belonging to /theirs via its stat + the kernel's ownership (the attacker
  // would learn addresses by probing; the test shortcuts that).
  Result<StatInfo> info = victim_->Stat("/theirs");
  ASSERT_TRUE(info.ok());
  PageNumber foreign = 0;
  for (PageNumber p = FileRegionStart(pool_); p < pool_.num_pages(); ++p) {
    PageState state = kernel_->StateOfPage(p);
    if (state.state == ResourceState::kOwned && state.owner == info->ino) {
      foreign = p;
      break;
    }
  }
  ASSERT_NE(foreign, 0u);
  ASSERT_TRUE(attacker_->AttackStealForeignPage("/mine", foreign).ok());
  Status released = attacker_->ReleaseTarget("/mine");
  EXPECT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();
  EXPECT_EQ(VictimReads("/theirs"), std::string(kPageSize, 't'));
}

TEST_F(IntegrityTest, Attack10_InvalidTypeDetected) {
  VictimCreates("/typ", "t");
  ASSERT_TRUE(attacker_->AttackInvalidType("/typ").ok());
  Status released = attacker_->ReleaseTarget("/typ");
  EXPECT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();
  EXPECT_EQ(VictimReads("/typ"), "t");
}

TEST_F(IntegrityTest, Attack11_ReservedBytePayloadDetected) {
  VictimCreates("/resv", "r");
  ASSERT_TRUE(attacker_->AttackReservedBytes("/resv").ok());
  Status released = attacker_->ReleaseTarget("/resv");
  EXPECT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();
  EXPECT_EQ(VictimReads("/resv"), "r");
}

TEST_F(IntegrityTest, VictimAccessAloneTriggersDetection) {
  // No explicit release: the victim's map request revokes the attacker, and the kernel
  // verifies on that path too.
  VictimCreates("/auto", "clean");
  ASSERT_TRUE(attacker_->AttackSizeBeyondCapacity("/auto").ok());
  const uint64_t failures_before = kernel_->stats().verify_failures.load();
  EXPECT_EQ(VictimReads("/auto"), "clean");
  EXPECT_GT(kernel_->stats().verify_failures.load(), failures_before);
}

TEST_F(IntegrityTest, FixCallbackGetsAChance) {
  // A LibFS that repairs its own corruption passes re-verification; no rollback happens.
  NvmPool local_pool(4096);
  FormatOptions options;
  options.max_inodes = 1024;
  TRIO_CHECK_OK(Format(local_pool, options));
  // The default 10ms fix deadline assumes an idle machine; under a loaded CI box the
  // watchdog thread may not even be scheduled before it expires, abandoning a perfectly
  // cooperative callback. This test is about the fix path, not the deadline — pin a
  // load-tolerant budget (the deadline itself is covered by the hung-callback tests).
  KernelConfig kernel_config;
  kernel_config.fix_timeout_ms = 2000;
  KernelController kernel(local_pool, kernel_config);
  TRIO_CHECK_OK(kernel.Mount());
  {
    uint64_t* corrupted_size = nullptr;
    ArckFsConfig config;
    config.fix_corruption = [&](Ino, const Status&) {
      if (corrupted_size != nullptr) {
        local_pool.CommitStore64(corrupted_size, 4);  // Restore the honest size.
        return true;
      }
      return false;
    };
    MaliciousLibFs fixer(kernel, config);
    Result<Fd> fd = fixer.Open("/f", OpenFlags::CreateTrunc());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(fixer.Pwrite(*fd, "abcd", 4, 0).ok());
    ASSERT_TRUE(fixer.Close(*fd).ok());
    Result<DirentBlock*> dirent = fixer.MapTarget("/f");
    ASSERT_TRUE(dirent.ok());
    corrupted_size = &(*dirent)->size;
    ASSERT_TRUE(fixer.AttackSizeBeyondCapacity("/f").ok());
    Status released = fixer.ReleaseTarget("/f");
    EXPECT_TRUE(released.ok()) << released.ToString();
    EXPECT_GE(kernel.stats().corruptions_fixed_by_libfs.load(), 1u);
    EXPECT_EQ(kernel.stats().corruptions_rolled_back.load(), 0u);
  }
  TRIO_CHECK_OK(kernel.Unmount());
}

// ---- The verified chain a release compares against ----

// A session that changed nothing compares the file's chain with the one the last passing
// verification kept, and does not walk it. After a rollback that chain is not trusted: the
// next release walks, and only the one after compares again.
TEST_F(IntegrityTest, AfterARollbackTheNextReleaseWalks) {
  VictimCreates("/kept", std::string(2 * kPageSize, 'k'));
  const VerifierStats& stats = kernel_->verifier().stats();
  auto unchanged_session = [&] {
    TRIO_CHECK(attacker_->MapTarget("/kept").ok());
    return attacker_->ReleaseTarget("/kept");
  };
  uint64_t hits = stats.compare_hits.load();
  ASSERT_TRUE(unchanged_session().ok());
  EXPECT_EQ(stats.compare_hits.load(), hits + 1);

  ASSERT_TRUE(attacker_->AttackPointIndexOutside("/kept").ok());
  ASSERT_TRUE(attacker_->ReleaseTarget("/kept").Is(ErrorCode::kCorrupted));
  hits = stats.compare_hits.load();
  const uint64_t scanned = stats.pages_scanned.load();
  ASSERT_TRUE(unchanged_session().ok());
  EXPECT_EQ(stats.compare_hits.load(), hits);
  EXPECT_EQ(stats.pages_scanned.load(), scanned + 3);  // The index page and two data pages.
  ASSERT_TRUE(unchanged_session().ok());
  EXPECT_EQ(stats.compare_hits.load(), hits + 1);
  EXPECT_EQ(VictimReads("/kept"), std::string(2 * kPageSize, 'k'));
}

// A writer that frees one of its file's pages through the kernel but leaves it in the
// chain changes no chain byte: the chain kept at the last release is no longer trusted, so
// the release walks and finds the page gone from the file.
TEST_F(IntegrityTest, AFreedPageLeftInTheChainIsCaughtAtRelease) {
  VictimCreates("/freed", std::string(2 * kPageSize, 'f'));
  Result<DirentBlock*> dirent = attacker_->MapTarget("/freed");
  ASSERT_TRUE(dirent.ok());
  const auto* index =
      reinterpret_cast<const IndexPage*>(pool_.PageAddress((*dirent)->first_index_page));
  const uint64_t hits = kernel_->verifier().stats().compare_hits.load();
  ASSERT_TRUE(kernel_->FreePages(attacker_->id(), {index->entries[0]}).ok());
  Status released = attacker_->ReleaseTarget("/freed");
  EXPECT_EQ(VerifyError::FromStatus(released).cls, VerifyErrorClass::kForeignPage)
      << released.ToString();
  EXPECT_EQ(kernel_->verifier().stats().compare_hits.load(), hits);
}

// After a mount no chain is trusted: each file's first release walks, so a chain the
// mount found damaged is caught although the session changed nothing.
TEST_F(IntegrityTest, AChainDamagedAtMountIsWalkedAndCaught) {
  VictimCreates("/a", std::string(kPageSize, 'a'));
  VictimCreates("/b", std::string(kPageSize, 'b'));
  auto index_of = [&](const DirentBlock* dirent) {
    return reinterpret_cast<IndexPage*>(pool_.PageAddress(dirent->first_index_page));
  };
  Result<DirentBlock*> a = attacker_->MapTarget("/a");
  ASSERT_TRUE(a.ok());
  const PageNumber a_data = index_of(*a)->entries[0];
  ASSERT_TRUE(attacker_->ReleaseTarget("/a").ok());
  Result<DirentBlock*> b = attacker_->MapTarget("/b");
  ASSERT_TRUE(b.ok());
  IndexPage* b_index = index_of(*b);
  ASSERT_TRUE(attacker_->ReleaseTarget("/b").ok());
  attacker_.reset();
  victim_.reset();
  ASSERT_TRUE(kernel_->Unmount().ok());

  // Unmounted, /b's chain gains a reference to /a's data page. The mount scan gives the
  // page to /a, which comes first, and stops /b's walk there.
  pool_.CommitStore64(&b_index->entries[1], a_data);
  kernel_ = std::make_unique<KernelController>(pool_);
  ASSERT_TRUE(kernel_->Mount().ok());
  victim_ = std::make_unique<ArckFs>(*kernel_);
  attacker_ = std::make_unique<MaliciousLibFs>(*kernel_);
  const VerifierStats& stats = kernel_->verifier().stats();
  for (const char* path : {"/a", "/b"}) {
    ASSERT_TRUE(attacker_->MapTarget(path).ok()) << path;
  }
  EXPECT_TRUE(attacker_->ReleaseTarget("/a").ok());
  EXPECT_TRUE(attacker_->ReleaseTarget("/b").Is(ErrorCode::kCorrupted));
  EXPECT_EQ(stats.compare_hits.load(), 0u);
  ASSERT_TRUE(attacker_->MapTarget("/a").ok());
  EXPECT_TRUE(attacker_->ReleaseTarget("/a").ok());
  EXPECT_EQ(stats.compare_hits.load(), 1u);
  EXPECT_EQ(VictimReads("/a"), std::string(kPageSize, 'a'));
  EXPECT_EQ(VictimReads("/b"), std::string(kPageSize, 'b'));
}

// ---- Scripted corruption sweep (the "134 corruption scenarios" of §6.5) ----

class CorruptionSweepTest : public IntegrityTest,
                            public ::testing::WithParamInterface<std::tuple<int, int>> {};

TEST_P(CorruptionSweepTest, DetectedAndRecovered) {
  const size_t scenario = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  const std::string name = CorruptionScenarioName(scenario);

  // dir-targeted scripts corrupt a directory's metadata; everything else hits a file.
  const bool dir_target = name == "dir_size_nonzero" || name == "dir_index_cycle";
  std::string path;
  if (dir_target) {
    TRIO_CHECK_OK(victim_->Mkdir("/swept"));
    VictimCreates("/swept/inner", "i");
    TRIO_CHECK_OK(victim_->ReleaseFile("/swept"));
    path = "/swept";
  } else {
    path = "/sweep_target";
    VictimCreates(path, std::string(2 * kPageSize, 's'));
  }

  Status applied = ApplyScriptedCorruption(*attacker_, path, scenario, seed);
  ASSERT_TRUE(applied.ok()) << name << ": " << applied.ToString();

  Status released = attacker_->ReleaseTarget(path);
  EXPECT_TRUE(released.Is(ErrorCode::kCorrupted))
      << name << " seed " << seed << ": " << released.ToString();

  // The kernel restored a consistent state: the victim can still use the file system.
  if (dir_target) {
    EXPECT_EQ(VictimReads("/swept/inner"), "i");
  } else {
    EXPECT_EQ(VictimReads(path), std::string(2 * kPageSize, 's'));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScriptsManySeeds, CorruptionSweepTest,
    ::testing::Combine(::testing::Range(0, static_cast<int>(CorruptionScenarioCount())),
                       ::testing::Range(0, 8)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return CorruptionScenarioName(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace trio
