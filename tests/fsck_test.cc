// Tests for the offline checker: a clean FS sweeps clean; each global invariant's
// violation is reported; the fsck never modifies the pool.

#include <gtest/gtest.h>

#include <memory>

#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"
#include "src/verifier/fsck.h"

namespace trio {
namespace {

class FsckTest : public ::testing::Test {
 protected:
  FsckTest() : pool_(4096) {
    FormatOptions options;
    options.max_inodes = 1024;
    TRIO_CHECK_OK(Format(pool_, options));
    kernel_ = std::make_unique<KernelController>(pool_);
    TRIO_CHECK_OK(kernel_->Mount());
    fs_ = std::make_unique<ArckFs>(*kernel_);
  }

  void Populate() {
    TRIO_CHECK_OK(fs_->Mkdir("/a"));
    TRIO_CHECK_OK(fs_->Mkdir("/a/b"));
    for (int i = 0; i < 10; ++i) {
      Result<Fd> fd = fs_->Open("/a/f" + std::to_string(i), OpenFlags::CreateRw());
      TRIO_CHECK(fd.ok());
      std::string data(1000 * (i + 1), 'x');
      TRIO_CHECK(fs_->Pwrite(*fd, data.data(), data.size(), 0).ok());
      TRIO_CHECK_OK(fs_->Close(*fd));
    }
    // Reconcile everything so shadow inodes exist for all files.
    fs_.reset();
    fs_ = std::make_unique<ArckFs>(*kernel_);
  }

  // Finds the dirent of /a/f0 by raw scan (fsck-style, no LibFS involved).
  DirentBlock* FindDirent(const std::string& name) {
    DirentBlock* found = nullptr;
    const Superblock* sb = SuperblockOf(pool_);
    std::function<void(const DirentBlock*)> walk = [&](const DirentBlock* dir) {
      (void)ForEachDirent(pool_, dir->first_index_page,
                          [&](DirentBlock* d, Ino, PageNumber, size_t) -> Status {
                            if (d->Name() == name) {
                              found = d;
                            } else if (d->IsDirectory()) {
                              walk(d);
                            }
                            return OkStatus();
                          });
    };
    walk(&sb->root);
    return found;
  }

  NvmPool pool_;
  std::unique_ptr<KernelController> kernel_;
  std::unique_ptr<ArckFs> fs_;
};

TEST_F(FsckTest, CleanFileSystemSweepsClean) {
  Populate();
  Result<FsckReport> report = RunFsck(pool_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Clean()) << report->problems.size() << " problems, first: "
                               << (report->problems.empty()
                                       ? ""
                                       : report->problems[0].detail);
  EXPECT_EQ(report->directories, 3u);  // root, /a, /a/b.
  EXPECT_EQ(report->regular_files, 10u);
  EXPECT_EQ(report->bytes_in_files, 1000u * 55);
  EXPECT_GT(report->pages_in_use, 10u);
}

TEST_F(FsckTest, UnformattedPoolIsG1) {
  NvmPool raw(64);
  Result<FsckReport> report = RunFsck(raw);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->Clean());
  EXPECT_EQ(report->problems[0].invariant, "G1");
}

TEST_F(FsckTest, BadTypeBitsAreG2) {
  Populate();
  DirentBlock* d = FindDirent("f0");
  ASSERT_NE(d, nullptr);
  const uint32_t evil = d->mode & kModePermMask;
  pool_.Write(&d->mode, &evil, sizeof(evil));
  Result<FsckReport> report = RunFsck(pool_);
  ASSERT_FALSE(report->Clean());
  EXPECT_EQ(report->problems[0].invariant, "G2");
}

TEST_F(FsckTest, SharedPageIsG3) {
  Populate();
  DirentBlock* f0 = FindDirent("f0");
  DirentBlock* f1 = FindDirent("f1");
  auto* ip0 = reinterpret_cast<IndexPage*>(pool_.PageAddress(f0->first_index_page));
  auto* ip1 = reinterpret_cast<IndexPage*>(pool_.PageAddress(f1->first_index_page));
  pool_.Store64(&ip1->entries[0], ip0->entries[0]);
  Result<FsckReport> report = RunFsck(pool_);
  ASSERT_FALSE(report->Clean());
  bool found_g3 = false;
  for (const auto& problem : report->problems) {
    found_g3 |= problem.invariant == "G3";
  }
  EXPECT_TRUE(found_g3);
}

TEST_F(FsckTest, DuplicateInoIsG4) {
  Populate();
  DirentBlock* f0 = FindDirent("f0");
  DirentBlock* f1 = FindDirent("f1");
  pool_.Store64(&f1->ino, f0->ino);
  Result<FsckReport> report = RunFsck(pool_);
  ASSERT_FALSE(report->Clean());
  bool found_g4 = false;
  for (const auto& problem : report->problems) {
    found_g4 |= problem.invariant == "G4";
  }
  EXPECT_TRUE(found_g4);
}

TEST_F(FsckTest, ShadowMismatchIsG5) {
  Populate();
  DirentBlock* d = FindDirent("f3");
  const uint32_t evil = (d->mode & kModeTypeMask) | 0777;
  pool_.Write(&d->mode, &evil, sizeof(evil));
  Result<FsckReport> report = RunFsck(pool_);
  ASSERT_FALSE(report->Clean());
  EXPECT_EQ(report->problems[0].invariant, "G5");
}

TEST_F(FsckTest, OrphanShadowIsG6) {
  Populate();
  // Fabricate a live shadow inode nobody references.
  ShadowInode* shadow = ShadowInodeOf(pool_, 900);
  ShadowInode fake{kModeRegular | 0644, 0, 0, 1};
  pool_.Write(shadow, &fake, sizeof(fake));
  Result<FsckReport> report = RunFsck(pool_);
  ASSERT_FALSE(report->Clean());
  EXPECT_EQ(report->problems[0].invariant, "G6");
  EXPECT_EQ(report->problems[0].ino, 900u);
}

TEST_F(FsckTest, FsckDoesNotModifyThePool) {
  Populate();
  std::vector<char> before(pool_.num_pages() * kPageSize);
  std::memcpy(before.data(), pool_.base(), before.size());
  (void)RunFsck(pool_);
  EXPECT_EQ(std::memcmp(before.data(), pool_.base(), before.size()), 0);
}

}  // namespace
}  // namespace trio
