// End-to-end tests of ArckFS over the full Trio stack: kernel controller + verifier +
// LibFS on the emulated NVM pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/core/core_state.h"
#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"
#include "tests/test_seed.h"

namespace trio {
namespace {

class ArckFsTest : public ::testing::Test {
 protected:
  ArckFsTest() : pool_(8192) {
    FormatOptions options;
    options.max_inodes = 4096;
    TRIO_CHECK_OK(Format(pool_, options));
    kernel_ = std::make_unique<KernelController>(pool_);
    TRIO_CHECK_OK(kernel_->Mount());
    fs_ = std::make_unique<ArckFs>(*kernel_);
  }

  ~ArckFsTest() override {
    fs_.reset();
    TRIO_CHECK_OK(kernel_->Unmount());
  }

  std::string ReadAll(const std::string& path) {
    Result<Fd> fd = fs_->Open(path, OpenFlags::ReadOnly());
    TRIO_CHECK(fd.ok()) << fd.status().ToString();
    Result<StatInfo> info = fs_->Stat(path);
    TRIO_CHECK(info.ok());
    std::string out(info->size, '\0');
    Result<size_t> n = fs_->Pread(*fd, out.data(), out.size(), 0);
    TRIO_CHECK(n.ok());
    out.resize(*n);
    TRIO_CHECK_OK(fs_->Close(*fd));
    return out;
  }

  void WriteFile(const std::string& path, const std::string& data, ArckFs* fs = nullptr) {
    fs = fs != nullptr ? fs : fs_.get();
    Result<Fd> fd = fs->Open(path, OpenFlags::CreateTrunc());
    TRIO_CHECK(fd.ok()) << fd.status().ToString();
    Result<size_t> n = fs->Pwrite(*fd, data.data(), data.size(), 0);
    TRIO_CHECK(n.ok()) << n.status().ToString();
    TRIO_CHECK_OK(fs->Close(*fd));
  }

  // What a LibFS registered now reads from `path`, or the error that stopped it.
  std::string ReadFresh(const std::string& path) {
    ArckFs fresh(*kernel_);
    Result<Fd> fd = fresh.Open(path, OpenFlags::ReadOnly());
    if (!fd.ok()) {
      return fd.status().ToString();
    }
    Result<StatInfo> info = fresh.Stat(path);
    std::string out(info.ok() ? info->size : 0, '\0');
    Result<size_t> n = fresh.Pread(*fd, out.data(), out.size(), 0);
    (void)fresh.Close(*fd);
    if (!n.ok()) {
      return n.status().ToString();
    }
    out.resize(*n);
    return out;
  }

  // Another LibFS extends `path`, which holds `original`, to three pages and releases it.
  // No verification may have failed and nothing may be quarantined, and a fresh LibFS
  // reads the three pages: the kernel found the file at the slot its directory names.
  void ExpectAnotherLibFsExtends(const std::string& path, const std::string& original) {
    const std::string tail(3 * kPageSize - original.size(), 'e');
    {
      ArckFs extender(*kernel_);
      Result<Fd> fd = extender.Open(path, OpenFlags::ReadWrite());
      ASSERT_TRUE(fd.ok()) << fd.status().ToString();
      Result<size_t> n = extender.Pwrite(*fd, tail.data(), tail.size(), original.size());
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      ASSERT_TRUE(extender.Close(*fd).ok());
      ASSERT_TRUE(extender.ReleaseFile(path).ok());
    }
    EXPECT_EQ(kernel_->stats().verify_failures.load(), 0u);
    EXPECT_EQ(kernel_->QuarantineCount(), 0u);
    const std::string read = ReadFresh(path);
    EXPECT_EQ(read.size(), 3 * kPageSize) << read.substr(0, 80);
    EXPECT_TRUE(read == original + tail);
  }

  // Creates /a/f holding "data" and an empty /b, and hands all three to the kernel.
  void MakeSourceAndTarget() {
    ASSERT_TRUE(fs_->Mkdir("/a").ok());
    ASSERT_TRUE(fs_->Mkdir("/b").ok());
    WriteFile("/a/f", "data");
    ASSERT_TRUE(fs_->ReleaseFile("/a/f").ok());
    ASSERT_TRUE(fs_->ReleaseFile("/a").ok());
    ASSERT_TRUE(fs_->ReleaseFile("/b").ok());
  }

  // /a is verified without f when another LibFS creates /a/g, and f then moves back into a
  // new slot of /a (g took the one it left), after the other LibFS released /a or while
  // it still holds it.
  void MoveBackAfterAnotherTenantCreatesInSource(bool release_source) {
    MakeSourceAndTarget();
    ArckFs other(*kernel_);
    ASSERT_TRUE(fs_->Rename("/a/f", "/b/f").ok());
    WriteFile("/a/g", "gg", &other);
    if (release_source) {
      ASSERT_TRUE(other.ReleaseFile("/a").ok());
    }
    ASSERT_TRUE(fs_->Rename("/b/f", "/a/f").ok());
    ASSERT_TRUE(fs_->ReleaseFile("/a").ok());
    ASSERT_TRUE(fs_->ReleaseFile("/b").ok());
    ExpectAnotherLibFsExtends("/a/f", "data");
    EXPECT_EQ(ReadFresh("/a/g"), "gg");
  }

  NvmPool pool_;
  std::unique_ptr<KernelController> kernel_;
  std::unique_ptr<ArckFs> fs_;
};

TEST_F(ArckFsTest, CreateWriteReadBack) {
  WriteFile("/hello.txt", "hello, trio!");
  EXPECT_EQ(ReadAll("/hello.txt"), "hello, trio!");
}

TEST_F(ArckFsTest, OpenMissingFails) {
  EXPECT_TRUE(fs_->Open("/nope", OpenFlags::ReadOnly()).status().Is(ErrorCode::kNotFound));
}

TEST_F(ArckFsTest, ExclusiveCreateFailsOnExisting) {
  WriteFile("/f", "x");
  OpenFlags flags = OpenFlags::CreateRw();
  flags.exclusive = true;
  EXPECT_TRUE(fs_->Open("/f", flags).status().Is(ErrorCode::kExists));
}

TEST_F(ArckFsTest, StatReportsSizeAndType) {
  WriteFile("/f", std::string(5000, 'a'));
  Result<StatInfo> info = fs_->Stat("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, 5000u);
  EXPECT_TRUE(info->IsRegular());
  EXPECT_FALSE(info->IsDirectory());

  Result<StatInfo> root = fs_->Stat("/");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->IsDirectory());
  EXPECT_EQ(root->ino, kRootIno);
}

TEST_F(ArckFsTest, CursorReadWrite) {
  Result<Fd> fd = fs_->Open("/c", OpenFlags::CreateRw());
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(*fs_->Write(*fd, "abc", 3), 3u);
  EXPECT_EQ(*fs_->Write(*fd, "def", 3), 3u);
  ASSERT_TRUE(fs_->Seek(*fd, 0).ok());
  char buf[7] = {};
  EXPECT_EQ(*fs_->Read(*fd, buf, 6), 6u);
  EXPECT_STREQ(buf, "abcdef");
  EXPECT_TRUE(fs_->Close(*fd).ok());
}

TEST_F(ArckFsTest, AppendMode) {
  WriteFile("/log", "one");
  OpenFlags flags = OpenFlags::ReadWrite();
  flags.append = true;
  Result<Fd> fd = fs_->Open("/log", flags);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(*fs_->Write(*fd, "two", 3), 3u);
  EXPECT_TRUE(fs_->Close(*fd).ok());
  EXPECT_EQ(ReadAll("/log"), "onetwo");
}

TEST_F(ArckFsTest, LargeFileCrossesIndexPages) {
  // > 511 data pages forces a second index page (2.5 MiB > 511 * 4 KiB).
  const size_t size = 650 * kPageSize;
  std::string data(size, '\0');
  Rng rng(TestSeed());
  for (auto& c : data) {
    c = static_cast<char>('a' + rng.Below(26));
  }
  WriteFile("/big", data);
  EXPECT_EQ(ReadAll("/big"), data);
}

TEST_F(ArckFsTest, SparseWriteReadsZerosInHoles) {
  Result<Fd> fd = fs_->Open("/sparse", OpenFlags::CreateRw());
  ASSERT_TRUE(fd.ok());
  // Write at 1 MiB, leaving a hole below.
  ASSERT_TRUE(fs_->Pwrite(*fd, "tail", 4, 1 << 20).ok());
  char buf[16];
  Result<size_t> n = fs_->Pread(*fd, buf, 16, 4096);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 16u);
  for (char c : std::string(buf, 16)) {
    EXPECT_EQ(c, 0);
  }
  n = fs_->Pread(*fd, buf, 4, 1 << 20);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, 4), "tail");
  EXPECT_TRUE(fs_->Close(*fd).ok());
}

TEST_F(ArckFsTest, ReadPastEofReturnsShort) {
  WriteFile("/short", "12345");
  Result<Fd> fd = fs_->Open("/short", OpenFlags::ReadOnly());
  ASSERT_TRUE(fd.ok());
  char buf[100];
  EXPECT_EQ(*fs_->Pread(*fd, buf, 100, 0), 5u);
  EXPECT_EQ(*fs_->Pread(*fd, buf, 100, 5), 0u);
  EXPECT_EQ(*fs_->Pread(*fd, buf, 100, 500), 0u);
  EXPECT_TRUE(fs_->Close(*fd).ok());
}

TEST_F(ArckFsTest, OverwriteInPlace) {
  WriteFile("/ow", "aaaaaaaaaa");
  Result<Fd> fd = fs_->Open("/ow", OpenFlags::ReadWrite());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Pwrite(*fd, "BB", 2, 4).ok());
  EXPECT_TRUE(fs_->Close(*fd).ok());
  EXPECT_EQ(ReadAll("/ow"), "aaaaBBaaaa");
}

TEST_F(ArckFsTest, TruncateShrinkAndGrow) {
  WriteFile("/t", "0123456789");
  ASSERT_TRUE(fs_->Truncate("/t", 4).ok());
  EXPECT_EQ(ReadAll("/t"), "0123");
  ASSERT_TRUE(fs_->Truncate("/t", 8).ok());
  std::string grown = ReadAll("/t");
  ASSERT_EQ(grown.size(), 8u);
  EXPECT_EQ(grown.substr(0, 4), "0123");
  EXPECT_EQ(grown.substr(4), std::string(4, '\0'));  // Zero-padded, not stale "4567".
}

TEST_F(ArckFsTest, TruncateAcrossPages) {
  WriteFile("/tp", std::string(3 * kPageSize, 'x'));
  ASSERT_TRUE(fs_->Truncate("/tp", kPageSize + 10).ok());
  Result<StatInfo> info = fs_->Stat("/tp");
  EXPECT_EQ(info->size, kPageSize + 10);
  std::string data = ReadAll("/tp");
  EXPECT_EQ(data, std::string(kPageSize + 10, 'x'));
}

TEST_F(ArckFsTest, MkdirAndNest) {
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b/c").ok());
  WriteFile("/a/b/c/deep.txt", "deep");
  EXPECT_EQ(ReadAll("/a/b/c/deep.txt"), "deep");
  Result<StatInfo> info = fs_->Stat("/a/b");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->IsDirectory());
}

TEST_F(ArckFsTest, MkdirExistingFails) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  EXPECT_TRUE(fs_->Mkdir("/d").Is(ErrorCode::kExists));
}

TEST_F(ArckFsTest, ReadDirListsEntries) {
  ASSERT_TRUE(fs_->Mkdir("/dir").ok());
  WriteFile("/dir/f1", "1");
  WriteFile("/dir/f2", "2");
  ASSERT_TRUE(fs_->Mkdir("/dir/sub").ok());
  Result<std::vector<DirEntryInfo>> entries = fs_->ReadDir("/dir");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 3u);
  int dirs = 0;
  for (const auto& e : *entries) {
    dirs += e.is_dir ? 1 : 0;
  }
  EXPECT_EQ(dirs, 1);
}

TEST_F(ArckFsTest, UnlinkRemovesFile) {
  WriteFile("/u", "x");
  ASSERT_TRUE(fs_->Unlink("/u").ok());
  EXPECT_TRUE(fs_->Stat("/u").status().Is(ErrorCode::kNotFound));
  EXPECT_TRUE(fs_->Unlink("/u").Is(ErrorCode::kNotFound));
}

TEST_F(ArckFsTest, UnlinkDirectoryFails) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  EXPECT_TRUE(fs_->Unlink("/d").Is(ErrorCode::kIsDir));
}

TEST_F(ArckFsTest, RmdirRequiresEmpty) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  WriteFile("/d/f", "x");
  EXPECT_TRUE(fs_->Rmdir("/d").Is(ErrorCode::kNotEmpty));
  ASSERT_TRUE(fs_->Unlink("/d/f").ok());
  EXPECT_TRUE(fs_->Rmdir("/d").ok());
  EXPECT_TRUE(fs_->Stat("/d").status().Is(ErrorCode::kNotFound));
}

TEST_F(ArckFsTest, RmdirOnFileFails) {
  WriteFile("/f", "x");
  EXPECT_TRUE(fs_->Rmdir("/f").Is(ErrorCode::kNotDir));
}

TEST_F(ArckFsTest, RenameSameDirectory) {
  WriteFile("/old", "payload");
  ASSERT_TRUE(fs_->Rename("/old", "/new").ok());
  EXPECT_TRUE(fs_->Stat("/old").status().Is(ErrorCode::kNotFound));
  EXPECT_EQ(ReadAll("/new"), "payload");
}

TEST_F(ArckFsTest, RenameAcrossDirectories) {
  ASSERT_TRUE(fs_->Mkdir("/src").ok());
  ASSERT_TRUE(fs_->Mkdir("/dst").ok());
  WriteFile("/src/f", "moved");
  ASSERT_TRUE(fs_->Rename("/src/f", "/dst/g").ok());
  EXPECT_TRUE(fs_->Stat("/src/f").status().Is(ErrorCode::kNotFound));
  EXPECT_EQ(ReadAll("/dst/g"), "moved");
}

TEST_F(ArckFsTest, RenameOverwritesExisting) {
  WriteFile("/a", "AAA");
  WriteFile("/b", "BBB");
  ASSERT_TRUE(fs_->Rename("/a", "/b").ok());
  EXPECT_TRUE(fs_->Stat("/a").status().Is(ErrorCode::kNotFound));
  EXPECT_EQ(ReadAll("/b"), "AAA");
}

TEST_F(ArckFsTest, RenameMissingSourceFails) {
  EXPECT_TRUE(fs_->Rename("/ghost", "/x").Is(ErrorCode::kNotFound));
}

TEST_F(ArckFsTest, CrossDirRenameOfNonEmptyDirRejected) {
  ASSERT_TRUE(fs_->Mkdir("/p").ok());
  ASSERT_TRUE(fs_->Mkdir("/q").ok());
  ASSERT_TRUE(fs_->Mkdir("/p/d").ok());
  WriteFile("/p/d/f", "x");
  EXPECT_TRUE(fs_->Rename("/p/d", "/q/d").Is(ErrorCode::kNotSupported));
  // Empty directories may move.
  ASSERT_TRUE(fs_->Unlink("/p/d/f").ok());
  EXPECT_TRUE(fs_->Rename("/p/d", "/q/d").ok());
  EXPECT_TRUE(fs_->Stat("/q/d")->IsDirectory());
}

TEST_F(ArckFsTest, FsyncIsNoopAndOk) {
  Result<Fd> fd = fs_->Open("/f", OpenFlags::CreateRw());
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(fs_->Fsync(*fd).ok());
  EXPECT_TRUE(fs_->Close(*fd).ok());
  EXPECT_TRUE(fs_->Fsync(*fd).Is(ErrorCode::kBadFd));
}

TEST_F(ArckFsTest, ManyFilesInOneDirectory) {
  ASSERT_TRUE(fs_->Mkdir("/many").ok());
  for (int i = 0; i < 300; ++i) {
    WriteFile("/many/file" + std::to_string(i), std::to_string(i));
  }
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(ReadAll("/many/file" + std::to_string(i)), std::to_string(i));
  }
  Result<std::vector<DirEntryInfo>> entries = fs_->ReadDir("/many");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 300u);
}

TEST_F(ArckFsTest, CreateDeleteRecyclesSpace) {
  // Churn must not exhaust the pool: deleted locally-created files recycle their leases.
  for (int round = 0; round < 50; ++round) {
    WriteFile("/churn", std::string(64 * kPageSize, 'x'));
    ASSERT_TRUE(fs_->Unlink("/churn").ok());
  }
}

TEST_F(ArckFsTest, InvalidPathsRejected) {
  EXPECT_TRUE(fs_->Stat("relative").status().Is(ErrorCode::kInvalidArgument));
  EXPECT_TRUE(fs_->Mkdir("/" + std::string(kMaxNameLen + 5, 'n')).Is(
      ErrorCode::kNameTooLong));
  EXPECT_TRUE(fs_->Stat("/a/../../x").status().Is(ErrorCode::kInvalidArgument));
}

TEST_F(ArckFsTest, ChmodUpdatesMode) {
  WriteFile("/perm", "x");
  ASSERT_TRUE(fs_->Chmod("/perm", 0600).ok());
  // Cached dirent copy was refreshed by the kernel.
  EXPECT_EQ(fs_->Stat("/perm")->mode & kModePermMask, 0600u);
}

TEST_F(ArckFsTest, PersistsAcrossRemount) {
  ASSERT_TRUE(fs_->Mkdir("/keep").ok());
  WriteFile("/keep/data", "persistent");
  // Clean shutdown.
  fs_.reset();
  TRIO_CHECK_OK(kernel_->Unmount());
  kernel_.reset();

  kernel_ = std::make_unique<KernelController>(pool_);
  ASSERT_TRUE(kernel_->Mount().ok());
  EXPECT_FALSE(kernel_->NeedsRecovery());
  fs_ = std::make_unique<ArckFs>(*kernel_);
  EXPECT_EQ(ReadAll("/keep/data"), "persistent");
  Result<std::vector<DirEntryInfo>> entries = fs_->ReadDir("/keep");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);
}

TEST_F(ArckFsTest, ConcurrentDisjointWritersOneFile) {
  WriteFile("/shared", std::string(8 * kPageSize, '-'));
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Result<Fd> fd = fs_->Open("/shared", OpenFlags::ReadWrite());
      ASSERT_TRUE(fd.ok());
      std::string mine(2 * kPageSize, static_cast<char>('A' + t));
      ASSERT_TRUE(fs_->Pwrite(*fd, mine.data(), mine.size(), t * 2 * kPageSize).ok());
      ASSERT_TRUE(fs_->Close(*fd).ok());
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  std::string data = ReadAll("/shared");
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(data[t * 2 * kPageSize], 'A' + t);
    EXPECT_EQ(data[(t + 1) * 2 * kPageSize - 1], 'A' + t);
  }
}

TEST_F(ArckFsTest, ConcurrentCreatesInOneDirectory) {
  ASSERT_TRUE(fs_->Mkdir("/conc").ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string path = "/conc/t" + std::to_string(t) + "_" + std::to_string(i);
        Result<Fd> fd = fs_->Open(path, OpenFlags::CreateRw());
        ASSERT_TRUE(fd.ok()) << fd.status().ToString();
        ASSERT_TRUE(fs_->Close(*fd).ok());
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  Result<std::vector<DirEntryInfo>> entries = fs_->ReadDir("/conc");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST_F(ArckFsTest, ConcurrentSameNameCreateExclusive) {
  ASSERT_TRUE(fs_->Mkdir("/race").ok());
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      OpenFlags flags = OpenFlags::CreateRw();
      flags.exclusive = true;
      Result<Fd> fd = fs_->Open("/race/one", flags);
      if (fd.ok()) {
        winners.fetch_add(1);
        ASSERT_TRUE(fs_->Close(*fd).ok());
      } else {
        EXPECT_TRUE(fd.status().Is(ErrorCode::kExists));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(winners.load(), 1);
}

// ---- Sharing between two LibFSes (the Trio handoff protocol, §3.2/§4.3) ----

TEST_F(ArckFsTest, TwoLibFsesShareAFile) {
  ArckFs other(*kernel_);
  WriteFile("/shared", "from fs1");
  // Writer must release before the other LibFS maps; the revoke path handles it even if
  // we do not release explicitly.
  Result<Fd> fd = other.Open("/shared", OpenFlags::ReadOnly());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  char buf[16] = {};
  Result<size_t> n = other.Pread(*fd, buf, sizeof(buf), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, *n), "from fs1");
  ASSERT_TRUE(other.Close(*fd).ok());
  EXPECT_GE(kernel_->stats().verifications.load(), 1u);
}

TEST_F(ArckFsTest, ExclusiveWriteHandoff) {
  ArckFs other(*kernel_);
  WriteFile("/pingpong", "v1");

  Result<Fd> fd2 = other.Open("/pingpong", OpenFlags::ReadWrite());
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(other.Pwrite(*fd2, "v2", 2, 0).ok());
  ASSERT_TRUE(other.Close(*fd2).ok());

  // Back to fs1: the kernel revokes fs2's grant, verifies, and remaps for us.
  EXPECT_EQ(ReadAll("/pingpong"), "v2");
  EXPECT_GE(kernel_->stats().verifications.load(), 2u);
  EXPECT_EQ(kernel_->stats().verify_failures.load(), 0u);
}

// Mapping a file, and upgrading a read grant to write, each take one MapFile crossing.
TEST_F(ArckFsTest, MappingAFileTheLibFsDoesNotHoldIsOneKernelCrossing) {
  {
    ArckFs creator(*kernel_);
    Result<Fd> fd = creator.Open("/f", OpenFlags::CreateTrunc());
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    ASSERT_TRUE(creator.Close(*fd).ok());
  }  // Unregistering hands "/" and "/f" back to the kernel.
  // Map "/" first, so each open below maps only "/f".
  ASSERT_TRUE(fs_->Stat("/f").ok());

  const uint64_t before_read = kernel_->stats().syscalls.load();
  Result<Fd> read_fd = fs_->Open("/f", OpenFlags::ReadOnly());
  ASSERT_TRUE(read_fd.ok()) << read_fd.status().ToString();
  EXPECT_EQ(kernel_->stats().syscalls.load() - before_read, 1u);

  const uint64_t before_write = kernel_->stats().syscalls.load();
  Result<Fd> write_fd = fs_->Open("/f", OpenFlags::ReadWrite());
  ASSERT_TRUE(write_fd.ok()) << write_fd.status().ToString();
  EXPECT_EQ(kernel_->stats().syscalls.load() - before_write, 1u);

  ASSERT_TRUE(fs_->Close(*read_fd).ok());
  ASSERT_TRUE(fs_->Close(*write_fd).ok());
}

TEST_F(ArckFsTest, WriterSeesOtherWritersCreations) {
  ArckFs other(*kernel_);
  ASSERT_TRUE(fs_->Mkdir("/box").ok());
  WriteFile("/box/from1", "1");

  Result<Fd> fd = other.Open("/box/from2", OpenFlags::CreateRw());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ASSERT_TRUE(other.Pwrite(*fd, "2", 1, 0).ok());
  ASSERT_TRUE(other.Close(*fd).ok());

  Result<std::vector<DirEntryInfo>> entries = fs_->ReadDir("/box");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
  EXPECT_EQ(ReadAll("/box/from2"), "2");
}

// The dirent ino is the publish word a create or rename commits with a release store
// (§4.4), and first_index_page is committed the same way when the file grows; the kernel's
// directory verifier and a LibFS's aux rebuild may scan the page while that happens (a
// holder forced past its lease can still be writing). One thread commits a spare slot's
// words on and off while the other verifies the directory and rebuilds a reader's aux
// state over the same page: each scan must load each word with acquire, once.
// Meant for ThreadSanitizer; its verdicts depend on the interleaving, so only their shape
// is checked here.
TEST_F(ArckFsTest, DirentScansLoadTheWordsTheCommitterPublishes) {
  ArckFs reader(*kernel_);
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  WriteFile("/d/a", "a");
  WriteFile("/d/b", "b");
  ASSERT_TRUE(fs_->ReleaseFile("/d").ok());
  ASSERT_TRUE(reader.Stat("/d/a").ok());

  // /d's dirent, and a free slot on its first data page dressed as a complete dirent
  // for the committer to publish and unpublish.
  DirentBlock* dir = nullptr;
  ASSERT_TRUE(ForEachDirent(pool_, SuperblockOf(pool_)->root.first_index_page,
                            [&](DirentBlock* d, Ino, PageNumber, size_t) -> Status {
                              dir = d->Name() == "d" ? d : dir;
                              return OkStatus();
                            })
                  .ok());
  ASSERT_NE(dir, nullptr);
  Result<PageNumber> data = LookupDataPage(pool_, dir->first_index_page, 0);
  ASSERT_TRUE(data.ok());
  DirentBlock* spare =
      &reinterpret_cast<DirDataPage*>(pool_.PageAddress(*data))->slots[kDirentsPerPage - 1];
  ASSERT_EQ(pool_.Load64(&spare->ino), kInvalidIno);
  DirentBlock shape = *spare;
  shape.mode = kModeRegular | 0644;
  shape.nlink = 1;
  shape.SetName("spare");
  pool_.Write(spare, &shape, sizeof(shape));
  constexpr Ino kSpareIno = 4000;

  VerifyRequest request;
  request.ino = pool_.Load64(&dir->ino);
  request.dirent = dir;
  // The committer runs until the scans are done, so it is storing while every scan
  // runs. The stop flag is relaxed: it must not order the two threads for TSan.
  std::atomic<bool> scanned{false};
  std::thread committer([&] {
    while (!scanned.load(std::memory_order_relaxed)) {
      pool_.CommitStore64(&spare->first_index_page, *data);  // The slot's file grows...
      pool_.CommitStore64(&spare->ino, kSpareIno);
      pool_.CommitStore64(&spare->first_index_page, 0);  // ...and is truncated.
      pool_.CommitStore64(&spare->ino, kInvalidIno);
    }
  });
  for (int i = 0; i < 200; ++i) {
    Result<VerifyReport> verdict = kernel_->verifier().Verify(request);
    EXPECT_TRUE(verdict.ok() || VerifyError::IsStructured(verdict.status()))
        << verdict.status().ToString();
    // Re-map /d and rebuild its aux state. EXPECT, not ASSERT: the committer must be
    // joined below.
    const bool rebuilt = reader.ReleaseFile("/d").ok() && reader.Stat("/d/a").ok();
    EXPECT_TRUE(rebuilt);
    if (!rebuilt) {
      break;
    }
  }
  scanned.store(true, std::memory_order_relaxed);
  committer.join();
}

TEST_F(ArckFsTest, RebuildAfterRevokeShowsOnlyTheNewCoreState) {
  ArckFs other(*kernel_);
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  WriteFile("/d/file", std::string(3 * kPageSize, 'x'));
  WriteFile("/d/gone", "g");
  WriteFile("/d/moved", "m");
  for (const char* path : {"/d", "/d/file", "/d/gone", "/d/moved"}) {
    ASSERT_TRUE(fs_->ReleaseFile(path).ok()) << path;
  }

  // B maps the file and the directory for reading and builds their aux state.
  Result<Fd> fd = other.Open("/d/file", OpenFlags::ReadOnly());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  std::string seen(3 * kPageSize, '\0');
  ASSERT_TRUE(other.Pread(*fd, seen.data(), seen.size(), 0).ok());
  EXPECT_EQ(seen.find_first_not_of('x'), std::string::npos);
  ASSERT_TRUE(other.Stat("/d/gone").ok());
  ASSERT_TRUE(other.ReadDir("/d").ok());
  const uint64_t revocations = other.libfs_stats().revocations.load();
  const uint64_t dropped = kernel_->stats().readers_dropped.load();
  const uint64_t teardowns = other.libfs_stats().reader_teardowns.load();

  // A takes both write grants, dropping B's read grants in the kernel without asking B:
  // the file loses its last two pages and gets new bytes in the third, and the directory
  // loses one name and renames another.
  {
    Result<Fd> afd = fs_->Open("/d/file", OpenFlags::ReadWrite());
    ASSERT_TRUE(afd.ok());
    ASSERT_TRUE(fs_->Ftruncate(*afd, kPageSize).ok());
    ASSERT_TRUE(fs_->Pwrite(*afd, "new", 3, 2 * kPageSize).ok());
    ASSERT_TRUE(fs_->Close(*afd).ok());
  }
  ASSERT_TRUE(fs_->Unlink("/d/gone").ok());
  ASSERT_TRUE(fs_->Rename("/d/moved", "/d/renamed").ok());
  EXPECT_EQ(kernel_->stats().readers_dropped.load(), dropped + 2);
  EXPECT_EQ(other.libfs_stats().revocations.load(), revocations);

  // B's next reads find both grants gone, tear the mappings down, map again and rebuild
  // in place, and see only what A left.
  std::string now(2 * kPageSize + 3, '?');
  Result<size_t> n = other.Pread(*fd, now.data(), now.size(), 0);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_EQ(*n, now.size());
  EXPECT_EQ(now.find_first_not_of('x'), kPageSize);
  EXPECT_EQ(now.find_first_not_of('\0', kPageSize), 2 * kPageSize);  // Page 1 is a hole.
  EXPECT_EQ(now.substr(2 * kPageSize), "new");
  ASSERT_TRUE(other.Close(*fd).ok());
  EXPECT_TRUE(other.Stat("/d/gone").status().Is(ErrorCode::kNotFound));
  EXPECT_TRUE(other.Stat("/d/moved").status().Is(ErrorCode::kNotFound));
  Result<std::vector<DirEntryInfo>> entries = other.ReadDir("/d");
  ASSERT_TRUE(entries.ok());
  std::vector<std::string> names;
  for (const DirEntryInfo& entry : *entries) {
    names.push_back(entry.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"file", "renamed"}));
  EXPECT_EQ(other.libfs_stats().reader_teardowns.load(), teardowns + 2);
  EXPECT_EQ(other.libfs_stats().revocations.load(), revocations);
  EXPECT_EQ(ReadAll("/d/renamed"), "m");
}

// B reads a 3-page file; A truncates it to one page and writes page 2, dropping B's read
// grant. B then opens the file read-write: the upgrade must rebuild B's auxiliary state
// from A's verified file before B writes. Through the old state, B's page-1 write would
// land in a page A's truncate took out of the file, and read back as zeros.
TEST_F(ArckFsTest, UpgradeAfterADroppedReadRebuildsBeforeWriting) {
  ArckFs other(*kernel_);
  WriteFile("/f", std::string(3 * kPageSize, 'x'));
  ASSERT_TRUE(fs_->ReleaseFile("/f").ok());
  {
    Result<Fd> fd = other.Open("/f", OpenFlags::ReadOnly());
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    std::string seen(3 * kPageSize, '\0');
    ASSERT_TRUE(other.Pread(*fd, seen.data(), seen.size(), 0).ok());
    ASSERT_TRUE(other.Close(*fd).ok());
  }
  {
    Result<Fd> fd = fs_->Open("/f", OpenFlags::ReadWrite());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(fs_->Ftruncate(*fd, kPageSize).ok());
    const std::string page2(kPageSize, 'z');
    ASSERT_TRUE(fs_->Pwrite(*fd, page2.data(), page2.size(), 2 * kPageSize).ok());
    ASSERT_TRUE(fs_->Close(*fd).ok());
  }
  {
    Result<Fd> fd = other.Open("/f", OpenFlags::ReadWrite());
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    const std::string page1(kPageSize, 'y');
    Result<size_t> n = other.Pwrite(*fd, page1.data(), page1.size(), kPageSize);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_EQ(*n, kPageSize);
    ASSERT_TRUE(other.Close(*fd).ok());
  }
  ASSERT_TRUE(other.ReleaseFile("/f").ok());
  EXPECT_EQ(ReadAll("/f"), std::string(kPageSize, 'x') + std::string(kPageSize, 'y') +
                               std::string(kPageSize, 'z'));
  EXPECT_EQ(kernel_->stats().verify_failures.load(), 0u);
}

// ---- Chain generations: a map skips RebuildAux when the file's chain did not change ----

// Reads the whole of `path` through `fs`.
std::string ReadThrough(ArckFs& fs, const std::string& path) {
  Result<StatInfo> info = fs.Stat(path);
  TRIO_CHECK(info.ok()) << info.status().ToString();
  Result<Fd> fd = fs.Open(path, OpenFlags::ReadOnly());
  TRIO_CHECK(fd.ok()) << fd.status().ToString();
  std::string out(info->size, '\0');
  Result<size_t> n = fs.Pread(*fd, out.data(), out.size(), 0);
  TRIO_CHECK(n.ok()) << n.status().ToString();
  out.resize(*n);
  TRIO_CHECK_OK(fs.Close(*fd));
  return out;
}

// Stores `data` at `offset` of `path` through `fs`, which keeps its write grant.
void WriteThrough(ArckFs& fs, const std::string& path, const std::string& data,
                  uint64_t offset) {
  Result<Fd> fd = fs.Open(path, OpenFlags::ReadWrite());
  TRIO_CHECK(fd.ok()) << fd.status().ToString();
  Result<size_t> n = fs.Pwrite(*fd, data.data(), data.size(), offset);
  TRIO_CHECK(n.ok()) << n.status().ToString();
  TRIO_CHECK_OK(fs.Close(*fd));
}

// A write grant drops the reader, but the writer only overwrites a page in place: the
// writer's release compares equal, the chain generation stays, and the reader's next map
// keeps its radix and reads the new bytes through it.
TEST_F(ArckFsTest, ReaderKeepsItsRadixWhenTheWriterChangedNoIndexPage) {
  ArckFs reader(*kernel_);
  WriteFile("/f", std::string(3 * kPageSize, 'a'));
  ASSERT_TRUE(fs_->ReleaseFile("/f").ok());
  ASSERT_EQ(ReadThrough(reader, "/f"), std::string(3 * kPageSize, 'a'));
  const uint64_t rebuilds = reader.libfs_stats().rebuilds.load();
  const uint64_t teardowns = reader.libfs_stats().reader_teardowns.load();
  const uint64_t hits = kernel_->verifier().stats().compare_hits.load();

  WriteThrough(*fs_, "/f", std::string(kPageSize, 'b'), kPageSize);
  EXPECT_EQ(ReadThrough(reader, "/f"), std::string(kPageSize, 'a') +
                                           std::string(kPageSize, 'b') +
                                           std::string(kPageSize, 'a'));
  EXPECT_EQ(reader.libfs_stats().rebuilds.load(), rebuilds);
  EXPECT_EQ(reader.libfs_stats().reader_teardowns.load(), teardowns + 1);
  EXPECT_EQ(kernel_->verifier().stats().compare_hits.load(), hits + 1);
}

// An appending writer links a new data page: its release walks the changed chain and moves
// the generation, so the reader rebuilds and sees the new page.
TEST_F(ArckFsTest, AnAppendingWriterMovesTheChainGeneration) {
  ArckFs reader(*kernel_);
  WriteFile("/f", std::string(2 * kPageSize, 'a'));
  ASSERT_TRUE(fs_->ReleaseFile("/f").ok());
  ASSERT_EQ(ReadThrough(reader, "/f"), std::string(2 * kPageSize, 'a'));
  const uint64_t rebuilds = reader.libfs_stats().rebuilds.load();

  WriteThrough(*fs_, "/f", std::string(kPageSize, 'c'), 2 * kPageSize);
  EXPECT_EQ(ReadThrough(reader, "/f"),
            std::string(2 * kPageSize, 'a') + std::string(kPageSize, 'c'));
  EXPECT_EQ(reader.libfs_stats().rebuilds.load(), rebuilds + 1);
}

// A reader still caches the node of a deleted file when its ino comes back for a new file.
// Every record's generation is new to the controller, so the node rebuilds.
TEST_F(ArckFsTest, ANodeCachedUnderARecycledInoRebuilds) {
  ArckFs reader(*kernel_);
  WriteFile("/x", std::string(2 * kPageSize, 'x'));
  ASSERT_TRUE(fs_->ReleaseFile("/x").ok());
  ASSERT_TRUE(fs_->ReleaseFile("/").ok());
  ASSERT_EQ(ReadThrough(reader, "/x"), std::string(2 * kPageSize, 'x'));
  Result<StatInfo> x = reader.Stat("/x");
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(fs_->Unlink("/x").ok());
  ASSERT_TRUE(fs_->ReleaseFile("/").ok());
  ASSERT_EQ(kernel_->StateOfIno(x->ino).state, ResourceState::kFree);

  ArckFsConfig one_ino;
  one_ino.ino_batch = 1;
  ArckFs creator(*kernel_, one_ino);
  {
    Result<Fd> fd = creator.Open("/y", OpenFlags::CreateTrunc());
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    ASSERT_TRUE(creator.Pwrite(*fd, "yy", 2, 0).ok());
    ASSERT_TRUE(creator.Close(*fd).ok());
  }
  ASSERT_TRUE(creator.ReleaseFile("/y").ok());
  ASSERT_TRUE(creator.ReleaseFile("/").ok());
  Result<StatInfo> y = reader.Stat("/y");
  ASSERT_TRUE(y.ok()) << y.status().ToString();
  ASSERT_EQ(y->ino, x->ino);

  const uint64_t rebuilds = reader.libfs_stats().rebuilds.load();
  EXPECT_EQ(ReadThrough(reader, "/y"), "yy");
  EXPECT_EQ(reader.libfs_stats().rebuilds.load(), rebuilds + 1);
}

// A clock that runs a hook once, on the first reading after its condition holds.
class HookClock : public Clock {
 public:
  uint64_t NowNs() override {
    std::function<void()> hook;
    {
      std::lock_guard<std::mutex> guard(mu_);
      if (hook_ && when_()) {
        hook.swap(hook_);
      }
    }
    if (hook) {
      hook();
    }
    return SystemClock::Instance()->NowNs();
  }
  void Arm(std::function<bool()> when, std::function<void()> hook) {
    std::lock_guard<std::mutex> guard(mu_);
    when_ = std::move(when);
    hook_ = std::move(hook);
  }

 private:
  std::mutex mu_;
  std::function<bool()> when_;
  std::function<void()> hook_;
};

// A write grant lands while a reader rebuilds: the reader cannot tell what the rebuild
// read, so it keeps no generation, and its next map rebuilds although the chain is the
// same. The hook takes the grant at RebuildAux's last clock reading, after the rebuild
// count moved.
TEST(ArckFsGenerationTest, AReaderWhoseRebuildRacedAWriteGrantRebuildsAtItsNextMap) {
  NvmPool pool(4096);
  FormatOptions options;
  options.max_inodes = 1024;
  TRIO_CHECK_OK(Format(pool, options));
  HookClock clock;
  KernelController kernel(pool, KernelConfig{}, &clock);
  TRIO_CHECK_OK(kernel.Mount());
  {
    ArckFs writer(kernel);
    ArckFs reader(kernel);
    LibFsOptions raw_options;
    LibFsId raw = kNoLibFs;
    raw_options.callbacks.revoke = [&](Ino ino) { (void)kernel.UnmapFile(raw, ino); };
    raw = kernel.RegisterLibFs(raw_options);

    {
      Result<Fd> fd = writer.Open("/f", OpenFlags::CreateTrunc());
      ASSERT_TRUE(fd.ok()) << fd.status().ToString();
      const std::string page(kPageSize, 'a');
      ASSERT_TRUE(writer.Pwrite(*fd, page.data(), page.size(), 0).ok());
      ASSERT_TRUE(writer.Close(*fd).ok());
    }
    ASSERT_TRUE(writer.ReleaseFile("/f").ok());
    ASSERT_TRUE(writer.ReleaseFile("/").ok());
    ASSERT_EQ(ReadThrough(reader, "/f"), std::string(kPageSize, 'a'));
    const Ino ino = reader.Stat("/f")->ino;

    // The writer appends a page, so the reader's next map rebuilds, and the hook hands the
    // file to `raw` just as that rebuild ends.
    WriteThrough(writer, "/f", std::string(kPageSize, 'b'), kPageSize);
    const uint64_t rebuilds = reader.libfs_stats().rebuilds.load();
    bool raced = false;
    clock.Arm([&] { return reader.libfs_stats().rebuilds.load() > rebuilds; },
              [&] { raced = kernel.MapFile(raw, ino, /*write=*/true).ok(); });
    EXPECT_EQ(ReadThrough(reader, "/f"),
              std::string(kPageSize, 'a') + std::string(kPageSize, 'b'));
    ASSERT_TRUE(raced);
    // The raced rebuild, then the one the next map ran, after revoking `raw`.
    EXPECT_EQ(reader.libfs_stats().rebuilds.load(), rebuilds + 2);
    kernel.UnregisterLibFs(raw);
  }
  TRIO_CHECK_OK(kernel.Unmount());
}

// Reaches the read-level machinery a test drives by hand.
class ProbeFs : public ArckFs {
 public:
  using ArckFs::ArckFs;
  using ArckFs::FileNode;
  using ArckFs::kWriteMapped;
  using ArckFs::LockForOp;
  using ArckFs::NodePtr;
  using ArckFs::ReadEpoch;
  using ArckFs::ReadEpochHolds;
  using ArckFs::ReadLocked;
  using ArckFs::ReadOp;
  using ArckFs::UnlockOp;
  Result<NodePtr> MapForRead(const std::string& path) {
    return OpenNodeByPath(path, /*write=*/false);
  }
};

// A write grant lands in the middle of a read-level op, single-threaded: the kernel drops
// the reader without waiting for the op, the op's end-of-op check reports the move, and
// the rerun returns the writer's bytes only after mapping the file again has revoked the
// writer and verified its work.
TEST_F(ArckFsTest, ReadDroppedMidOpRunsAgainAfterTheWriterIsVerified) {
  WriteFile("/f", std::string(kPageSize, 'a'));
  ASSERT_TRUE(fs_->ReleaseFile("/f").ok());
  ProbeFs reader(*kernel_);
  ArckFs writer(*kernel_);
  auto write_page = [&](char c) {
    Result<Fd> fd = writer.Open("/f", OpenFlags::ReadWrite());
    TRIO_CHECK(fd.ok()) << fd.status().ToString();
    const std::string page(kPageSize, c);
    TRIO_CHECK(writer.Pwrite(*fd, page.data(), page.size(), 0).ok());
    TRIO_CHECK_OK(writer.Close(*fd));  // The writer keeps its grant.
  };
  Result<ProbeFs::NodePtr> mapped = reader.MapForRead("/f");
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ProbeFs::FileNode* node = mapped->get();

  // An open read-level window, and a write grant inside it.
  ASSERT_TRUE(reader.LockForOp(node, 1).ok());
  const uint64_t epoch = reader.ReadEpoch(node);
  ASSERT_NE(epoch, ProbeFs::kWriteMapped);
  EXPECT_TRUE(reader.ReadEpochHolds(node, epoch));
  const uint64_t revocations = kernel_->stats().revocations.load();
  const uint64_t verifications = kernel_->stats().verifications.load();
  write_page('b');
  EXPECT_FALSE(reader.ReadEpochHolds(node, epoch));
  EXPECT_EQ(kernel_->stats().revocations.load(), revocations);
  EXPECT_EQ(kernel_->stats().verifications.load(), verifications);
  reader.UnlockOp(node);

  // A read whose first run overlaps another write grant runs again. Each run starts only
  // after its map revoked the writer and verified the writer's bytes.
  const uint64_t retries = reader.libfs_stats().read_retries.load();
  std::string got(kPageSize, '\0');
  int runs = 0;
  Result<size_t> read = reader.ReadOp(node, [&]() -> Result<size_t> {
    ++runs;
    EXPECT_EQ(kernel_->stats().revocations.load(), revocations + runs);
    EXPECT_EQ(kernel_->stats().verifications.load(), verifications + runs);
    Result<size_t> n = reader.ReadLocked(node, got.data(), got.size(), 0);
    if (runs == 1) {
      EXPECT_EQ(got, std::string(kPageSize, 'b'));
      write_page('c');
    }
    return n;
  });
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, kPageSize);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(got, std::string(kPageSize, 'c'));
  EXPECT_EQ(reader.libfs_stats().read_retries.load(), retries + 1);
  EXPECT_EQ(kernel_->stats().forced_releases.load(), 0u);
  EXPECT_EQ(kernel_->stats().verify_failures.load(), 0u);
}

// ROADMAP item 4's attack test. Reader threads in two LibFSes pread 4 KiB blocks that name
// their file, offset and version while a third LibFS rewrites them. A reader's copy
// overlaps the writer's by design: on hardware those loads fault, and here the end-of-op
// epoch check discards them. So every block returned must be one whole version, no newer
// than any the writer began and no older than one its thread already saw. Racy by design,
// so it is not run under ThreadSanitizer.
TEST_F(ArckFsTest, OverlappingReadersReturnOnlyWholeCommittedBlocks) {
  constexpr uint64_t kBlocks = 4;
  constexpr uint64_t kFileId = 7;
  constexpr int kThreadsPerReader = 2;
  constexpr uint64_t kMinWrites = 400;
  auto fill = [](char* dst, uint64_t block, uint64_t version) {
    const uint64_t header[3] = {kFileId, block * kPageSize, version};
    std::memcpy(dst, header, sizeof(header));
    for (size_t i = sizeof(header); i < kPageSize; ++i) {
      dst[i] = static_cast<char>((version * 131 + block * 17 + i) & 0xff);
    }
  };
  // Its own kernel, with a revoke grace no scheduler stall on a loaded machine reaches:
  // a revoke that timed out would force the writer mid-write.
  NvmPool pool(2048);
  FormatOptions options;
  options.max_inodes = 256;
  TRIO_CHECK_OK(Format(pool, options));
  KernelConfig config;
  config.revoke_grace_ms = 10000;
  KernelController kernel(pool, config);
  TRIO_CHECK_OK(kernel.Mount());
  std::vector<std::atomic<uint64_t>> started(kBlocks);
  ArckFs writer(kernel);
  {
    std::string block(kPageSize, '\0');
    Result<Fd> fd = writer.Open("/blocks", OpenFlags::CreateTrunc());
    ASSERT_TRUE(fd.ok());
    for (uint64_t b = 0; b < kBlocks; ++b) {
      fill(block.data(), b, 1);
      started[b].store(1);
      ASSERT_TRUE(writer.Pwrite(*fd, block.data(), kPageSize, b * kPageSize).ok());
    }
    ASSERT_TRUE(writer.Close(*fd).ok());
  }
  ArckFs reader_a(kernel);
  ArckFs reader_b(kernel);
  auto retries = [&] {
    return reader_a.libfs_stats().read_retries.load() +
           reader_b.libfs_stats().read_retries.load();
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> bad{0};
  std::mutex bad_mu;
  std::string first_bad;
  auto report = [&](const std::string& what) {
    if (bad.fetch_add(1) == 0) {
      std::lock_guard<std::mutex> guard(bad_mu);
      first_bad = what;
    }
  };
  auto read_loop = [&](ArckFs& fs, uint64_t seed) {
    Rng rng(seed);
    std::vector<uint64_t> seen(kBlocks, 1);
    std::string got(kPageSize, '\0');
    std::string want(kPageSize, '\0');
    Result<Fd> fd = fs.Open("/blocks", OpenFlags::ReadOnly());
    if (!fd.ok()) {
      report("open: " + fd.status().ToString());
      return;
    }
    while (!stop.load()) {
      const uint64_t b = rng.Below(kBlocks);
      Result<size_t> n = fs.Pread(*fd, got.data(), kPageSize, b * kPageSize);
      if (!n.ok() || *n != kPageSize) {
        report("pread: " + n.status().ToString());
        continue;
      }
      uint64_t header[3];
      std::memcpy(header, got.data(), sizeof(header));
      fill(want.data(), b, header[2]);
      if (header[0] != kFileId || header[1] != b * kPageSize || got != want ||
          header[2] < seen[b] || header[2] > started[b].load()) {
        report("block " + std::to_string(b) + " read as file " + std::to_string(header[0]) +
               " offset " + std::to_string(header[1]) + " version " +
               std::to_string(header[2]) + (got != want ? " (torn)" : "") +
               ", after version " + std::to_string(seen[b]));
        continue;
      }
      seen[b] = header[2];
      reads.fetch_add(1);
    }
    (void)fs.Close(*fd);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreadsPerReader; ++t) {
    threads.emplace_back(read_loop, std::ref(reader_a), TestSeed() + 2 * t);
    threads.emplace_back(read_loop, std::ref(reader_b), TestSeed() + 2 * t + 1);
  }

  // The writer runs until it has rewritten enough blocks and some read has overlapped a
  // write grant, within a bound for a loaded machine.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::string block(kPageSize, '\0');
  uint64_t writes = 0;
  while ((writes < kMinWrites || retries() == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    const uint64_t b = writes % kBlocks;
    const uint64_t version = started[b].load() + 1;
    fill(block.data(), b, version);
    started[b].store(version);
    Result<Fd> fd = writer.Open("/blocks", OpenFlags::ReadWrite());
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    Result<size_t> n = writer.Pwrite(*fd, block.data(), kPageSize, b * kPageSize);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_TRUE(writer.Close(*fd).ok());
    ++writes;
  }
  stop.store(true);
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(bad.load(), 0u) << first_bad;
  EXPECT_GE(writes, kMinWrites);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(retries(), 0u);
  // The writer re-maps as soon as it is revoked; it is never forced for it.
  EXPECT_EQ(kernel.stats().forced_releases.load(), 0u);
  EXPECT_EQ(kernel.stats().verify_failures.load(), 0u);
}

// B maps a file, at either strength; A deletes it and releases the directory, so the kernel
// reclaims it. Its pages go back to the free pool, and B must lose them first: the next
// lessee's pages must not stay readable or writable through B's stale mapping.
TEST_F(ArckFsTest, ReclaimRevokesEveryHoldersPagesOfTheDeletedFile) {
  for (const bool write : {false, true}) {
    SCOPED_TRACE(write ? "writer" : "reader");
    ArckFs other(*kernel_);
    WriteFile("/victim", std::string(2 * kPageSize, 'v'));
    Result<Fd> fd =
        other.Open("/victim", write ? OpenFlags::ReadWrite() : OpenFlags::ReadOnly());
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    char byte = 'b';
    ASSERT_TRUE((write ? other.Pwrite(*fd, &byte, 1, 0) : other.Pread(*fd, &byte, 1, 0)).ok());
    Result<StatInfo> info = fs_->Stat("/victim");
    ASSERT_TRUE(info.ok());
    std::vector<PageNumber> pages;
    for (PageNumber page = FileRegionStart(pool_); page < pool_.num_pages(); ++page) {
      const PageState state = kernel_->StateOfPage(page);
      if (state.state == ResourceState::kOwned && state.owner == info->ino) {
        pages.push_back(page);
        ASSERT_TRUE(kernel_->MmuCheck(other.id(), page, write)) << page;
      }
    }
    ASSERT_GE(pages.size(), 3u);  // An index page and two data pages.

    ASSERT_TRUE(fs_->Unlink("/victim").ok());
    ASSERT_TRUE(fs_->ReleaseFile("/").ok());
    for (PageNumber page : pages) {
      EXPECT_EQ(kernel_->StateOfPage(page).state, ResourceState::kFree) << page;
      EXPECT_FALSE(kernel_->MmuCheck(other.id(), page, /*write=*/false)) << page;
    }
    (void)other.Close(*fd);
  }
}

// ---- A file's parent and dirent slot come from the directory that names it ----
// In each test this LibFS moves a file and another LibFS then extends it (see
// ExpectAnotherLibFsExtends).

// A rename within one directory puts the dirent in a new slot.
TEST_F(ArckFsTest, ARenameWithinADirectoryMovesTheFileToItsNewSlot) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  WriteFile("/d/x", "data");
  ASSERT_TRUE(fs_->ReleaseFile("/d/x").ok());
  ASSERT_TRUE(fs_->ReleaseFile("/d").ok());
  ASSERT_TRUE(fs_->Rename("/d/x", "/d/y").ok());
  ASSERT_TRUE(fs_->ReleaseFile("/d").ok());
  ExpectAnotherLibFsExtends("/d/y", "data");
}

TEST_F(ArckFsTest, AFileMovedBackAfterAnotherTenantReleasedTheSourceKeepsItsSlot) {
  MoveBackAfterAnotherTenantCreatesInSource(/*release_source=*/true);
}

TEST_F(ArckFsTest, AFileMovedBackWhileAnotherTenantHoldsTheSourceKeepsItsSlot) {
  MoveBackAfterAnotherTenantCreatesInSource(/*release_source=*/false);
}

// A write grant that changes nothing verifies /a without f; f then returns to the very
// slot it left. Its mover holds no write grant afterwards, and f must not be reclaimed.
TEST_F(ArckFsTest, AFileMovedBackIntoTheSlotItLeftIsNotReclaimed) {
  MakeSourceAndTarget();
  ASSERT_TRUE(fs_->Rename("/a/f", "/b/f").ok());
  Result<StatInfo> a = fs_->Stat("/a");
  ASSERT_TRUE(a.ok());
  const LibFsId other = kernel_->RegisterLibFs(LibFsOptions{});
  ASSERT_TRUE(kernel_->MapFile(other, a->ino, /*write=*/true).ok());
  ASSERT_TRUE(kernel_->UnmapFile(other, a->ino).ok());
  kernel_->UnregisterLibFs(other);
  ASSERT_TRUE(fs_->Rename("/b/f", "/a/f").ok());
  ASSERT_TRUE(fs_->ReleaseFile("/a").ok());
  ASSERT_TRUE(fs_->ReleaseFile("/b").ok());
  ExpectAnotherLibFsExtends("/a/f", "data");
}

// Out and back before either directory is verified; a file created in between takes the
// slot f left, so f comes back to a new one.
TEST_F(ArckFsTest, TwoMovesBeforeEitherDirectoryIsVerifiedLeaveTheFileAtItsNewSlot) {
  MakeSourceAndTarget();
  ASSERT_TRUE(fs_->Rename("/a/f", "/b/f").ok());
  WriteFile("/a/filler", "x");
  ASSERT_TRUE(fs_->Rename("/b/f", "/a/f").ok());
  ASSERT_TRUE(fs_->ReleaseFile("/a").ok());
  ASSERT_TRUE(fs_->ReleaseFile("/b").ok());
  ExpectAnotherLibFsExtends("/a/f", "data");
  EXPECT_EQ(ReadFresh("/a/filler"), "x");
}

// Out and back across two write sessions of both directories.
TEST_F(ArckFsTest, AFileMovedOutAndBackAcrossTwoWriteSessionsKeepsItsSlot) {
  MakeSourceAndTarget();
  for (const auto& [from, to] : {std::pair{"/a/f", "/b/f"}, std::pair{"/b/f", "/a/f"}}) {
    ASSERT_TRUE(fs_->Rename(from, to).ok());
    ASSERT_TRUE(fs_->ReleaseFile("/a").ok());
    ASSERT_TRUE(fs_->ReleaseFile("/b").ok());
  }
  ExpectAnotherLibFsExtends("/a/f", "data");
}

TEST_F(ArckFsTest, TrustGroupSharesOneLibFsWithoutVerification) {
  // Two "processes" in one trust group = two threads on one ArckFs (§3.2).
  WriteFile("/tg", "x");
  const uint64_t verifications_before = kernel_->stats().verifications.load();
  std::thread peer([&] {
    Result<Fd> fd = fs_->Open("/tg", OpenFlags::ReadWrite());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(fs_->Pwrite(*fd, "y", 1, 0).ok());
    ASSERT_TRUE(fs_->Close(*fd).ok());
  });
  peer.join();
  EXPECT_EQ(ReadAll("/tg"), "y");
  // No write-grant handoff happened, so no additional verification ran.
  EXPECT_EQ(kernel_->stats().verifications.load(), verifications_before);
}

TEST_F(ArckFsTest, ReleaseFileForcesVerification) {
  WriteFile("/rel", "data");
  const uint64_t before = kernel_->stats().verifications.load();
  ASSERT_TRUE(fs_->ReleaseFile("/rel").ok());
  // Parent reconcile + the file's own verification.
  EXPECT_GE(kernel_->stats().verifications.load(), before + 1);
  EXPECT_EQ(ReadAll("/rel"), "data");  // Remaps fine afterwards.
}

// A commit frees the pages a truncate unlinked. Extending the file again in the same
// session must not link one of them back: the release would find a page the file no
// longer owns.
TEST_F(ArckFsTest, ExtendingAfterACommitOfATruncateUsesPagesTheFileOwns) {
  Result<Fd> fd = fs_->Open("/t", OpenFlags::CreateTrunc());
  ASSERT_TRUE(fd.ok());
  const std::string page(kPageSize, 'p');
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(fs_->Pwrite(*fd, page.data(), page.size(), i * kPageSize).ok());
  }
  ASSERT_TRUE(fs_->Commit("/t").ok());
  ASSERT_TRUE(fs_->Ftruncate(*fd, kPageSize).ok());
  ASSERT_TRUE(fs_->Commit("/t").ok());
  ASSERT_TRUE(fs_->Pwrite(*fd, page.data(), page.size(), kPageSize).ok());
  ASSERT_TRUE(fs_->Close(*fd).ok());
  EXPECT_TRUE(fs_->Commit("/t").ok());
  ASSERT_TRUE(fs_->ReleaseFile("/t").ok());
  EXPECT_EQ(kernel_->stats().verify_failures.load(), 0u);
  EXPECT_EQ(ReadAll("/t"), std::string(2 * kPageSize, 'p'));
}

// One thread commits /f while another truncates it to one page and writes a page past the
// end, which takes the truncated page back out of the reuse pool. A commit must not free
// a page the truncate puts in the pool after the commit drained it.
TEST_F(ArckFsTest, ACommitRacingATruncateFreesNoPageTheFileLinksAgain) {
  const std::string page(kPageSize, 'p');
  Result<Fd> fd = fs_->Open("/f", OpenFlags::CreateTrunc());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Pwrite(*fd, page.data(), page.size(), 0).ok());
  ASSERT_TRUE(fs_->Commit("/f").ok());
  std::atomic<bool> done{false};
  std::atomic<int> failed_commits{0};
  std::thread committer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      if (!fs_->Commit("/f").ok()) {
        failed_commits.fetch_add(1);
      }
    }
  });
  int failed_ops = 0;
  for (int round = 0; round < 20000 && failed_ops == 0; ++round) {
    failed_ops += !fs_->Ftruncate(*fd, kPageSize).ok();
    failed_ops += !fs_->Pwrite(*fd, page.data(), page.size(), kPageSize).ok();
  }
  done.store(true, std::memory_order_relaxed);
  committer.join();
  EXPECT_EQ(failed_ops, 0);
  EXPECT_EQ(failed_commits.load(), 0);
  ASSERT_TRUE(fs_->Close(*fd).ok());
  ASSERT_TRUE(fs_->ReleaseFile("/f").ok());
  EXPECT_EQ(kernel_->stats().verify_failures.load(), 0u);
  EXPECT_EQ(kernel_->QuarantineCount(), 0u);
  EXPECT_TRUE(ReadAll("/f") == page + page);
}

TEST_F(ArckFsTest, CommitRefreshesCheckpoint) {
  WriteFile("/cm", "v1");
  EXPECT_TRUE(fs_->Commit("/cm").ok());
}

TEST_F(ArckFsTest, RenameOntoNonEmptyDirFails) {
  ASSERT_TRUE(fs_->Mkdir("/empty").ok());
  ASSERT_TRUE(fs_->Mkdir("/full").ok());
  WriteFile("/full/f", "x");
  EXPECT_TRUE(fs_->Rename("/empty", "/full").Is(ErrorCode::kNotEmpty));
  // The failed rename must not have disturbed either directory.
  EXPECT_TRUE(fs_->Stat("/empty")->IsDirectory());
  EXPECT_EQ(ReadAll("/full/f"), "x");
  // Once the destination is empty, the overwriting rename goes through.
  ASSERT_TRUE(fs_->Unlink("/full/f").ok());
  EXPECT_TRUE(fs_->Rename("/empty", "/full").ok());
  EXPECT_TRUE(fs_->Stat("/empty").status().Is(ErrorCode::kNotFound));
  EXPECT_TRUE(fs_->Stat("/full")->IsDirectory());
}

TEST_F(ArckFsTest, ConcurrentAppendsLoseNoRecords) {
  // Regression for the O_APPEND lost-update race: the append offset must be derived from
  // the durable size INSIDE the inode lock, not from a pre-lock read, or two appenders
  // can land on the same offset and one record overwrites the other.
  constexpr int kWriters = 2;
  constexpr int kRecords = 64;
  constexpr size_t kRecordSize = 100;
  {
    Result<Fd> fd = fs_->Open("/applog", OpenFlags::CreateRw());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(fs_->Close(*fd).ok());
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      OpenFlags flags = OpenFlags::ReadWrite();
      flags.append = true;
      Result<Fd> fd = fs_->Open("/applog", flags);
      ASSERT_TRUE(fd.ok());
      const std::string record(kRecordSize, static_cast<char>('a' + w));
      for (int i = 0; i < kRecords; ++i) {
        Result<size_t> n = fs_->Write(*fd, record.data(), record.size());
        ASSERT_TRUE(n.ok());
        ASSERT_EQ(*n, kRecordSize);
      }
      ASSERT_TRUE(fs_->Close(*fd).ok());
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  const std::string data = ReadAll("/applog");
  ASSERT_EQ(data.size(), static_cast<size_t>(kWriters) * kRecords * kRecordSize);
  // Every record landed whole: each record-sized slot is homogeneous, and each writer's
  // full output is present.
  size_t per_writer[kWriters] = {};
  for (size_t off = 0; off < data.size(); off += kRecordSize) {
    const char c = data[off];
    ASSERT_GE(c, 'a');
    ASSERT_LT(c, 'a' + kWriters);
    for (size_t i = 1; i < kRecordSize; ++i) {
      ASSERT_EQ(data[off + i], c) << "torn record at offset " << off + i;
    }
    ++per_writer[c - 'a'];
  }
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(per_writer[w], static_cast<size_t>(kRecords)) << "writer " << w;
  }
}

TEST_F(ArckFsTest, SharedFdCursorAdvancesByCompletedBytes) {
  // Regression for the shared-fd cursor race: concurrent Write()s through one fd must
  // advance the cursor with fetch_add of the completed byte count; a load→store update
  // can lose a concurrent writer's advancement. With the fix the cursor equals the total
  // bytes written no matter the interleaving, so a final probe write lands exactly there.
  constexpr int kThreads = 2;
  constexpr int kWritesPerThread = 500;
  Result<Fd> fd = fs_->Open("/shared", OpenFlags::CreateRw());
  ASSERT_TRUE(fd.ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const char buf[4] = {'w', 'w', 'w', 'w'};
      for (int i = 0; i < kWritesPerThread; ++i) {
        Result<size_t> n = fs_->Write(*fd, buf, sizeof(buf));
        ASSERT_TRUE(n.ok());
        ASSERT_EQ(*n, sizeof(buf));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const size_t total = static_cast<size_t>(kThreads) * kWritesPerThread * 4;
  ASSERT_TRUE(fs_->Write(*fd, "PROBE", 5).ok());
  Result<StatInfo> info = fs_->Stat("/shared");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, total + 5);
  char probe[6] = {};
  ASSERT_TRUE(fs_->Pread(*fd, probe, 5, total).ok());
  EXPECT_STREQ(probe, "PROBE");
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

TEST_F(ArckFsTest, ExtendingWriteFenceBudget) {
  // §4.4's write budget: a write fences its payload once, its new links once (only if it
  // allocated), and commits size and mtime with one fence (only if it extends). The
  // counts are NVM fences, deterministic on a kFast pool with no delegation and no ring.
  Result<Fd> fd = fs_->Open("/budget", OpenFlags::CreateTrunc());
  ASSERT_TRUE(fd.ok());
  const std::string head(100, 'h');
  ASSERT_TRUE(fs_->Pwrite(*fd, head.data(), head.size(), 0).ok());  // Index page + page 0.
  auto fences_of = [&](const std::string& data, uint64_t offset) {
    const uint64_t before = pool_.stats().fences.load();
    Result<size_t> n = fs_->Pwrite(*fd, data.data(), data.size(), offset);
    TRIO_CHECK(n.ok() && *n == data.size()) << n.status().ToString();
    return pool_.stats().fences.load() - before;
  };
  EXPECT_EQ(fences_of(std::string(50, 'o'), 10), 1u);      // In-place overwrite.
  EXPECT_EQ(fences_of(std::string(128, 'a'), 100), 2u);    // Append inside page 0.
  EXPECT_EQ(fences_of(std::string(4000, 'p'), 228), 3u);   // Allocates page 1, partly.
  EXPECT_EQ(fences_of(std::string(64 * kPageSize, 'm'), 2 * kPageSize), 3u);  // 64 pages.
  EXPECT_EQ(fs_->Stat("/budget")->size, 66 * kPageSize);
  ASSERT_TRUE(fs_->Close(*fd).ok());

  // 768 pages at offset 0 of a fresh file: two new index pages, one write.
  fd = fs_->Open("/big", OpenFlags::CreateTrunc());
  ASSERT_TRUE(fd.ok());
  std::string big(3 << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i / kPageSize) % 26);
  }
  EXPECT_EQ(fences_of(big, 0), 3u);
  ASSERT_TRUE(fs_->Close(*fd).ok());
  EXPECT_EQ(ReadAll("/big"), big);
  const std::string budget = ReadAll("/budget");
  EXPECT_EQ(budget.substr(0, 10), std::string(10, 'h'));
  EXPECT_EQ(budget.substr(10, 50), std::string(50, 'o'));
  EXPECT_EQ(budget.substr(100, 128), std::string(128, 'a'));
  EXPECT_EQ(budget.substr(228, 4000), std::string(4000, 'p'));
  const size_t hole = 2 * kPageSize - 4228;  // Page 1's uncovered tail reads as zeros.
  EXPECT_EQ(budget.substr(4228, hole), std::string(hole, '\0'));
  EXPECT_EQ(budget.substr(2 * kPageSize), std::string(64 * kPageSize, 'm'));
}

}  // namespace
}  // namespace trio
