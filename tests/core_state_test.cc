// Unit tests for the core-state format and the bounds-checked walkers.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/core_state.h"
#include "src/core/format.h"
#include "src/nvm/nvm.h"

namespace trio {
namespace {

class CoreStateTest : public ::testing::Test {
 protected:
  CoreStateTest() : pool_(256) {
    FormatOptions options;
    options.max_inodes = 1024;
    TRIO_CHECK_OK(Format(pool_, options));
  }

  // Hand-builds an index chain with the given data pages (all in the file region).
  PageNumber BuildChain(const std::vector<std::vector<PageNumber>>& per_index_page) {
    PageNumber first = 0;
    IndexPage* prev = nullptr;
    PageNumber next_free = FileRegionStart(pool_) + 50;  // Clear of the root's index page.
    for (const auto& entries : per_index_page) {
      const PageNumber page = next_free++;
      auto* index = reinterpret_cast<IndexPage*>(pool_.PageAddress(page));
      std::memset(index, 0, kPageSize);
      for (size_t i = 0; i < entries.size(); ++i) {
        index->entries[i] = entries[i];
      }
      if (prev != nullptr) {
        prev->next = page;
      } else {
        first = page;
      }
      prev = index;
    }
    return first;
  }

  NvmPool pool_;
};

TEST_F(CoreStateTest, FormatWritesValidSuperblock) {
  EXPECT_TRUE(CheckSuperblock(pool_).ok());
  const Superblock* sb = SuperblockOf(pool_);
  EXPECT_EQ(sb->magic, kSuperMagic);
  EXPECT_EQ(sb->root.ino, kRootIno);
  EXPECT_TRUE(sb->root.IsDirectory());
  EXPECT_EQ(sb->root.Name(), "/");
  EXPECT_EQ(sb->root.first_index_page, sb->file_region_page);
  EXPECT_EQ(sb->clean_shutdown, 1u);
}

TEST_F(CoreStateTest, RootShadowInodeInstalled) {
  ShadowInode* shadow = ShadowInodeOf(pool_, kRootIno);
  ASSERT_NE(shadow, nullptr);
  EXPECT_TRUE(shadow->Exists());
  EXPECT_EQ(shadow->mode, kModeDirectory | 0755u);
}

TEST_F(CoreStateTest, ShadowInodeOutOfRange) {
  EXPECT_EQ(ShadowInodeOf(pool_, kInvalidIno), nullptr);
  EXPECT_EQ(ShadowInodeOf(pool_, 1 << 20), nullptr);
}

TEST_F(CoreStateTest, BadMagicRejected) {
  SuperblockOf(pool_)->magic = 0;
  EXPECT_TRUE(CheckSuperblock(pool_).Is(ErrorCode::kCorrupted));
}

TEST_F(CoreStateTest, DirentBlockLayout) {
  EXPECT_EQ(sizeof(DirentBlock), kDirentBlockSize);
  EXPECT_EQ(sizeof(IndexPage), kPageSize);
  EXPECT_EQ(sizeof(DirDataPage), kPageSize);
  DirentBlock d{};
  EXPECT_TRUE(d.IsFree());
  d.ino = 2;
  d.mode = kModeRegular | 0644;
  d.SetName("hello.txt");
  EXPECT_TRUE(d.IsRegular());
  EXPECT_FALSE(d.IsDirectory());
  EXPECT_EQ(d.Name(), "hello.txt");
}

TEST_F(CoreStateTest, ValidFileNameRules) {
  EXPECT_TRUE(ValidFileName("a"));
  EXPECT_TRUE(ValidFileName("file_99.dat"));
  EXPECT_FALSE(ValidFileName(""));
  EXPECT_FALSE(ValidFileName("."));
  EXPECT_FALSE(ValidFileName(".."));
  EXPECT_FALSE(ValidFileName("a/b"));
  EXPECT_FALSE(ValidFileName(std::string(kMaxNameLen, 'x')));
  EXPECT_FALSE(ValidFileName(std::string_view("a\0b", 3)));
}

TEST_F(CoreStateTest, WalkEmptyChain) {
  int visits = 0;
  EXPECT_TRUE(ForEachIndexPage(pool_, 0, [&](PageNumber) -> Status {
                ++visits;
                return OkStatus();
              }).ok());
  EXPECT_EQ(visits, 0);
}

TEST_F(CoreStateTest, WalkChainVisitsDataPagesWithIndices) {
  const PageNumber base = FileRegionStart(pool_) + 100;
  PageNumber first = BuildChain({{base, 0, base + 1}, {base + 2}});
  std::vector<std::pair<uint64_t, PageNumber>> seen;
  EXPECT_TRUE(ForEachDataPage(pool_, first, [&](uint64_t idx, PageNumber p) -> Status {
                seen.push_back({idx, p});
                return OkStatus();
              }).ok());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<uint64_t, PageNumber>{0, base}));
  EXPECT_EQ(seen[1], (std::pair<uint64_t, PageNumber>{2, base + 1}));  // Hole at index 1.
  EXPECT_EQ(seen[2], (std::pair<uint64_t, PageNumber>{kIndexEntriesPerPage, base + 2}));
}

TEST_F(CoreStateTest, WalkDetectsCycle) {
  PageNumber first = BuildChain({{}, {}});
  // Point the second index page back at the first.
  auto* second = reinterpret_cast<IndexPage*>(
      pool_.PageAddress(reinterpret_cast<IndexPage*>(pool_.PageAddress(first))->next));
  second->next = first;
  Status status = ForEachIndexPage(pool_, first, [](PageNumber) { return OkStatus(); });
  EXPECT_TRUE(status.Is(ErrorCode::kCorrupted));
}

TEST_F(CoreStateTest, WalkRejectsOutOfRangeIndexPage) {
  Status status =
      ForEachIndexPage(pool_, pool_.num_pages() + 5, [](PageNumber) { return OkStatus(); });
  EXPECT_TRUE(status.Is(ErrorCode::kCorrupted));
}

TEST_F(CoreStateTest, WalkRejectsKernelRegionDataPage) {
  // An entry pointing into the shadow-inode table must be rejected.
  PageNumber first = BuildChain({{1}});
  Status status = ForEachDataPage(pool_, first, [](uint64_t, PageNumber) {
    return OkStatus();
  });
  EXPECT_TRUE(status.Is(ErrorCode::kCorrupted));
}

TEST_F(CoreStateTest, ForEachDirentSkipsFreeSlots) {
  const PageNumber data = FileRegionStart(pool_) + 120;
  auto* page = reinterpret_cast<DirDataPage*>(pool_.PageAddress(data));
  std::memset(page, 0, kPageSize);
  page->slots[3].ino = 7;
  page->slots[3].mode = kModeRegular | 0644;
  page->slots[3].SetName("x");
  page->slots[9].ino = 8;
  page->slots[9].mode = kModeDirectory | 0755;
  page->slots[9].SetName("y");
  PageNumber first = BuildChain({{data}});

  std::vector<Ino> inos;
  EXPECT_TRUE(ForEachDirent(pool_, first, [&](DirentBlock*, Ino ino, PageNumber, size_t) -> Status {
                inos.push_back(ino);
                return OkStatus();
              }).ok());
  EXPECT_EQ(inos, (std::vector<Ino>{7, 8}));
  Result<uint64_t> count = CountDirents(pool_, first);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);
}

TEST_F(CoreStateTest, LookupDataPageFindsAndMisses) {
  const PageNumber base = FileRegionStart(pool_) + 130;
  PageNumber first = BuildChain({{base, 0, base + 1}});
  Result<PageNumber> hit = LookupDataPage(pool_, first, 2);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, base + 1);
  EXPECT_TRUE(LookupDataPage(pool_, first, 1).status().Is(ErrorCode::kNotFound));
  EXPECT_TRUE(LookupDataPage(pool_, first, 9999).status().Is(ErrorCode::kNotFound));
}

}  // namespace
}  // namespace trio
