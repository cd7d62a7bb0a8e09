// Unit tests for ArckFS's auxiliary data structures (§4.2): the per-file radix tree, the
// per-directory resizable chained hash table, the fd table, the undo journal, and the
// lease caches.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>

#include "src/core/core_state.h"
#include "src/kernel/controller.h"
#include "src/libfs/dir_index.h"
#include "src/libfs/fd_table.h"
#include "src/libfs/journal.h"
#include "src/libfs/lease_cache.h"
#include "src/libfs/radix_tree.h"

namespace trio {
namespace {

TEST(RadixTreeTest, EmptyLookupsReturnZero) {
  PageRadixTree tree;
  EXPECT_EQ(tree.Lookup(0), 0u);
  EXPECT_EQ(tree.Lookup(12345), 0u);
  EXPECT_EQ(tree.Lookup(PageRadixTree::kMaxPages + 1), 0u);
}

TEST(RadixTreeTest, InsertLookupEraseRoundTrip) {
  PageRadixTree tree;
  tree.Insert(0, 100);
  tree.Insert(511, 101);
  tree.Insert(512, 102);
  tree.Insert(512 * 512 + 7, 103);
  EXPECT_EQ(tree.Lookup(0), 100u);
  EXPECT_EQ(tree.Lookup(511), 101u);
  EXPECT_EQ(tree.Lookup(512), 102u);
  EXPECT_EQ(tree.Lookup(512 * 512 + 7), 103u);
  tree.Erase(511);
  EXPECT_EQ(tree.Lookup(511), 0u);
  EXPECT_EQ(tree.Lookup(512), 102u);
}

TEST(RadixTreeTest, ResetEmptiesTheTreeForARefill) {
  PageRadixTree tree;
  for (uint64_t i = 0; i < 1000; ++i) {
    tree.Insert(i, i + 1);
  }
  tree.Reset();
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(tree.Lookup(i), 0u) << i;
  }
  // Refill a smaller file: nothing of the old contents shows through.
  for (uint64_t i = 0; i < 300; i += 2) {
    tree.Insert(i, i + 7);
  }
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(tree.Lookup(i), i < 300 && i % 2 == 0 ? i + 7 : 0u) << i;
  }
  tree.Reset();
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(tree.Lookup(i), 0u) << i;
  }
}

TEST(RadixTreeTest, ResetReachesSparseIndicesInEveryLevel) {
  const uint64_t far[] = {3, 511, 512 * 40 + 9, 512 * 512 * 2 + 5, 512ull * 512 * 300 + 511,
                          PageRadixTree::kMaxPages - 1};
  PageRadixTree tree;
  for (uint64_t index : far) {
    tree.Insert(index, index + 1);
  }
  tree.Erase(511);  // An erased slot below the extent stays empty.
  tree.Reset();
  for (uint64_t index : far) {
    EXPECT_EQ(tree.Lookup(index), 0u) << index;
  }
  tree.Insert(512 * 40 + 9, 42);
  EXPECT_EQ(tree.Lookup(512 * 40 + 9), 42u);
  EXPECT_EQ(tree.Lookup(PageRadixTree::kMaxPages - 1), 0u);
  tree.Reset();
  EXPECT_EQ(tree.Lookup(512 * 40 + 9), 0u);
}

TEST(RadixTreeTest, ConcurrentReadersDuringInserts) {
  PageRadixTree tree;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t i = 0; i < 20000; ++i) {
      tree.Insert(i, i + 1);
    }
    stop = true;
  });
  std::thread reader([&] {
    while (!stop) {
      for (uint64_t i = 0; i < 20000; i += 97) {
        const PageNumber v = tree.Lookup(i);
        ASSERT_TRUE(v == 0 || v == i + 1);
      }
    }
  });
  writer.join();
  reader.join();
  for (uint64_t i = 0; i < 20000; ++i) {
    ASSERT_EQ(tree.Lookup(i), i + 1);
  }
}

TEST(DirIndexTest, InsertLookupErase) {
  DirIndex index;
  EXPECT_TRUE(index.Insert("a", DirSlot{10, 1, 100, false}));
  EXPECT_FALSE(index.Insert("a", DirSlot{11, 2, 101, false}));  // Duplicate.
  DirSlot slot;
  ASSERT_TRUE(index.Lookup("a", &slot));
  EXPECT_EQ(slot.page, 10u);
  EXPECT_EQ(slot.ino, 100u);
  EXPECT_TRUE(index.Erase("a"));
  EXPECT_FALSE(index.Erase("a"));
  EXPECT_FALSE(index.Lookup("a", &slot));
}

TEST(DirIndexTest, ResizePreservesEntries) {
  DirIndex index(4);  // Tiny initial table forces several doublings.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(index.Insert("f" + std::to_string(i), DirSlot{0, 0, Ino(i + 2), false}));
  }
  EXPECT_EQ(index.Size(), 2000u);
  for (int i = 0; i < 2000; ++i) {
    DirSlot slot;
    ASSERT_TRUE(index.Lookup("f" + std::to_string(i), &slot)) << i;
    EXPECT_EQ(slot.ino, Ino(i + 2));
  }
}

TEST(DirIndexTest, ForEachVisitsAll) {
  DirIndex index;
  for (int i = 0; i < 64; ++i) {
    index.Insert("n" + std::to_string(i), DirSlot{0, 0, Ino(i + 2), i % 2 == 0});
  }
  std::set<std::string> seen;
  index.ForEach([&](const std::string& name, const DirSlot&) { seen.insert(name); });
  EXPECT_EQ(seen.size(), 64u);
}

TEST(DirIndexTest, ConcurrentMixedOperations) {
  DirIndex index(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        const std::string name = "t" + std::to_string(t) + "_" + std::to_string(i);
        ASSERT_TRUE(index.Insert(name, DirSlot{0, 0, Ino(2 + t * 10000 + i), false}));
        DirSlot slot;
        ASSERT_TRUE(index.Lookup(name, &slot));
        if (i % 3 == 0) {
          ASSERT_TRUE(index.Erase(name));
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  size_t expected = 0;
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 2000; ++i) {
      expected += i % 3 == 0 ? 0 : 1;
    }
  }
  EXPECT_EQ(index.Size(), expected);
}

TEST(DirIndexTest, ResetThenRefillHoldsOnlyTheNewListing) {
  DirIndex index(4);  // Grows to hold the first listing; Reset keeps the grown table.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(index.Insert("old" + std::to_string(i), DirSlot{1, 0, Ino(i + 2), false}));
  }
  index.Reset();
  EXPECT_EQ(index.Size(), 0u);
  DirSlot slot;
  EXPECT_FALSE(index.Lookup("old0", &slot));
  size_t visited = 0;
  index.ForEach([&](const std::string&, const DirSlot&) { ++visited; });
  EXPECT_EQ(visited, 0u);

  // Half the names survive with new locations, plus more new names than Reset kept.
  for (int i = 0; i < 100; i += 2) {
    ASSERT_TRUE(index.Refill("old" + std::to_string(i), DirSlot{2, 1, Ino(i + 2), true}));
  }
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(
        index.Refill("a-much-longer-new-name-" + std::to_string(i), DirSlot{3, 2, Ino(500 + i), false}));
  }
  EXPECT_FALSE(index.Refill("old0", DirSlot{9, 9, 9, false}));  // Duplicate.
  EXPECT_EQ(index.Size(), 170u);
  for (int i = 0; i < 100; ++i) {
    const bool found = index.Lookup("old" + std::to_string(i), &slot);
    ASSERT_EQ(found, i % 2 == 0) << i;
    if (found) {
      EXPECT_EQ(slot.page, 2u);
      EXPECT_EQ(slot.ino, Ino(i + 2));
      EXPECT_TRUE(slot.is_dir);
    }
  }
  ASSERT_TRUE(index.Lookup("a-much-longer-new-name-119", &slot));
  EXPECT_EQ(slot.ino, Ino(619));
  std::set<std::string> seen;
  index.ForEach([&](const std::string& name, const DirSlot&) { seen.insert(name); });
  EXPECT_EQ(seen.size(), 170u);

  // The refilled index serves the create and unlink paths as before.
  EXPECT_TRUE(index.Insert("fresh", DirSlot{4, 3, 900, false}));
  EXPECT_TRUE(index.Erase("old2"));
  EXPECT_FALSE(index.Lookup("old2", &slot));
  EXPECT_EQ(index.Size(), 170u);
}

struct DummyFile {
  int value = 0;
};

TEST(FdTableTest, AllocGetRelease) {
  FdTable<DummyFile> table(64);
  auto file = std::make_shared<DummyFile>();
  Result<Fd> fd = table.Alloc(file, /*writable=*/true, /*append=*/false, /*offset=*/7);
  ASSERT_TRUE(fd.ok());
  auto* entry = table.Get(*fd);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->offset.load(), 7u);
  EXPECT_TRUE(entry->writable);
  EXPECT_TRUE(table.Release(*fd).ok());
  EXPECT_EQ(table.Get(*fd), nullptr);
  EXPECT_TRUE(table.Release(*fd).Is(ErrorCode::kBadFd));
}

TEST(FdTableTest, SlotsRecycle) {
  FdTable<DummyFile> table(4);
  auto file = std::make_shared<DummyFile>();
  std::vector<Fd> fds;
  for (int i = 0; i < 4; ++i) {
    Result<Fd> fd = table.Alloc(file, false, false, 0);
    ASSERT_TRUE(fd.ok());
    fds.push_back(*fd);
  }
  EXPECT_FALSE(table.Alloc(file, false, false, 0).ok());  // Full.
  ASSERT_TRUE(table.Release(fds[1]).ok());
  Result<Fd> again = table.Alloc(file, false, false, 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, fds[1]);
}

TEST(FdTableTest, ReleaseAllClears) {
  FdTable<DummyFile> table(16);
  auto file = std::make_shared<DummyFile>();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(table.Alloc(file, false, false, 0).ok());
  }
  EXPECT_EQ(table.ReleaseAll(), 5u);
  EXPECT_EQ(file.use_count(), 1);
}

class JournalTest : public ::testing::Test {
 protected:
  JournalTest() : pool_(64, NvmMode::kTracking) {}
  NvmPool pool_;
};

TEST_F(JournalTest, UndoRevertsOnActiveJournal) {
  UndoJournal journal(pool_, 5);
  char* victim = pool_.PageAddress(10);
  pool_.Write(victim, "original", 8);
  pool_.PersistNow(victim, 8);
  {
    std::lock_guard<SpinLock> guard(journal.lock());
    journal.Begin();
    ASSERT_TRUE(journal.LogPreImage(victim, 8).ok());
    journal.Activate();
    pool_.Write(victim, "tampered", 8);
    pool_.PersistNow(victim, 8);
    // Crash before Deactivate: recovery must undo.
  }
  EXPECT_TRUE(UndoJournal::RecoverPage(pool_, 5));
  EXPECT_EQ(std::string(victim, 8), "original");
  EXPECT_FALSE(UndoJournal::RecoverPage(pool_, 5));  // Idempotent.
}

TEST_F(JournalTest, NoUndoAfterDeactivate) {
  UndoJournal journal(pool_, 5);
  char* victim = pool_.PageAddress(10);
  pool_.Write(victim, "original", 8);
  pool_.PersistNow(victim, 8);
  {
    std::lock_guard<SpinLock> guard(journal.lock());
    journal.Begin();
    ASSERT_TRUE(journal.LogPreImage(victim, 8).ok());
    journal.Activate();
    pool_.Write(victim, "newstate", 8);
    pool_.PersistNow(victim, 8);
    journal.Deactivate();
  }
  EXPECT_FALSE(UndoJournal::RecoverPage(pool_, 5));
  EXPECT_EQ(std::string(victim, 8), "newstate");
}

TEST_F(JournalTest, FullJournalRejectsMoreRecords) {
  UndoJournal journal(pool_, 5);
  std::lock_guard<SpinLock> guard(journal.lock());
  journal.Begin();
  Status status = OkStatus();
  int logged = 0;
  while (status.ok()) {
    status = journal.LogPreImage(pool_.PageAddress(10), 512);
    logged += status.ok() ? 1 : 0;
  }
  EXPECT_TRUE(status.Is(ErrorCode::kNoSpace));
  EXPECT_GT(logged, 4);
}

TEST(LeaseCacheTest, BatchesAndRecycles) {
  NvmPool pool(1024);
  FormatOptions options;
  options.max_inodes = 256;
  TRIO_CHECK_OK(Format(pool, options));
  KernelController kernel(pool);
  TRIO_CHECK_OK(kernel.Mount());
  LibFsId id = kernel.RegisterLibFs(LibFsOptions{});

  LeaseCache cache(kernel, id, /*page_batch=*/8, /*ino_batch=*/8);
  std::vector<PageNumber> pages;
  for (int i = 0; i < 8; ++i) {
    Result<PageNumber> page = cache.AllocPage(0);
    ASSERT_TRUE(page.ok());
    pages.push_back(*page);
  }
  // One batched kernel trap on the hot path covered all eight; the background worker
  // may add its own refill crossings, but those are off the allocating thread by
  // construction (so the raw syscall counter is not asserted here).
  EXPECT_EQ(cache.sync_refills(), 1u);

  cache.RecyclePage(pages[0]);
  Result<PageNumber> again = cache.AllocPage(0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, pages[0]);

  Result<Ino> ino = cache.AllocIno();
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(kernel.StateOfIno(*ino).state, ResourceState::kLeased);
  kernel.UnregisterLibFs(id);
}

}  // namespace
}  // namespace trio
