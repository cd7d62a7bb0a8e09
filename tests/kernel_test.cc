// Unit tests for the kernel controller: registration, leasing, MMU grants, the
// concurrent-read/exclusive-write policy, revocation, checkpoints, ownership tables, the
// write-map log, permission enforcement, and trust-boundary bookkeeping; plus the
// CallbackGuard watchdog that runs every LibFS callback (placement and deadline).

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/core/core_state.h"
#include "src/kernel/controller.h"
#include "src/kernel/watchdog.h"
#include "src/sim/backend.h"

namespace trio {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() : pool_(2048) {
    FormatOptions options;
    options.max_inodes = 1024;
    TRIO_CHECK_OK(Format(pool_, options));
    kernel_ = std::make_unique<KernelController>(pool_);
    TRIO_CHECK_OK(kernel_->Mount());
  }

  LibFsId Register(uint32_t uid = 0) {
    LibFsOptions options;
    options.uid = uid;
    options.gid = uid;
    return kernel_->RegisterLibFs(options);
  }

  NvmPool pool_;
  std::unique_ptr<KernelController> kernel_;
};

TEST_F(KernelTest, MountRejectsUnformattedPool) {
  NvmPool raw(64);
  KernelController kernel(raw);
  EXPECT_TRUE(kernel.Mount().Is(ErrorCode::kCorrupted));
}

TEST_F(KernelTest, RegisterGrantsSuperblockRead) {
  LibFsId id = Register();
  EXPECT_TRUE(kernel_->MmuCheck(id, 0, /*write=*/false));
  EXPECT_FALSE(kernel_->MmuCheck(id, 0, /*write=*/true));
  kernel_->UnregisterLibFs(id);
  EXPECT_FALSE(kernel_->MmuCheck(id, 0, false));
}

TEST_F(KernelTest, MmuCheckIsFalseForAnUnknownLibFsOrPage) {
  const LibFsId id = Register();
  std::vector<PageNumber> pages;
  ASSERT_TRUE(kernel_->AllocPages(id, 1, 0, &pages).ok());
  EXPECT_TRUE(kernel_->MmuCheck(id, pages[0], /*write=*/true));
  EXPECT_TRUE(kernel_->MmuCheckRange(id, pool_.PageAddress(pages[0]), kPageSize, true));
  // A LibFS id the kernel never handed out maps nothing.
  EXPECT_FALSE(kernel_->MmuCheck(id + 100, pages[0], /*write=*/false));
  EXPECT_FALSE(kernel_->MmuCheckRange(id + 100, pool_.PageAddress(pages[0]), 1, false));
  // Neither does a page the kernel never granted, in or past the pool.
  EXPECT_FALSE(kernel_->MmuCheck(id, pages[0] + 1, /*write=*/false));
  EXPECT_FALSE(kernel_->MmuCheck(id, pool_.num_pages(), /*write=*/false));
  EXPECT_FALSE(
      kernel_->MmuCheckRange(id, pool_.PageAddress(pages[0]), kPageSize + 1, false));
  kernel_->UnregisterLibFs(id);
}

TEST(MmuSimTest, KeepsPerStrengthRefcountsAndFloorsRevokesAtZero) {
  MmuSim mmu(1024);
  mmu.Grant(7, PagePerm::kRead);
  mmu.Grant(7, PagePerm::kReadWrite);
  mmu.Grant(7, PagePerm::kReadWrite);
  mmu.Revoke(7, PagePerm::kReadWrite);
  EXPECT_TRUE(mmu.Check(7, /*write=*/true));  // One RW reference left.
  mmu.Revoke(7, PagePerm::kReadWrite);
  EXPECT_FALSE(mmu.Check(7, /*write=*/true));
  EXPECT_TRUE(mmu.Check(7, /*write=*/false));  // The RO reference still justifies loads.
  // A surplus revoke floors at zero: it neither wraps the RW count nor borrows from RO.
  mmu.Revoke(7, PagePerm::kReadWrite);
  EXPECT_FALSE(mmu.Check(7, /*write=*/true));
  EXPECT_TRUE(mmu.Check(7, /*write=*/false));
  mmu.Grant(7, PagePerm::kReadWrite);
  mmu.Revoke(7, PagePerm::kReadWrite);
  EXPECT_FALSE(mmu.Check(7, /*write=*/true));
  mmu.Revoke(7, PagePerm::kRead);
  mmu.Revoke(7, PagePerm::kRead);
  EXPECT_FALSE(mmu.Check(7, /*write=*/false));
  mmu.Grant(7, PagePerm::kRead);
  EXPECT_TRUE(mmu.Check(7, /*write=*/false));
  EXPECT_FALSE(mmu.Check(7, /*write=*/true));

  // A file's pages in one call: one reference each, across chunks.
  const std::vector<PageNumber> pages{1, 511, 512, 1023};
  mmu.GrantPages(pages, PagePerm::kReadWrite);
  mmu.GrantPages(pages, PagePerm::kRead);
  mmu.RevokePages(pages, PagePerm::kReadWrite);
  for (PageNumber page : pages) {
    EXPECT_FALSE(mmu.Check(page, /*write=*/true)) << page;
    EXPECT_TRUE(mmu.Check(page, /*write=*/false)) << page;
  }
  mmu.RevokePages(pages, PagePerm::kRead);
  for (PageNumber page : pages) {
    EXPECT_FALSE(mmu.Check(page, /*write=*/false)) << page;
  }
  // kNone grants nothing; a page past the table is never mapped.
  mmu.Grant(9, PagePerm::kNone);
  mmu.Grant(1024, PagePerm::kReadWrite);
  EXPECT_FALSE(mmu.Check(9, /*write=*/false));
  EXPECT_FALSE(mmu.Check(1024, /*write=*/false));
}

// Four threads share every page of a fresh table (so they also race to allocate its
// chunks). A thread checks only what its own references justify, which no other thread's
// grant or revoke may take away; at the end exactly the references left behind remain.
TEST(MmuSimTest, StaysConsistentWhileFourThreadsGrantRevokeAndCheck) {
  constexpr PageNumber kPages = 2048;
  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  MmuSim mmu(kPages);
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (PageNumber page = 0; page < kPages; ++page) {
          mmu.Grant(page, PagePerm::kRead);
          mmu.Grant(page, PagePerm::kReadWrite);
          violations += mmu.Check(page, /*write=*/true) ? 0 : 1;
          mmu.Revoke(page, PagePerm::kReadWrite);
          violations += mmu.Check(page, /*write=*/false) ? 0 : 1;
        }
        for (PageNumber page = 0; page < kPages; ++page) {
          mmu.Revoke(page, PagePerm::kRead);
        }
      }
      mmu.Grant(static_cast<PageNumber>(t), PagePerm::kRead);  // Left behind.
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(violations.load(), 0);
  for (PageNumber page = 0; page < kPages; ++page) {
    EXPECT_FALSE(mmu.Check(page, /*write=*/true)) << page;
    EXPECT_EQ(mmu.Check(page, /*write=*/false), page < kThreads) << page;
  }
}

// Holds `held` while `acquire` runs on a second thread, and releases it once the shards'
// counter shows the waiter found it held: the counter orders the threads, not a sleep. A
// counter that never moves fails the test at the deadline instead of hanging it.
void ExpectOneContendedAcquisition(ShardMutex& held, const obs::Counter& contended,
                                   const std::function<void()>& acquire) {
  held.lock();
  std::thread waiter(acquire);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (contended.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  held.raw().unlock();
  waiter.join();
  EXPECT_EQ(contended.load(), 1u);
}

TEST(ShardLockTest, CountsOneContendedAcquisitionWhenItFindsTheMutexHeld) {
  obs::Counter contended;
  ShardMutex mu(contended);
  { ShardLock uncontended(mu, 0); }
  EXPECT_EQ(contended.load(), 0u);
  ExpectOneContendedAcquisition(mu, contended, [&] { ShardLock lock(mu, 0); });
}

TEST(OrderedShardSpanTest, CountsOneContendedAcquisitionWhenItFindsAMutexHeld) {
  obs::Counter contended;
  ShardMutex low(contended);
  ShardMutex high(contended);
  { OrderedShardSpan uncontended({&low, &high}, {0, 1}); }
  EXPECT_EQ(contended.load(), 0u);
  ExpectOneContendedAcquisition(high, contended,
                                [&] { OrderedShardSpan span({&low, &high}, {0, 1}); });
}

TEST(ShardRankDeathTest, TakingALowerRankWhileAHigherOneIsHeldAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  obs::Counter contended;
  ShardMutex low(contended);
  ShardMutex high(contended);
  EXPECT_DEATH(
      {
        ShardLock second(high, 1);
        ShardLock first(low, 0);
      },
      "shard lock order violation");
}

TEST_F(KernelTest, AllocPagesLeasesZeroedWritablePages) {
  LibFsId id = Register();
  std::vector<PageNumber> pages;
  ASSERT_TRUE(kernel_->AllocPages(id, 4, 0, &pages).ok());
  ASSERT_EQ(pages.size(), 4u);
  for (PageNumber p : pages) {
    EXPECT_TRUE(kernel_->MmuCheck(id, p, true));
    PageState state = kernel_->StateOfPage(p);
    EXPECT_EQ(state.state, ResourceState::kLeased);
    EXPECT_EQ(state.lessee, id);
    for (size_t i = 0; i < kPageSize; ++i) {
      ASSERT_EQ(pool_.PageAddress(p)[i], 0);
    }
  }
  kernel_->UnregisterLibFs(id);
}

TEST_F(KernelTest, FreePagesReturnsLeases) {
  LibFsId id = Register();
  const size_t free_before = kernel_->FreePageCount();
  std::vector<PageNumber> pages;
  ASSERT_TRUE(kernel_->AllocPages(id, 8, 0, &pages).ok());
  EXPECT_EQ(kernel_->FreePageCount(), free_before - 8);
  ASSERT_TRUE(kernel_->FreePages(id, pages).ok());
  EXPECT_EQ(kernel_->FreePageCount(), free_before);
  EXPECT_FALSE(kernel_->MmuCheck(id, pages[0], false));
  kernel_->UnregisterLibFs(id);
}

TEST_F(KernelTest, FreeingForeignPageRejected) {
  LibFsId a = Register();
  LibFsId b = Register();
  std::vector<PageNumber> pages;
  ASSERT_TRUE(kernel_->AllocPages(a, 1, 0, &pages).ok());
  EXPECT_TRUE(kernel_->FreePages(b, pages).Is(ErrorCode::kPermission));
  kernel_->UnregisterLibFs(a);
  kernel_->UnregisterLibFs(b);
}

TEST_F(KernelTest, InoAllocationUniqueAndRecycled) {
  LibFsId id = Register();
  std::vector<Ino> inos;
  ASSERT_TRUE(kernel_->AllocInos(id, 16, &inos).ok());
  std::set<Ino> unique(inos.begin(), inos.end());
  EXPECT_EQ(unique.size(), 16u);
  for (Ino ino : inos) {
    EXPECT_NE(ino, kRootIno);
    EXPECT_EQ(kernel_->StateOfIno(ino).state, ResourceState::kLeased);
  }
  ASSERT_TRUE(kernel_->FreeIno(id, inos[0]).ok());
  EXPECT_EQ(kernel_->StateOfIno(inos[0]).state, ResourceState::kFree);
  kernel_->UnregisterLibFs(id);
}

// Unregistering returns exactly the LibFS's own leases, each once: not another LibFS's, not
// a page its session reconciled into a file, and not what it freed itself.
TEST_F(KernelTest, UnregisterReturnsAllLeases) {
  const size_t free_before = kernel_->FreePageCount();
  const LibFsId id = Register();
  const LibFsId other = Register();
  std::vector<PageNumber> pages;
  std::vector<Ino> inos;
  std::vector<PageNumber> others_pages;
  std::vector<Ino> others_inos;
  ASSERT_TRUE(kernel_->AllocPages(id, 16, 0, &pages).ok());
  ASSERT_TRUE(kernel_->AllocInos(id, 8, &inos).ok());
  ASSERT_TRUE(kernel_->AllocPages(other, 4, 0, &others_pages).ok());
  ASSERT_TRUE(kernel_->AllocInos(other, 4, &others_inos).ok());
  ASSERT_TRUE(kernel_->FreePages(id, {pages[0], pages[1]}).ok());
  ASSERT_TRUE(kernel_->FreeIno(id, inos[0]).ok());
  // The root gains a (still empty) directory data page, which its verification reconciles.
  ASSERT_TRUE(kernel_->MapRoot(id, /*write=*/true).ok());
  auto* root_index = reinterpret_cast<IndexPage*>(
      pool_.PageAddress(SuperblockOf(pool_)->root.first_index_page));
  pool_.CommitStore64(&root_index->entries[0], pages[2]);
  ASSERT_TRUE(kernel_->UnmapFile(id, kRootIno).ok());
  ASSERT_EQ(kernel_->StateOfPage(pages[2]).owner, kRootIno);

  kernel_->UnregisterLibFs(id);
  EXPECT_EQ(kernel_->FreePageCount(), free_before - others_pages.size() - 1);
  for (size_t i = 3; i < pages.size(); ++i) {
    EXPECT_EQ(kernel_->StateOfPage(pages[i]).state, ResourceState::kFree) << pages[i];
  }
  EXPECT_EQ(kernel_->StateOfPage(pages[2]).owner, kRootIno);
  for (Ino ino : inos) {
    EXPECT_EQ(kernel_->StateOfIno(ino).state, ResourceState::kFree) << ino;
  }
  for (PageNumber page : others_pages) {
    EXPECT_EQ(kernel_->StateOfPage(page).lessee, other) << page;
  }
  for (Ino ino : others_inos) {
    EXPECT_EQ(kernel_->StateOfIno(ino).lessee, other) << ino;
  }
  // Each ino went back to the free pool once: a fresh lessee gets no ino twice.
  const LibFsId next = Register();
  std::vector<Ino> fresh;
  ASSERT_TRUE(kernel_->AllocInos(next, 2 * inos.size(), &fresh).ok());
  EXPECT_EQ(std::set<Ino>(fresh.begin(), fresh.end()).size(), fresh.size());
  kernel_->UnregisterLibFs(next);
  kernel_->UnregisterLibFs(other);
  EXPECT_EQ(kernel_->FreePageCount(), free_before - 1);
}

// Page numbers and inos arrive from untrusted LibFSes: past the ownership tables they read
// as free and are never freed or promoted into.
TEST(KernelBoundsTest, PagesAndInosPastTheTablesReadFreeAndAreRejected) {
  constexpr PageNumber kPoolPages = 2048;
  constexpr Ino kMaxInodes = 1024;
  NvmPool pool(kPoolPages);
  FormatOptions options;
  options.max_inodes = kMaxInodes;
  TRIO_CHECK_OK(Format(pool, options));
  SlowBackend backend;
  KernelConfig config;
  config.tier.backend = &backend;
  KernelController kernel(pool, config);
  TRIO_CHECK_OK(kernel.Mount());
  const LibFsId id = kernel.RegisterLibFs(LibFsOptions{});
  for (const PageNumber page : {kPoolPages, kPoolPages + 512, ~PageNumber{0}}) {
    EXPECT_EQ(kernel.StateOfPage(page).state, ResourceState::kFree) << page;
    EXPECT_TRUE(kernel.FreePages(id, {page}).Is(ErrorCode::kInvalidArgument)) << page;
    EXPECT_TRUE(kernel.PromoteRead(id, kRootIno, 1, page).Is(ErrorCode::kPermission)) << page;
  }
  for (const Ino ino : {kMaxInodes, kMaxInodes + 512, ~Ino{0}}) {
    EXPECT_EQ(kernel.StateOfIno(ino).state, ResourceState::kFree) << ino;
    EXPECT_TRUE(kernel.FreeIno(id, ino).Is(ErrorCode::kInvalidArgument)) << ino;
  }
  kernel.UnregisterLibFs(id);
  TRIO_CHECK_OK(kernel.Unmount());
}

// Four LibFSes lease and free pages and inos while two threads read every page's and ino's
// state: each read must be a state some writer stored (free, a lease of one of the four, or
// the root's ownership from Mount), never a torn or stale mixture.
TEST_F(KernelTest, OwnershipReadsSeeOnlyStoredStatesWhileLeasesChurn) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kRounds = 100;
  const size_t free_before = kernel_->FreePageCount();
  std::vector<LibFsId> ids;
  for (int i = 0; i < kWriters; ++i) {
    ids.push_back(Register());
  }
  const PageNumber root_index = SuperblockOf(pool_)->root.first_index_page;
  const Ino max_inodes = SuperblockOf(pool_)->max_inodes;
  // `mounted` is the owner (page) or parent (ino) Mount stored, or kNone if it stored none.
  constexpr Ino kNone = ~Ino{0};
  auto stored = [&](ResourceState state, LibFsId lessee, Ino owner, Ino mounted) {
    switch (state) {
      case ResourceState::kFree:
        return lessee == kNoLibFs && owner == kInvalidIno;
      case ResourceState::kLeased:
        return owner == kInvalidIno && std::find(ids.begin(), ids.end(), lessee) != ids.end();
      case ResourceState::kOwned:
        return lessee == kNoLibFs && owner == mounted;
      default:
        return false;
    }
  };
  std::atomic<int> readers_started{0};
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      readers_started.fetch_add(1);
      while (!done.load()) {
        for (PageNumber page = root_index; page < pool_.num_pages(); ++page) {
          const PageState s = kernel_->StateOfPage(page);
          const Ino mounted = page == root_index ? kRootIno : kNone;
          bad += stored(s.state, s.lessee, s.owner, mounted) ? 0 : 1;
        }
        for (Ino ino = kRootIno; ino < max_inodes; ++ino) {
          const InoState s = kernel_->StateOfIno(ino);
          const Ino mounted = ino == kRootIno ? kInvalidIno : kNone;
          bad += stored(s.state, s.lessee, s.parent, mounted) ? 0 : 1;
        }
      }
    });
  }
  for (LibFsId id : ids) {
    threads.emplace_back([&, id] {
      while (readers_started.load() < kReaders) {
        std::this_thread::yield();
      }
      for (int round = 0; round < kRounds; ++round) {
        std::vector<PageNumber> pages;
        std::vector<Ino> inos;
        TRIO_CHECK_OK(kernel_->AllocPages(id, 8, 0, &pages));
        TRIO_CHECK_OK(kernel_->AllocInos(id, 4, &inos));
        TRIO_CHECK_OK(kernel_->FreePages(id, pages));
        for (Ino ino : inos) {
          TRIO_CHECK_OK(kernel_->FreeIno(id, ino));
        }
      }
    });
  }
  for (size_t t = kReaders; t < threads.size(); ++t) {
    threads[t].join();
  }
  done.store(true);
  threads[0].join();
  threads[1].join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(kernel_->FreePageCount(), free_before);
  for (LibFsId id : ids) {
    kernel_->UnregisterLibFs(id);
  }
}

// Hand-built images in which two files claim one data page, or two dirents name one ino:
// Mount keeps the first claimant (dirent slot order) and frees what only the second held.
TEST(KernelMountTest, KeepsTheFirstClaimantOfAPageOrAnIno) {
  for (const bool same_ino : {false, true}) {
    SCOPED_TRACE(same_ino ? "two dirents name one ino" : "two files claim one page");
    NvmPool pool(2048);
    FormatOptions options;
    options.max_inodes = 1024;
    TRIO_CHECK_OK(Format(pool, options));
    const PageNumber root_index = SuperblockOf(pool)->root.first_index_page;
    const PageNumber dir_page = root_index + 1;
    const PageNumber index_a = root_index + 2;
    const PageNumber index_b = root_index + 3;
    const PageNumber data = root_index + 4;
    const PageNumber data_b = root_index + 5;
    auto index_of = [&](PageNumber page) {
      return reinterpret_cast<IndexPage*>(pool.PageAddress(page));
    };
    pool.CommitStore64(&index_of(root_index)->entries[0], dir_page);
    pool.CommitStore64(&index_of(index_a)->entries[0], data);
    pool.CommitStore64(&index_of(index_b)->entries[0], same_ino ? data_b : data);
    DirentBlock a{};
    a.ino = 2;
    a.first_index_page = index_a;
    a.size = kPageSize;
    a.mode = kModeRegular | 0644;
    a.nlink = 1;
    a.SetName("a");
    DirentBlock b = a;
    b.ino = same_ino ? 2 : 3;
    b.first_index_page = index_b;
    b.SetName("b");
    auto* slots = reinterpret_cast<DirDataPage*>(pool.PageAddress(dir_page))->slots;
    pool.Write(&slots[0], &a, sizeof(a));
    pool.Write(&slots[1], &b, sizeof(b));

    KernelController kernel(pool);
    ASSERT_TRUE(kernel.Mount().ok());
    EXPECT_EQ(kernel.StateOfPage(dir_page).owner, kRootIno);
    for (PageNumber page : {index_a, data}) {
      EXPECT_EQ(kernel.StateOfPage(page).owner, 2u) << page;
    }
    const InoState first = kernel.StateOfIno(2);
    EXPECT_EQ(first.state, ResourceState::kOwned);
    EXPECT_EQ(first.parent, kRootIno);
    Result<Ino> parent = kernel.ParentOf(2);
    ASSERT_TRUE(parent.ok());
    EXPECT_EQ(*parent, kRootIno);
    const LibFsId id = kernel.RegisterLibFs(LibFsOptions{});
    Result<MapInfo> mapped = kernel.MapFile(id, 2, /*write=*/false);
    ASSERT_TRUE(mapped.ok());
    EXPECT_EQ(mapped->dirent_slot, 0u);  // Dirent "a", the first claimant.
    if (same_ino) {
      // The second dirent's subtree was skipped whole: its pages are free.
      EXPECT_EQ(kernel.StateOfPage(index_b).state, ResourceState::kFree);
      EXPECT_EQ(kernel.StateOfPage(data_b).state, ResourceState::kFree);
    } else {
      // "b" keeps what it claimed before the shared page stopped its walk.
      EXPECT_EQ(kernel.StateOfPage(index_b).owner, 3u);
      EXPECT_EQ(kernel.StateOfIno(3).state, ResourceState::kOwned);
      EXPECT_EQ(kernel.StateOfIno(3).parent, kRootIno);
    }
    const size_t file_region = pool.num_pages() - FileRegionStart(pool);
    EXPECT_EQ(kernel.FreePageCount(), file_region - (same_ino ? 4 : 5));
    kernel.UnregisterLibFs(id);
  }
}

TEST_F(KernelTest, MapRootGrantsPagesAndEnforcesPolicy) {
  LibFsId a = Register();
  LibFsId b = Register();

  Result<MapInfo> read_a = kernel_->MapRoot(a, /*write=*/false);
  ASSERT_TRUE(read_a.ok());
  EXPECT_FALSE(read_a->writable);
  // Root's preallocated index page is now readable for A.
  const PageNumber root_index = SuperblockOf(pool_)->root.first_index_page;
  EXPECT_TRUE(kernel_->MmuCheck(a, root_index, false));
  EXPECT_FALSE(kernel_->MmuCheck(a, root_index, true));

  // Concurrent readers are fine.
  ASSERT_TRUE(kernel_->MapRoot(b, false).ok());

  // B's write grant drops A's read grant in the kernel (A has no revoke callback, and
  // needs none), and A loses its read access with it.
  Result<MapInfo> write_b = kernel_->MapFile(b, kRootIno, true);
  ASSERT_TRUE(write_b.ok());
  EXPECT_TRUE(write_b->writable);
  EXPECT_TRUE(kernel_->IsWriteMapped(kRootIno));
  EXPECT_TRUE(kernel_->MmuCheck(b, root_index, true));
  EXPECT_FALSE(kernel_->MmuCheck(a, root_index, false));

  kernel_->UnregisterLibFs(a);
  kernel_->UnregisterLibFs(b);
  EXPECT_FALSE(kernel_->IsWriteMapped(kRootIno));
}

TEST_F(KernelTest, WriteConflictInvokesRevokeCallback) {
  std::atomic<int> revokes{0};
  LibFsOptions options;
  KernelController* kernel = kernel_.get();
  LibFsId holder = 0;
  options.callbacks.revoke = [&](Ino ino) {
    revokes.fetch_add(1);
    TRIO_CHECK_OK(kernel->UnmapFile(holder, ino));
  };
  holder = kernel_->RegisterLibFs(options);
  LibFsId requester = Register();

  ASSERT_TRUE(kernel_->MapRoot(holder, true).ok());
  ASSERT_TRUE(kernel_->MapRoot(requester, true).ok());
  EXPECT_EQ(revokes.load(), 1);
  EXPECT_GE(kernel_->stats().revocations.load(), 1u);
  // The revoke ran under the watchdog, and the requester's wait for it is accounted.
  EXPECT_EQ(kernel_->stats().callback_runs.load(), 1u);
  EXPECT_GT(kernel_->stats().callback_wait_ns.load(), 0u);
  EXPECT_EQ(kernel_->stats().callback_timeouts.load(), 0u);

  kernel_->UnregisterLibFs(holder);
  kernel_->UnregisterLibFs(requester);
}

// LibFSes that map the root for reading, with revoke callbacks that count their runs and
// unmap; with `hang`, a callback first blocks until `release` is set. State the callbacks
// touch lives here, owned by every callback.
struct ReadHolders {
  struct Holder {
    LibFsId id = kNoLibFs;
    std::atomic<int> revokes{0};
  };
  bool hang = false;
  std::atomic<bool> release{false};
  std::vector<std::unique_ptr<Holder>> holders;
  uint64_t map_epoch = 0;  // The epoch their read grants carry.
};

std::shared_ptr<ReadHolders> MapReadHolders(KernelController& kernel, int count,
                                            bool hang = false) {
  auto state = std::make_shared<ReadHolders>();
  state->hang = hang;
  for (int i = 0; i < count; ++i) {
    state->holders.push_back(std::make_unique<ReadHolders::Holder>());
  }
  for (int i = 0; i < count; ++i) {
    ReadHolders::Holder* holder = state->holders[i].get();
    LibFsOptions options;
    options.callbacks.revoke = [&kernel, state, holder](Ino ino) {
      holder->revokes.fetch_add(1);
      while (state->hang && !state->release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      (void)kernel.UnmapFile(holder->id, ino);
    };
    holder->id = kernel.RegisterLibFs(options);
    Result<MapInfo> granted = kernel.MapRoot(holder->id, /*write=*/false);
    TRIO_CHECK(granted.ok());
    state->map_epoch = granted->map_epoch;
  }
  return state;
}

// A reader holds nothing uncommitted, so a write grant drops every reader in the kernel:
// no upcall runs, each reader loses its MMU access, and the map epoch moves so their next
// ops find their grants gone.
TEST_F(KernelTest, WriteOverReadersDropsThemWithoutAnUpcall) {
  std::shared_ptr<ReadHolders> readers = MapReadHolders(*kernel_, 3);
  const LibFsId writer = Register();
  const uint64_t runs = kernel_->stats().callback_runs.load();
  const uint64_t revocations = kernel_->stats().revocations.load();
  const uint64_t dropped = kernel_->stats().readers_dropped.load();
  EXPECT_TRUE(kernel_->MapEpochHolds(kRootIno, readers->map_epoch));

  Result<MapInfo> granted = kernel_->MapRoot(writer, /*write=*/true);
  ASSERT_TRUE(granted.ok()) << granted.status().ToString();
  EXPECT_TRUE(granted->writable);
  EXPECT_EQ(kernel_->stats().callback_runs.load(), runs);
  EXPECT_EQ(kernel_->stats().revocations.load(), revocations);
  EXPECT_EQ(kernel_->stats().readers_dropped.load(), dropped + 3);
  EXPECT_EQ(kernel_->stats().forced_releases.load(), 0u);
  // The grant reports the epoch it was decided at; the drop then moved it.
  EXPECT_EQ(granted->map_epoch, readers->map_epoch);
  EXPECT_FALSE(kernel_->MapEpochHolds(kRootIno, readers->map_epoch));
  const PageNumber root_index = SuperblockOf(pool_)->root.first_index_page;
  for (const auto& reader : readers->holders) {
    EXPECT_EQ(reader->revokes.load(), 0);
    EXPECT_FALSE(kernel_->MmuCheck(reader->id, root_index, false));
    // Nothing is left to hand back.
    EXPECT_TRUE(kernel_->UnmapFile(reader->id, kRootIno).Is(ErrorCode::kInvalidArgument));
  }
  EXPECT_TRUE(kernel_->MmuCheck(writer, root_index, true));

  kernel_->UnregisterLibFs(writer);
  for (const auto& reader : readers->holders) {
    kernel_->UnregisterLibFs(reader->id);
  }
}

KernelConfig RevokeConfig(uint64_t lease_ms, uint64_t grace_ms) {
  KernelConfig config;
  config.lease_ms = lease_ms;
  config.revoke_grace_ms = grace_ms;
  return config;
}

// A writer whose revoke callback hangs past its lease plus grace is abandoned, its grant
// reclaimed by force after its work is verified, and the mapper gets the file.
TEST(KernelRevokeTest, HungWriterIsForceReleasedAndVerified) {
  NvmPool pool(2048);
  FormatOptions options;
  options.max_inodes = 1024;
  TRIO_CHECK_OK(Format(pool, options));
  constexpr uint64_t kLeaseMs = 50;
  constexpr uint64_t kGraceMs = 50;
  KernelController kernel(pool, RevokeConfig(kLeaseMs, kGraceMs));
  TRIO_CHECK_OK(kernel.Mount());
  struct Hang {
    std::atomic<bool> release{false};
    std::atomic<bool> returned{false};
    std::atomic<bool> unmapped{false};
  };
  auto hang = std::make_shared<Hang>();
  LibFsOptions hung_options;
  LibFsId hung = kNoLibFs;
  hung_options.callbacks.revoke = [&kernel, hang, &hung](Ino ino) {
    while (!hang->release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    hang->unmapped.store(kernel.UnmapFile(hung, ino).ok());
    hang->returned.store(true);
  };
  hung = kernel.RegisterLibFs(hung_options);
  ASSERT_TRUE(kernel.MapRoot(hung, /*write=*/true).ok());
  const LibFsId mapper = kernel.RegisterLibFs(LibFsOptions{});
  const uint64_t verifications = kernel.stats().verifications.load();

  const auto start = std::chrono::steady_clock::now();
  Result<MapInfo> granted = kernel.MapRoot(mapper, /*write=*/true);
  ASSERT_TRUE(granted.ok()) << granted.status().ToString();
  EXPECT_TRUE(granted->writable);
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(kGraceMs));
  EXPECT_FALSE(hang->returned.load());
  EXPECT_EQ(kernel.stats().revocations.load(), 1u);
  EXPECT_EQ(kernel.stats().callback_timeouts.load(), 1u);
  EXPECT_EQ(kernel.stats().forced_releases.load(), 1u);
  EXPECT_EQ(kernel.stats().verifications.load(), verifications + 1);
  const PageNumber root_index = SuperblockOf(pool)->root.first_index_page;
  EXPECT_FALSE(kernel.MmuCheck(hung, root_index, /*write=*/false));
  EXPECT_TRUE(kernel.MmuCheck(mapper, root_index, /*write=*/true));

  // Its grant was reclaimed by force, so its late unmap finds nothing to release.
  hang->release.store(true);
  while (!hang->returned.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(hang->unmapped.load());
  kernel.UnregisterLibFs(mapper);
  kernel.UnregisterLibFs(hung);
  TRIO_CHECK_OK(kernel.Unmount());
}

// Readers are dropped without an upcall, so a reader whose revoke callback would hang
// costs a writer nothing: the grant comes at once, with no callback run and none forced.
TEST(KernelRevokeTest, HungReaderCallbackDoesNotDelayAWriter) {
  NvmPool pool(2048);
  FormatOptions options;
  options.max_inodes = 1024;
  TRIO_CHECK_OK(Format(pool, options));
  constexpr uint64_t kGraceMs = 10000;  // A callback run would show as a 10 s stall.
  KernelController kernel(pool, RevokeConfig(100, kGraceMs));
  TRIO_CHECK_OK(kernel.Mount());
  std::shared_ptr<ReadHolders> readers = MapReadHolders(kernel, 3, /*hang=*/true);
  const LibFsId writer = kernel.RegisterLibFs(LibFsOptions{});

  const auto start = std::chrono::steady_clock::now();
  Result<MapInfo> granted = kernel.MapRoot(writer, /*write=*/true);
  ASSERT_TRUE(granted.ok()) << granted.status().ToString();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(kGraceMs));
  EXPECT_EQ(kernel.stats().callback_runs.load(), 0u);
  EXPECT_EQ(kernel.stats().callback_timeouts.load(), 0u);
  EXPECT_EQ(kernel.stats().forced_releases.load(), 0u);
  EXPECT_EQ(kernel.stats().readers_dropped.load(), 3u);
  for (const auto& reader : readers->holders) {
    EXPECT_EQ(reader->revokes.load(), 0);
  }
  readers->release.store(true);
  kernel.UnregisterLibFs(writer);
  for (const auto& reader : readers->holders) {
    kernel.UnregisterLibFs(reader->id);
  }
  TRIO_CHECK_OK(kernel.Unmount());
}

// The write-map log on NVM, every page of it: slot i holds an ino or kInvalidIno.
std::vector<Ino> WmapLog(const NvmPool& pool) {
  const Superblock* sb = SuperblockOf(pool);
  const auto* log = reinterpret_cast<const uint64_t*>(pool.PageAddress(sb->wmap_log_page));
  return std::vector<Ino>(log, log + sb->wmap_log_pages * kPageSize / sizeof(uint64_t));
}

// The inos the log holds, sorted.
std::vector<Ino> LoggedInos(const NvmPool& pool) {
  std::vector<Ino> inos;
  for (Ino ino : WmapLog(pool)) {
    if (ino != kInvalidIno) {
      inos.push_back(ino);
    }
  }
  std::sort(inos.begin(), inos.end());
  return inos;
}

std::vector<Ino> Sorted(std::vector<Ino> inos) {
  std::sort(inos.begin(), inos.end());
  return inos;
}

// Writes `count` empty regular files into the root by hand as `writer` (uid 0) and releases
// the root: its verification reconciles them, each an implicit write grant to `writer`.
std::vector<Ino> CreateWriteMappedFiles(KernelController& kernel, NvmPool& pool,
                                        LibFsId writer, size_t count) {
  TRIO_CHECK(kernel.MapRoot(writer, /*write=*/true).ok());
  std::vector<Ino> inos;
  TRIO_CHECK_OK(kernel.AllocInos(writer, count, &inos));
  std::vector<PageNumber> pages;
  TRIO_CHECK_OK(kernel.AllocPages(writer, (count + kDirentsPerPage - 1) / kDirentsPerPage,
                                  0, &pages));
  for (size_t i = 0; i < count; ++i) {
    auto* page = reinterpret_cast<DirDataPage*>(pool.PageAddress(pages[i / kDirentsPerPage]));
    DirentBlock& dirent = page->slots[i % kDirentsPerPage];
    dirent.mode = kModeRegular | 0644;
    dirent.nlink = 1;
    dirent.SetName("f" + std::to_string(i));
    dirent.ino = inos[i];
  }
  auto* root_index =
      reinterpret_cast<IndexPage*>(pool.PageAddress(SuperblockOf(pool)->root.first_index_page));
  for (size_t i = 0; i < pages.size(); ++i) {
    root_index->entries[i] = pages[i];
  }
  TRIO_CHECK_OK(kernel.UnmapFile(writer, kRootIno));
  return inos;
}

TEST_F(KernelTest, WriteMapLogPersistsGrants) {
  LibFsId id = Register();
  ASSERT_TRUE(kernel_->MapRoot(id, true).ok());
  EXPECT_EQ(LoggedInos(pool_), std::vector<Ino>{kRootIno});
  EXPECT_EQ(WmapLog(pool_).front(), kRootIno);  // The lowest free slot.
  ASSERT_TRUE(kernel_->UnmapFile(id, kRootIno).ok());
  EXPECT_TRUE(LoggedInos(pool_).empty());
  kernel_->UnregisterLibFs(id);
}

// With more files write-mapped than one log page holds, the log names exactly the
// write-mapped files after grants, releases, a crash, recovery and grants again; a grant
// takes the lowest free slot.
TEST_F(KernelTest, WriteMapLogHoldsExactlyTheWriteMappedFiles) {
  const LibFsId id = Register();
  const std::vector<Ino> files = CreateWriteMappedFiles(*kernel_, pool_, id, 600);
  EXPECT_EQ(LoggedInos(pool_), Sorted(files));
  std::vector<Ino> held;
  for (size_t i = 0; i < files.size(); ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(kernel_->UnmapFile(id, files[i]).ok());
    } else {
      held.push_back(files[i]);
    }
  }
  EXPECT_EQ(LoggedInos(pool_), Sorted(held));

  // Crash: a second controller mounts the pool as the first left it.
  KernelController recovered(pool_);
  ASSERT_TRUE(recovered.Mount().ok());
  ASSERT_TRUE(recovered.NeedsRecovery());
  EXPECT_EQ(LoggedInos(pool_), Sorted(held));
  ASSERT_TRUE(recovered.RunRecovery().ok());
  EXPECT_EQ(recovered.stats().verifications.load(), held.size());
  EXPECT_TRUE(LoggedInos(pool_).empty());

  const LibFsId next = recovered.RegisterLibFs({});
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(recovered.MapFile(next, files[i], /*write=*/true).ok());
  }
  std::vector<Ino> log = WmapLog(pool_);
  EXPECT_EQ(std::vector<Ino>(log.begin(), log.begin() + 4),
            (std::vector<Ino>{files[0], files[1], files[2], kInvalidIno}));
  EXPECT_EQ(LoggedInos(pool_).size(), 3u);
  ASSERT_TRUE(recovered.UnmapFile(next, files[1]).ok());
  ASSERT_TRUE(recovered.MapFile(next, files[3], /*write=*/true).ok());
  log = WmapLog(pool_);
  EXPECT_EQ(std::vector<Ino>(log.begin(), log.begin() + 4),
            (std::vector<Ino>{files[0], files[3], files[2], kInvalidIno}));
  EXPECT_EQ(LoggedInos(pool_), Sorted({files[0], files[2], files[3]}));
  recovered.UnregisterLibFs(next);
  EXPECT_TRUE(LoggedInos(pool_).empty());
  EXPECT_TRUE(recovered.Unmount().ok());
}

// Past the log's capacity a grant sets the overflow flag, with one commit only the first
// time; recovery then verifies every file and clears the log and the flag.
TEST(WriteMapLogTest, AFullLogSetsOverflowOnceAndRecoveryVerifiesEveryFile) {
  NvmPool pool(4096);
  FormatOptions options;
  options.max_inodes = 8192;
  TRIO_CHECK_OK(Format(pool, options));
  const size_t slots = WmapLog(pool).size();
  KernelController kernel(pool);
  TRIO_CHECK_OK(kernel.Mount());
  const LibFsId id = kernel.RegisterLibFs({});
  // The root held slot 0 while its verification logged the new files, so all but the last
  // 9 of these got a slot, and the root's release then freed slot 0.
  const std::vector<Ino> files = CreateWriteMappedFiles(kernel, pool, id, slots + 8);
  Superblock* sb = SuperblockOf(pool);
  EXPECT_EQ(pool.Load64(&sb->wmap_log_overflow), 1u);
  EXPECT_EQ(WmapLog(pool).front(), kInvalidIno);
  EXPECT_EQ(LoggedInos(pool), Sorted({files.begin(), files.begin() + slots - 1}));

  // A grant with a free slot costs one commit; one into the full log costs none.
  const Ino unlogged = files.back();
  ASSERT_TRUE(kernel.UnmapFile(id, unlogged).ok());
  uint64_t fences = pool.stats().fences.load();
  ASSERT_TRUE(kernel.MapFile(id, unlogged, /*write=*/true).ok());
  EXPECT_EQ(pool.stats().fences.load(), fences + 1);
  EXPECT_EQ(WmapLog(pool).front(), unlogged);
  const Ino overflowed = files[files.size() - 2];
  ASSERT_TRUE(kernel.UnmapFile(id, overflowed).ok());
  fences = pool.stats().fences.load();
  ASSERT_TRUE(kernel.MapFile(id, overflowed, /*write=*/true).ok());
  EXPECT_EQ(pool.stats().fences.load(), fences);
  EXPECT_EQ(LoggedInos(pool).size(), slots);

  KernelController recovered(pool);
  ASSERT_TRUE(recovered.Mount().ok());
  ASSERT_TRUE(recovered.RunRecovery().ok());
  EXPECT_EQ(recovered.stats().verifications.load(), files.size() + 1);  // And the root.
  EXPECT_EQ(pool.Load64(&sb->wmap_log_overflow), 0u);
  EXPECT_TRUE(LoggedInos(pool).empty());
}

TEST_F(KernelTest, PermissionDeniedForUnrelatedUser) {
  // Root directory is 0755 owned by uid 0: uid 7 may read, not write.
  LibFsId mallory = Register(/*uid=*/7);
  EXPECT_TRUE(kernel_->MapRoot(mallory, false).ok());
  ASSERT_TRUE(kernel_->UnmapFile(mallory, kRootIno).ok());
  EXPECT_TRUE(kernel_->MapRoot(mallory, true).status().Is(ErrorCode::kPermission));
  kernel_->UnregisterLibFs(mallory);
}

TEST_F(KernelTest, ChmodRequiresOwnership) {
  LibFsId mallory = Register(/*uid=*/7);
  EXPECT_TRUE(kernel_->Chmod(mallory, kRootIno, 0777).Is(ErrorCode::kPermission));
  LibFsId root = Register(/*uid=*/0);
  EXPECT_TRUE(kernel_->Chmod(root, kRootIno, 0700).ok());
  EXPECT_EQ(ShadowInodeOf(pool_, kRootIno)->mode & kModePermMask, 0700u);
  // And the cached copy in the superblock dirent matches (I4 consistency).
  EXPECT_EQ(SuperblockOf(pool_)->root.mode & kModePermMask, 0700u);
  kernel_->UnregisterLibFs(mallory);
  kernel_->UnregisterLibFs(root);
}

TEST_F(KernelTest, ChownRequiresRoot) {
  LibFsId mallory = Register(/*uid=*/7);
  EXPECT_TRUE(kernel_->Chown(mallory, kRootIno, 7, 7).Is(ErrorCode::kPermission));
  LibFsId root = Register(/*uid=*/0);
  EXPECT_TRUE(kernel_->Chown(root, kRootIno, 3, 4).ok());
  EXPECT_EQ(ShadowInodeOf(pool_, kRootIno)->uid, 3u);
  EXPECT_EQ(ShadowInodeOf(pool_, kRootIno)->gid, 4u);
  kernel_->UnregisterLibFs(mallory);
  kernel_->UnregisterLibFs(root);
}

TEST_F(KernelTest, MapUnknownInoFails) {
  LibFsId id = Register();
  EXPECT_TRUE(kernel_->MapFile(id, 999, false).status().Is(ErrorCode::kNotFound));
  kernel_->UnregisterLibFs(id);
}

TEST_F(KernelTest, NoSpaceWhenPoolExhausted) {
  LibFsId id = Register();
  std::vector<PageNumber> pages;
  Status status = kernel_->AllocPages(id, pool_.num_pages(), 0, &pages);
  EXPECT_TRUE(status.Is(ErrorCode::kNoSpace));
  EXPECT_TRUE(pages.empty());  // All-or-nothing.
  kernel_->UnregisterLibFs(id);
}

TEST_F(KernelTest, SyscallsAreCounted) {
  const uint64_t before = kernel_->stats().syscalls.load();
  LibFsId id = Register();
  std::vector<PageNumber> pages;
  ASSERT_TRUE(kernel_->AllocPages(id, 1, 0, &pages).ok());
  ASSERT_TRUE(kernel_->MapRoot(id, false).ok());
  EXPECT_GE(kernel_->stats().syscalls.load(), before + 3);
  kernel_->UnregisterLibFs(id);
}

TEST_F(KernelTest, UnmountBlockedWhileLibFsRegistered) {
  LibFsId id = Register();
  EXPECT_TRUE(kernel_->Unmount().Is(ErrorCode::kBusy));
  kernel_->UnregisterLibFs(id);
  EXPECT_TRUE(kernel_->Unmount().ok());
}

TEST_F(KernelTest, CleanRemountRequiresNoRecovery) {
  TRIO_CHECK_OK(kernel_->Unmount());
  KernelController fresh(pool_);
  ASSERT_TRUE(fresh.Mount().ok());
  EXPECT_FALSE(fresh.NeedsRecovery());
  TRIO_CHECK_OK(fresh.Unmount());
  kernel_ = std::make_unique<KernelController>(pool_);
  TRIO_CHECK_OK(kernel_->Mount());
}

TEST_F(KernelTest, UncleanRemountFlagsRecovery) {
  // No Unmount: simulate the crash by just building a second controller.
  KernelController fresh(pool_);
  ASSERT_TRUE(fresh.Mount().ok());
  EXPECT_TRUE(fresh.NeedsRecovery());
  EXPECT_TRUE(fresh.RunRecovery().ok());
  EXPECT_FALSE(fresh.NeedsRecovery());
}

// ---- CallbackGuard ----

constexpr uint64_t kNoHangMs = 10000;  // Deadline for callbacks that never hang.

// The CPUs this process may run on, lowest first.
std::vector<int> AllowedCpus() {
  cpu_set_t set{};
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

// Runs `fn` on a fresh thread pinned to `cpu` (unpinned if negative) and joins it.
void OnThread(int cpu, const std::function<void()>& fn) {
  std::thread thread([cpu, &fn] {
    if (cpu >= 0) {
      cpu_set_t set{};
      CPU_SET(cpu, &set);
      ASSERT_EQ(sched_setaffinity(0, sizeof(set), &set), 0);
    }
    fn();
  });
  thread.join();
}

struct Placement {
  int cpu = -1;
  cpu_set_t mask{};
};

// Where a callback that `guard` runs for the calling thread executes.
Placement CallbackPlacement(CallbackGuard& guard) {
  auto seen = std::make_shared<Placement>();  // The task owns what it writes.
  EXPECT_TRUE(guard.Run(kNoHangMs, [seen] {
    seen->cpu = sched_getcpu();
    EXPECT_EQ(sched_getaffinity(0, sizeof(seen->mask), &seen->mask), 0);
  }));
  return *seen;
}

cpu_set_t CallerMask() {
  cpu_set_t mask{};
  EXPECT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  return mask;
}

TEST(CallbackGuardTest, PinnedCallerRunsCallbackOnItsOwnCpu) {
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() < 2) {
    GTEST_SKIP() << "needs 2 allowed CPUs";
  }
  CallbackGuard guard;
  // Leaves an idle helper spawned by a caller pinned to another CPU in the pool.
  OnThread(cpus[1], [&guard] { (void)CallbackPlacement(guard); });
  Placement seen;
  cpu_set_t caller{};
  OnThread(cpus[0], [&] {
    caller = CallerMask();
    seen = CallbackPlacement(guard);
  });
  EXPECT_EQ(seen.cpu, cpus[0]);
  EXPECT_TRUE(CPU_EQUAL(&seen.mask, &caller));
}

TEST(CallbackGuardTest, UnpinnedCallerGetsAnUnpinnedHelper) {
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() < 2) {
    GTEST_SKIP() << "needs 2 allowed CPUs";
  }
  CallbackGuard guard;
  OnThread(cpus[1], [&guard] { (void)CallbackPlacement(guard); });
  Placement seen;
  cpu_set_t caller{};
  OnThread(-1, [&] {
    caller = CallerMask();
    seen = CallbackPlacement(guard);
  });
  EXPECT_TRUE(CPU_EQUAL(&seen.mask, &caller));
  EXPECT_EQ(CPU_COUNT(&seen.mask), static_cast<int>(cpus.size()));
}

TEST(CallbackGuardTest, CallbackThatRunsAnotherCallbackCompletes) {
  const std::vector<int> cpus = AllowedCpus();
  ASSERT_FALSE(cpus.empty());
  CallbackGuard guard;
  auto inner_ran = std::make_shared<std::atomic<bool>>(false);
  // Pinned, so the nested helper shares the one CPU with the outer helper and the caller.
  OnThread(cpus[0], [&guard, inner_ran] {
    EXPECT_TRUE(guard.Run(kNoHangMs, [&guard, inner_ran] {
      EXPECT_TRUE(guard.Run(kNoHangMs, [inner_ran] { inner_ran->store(true); }));
    }));
  });
  EXPECT_TRUE(inner_ran->load());
  EXPECT_EQ(guard.timeouts(), 0u);
}

thread_local bool t_ran_hung_callback = false;

TEST(CallbackGuardTest, HungCallbackIsAbandonedAtItsDeadline) {
  constexpr uint64_t kDeadlineMs = 50;
  CallbackGuard guard;
  auto release = std::make_shared<std::atomic<bool>>(false);
  auto returned = std::make_shared<std::atomic<bool>>(false);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(guard.Run(kDeadlineMs, [release, returned] {
    t_ran_hung_callback = true;
    while (!release->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    returned->store(true);
  }));
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, std::chrono::milliseconds(kDeadlineMs));
  EXPECT_LT(waited, std::chrono::milliseconds(kDeadlineMs) + std::chrono::seconds(5));
  EXPECT_EQ(guard.timeouts(), 1u);

  // The abandoned helper never runs another callback: not while it hangs, nor after.
  auto on_hung_helper = [&guard] {
    auto seen = std::make_shared<std::atomic<bool>>(true);
    EXPECT_TRUE(guard.Run(kNoHangMs, [seen] { seen->store(t_ran_hung_callback); }));
    return seen->load();
  };
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(on_hung_helper());
  }
  release->store(true);
  while (!returned->load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(on_hung_helper());
  }
  EXPECT_EQ(guard.timeouts(), 1u);
}

}  // namespace
}  // namespace trio
