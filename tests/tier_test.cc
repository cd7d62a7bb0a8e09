// Absorb-tier tests: background digestion to the slow backend, the tier-entry encoding
// in index chains, promote-cache reads, promote-for-write conversion, reconcile-time
// backend-slot accounting, crash sweeps over a digestion workload, and the LeaseCache
// async-refill satellite.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/attacks/attacks.h"
#include "src/core/core_state.h"
#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"
#include "src/libfs/promote_cache.h"
#include "src/sim/backend.h"
#include "src/sim/crash_explorer.h"
#include "src/verifier/verify_error.h"

namespace trio {
namespace {

class TierTest : public ::testing::Test {
 protected:
  static constexpr size_t kPoolPages = 2048;

  void Boot(double high = 0.75, double low = 0.50, bool background = false) {
    pool_ = std::make_unique<NvmPool>(kPoolPages);
    FormatOptions options;
    options.max_inodes = 1024;
    TRIO_CHECK_OK(Format(*pool_, options));
    backend_ = std::make_unique<SlowBackend>();
    KernelConfig config;
    config.tier.backend = backend_.get();
    config.tier.high_watermark = high;
    config.tier.low_watermark = low;
    config.tier.batch_pages = 16;
    config.tier.start_digestion = background;
    config.tier.scan_interval_ms = 1;
    kernel_ = std::make_unique<KernelController>(*pool_, config);
    TRIO_CHECK_OK(kernel_->Mount());
    ArckFsConfig fs_config;
    fs_config.promote_cache_slots = 64;
    fs_ = std::make_unique<ArckFs>(*kernel_, fs_config);
  }

  void TearDown() override {
    fs_.reset();
    kernel_.reset();
  }

  Status WriteFile(const std::string& path, size_t pages, char fill) {
    TRIO_ASSIGN_OR_RETURN(Fd fd, fs_->Open(path, OpenFlags::CreateRw()));
    std::string block(kPageSize, fill);
    for (size_t p = 0; p < pages; ++p) {
      block[0] = static_cast<char>('0' + (p % 10));  // Per-page marker.
      TRIO_RETURN_IF_ERROR(
          fs_->Pwrite(fd, block.data(), block.size(), p * kPageSize).status());
    }
    return fs_->Close(fd);
  }

  // Finds a file's dirent by raw tree scan (fsck-style, no LibFS involved).
  DirentBlock* FindDirent(const std::string& name) {
    DirentBlock* found = nullptr;
    const Superblock* sb = SuperblockOf(*pool_);
    std::function<void(const DirentBlock*)> walk = [&](const DirentBlock* dir) {
      (void)ForEachDirent(*pool_, dir->first_index_page,
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

  // Count tier-tagged entries in the file's index chain (core-state truth, not radix).
  size_t TierEntryCount(const std::string& name) { return TierSlots(name).size(); }

  // The backend slot numbers the file's index chain references, in file-page order.
  std::vector<uint64_t> TierSlots(const std::string& name) {
    DirentBlock* dirent = FindDirent(name);
    TRIO_CHECK(dirent != nullptr);
    std::vector<uint64_t> slots;
    TRIO_CHECK_OK(ForEachDataEntry(*pool_, dirent->first_index_page,
                                   [&](uint64_t, uint64_t entry) -> Status {
                                     if (IsTierEntry(entry)) {
                                       slots.push_back(TierSlotOfEntry(entry));
                                     }
                                     return OkStatus();
                                   }));
    return slots;
  }

  std::unique_ptr<NvmPool> pool_;
  std::unique_ptr<SlowBackend> backend_;
  std::unique_ptr<KernelController> kernel_;
  std::unique_ptr<ArckFs> fs_;
};

TEST_F(TierTest, DigestNowMigratesColdFileAndReadsComeBack) {
  Boot();
  ASSERT_TRUE(WriteFile("/cold", 8, 'a').ok());
  ASSERT_TRUE(fs_->ReleaseFile("/cold").ok());

  const size_t digested = kernel_->DigestNow(64);
  EXPECT_GT(digested, 0u);
  EXPECT_EQ(backend_->OwnedSlotCount(), digested);
  EXPECT_GT(kernel_->tier_stats().digest_pages.load(), 0u);

  // Every digested page reads back with the bytes it carried.
  Result<Fd> fd = fs_->Open("/cold", OpenFlags::ReadOnly());
  ASSERT_TRUE(fd.ok());
  std::vector<char> buffer(kPageSize);
  for (size_t p = 0; p < 8; ++p) {
    Result<size_t> n = fs_->Pread(*fd, buffer.data(), buffer.size(), p * kPageSize);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_EQ(*n, kPageSize);
    EXPECT_EQ(buffer[0], static_cast<char>('0' + (p % 10)));
    EXPECT_EQ(buffer[1], 'a');
  }
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

TEST_F(TierTest, PromoteForWriteConvertsEntryAndFreesSlotAtReconcile) {
  Boot();
  ASSERT_TRUE(WriteFile("/conv", 4, 'c').ok());
  ASSERT_TRUE(fs_->ReleaseFile("/conv").ok());
  const size_t digested = kernel_->DigestNow(64);
  ASSERT_EQ(digested, 4u);
  ASSERT_EQ(TierEntryCount("conv"), 4u);

  // Overwriting a digested page converts its tier entry back to an NVM page; the
  // orphaned backend slot is freed when the release reconciles the index chain.
  Result<Fd> fd = fs_->Open("/conv", OpenFlags::ReadWrite());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  std::string block(kPageSize, 'N');
  ASSERT_TRUE(fs_->Pwrite(*fd, block.data(), block.size(), kPageSize).ok());
  ASSERT_TRUE(fs_->Close(*fd).ok());
  ASSERT_TRUE(fs_->ReleaseFile("/conv").ok());

  EXPECT_EQ(TierEntryCount("conv"), 3u);
  EXPECT_EQ(backend_->OwnedSlotCount(), 3u);
  EXPECT_GE(kernel_->tier_stats().backend_slots_freed.load(), 1u);

  fd = fs_->Open("/conv", OpenFlags::ReadOnly());
  ASSERT_TRUE(fd.ok());
  std::vector<char> buffer(kPageSize);
  ASSERT_TRUE(fs_->Pread(*fd, buffer.data(), buffer.size(), kPageSize).ok());
  EXPECT_EQ(buffer[0], 'N');
  ASSERT_TRUE(fs_->Pread(*fd, buffer.data(), buffer.size(), 2 * kPageSize).ok());
  EXPECT_EQ(buffer[1], 'c');  // Untouched digested neighbours still read back.
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

// Digestion rewrites a cold file's index entries with no verification, so it drops the
// chain the last release kept: a session right after it checkpoints the digested chain,
// and a rollback restores that, not the entries of pages digestion freed. A LibFS that
// held the file rebuilds its radix, and the next release walks the chain.
TEST_F(TierTest, DigestionDropsTheVerifiedChain) {
  Boot();
  ASSERT_TRUE(WriteFile("/img", 4, 'i').ok());
  ASSERT_TRUE(fs_->ReleaseFile("/img").ok());
  const VerifierStats& stats = kernel_->verifier().stats();
  const LibFsStats& fs_stats = fs_->libfs_stats();
  auto unchanged_session = [&] {
    Result<Fd> fd = fs_->Open("/img", OpenFlags::ReadWrite());
    TRIO_CHECK(fd.ok()) << fd.status().ToString();
    TRIO_CHECK_OK(fs_->Close(*fd));
    TRIO_CHECK_OK(fs_->ReleaseFile("/img"));
  };
  auto read_back = [&] {
    Result<Fd> fd = fs_->Open("/img", OpenFlags::ReadOnly());
    TRIO_CHECK(fd.ok()) << fd.status().ToString();
    std::vector<char> buffer(kPageSize);
    for (size_t p = 0; p < 4; ++p) {
      TRIO_CHECK(fs_->Pread(*fd, buffer.data(), buffer.size(), p * kPageSize).ok());
      EXPECT_EQ(buffer[0], static_cast<char>('0' + p)) << "page " << p;
      EXPECT_EQ(buffer[1], 'i') << "page " << p;
    }
    TRIO_CHECK_OK(fs_->Close(*fd));
    TRIO_CHECK_OK(fs_->ReleaseFile("/img"));
  };
  unchanged_session();
  uint64_t hits = stats.compare_hits.load();
  const uint64_t rebuilds = fs_stats.rebuilds.load();
  unchanged_session();
  EXPECT_EQ(stats.compare_hits.load(), hits + 1);
  EXPECT_EQ(fs_stats.rebuilds.load(), rebuilds);

  ASSERT_EQ(kernel_->DigestNow(64), 4u);
  MaliciousLibFs attacker(*kernel_);
  ASSERT_TRUE(attacker.AttackSizeBeyondCapacity("/img").ok());
  ASSERT_TRUE(attacker.ReleaseTarget("/img").Is(ErrorCode::kCorrupted));
  ASSERT_TRUE(fs_->Stat("/img").ok());  // Maps the root again, which rebuilds it.
  const uint64_t before_read = fs_stats.rebuilds.load();
  read_back();
  EXPECT_EQ(TierEntryCount("img"), 4u);
  EXPECT_EQ(fs_stats.rebuilds.load(), before_read + 1);

  hits = stats.compare_hits.load();
  const uint64_t scanned = stats.pages_scanned.load();
  unchanged_session();
  EXPECT_EQ(stats.compare_hits.load(), hits);
  EXPECT_EQ(stats.pages_scanned.load(), scanned + 5);  // The index page and four slots.
  unchanged_session();
  EXPECT_EQ(stats.compare_hits.load(), hits + 1);
  read_back();
}

TEST_F(TierTest, DatasetLargerThanNvmFillsViaWatermarkStalls) {
  Boot(/*high=*/0.55, /*low=*/0.35, /*background=*/true);
  // ~4x the 2048-page pool: 128 files x 64 data pages (+1 index page each).
  for (int f = 0; f < 128; ++f) {
    const std::string path = "/big" + std::to_string(f);
    ASSERT_TRUE(WriteFile(path, 64, 'b').ok()) << "file " << f;
    ASSERT_TRUE(fs_->ReleaseFile(path).ok()) << "file " << f;
  }
  EXPECT_GT(kernel_->tier_stats().digest_pages.load(), 0u);
  EXPECT_LT(kernel_->NvmOccupancy(), 1.0);
}

// ---- Crash sweep over a digestion workload ----
//
// Crash at EVERY fence while a file is digested to the backend and then promoted back
// for write. After each materialized crash the recovered image must be fsck-clean
// including G7 against the backend's rebuilt owner table — no page owned by both tiers,
// no slot owned by two files, no slot lost in flight — and the overwritten page must
// read back all-old or all-new, never a mix.
TEST_F(TierTest, CrashSweepDigestionAndPromoteBackStaysConsistent) {
  SlowBackend backend;  // Outlives every boot; each Mount re-adopts against it.
  CrashExplorerOptions options;
  options.pool_pages = 1024;
  options.max_inodes = 256;
  options.kernel_config.tier.backend = &backend;
  options.kernel_config.tier.batch_pages = 8;
  // start_digestion stays false: DigestNow from the workload thread keeps the recorded
  // fence sequence deterministic, so the sweep is exhaustive and reproducible.

  size_t digested = 0;
  CrashExplorer explorer(options);
  Result<CrashExplorerReport> report = explorer.Explore(
      [&](ArckFs& fs) {
        Result<Fd> fd = fs.Open("/cold", OpenFlags::CreateRw());
        TRIO_CHECK(fd.ok()) << fd.status().ToString();
        const std::string old_page(kPageSize, 'a');
        for (size_t p = 0; p < 6; ++p) {
          TRIO_CHECK(
              fs.Pwrite(*fd, old_page.data(), old_page.size(), p * kPageSize).ok());
        }
        TRIO_CHECK_OK(fs.Close(*fd));
        TRIO_CHECK_OK(fs.ReleaseFile("/cold"));
        digested = fs.kernel().DigestNow(64);  // Migration fences recorded here.

        // Promote-back for write: overwriting a digested page converts its tier entry
        // back to a fresh NVM page (conversion + reconcile fences recorded too).
        fd = fs.Open("/cold", OpenFlags::ReadWrite());
        TRIO_CHECK(fd.ok()) << fd.status().ToString();
        const std::string new_page(kPageSize, 'B');
        TRIO_CHECK(
            fs.Pwrite(*fd, new_page.data(), new_page.size(), 2 * kPageSize).ok());
        TRIO_CHECK_OK(fs.Close(*fd));
        TRIO_CHECK_OK(fs.ReleaseFile("/cold"));
      },
      [](ArckFs& fs) -> Status {
        Result<Fd> fd = fs.Open("/cold", OpenFlags::ReadOnly());
        if (!fd.ok()) {
          // Crashed before the create became durable: an empty tree is a legal outcome.
          return fd.status().Is(ErrorCode::kNotFound) ? OkStatus() : fd.status();
        }
        Result<StatInfo> info = fs.Stat("/cold");
        TRIO_RETURN_IF_ERROR(info.status());
        Status verdict = OkStatus();
        if (info->size >= 3 * kPageSize) {
          std::vector<char> page(kPageSize);
          Result<size_t> n = fs.Pread(*fd, page.data(), page.size(), 2 * kPageSize);
          if (!n.ok()) {
            verdict = n.status();
          } else if (*n != kPageSize) {
            verdict = Internal("short read of the overwritten page");
          } else if (page[0] != 'a' && page[0] != 'B') {
            verdict = Corrupted("page 2 is neither old nor new content");
          } else {
            for (char c : page) {
              if (c != page[0]) {
                verdict = Corrupted("page 2 mixes old and new content");
                break;
              }
            }
          }
        }
        Status closed = fs.Close(*fd);
        return verdict.ok() ? closed : verdict;
      });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(digested, 0u);
  EXPECT_TRUE(report->Clean())
      << report->failures.size() << " failing crash points; first at fence "
      << report->failures.front().fence << ": " << report->failures.front().what;
  EXPECT_EQ(report->explored, report->fences + 1);  // Exhaustive: every fence swept.
  EXPECT_GT(explorer.stats().fsck_runs.load(), 0u);
}

// ---- Forged digested-page mapping, backend configured ----
//
// A malicious LibFS swaps one of its own tier entries for a slot the backend records as
// owned by ANOTHER file. CheckTierSlot must condemn the release (a LibFS that could mint
// slots could read other tenants' digested data at reconcile), the forger is
// quarantined, and the victim's digested data stays readable. The no-backend variant of
// this forgery lives in the scripted-corruption corpus ("index_forged_tier_mapping").
TEST_F(TierTest, ForgedTierMappingStealingAnotherFilesSlotIsQuarantined) {
  Boot();
  ASSERT_TRUE(WriteFile("/mine", 3, 'm').ok());
  ASSERT_TRUE(fs_->ReleaseFile("/mine").ok());
  ASSERT_TRUE(WriteFile("/theirs", 3, 't').ok());
  ASSERT_TRUE(fs_->ReleaseFile("/theirs").ok());
  ASSERT_EQ(kernel_->DigestNow(64), 6u);

  const std::vector<uint64_t> their_slots = TierSlots("theirs");
  ASSERT_EQ(their_slots.size(), 3u);

  MaliciousLibFs attacker(*kernel_);
  Result<DirentBlock*> dirent = attacker.MapTarget("/mine");
  ASSERT_TRUE(dirent.ok()) << dirent.status().ToString();
  auto* index = reinterpret_cast<IndexPage*>(
      pool_->PageAddress((*dirent)->first_index_page));
  ASSERT_TRUE(IsTierEntry(index->entries[0]));
  ASSERT_TRUE(attacker.RawStore64(&index->entries[0], MakeTierEntry(their_slots[0])));

  Status released = attacker.ReleaseTarget("/mine");
  ASSERT_FALSE(released.ok());
  EXPECT_TRUE(VerifyError::IsStructured(released)) << released.ToString();
  EXPECT_EQ(VerifyError::FromStatus(released).cls, VerifyErrorClass::kForeignPage)
      << released.ToString();
  EXPECT_GE(kernel_->QuarantineCount(), 1u);

  // The victim's digested file is untouched and still promotes cleanly.
  Result<Fd> fd = fs_->Open("/theirs", OpenFlags::ReadOnly());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  std::vector<char> buffer(kPageSize);
  ASSERT_TRUE(fs_->Pread(*fd, buffer.data(), buffer.size(), 0).ok());
  EXPECT_EQ(buffer[1], 't');
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

// ---- Promote cache ----

// Lock-free read hits racing Insert/Erase of the same key. Every hit must copy the cached
// page's bytes, and every slot field a reader consults inside its seqlock read section
// must be an atomic, so the race is clean under TSan.
TEST_F(TierTest, PromoteCacheReadHitRacesInsertAndErase) {
  pool_ = std::make_unique<NvmPool>(64);
  PromoteCache cache(*pool_, 16);
  constexpr Ino kIno = 7;
  constexpr uint64_t kIndex = 3;
  // Two pages with identical contents, installed alternately: a hit may copy either.
  const PageNumber pages[2] = {10, 11};
  const std::string pattern(kPageSize, 'p');
  for (PageNumber page : pages) {
    pool_->Write(pool_->PageAddress(page), pattern.data(), pattern.size());
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      char buf[64];
      while (!done.load(std::memory_order_acquire)) {
        std::memset(buf, 0, sizeof(buf));
        if (cache.ReadHit(kIno, kIndex, 128, buf, sizeof(buf))) {
          hits.fetch_add(1, std::memory_order_relaxed);
          if (std::string(buf, sizeof(buf)) != pattern.substr(0, sizeof(buf))) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  // At least 20k insert/erase rounds, and on until the readers have hit a few times
  // (bounded, in case they never get a CPU while the key is installed).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto keep_going = [&](int i) {
    return i < 20000 || (hits.load() < 100 && std::chrono::steady_clock::now() < deadline);
  };
  uint64_t bad_returns = 0;
  for (int i = 0; keep_going(i); ++i) {
    const PageNumber page = pages[i % 2];
    bad_returns += cache.Insert(kIno, kIndex, page) != 0 ? 1 : 0;
    bad_returns += cache.Erase(kIno, kIndex) != page ? 1 : 0;
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(bad_returns, 0u) << "Insert/Erase of a lone key displaced the wrong page";
  EXPECT_EQ(torn.load(), 0u) << "a read hit returned bytes that were never cached";
  EXPECT_GT(hits.load(), 0u);
}

// ---- LeaseCache satellites ----

// Steady allocation must be fed by the background refill worker; the hot path traps
// into the kernel only for the very first (dry-cache) batch.
TEST_F(TierTest, LeaseCacheRefillsMoveOffTheHotPath) {
  Boot();
  LeaseCache& leases = fs_->leases();
  ASSERT_EQ(leases.async_refills(), 0u);

  // Default batch is 64: the first alloc pays one sync trap, and dropping under a
  // quarter of the batch (16 left, i.e. the 49th alloc) queues an async refill.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(leases.AllocPage(0).ok());
  }
  for (int tries = 0; tries < 2000 && leases.async_refills() == 0; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(leases.async_refills(), 1u);

  // With the worker keeping the shard topped up, further allocation never traps.
  const uint64_t sync_before = leases.sync_refills();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(leases.AllocPage(0).ok());
  }
  EXPECT_EQ(leases.sync_refills(), sync_before);
  EXPECT_EQ(sync_before, 1u);  // Only the startup dry-cache trap was synchronous.
}

// A recycled (dirty) page handed back by the LeaseCache must be re-zeroed when it is
// reused by a partial write: the untouched head of the page must read as zeros, never
// as the previous tenant's bytes.
TEST_F(TierTest, RecycledPageIsReZeroedOnThePartialWritePath) {
  Boot();
  // Force the one-time allocations (journal shards, the root's dirent page) through the
  // cache first, so the scribbled pages below are reused by /partial's own chain rather
  // than swallowed by journal initialization.
  ASSERT_TRUE(WriteFile("/warm", 1, 'w').ok());

  LeaseCache& leases = fs_->leases();
  // Scribble two leased pages and recycle both: the first Pwrite below allocates the
  // file's index page AND its data page, so whichever order they pop in, the data page
  // is provably dirty media.
  Result<PageNumber> p1 = leases.AllocPage(0);
  Result<PageNumber> p2 = leases.AllocPage(0);
  ASSERT_TRUE(p1.ok() && p2.ok());
  std::string garbage(kPageSize, 'X');
  pool_->Write(pool_->PageAddress(*p1), garbage.data(), garbage.size());
  pool_->Write(pool_->PageAddress(*p2), garbage.data(), garbage.size());
  leases.RecyclePage(*p1);
  leases.RecyclePage(*p2);

  // RecyclePage files by the page's REAL node into this thread's shard, so the next
  // allocation returns the most recently recycled page (LIFO bookkeeping proof).
  Result<PageNumber> again = leases.AllocPage(0);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(*again, *p2);
  leases.RecyclePage(*again);

  Result<Fd> fd = fs_->Open("/partial", OpenFlags::CreateRw());
  ASSERT_TRUE(fd.ok());
  const std::string tail(4, 'T');
  ASSERT_TRUE(fs_->Pwrite(*fd, tail.data(), tail.size(), kPageSize - 4).ok());

  // The recycled pages really were reused for this file's chain.
  DirentBlock* dirent = FindDirent("partial");
  ASSERT_NE(dirent, nullptr);
  PageNumber data_page = 0;
  TRIO_CHECK_OK(ForEachDataEntry(*pool_, dirent->first_index_page,
                                 [&](uint64_t, uint64_t entry) -> Status {
                                   data_page = static_cast<PageNumber>(entry);
                                   return OkStatus();
                                 }));
  EXPECT_TRUE(data_page == *p1 || data_page == *p2) << "data page " << data_page;

  std::vector<char> buffer(kPageSize);
  Result<size_t> n = fs_->Pread(*fd, buffer.data(), buffer.size(), 0);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, kPageSize);
  for (size_t i = 0; i < kPageSize - 4; ++i) {
    ASSERT_EQ(buffer[i], 0) << "stale byte leaked at offset " << i;
  }
  EXPECT_EQ(buffer[kPageSize - 1], 'T');
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

}  // namespace
}  // namespace trio
