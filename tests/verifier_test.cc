// Direct unit tests of the integrity verifier against hand-built core state and mock
// ownership tables — exercising each I1-I4 clause in isolation, plus the
// new/claimed/removed child classification the kernel relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/core_state.h"
#include "src/verifier/verifier.h"
#include "src/verifier/verify_error.h"

namespace trio {
namespace {

class FakeOwnership : public OwnershipView {
 public:
  PageState StateOfPage(PageNumber page) const override {
    auto it = pages_.find(page);
    return it == pages_.end() ? PageState{} : it->second;
  }
  InoState StateOfIno(Ino ino) const override {
    auto it = inos_.find(ino);
    return it == inos_.end() ? InoState{} : it->second;
  }

  void OwnPage(PageNumber page, Ino owner) {
    pages_[page] = PageState{ResourceState::kOwned, kNoLibFs, owner};
  }
  void LeasePage(PageNumber page, LibFsId libfs) {
    pages_[page] = PageState{ResourceState::kLeased, libfs, kInvalidIno};
  }
  void OwnIno(Ino ino, Ino parent) {
    inos_[ino] = InoState{ResourceState::kOwned, kNoLibFs, parent};
  }
  void LeaseIno(Ino ino, LibFsId libfs) {
    inos_[ino] = InoState{ResourceState::kLeased, libfs, kInvalidIno};
  }
  void TransitIno(Ino ino, LibFsId mover) {
    inos_[ino] = InoState{ResourceState::kInTransit, kNoLibFs, kInvalidIno, mover};
  }

 private:
  std::unordered_map<PageNumber, PageState> pages_;
  std::unordered_map<Ino, InoState> inos_;
};

constexpr LibFsId kWriter = 7;

class FakeEnv : public VerifyEnv {
 public:
  Status CheckRemovedChildDir(Ino child, LibFsId writer) const override {
    if (corrupt_removed_.count(child) != 0) {
      return Corrupted("I3: removed child directory violation");
    }
    return OkStatus();
  }
  bool IsWriteHeldBy(Ino dir, LibFsId writer) const override {
    if (on_held_query_) {
      on_held_query_();
    }
    return writer == kWriter && held_dirs_.count(dir) != 0;
  }

  std::unordered_set<Ino> corrupt_removed_;
  std::unordered_set<Ino> held_dirs_;  // Directories the writer holds.
  std::function<void()> on_held_query_;  // Runs first in IsWriteHeldBy, as a racing thread.
};

class VerifierTest : public ::testing::Test {
 protected:
  explicit VerifierTest(size_t pool_pages = 512, uint64_t max_inodes = 256)
      : pool_(pool_pages) {
    FormatOptions options;
    options.max_inodes = max_inodes;
    TRIO_CHECK_OK(Format(pool_, options));
    verifier_ = std::make_unique<IntegrityVerifier>(pool_, ownership_, env_);
    next_page_ = FileRegionStart(pool_) + 16;
  }

  // Allocates a fresh, zeroed page (marked leased to the writer by default).
  PageNumber NewPage(bool leased = true) {
    PageNumber page = next_page_++;
    pool_.Set(pool_.PageAddress(page), 0, kPageSize);
    if (leased) {
      ownership_.LeasePage(page, kWriter);
    }
    return page;
  }

  // Builds a regular file: dirent in a dir data page + 1 index page + n data pages.
  DirentBlock* BuildRegularFile(Ino ino, uint64_t size, int data_pages) {
    dirent_page_ = NewPage();
    auto* dir_page = reinterpret_cast<DirDataPage*>(pool_.PageAddress(dirent_page_));
    DirentBlock* d = &dir_page->slots[0];
    std::memset(d, 0, sizeof(*d));
    d->ino = ino;
    d->mode = kModeRegular | 0644;
    d->uid = 1;
    d->gid = 1;
    d->nlink = 1;
    d->size = size;
    d->SetName("file");
    const PageNumber index = NewPage();
    d->first_index_page = index;
    auto* ip = reinterpret_cast<IndexPage*>(pool_.PageAddress(index));
    for (int i = 0; i < data_pages; ++i) {
      ip->entries[i] = NewPage();
    }
    return d;
  }

  VerifyRequest RequestFor(Ino ino, const DirentBlock* dirent) {
    VerifyRequest request;
    request.ino = ino;
    request.dirent = dirent;
    request.writer = kWriter;
    request.writer_uid = 1;
    request.writer_gid = 1;
    return request;
  }

  NvmPool pool_;
  FakeOwnership ownership_;
  FakeEnv env_;
  std::unique_ptr<IntegrityVerifier> verifier_;
  PageNumber next_page_;
  PageNumber dirent_page_ = 0;
};

TEST_F(VerifierTest, FreshFileWithLeasedResourcesPasses) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 3000, 1);
  Result<VerifyReport> report = verifier_->Verify(RequestFor(42, d));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->pages.size(), 2u);  // Index + one data page.
}

TEST_F(VerifierTest, InoNeitherOwnedNorLeasedFails) {
  DirentBlock* d = BuildRegularFile(42, 100, 1);  // Ino 42 unknown to ownership.
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierTest, InoLeasedToAnotherLibFsFails) {
  ownership_.LeaseIno(42, kWriter + 1);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierTest, PageOwnedByOtherFileFails) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  // Point a second entry at a page owned by someone else's file.
  auto* ip = reinterpret_cast<IndexPage*>(pool_.PageAddress(d->first_index_page));
  const PageNumber stolen = NewPage(/*leased=*/false);
  ownership_.OwnPage(stolen, /*owner=*/99);
  ip->entries[1] = stolen;
  Result<VerifyReport> report = verifier_->Verify(RequestFor(42, d));
  EXPECT_TRUE(report.status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierTest, DoubleReferenceWithinFileFails) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  auto* ip = reinterpret_cast<IndexPage*>(pool_.PageAddress(d->first_index_page));
  ip->entries[1] = ip->entries[0];
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierTest, SizeBeyondChainCapacityFails) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, /*size=*/kIndexEntriesPerPage * kPageSize + 1, 1);
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierTest, SizeWithinCapacityWithHolesPasses) {
  ownership_.LeaseIno(42, kWriter);
  // Sparse: size covers the whole (single-index-page) chain, only one data page present.
  DirentBlock* d = BuildRegularFile(42, kIndexEntriesPerPage * kPageSize, 1);
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).ok());
}

TEST_F(VerifierTest, NonzeroReservedFails) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  d->reserved[3] = 1;
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierTest, NonzeroNameTailFails) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  d->name[d->name_len + 2] = 'x';  // Hidden payload after the name.
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierTest, WrongCreatorUidFails) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  d->uid = 55;  // Fresh file must be owned by the writer (uid 1).
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierTest, ExistingFilePermissionCacheMismatchFails) {
  // Existing file: shadow inode is ground truth (I4).
  ownership_.OwnIno(42, kRootIno);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  ownership_.OwnPage(d->first_index_page, 42);
  auto* ip = reinterpret_cast<IndexPage*>(pool_.PageAddress(d->first_index_page));
  ownership_.OwnPage(ip->entries[0], 42);
  ShadowInode* shadow = ShadowInodeOf(pool_, 42);
  ShadowInode truth{kModeRegular | 0644, 1, 1, 1};
  pool_.Write(shadow, &truth, sizeof(truth));
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).ok());

  d->mode = kModeRegular | 0777;  // Attacker edits the cached copy.
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).status().Is(ErrorCode::kCorrupted));
}

// A file whose directory dropped it is still an existing file: its own verification checks
// it as one, I4 included.
TEST_F(VerifierTest, TransitInoPassesAsAnExistingRegularFile) {
  ownership_.TransitIno(42, /*mover=*/kWriter + 1);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  ownership_.OwnPage(d->first_index_page, 42);
  ownership_.OwnPage(reinterpret_cast<IndexPage*>(pool_.PageAddress(d->first_index_page))
                         ->entries[0],
                     42);
  ShadowInode truth{kModeRegular | 0644, 1, 1, 1};
  pool_.Write(ShadowInodeOf(pool_, 42), &truth, sizeof(truth));
  Result<VerifyReport> report = verifier_->Verify(RequestFor(42, d));
  EXPECT_TRUE(report.ok()) << report.status().ToString();

  d->mode = kModeRegular | 0777;
  EXPECT_EQ(VerifyError::FromStatus(verifier_->Verify(RequestFor(42, d)).status()).cls,
            VerifyErrorClass::kPermissionMismatch);
}

TEST_F(VerifierTest, DirentInoMismatchFails) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  VerifyRequest request = RequestFor(/*ino=*/43, d);  // Identity mismatch.
  ownership_.LeaseIno(43, kWriter);
  EXPECT_TRUE(verifier_->Verify(request).status().Is(ErrorCode::kCorrupted));
}

// ---- Compare-first: a chain equal to the one a passing verification checked ----

class VerifierCompareTest : public VerifierTest {
 protected:
  // An existing file (ino 42, owned with its pages, shadow inode in place) of `data_pages`
  // pages, verified once: `kept_` holds the chain that pass checked.
  DirentBlock* BuildVerifiedFile(int data_pages) {
    ownership_.OwnIno(42, kRootIno);
    DirentBlock* d = BuildRegularFile(42, 100, data_pages);
    ownership_.OwnPage(d->first_index_page, 42);
    for (int i = 0; i < data_pages; ++i) {
      ownership_.OwnPage(Index(d)->entries[i], 42);
    }
    ShadowInode truth{kModeRegular | 0644, 1, 1, 1};
    pool_.Write(ShadowInodeOf(pool_, 42), &truth, sizeof(truth));
    Result<VerifyReport> first = verifier_->Verify(RequestFor(42, d));
    TRIO_CHECK(first.ok()) << first.status().ToString();
    TRIO_CHECK(!first->chain_unchanged);
    kept_ = std::move(first->chain);
    return d;
  }

  IndexPage* Index(const DirentBlock* d) {
    return reinterpret_cast<IndexPage*>(pool_.PageAddress(d->first_index_page));
  }

  Result<VerifyReport> VerifyAgainstKept(const DirentBlock* d) {
    VerifyRequest request = RequestFor(42, d);
    request.verified_chain = &kept_;
    return verifier_->Verify(request);
  }

  VerifyErrorClass ClassOf(const Result<VerifyReport>& report) {
    return VerifyError::FromStatus(report.status()).cls;
  }

  PageImages kept_;
};

TEST_F(VerifierCompareTest, AWalkKeepsTheChainItChecked) {
  DirentBlock* d = BuildVerifiedFile(3);
  ASSERT_EQ(kept_.pages, std::vector<PageNumber>{d->first_index_page});
  EXPECT_EQ(std::memcmp(kept_.contents[0].get(), Index(d), kPageSize), 0);
}

TEST_F(VerifierCompareTest, UnchangedChainIsAcceptedWithoutAWalk) {
  DirentBlock* d = BuildVerifiedFile(3);
  const uint64_t scanned = verifier_->stats().pages_scanned.load();
  const uint64_t hits = verifier_->stats().compare_hits.load();
  Result<VerifyReport> report = VerifyAgainstKept(d);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->chain_unchanged);
  EXPECT_TRUE(report->pages.empty());
  EXPECT_TRUE(report->chain.pages.empty());
  EXPECT_EQ(verifier_->stats().pages_scanned.load(), scanned);
  EXPECT_EQ(verifier_->stats().compare_hits.load(), hits + 1);

  // The dirent is still checked in full: the size against the kept chain's capacity, and
  // the cached permissions against the shadow inode.
  d->size = kIndexEntriesPerPage * kPageSize + 1;
  EXPECT_EQ(ClassOf(VerifyAgainstKept(d)), VerifyErrorClass::kBadSize);
  d->size = 100;
  d->mode = kModeRegular | 0666;
  EXPECT_EQ(ClassOf(VerifyAgainstKept(d)), VerifyErrorClass::kPermissionMismatch);
}

// Any difference from the kept chain is walked: a foreign page is caught, a next pointer
// to another file's page is caught, and two swapped entries (the same pages) pass with the
// new order reported and kept.
TEST_F(VerifierCompareTest, ChangedChainFallsThroughToTheWalk) {
  DirentBlock* d = BuildVerifiedFile(2);
  IndexPage* index = Index(d);
  const IndexPage saved = *index;
  const uint64_t hits = verifier_->stats().compare_hits.load();

  const PageNumber stolen = NewPage(/*leased=*/false);
  ownership_.OwnPage(stolen, /*owner=*/99);
  index->entries[2] = stolen;
  EXPECT_EQ(ClassOf(VerifyAgainstKept(d)), VerifyErrorClass::kForeignPage);
  *index = saved;

  const PageNumber foreign_index = NewPage(/*leased=*/false);
  ownership_.OwnPage(foreign_index, /*owner=*/99);
  index->next = foreign_index;
  EXPECT_EQ(ClassOf(VerifyAgainstKept(d)), VerifyErrorClass::kForeignPage);
  *index = saved;

  std::swap(index->entries[0], index->entries[1]);
  const uint64_t scanned = verifier_->stats().pages_scanned.load();
  Result<VerifyReport> report = VerifyAgainstKept(d);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->chain_unchanged);
  EXPECT_EQ(report->pages, (std::vector<PageNumber>{d->first_index_page, saved.entries[1],
                                                    saved.entries[0]}));
  EXPECT_EQ(std::memcmp(report->chain.contents[0].get(), index, kPageSize), 0);
  EXPECT_EQ(verifier_->stats().pages_scanned.load(), scanned + 3);
  EXPECT_EQ(verifier_->stats().compare_hits.load(), hits);
}

// A head that moved is a changed chain even when the pages it leads to are unchanged.
TEST_F(VerifierCompareTest, AMovedHeadIsWalked) {
  DirentBlock* d = BuildVerifiedFile(1);
  const PageNumber other = NewPage(/*leased=*/false);
  ownership_.OwnPage(other, /*owner=*/99);
  std::memcpy(pool_.PageAddress(other), Index(d), kPageSize);
  d->first_index_page = other;
  EXPECT_EQ(ClassOf(VerifyAgainstKept(d)), VerifyErrorClass::kForeignPage);
}

// ---- Directory-level checks ----

class VerifierDirTest : public VerifierTest {
 protected:
  using VerifierTest::VerifierTest;

  // Builds a directory (ino `dir_ino`, owned) with `children` fresh child dirents named
  // c0, c1, ... with inos first_child, first_child + 1, ..., filling data pages in order.
  DirentBlock* BuildDirectory(Ino dir_ino, int children, Ino first_child = 100) {
    dir_dirent_page_ = NewPage();
    auto* holder = reinterpret_cast<DirDataPage*>(pool_.PageAddress(dir_dirent_page_));
    DirentBlock* d = &holder->slots[0];
    std::memset(d, 0, sizeof(*d));
    d->ino = dir_ino;
    d->mode = kModeDirectory | 0755;
    d->uid = 1;
    d->gid = 1;
    d->nlink = 1;
    d->SetName("dir");
    const PageNumber index = NewPage();
    d->first_index_page = index;
    ownership_.OwnIno(dir_ino, kRootIno);
    ownership_.OwnPage(index, dir_ino);
    const int data_pages = std::max<int>(1, (children + kDirentsPerPage - 1) / kDirentsPerPage);
    for (int p = 0; p < data_pages; ++p) {
      const PageNumber data = NewPage();
      reinterpret_cast<IndexPage*>(pool_.PageAddress(index))->entries[p] = data;
      ownership_.OwnPage(data, dir_ino);
      if (p == 0) {
        dir_data_page_ = data;
      }
    }
    for (int i = 0; i < children; ++i) {
      DirentBlock* child = ChildAt(d, i);
      std::memset(child, 0, sizeof(*child));
      child->ino = first_child + i;
      child->mode = kModeRegular | 0600;
      child->uid = 1;
      child->gid = 1;
      child->nlink = 1;
      child->SetName("c" + std::to_string(i));
      ownership_.LeaseIno(first_child + i, kWriter);
    }
    ShadowInode truth{kModeDirectory | 0755, 1, 1, 1};
    pool_.Write(ShadowInodeOf(pool_, dir_ino), &truth, sizeof(truth));
    return d;
  }

  // The i-th dirent slot of directory `d`'s data pages.
  DirentBlock* ChildAt(const DirentBlock* d, int i) {
    const auto* index = reinterpret_cast<IndexPage*>(pool_.PageAddress(d->first_index_page));
    auto* data = reinterpret_cast<DirDataPage*>(
        pool_.PageAddress(index->entries[i / kDirentsPerPage]));
    return &data->slots[i % kDirentsPerPage];
  }

  // A checkpoint copy of the directory's first data page that also names `removed` (ino,
  // and whether it is a directory) in the slots after its `live` children: children the
  // grant saw that the directory no longer names.
  PageImages KeepWithRemoved(int live, const std::vector<std::pair<Ino, bool>>& removed) {
    PageImages kept;
    kept.Add(pool_, dir_data_page_);
    auto* copy = reinterpret_cast<DirDataPage*>(kept.contents.back().get());
    for (size_t i = 0; i < removed.size(); ++i) {
      DirentBlock& child = copy->slots[live + i];
      child = copy->slots[0];
      child.ino = removed[i].first;
      child.mode = (removed[i].second ? kModeDirectory : kModeRegular) | 0600;
      child.SetName("gone" + std::to_string(i));
    }
    return kept;
  }

  PageNumber dir_dirent_page_ = 0;
  PageNumber dir_data_page_ = 0;
};

TEST_F(VerifierDirTest, FreshChildrenReported) {
  DirentBlock* d = BuildDirectory(50, 3);
  Result<VerifyReport> report = verifier_->Verify(RequestFor(50, d));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->new_children.size(), 3u);
  EXPECT_EQ(report->live_dirents, 3u);
  EXPECT_TRUE(report->removed_children.empty());
}

TEST_F(VerifierDirTest, DuplicateChildNamesFail) {
  DirentBlock* d = BuildDirectory(50, 2);
  auto* data = reinterpret_cast<DirDataPage*>(pool_.PageAddress(dir_data_page_));
  data->slots[1].SetName("c0");  // Same as slot 0.
  EXPECT_TRUE(verifier_->Verify(RequestFor(50, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierDirTest, TwoDirentsSameInoFail) {
  DirentBlock* d = BuildDirectory(50, 2);
  auto* data = reinterpret_cast<DirDataPage*>(pool_.PageAddress(dir_data_page_));
  data->slots[1].ino = data->slots[0].ino;
  EXPECT_TRUE(verifier_->Verify(RequestFor(50, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierDirTest, RemovedChildDiffedAgainstCheckpoint) {
  DirentBlock* d = BuildDirectory(50, 2);
  const PageImages kept = KeepWithRemoved(2, {{180, false}});
  ownership_.OwnIno(180, 50);  // Was a child; now gone from the dirents.
  VerifyRequest request = RequestFor(50, d);
  request.checkpoint_dir_pages = &kept;
  Result<VerifyReport> report = verifier_->Verify(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->removed_children.size(), 1u);
  EXPECT_EQ(report->removed_children[0], 180u);
}

TEST_F(VerifierDirTest, RemovedChildDirCheckedViaEnv) {
  DirentBlock* d = BuildDirectory(50, 1);
  const PageImages kept = KeepWithRemoved(1, {{180, true}});
  ownership_.OwnIno(180, 50);
  env_.corrupt_removed_.insert(180);  // Kernel says: still mapped / not empty.
  VerifyRequest request = RequestFor(50, d);
  request.checkpoint_dir_pages = &kept;
  EXPECT_TRUE(verifier_->Verify(request).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierDirTest, MovedInChildNeedsPermission) {
  DirentBlock* d = BuildDirectory(50, 1);
  // Slot 0's ino is owned by a *different* parent: a rename into this directory.
  ownership_.OwnIno(100, /*parent=*/77);
  ShadowInode truth{kModeRegular | 0600, 1, 1, 1};
  pool_.Write(ShadowInodeOf(pool_, 100), &truth, sizeof(truth));

  EXPECT_EQ(VerifyError::FromStatus(verifier_->Verify(RequestFor(50, d)).status()).cls,
            VerifyErrorClass::kCrossDirectory);

  env_.held_dirs_.insert(77);  // The writer holds the old parent: a move it made.
  Result<VerifyReport> report = verifier_->Verify(RequestFor(50, d));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->claimed.size(), 1u);
  EXPECT_EQ(report->claimed[0].ino, 100u);
  EXPECT_EQ(report->claimed[0].dirent_page, dir_data_page_);
  EXPECT_EQ(report->claimed[0].dirent_slot, 0u);
}

// Children the directory owns: one the checkpoint's copy holds in the same slot is on
// record; one that moved to another slot, or sits in a page the copy does not hold at that
// position, is claimed.
TEST_F(VerifierDirTest, AChildOwnedHereAtAChangedSlotIsClaimed) {
  DirentBlock* d = BuildDirectory(50, 2);
  for (Ino child : {100, 101}) {
    ownership_.OwnIno(child, 50);
    ShadowInode truth{kModeRegular | 0600, 1, 1, 1};
    pool_.Write(ShadowInodeOf(pool_, child), &truth, sizeof(truth));
  }
  PageImages kept;
  kept.Add(pool_, dir_data_page_);
  VerifyRequest request = RequestFor(50, d);
  request.checkpoint_dir_pages = &kept;
  Result<VerifyReport> report = verifier_->Verify(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->claimed.empty());

  // Rename c1 into slot 5, as a same-directory rename to a fresh slot does.
  *ChildAt(d, 5) = *ChildAt(d, 1);
  std::memset(ChildAt(d, 1), 0, sizeof(DirentBlock));
  report = verifier_->Verify(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->claimed.size(), 1u);
  EXPECT_EQ(report->claimed[0].ino, 101u);
  EXPECT_EQ(report->claimed[0].dirent_page, dir_data_page_);
  EXPECT_EQ(report->claimed[0].dirent_slot, 5u);

  kept.pages[0] = dir_data_page_ + 1;  // The copy is of another page.
  report = verifier_->Verify(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->claimed.size(), 2u);
}

// A child in transit is the mover's to claim: any other writer's directory naming it fails.
TEST_F(VerifierDirTest, ATransitChildOfAnotherMoverFailsCrossDirectory) {
  DirentBlock* d = BuildDirectory(50, 1);
  ShadowInode truth{kModeRegular | 0600, 1, 1, 1};
  pool_.Write(ShadowInodeOf(pool_, 100), &truth, sizeof(truth));

  ownership_.TransitIno(100, /*mover=*/kWriter + 1);
  EXPECT_EQ(VerifyError::FromStatus(verifier_->Verify(RequestFor(50, d)).status()).cls,
            VerifyErrorClass::kCrossDirectory);

  ownership_.TransitIno(100, kWriter);
  Result<VerifyReport> report = verifier_->Verify(RequestFor(50, d));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->claimed.size(), 1u);
  EXPECT_EQ(report->claimed[0].ino, 100u);
}

// The old parent's verification puts the child in transit and the writer's grant on it
// ends between the verifier's load of the child's word and its question about that
// parent: the child is still the writer's to claim.
TEST_F(VerifierDirTest, AChildPutInTransitWhileItsOldParentIsAskedAboutIsClaimed) {
  DirentBlock* d = BuildDirectory(50, 1);
  ownership_.OwnIno(100, /*parent=*/77);
  ShadowInode truth{kModeRegular | 0600, 1, 1, 1};
  pool_.Write(ShadowInodeOf(pool_, 100), &truth, sizeof(truth));
  env_.on_held_query_ = [&] { ownership_.TransitIno(100, kWriter); };
  Result<VerifyReport> report = verifier_->Verify(RequestFor(50, d));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->claimed.size(), 1u);
  EXPECT_EQ(report->claimed[0].ino, 100u);
}

TEST_F(VerifierDirTest, TransitInoPassesAsAnExistingDirectory) {
  DirentBlock* d = BuildDirectory(50, 1);
  ownership_.TransitIno(50, /*mover=*/kWriter + 1);
  Result<VerifyReport> report = verifier_->Verify(RequestFor(50, d));
  EXPECT_TRUE(report.ok()) << report.status().ToString();

  d->uid = 2;
  EXPECT_EQ(VerifyError::FromStatus(verifier_->Verify(RequestFor(50, d)).status()).cls,
            VerifyErrorClass::kPermissionMismatch);
}

TEST_F(VerifierDirTest, DirectoryWithNonzeroSizeFails) {
  DirentBlock* d = BuildDirectory(50, 1);
  d->size = 4096;
  EXPECT_TRUE(verifier_->Verify(RequestFor(50, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierDirTest, CheckpointDiffListsEveryRemovedChild) {
  DirentBlock* d = BuildDirectory(50, 3);
  // Three of the six checkpointed children are gone, one of them a directory.
  const PageImages kept = KeepWithRemoved(3, {{180, false}, {181, true}, {182, false}});
  for (Ino gone : {180, 181, 182}) {
    ownership_.OwnIno(gone, 50);
  }
  VerifyRequest request = RequestFor(50, d);
  request.checkpoint_dir_pages = &kept;
  Result<VerifyReport> report = verifier_->Verify(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->removed_children, (std::vector<Ino>{180, 181, 182}));
  EXPECT_EQ(report->live_dirents, 3u);
}

// One verifier, two threads, two directories: each verification builds its report (and
// its duplicate-check scratch) for itself.
TEST_F(VerifierDirTest, TwoThreadsVerifyingDifferentDirectoriesGetTheirOwnReports) {
  const DirentBlock* a = BuildDirectory(50, 3, /*first_child=*/100);
  const DirentBlock* b = BuildDirectory(60, 40, /*first_child=*/120);
  auto verify_repeatedly = [&](Ino dir, const DirentBlock* d, int children, Ino first_child) {
    for (int round = 0; round < 200; ++round) {
      Result<VerifyReport> report = verifier_->Verify(RequestFor(dir, d));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_EQ(report->new_children.size(), static_cast<size_t>(children));
      ASSERT_EQ(report->pages.size(), children > 32 ? 3u : 2u);  // Index + data pages.
      for (int i = 0; i < children; ++i) {
        ASSERT_EQ(report->new_children[i].ino, first_child + i);
        ASSERT_EQ(report->new_children[i].name, "c" + std::to_string(i));
      }
    }
  };
  std::thread other([&] { verify_repeatedly(60, b, 40, 120); });
  verify_repeatedly(50, a, 3, 100);
  other.join();
}

TEST_F(VerifierDirTest, StatsCountFailures) {
  DirentBlock* d = BuildDirectory(50, 1);
  d->size = 4096;
  (void)verifier_->Verify(RequestFor(50, d));
  EXPECT_GE(verifier_->stats().files_verified.load(), 1u);
  EXPECT_GE(verifier_->stats().failures.load(), 1u);
}

// A directory far larger than one data page: the duplicate checks still catch a repeat
// between its first and its last dirent, with the same verdict class.
class VerifierLargeDirTest : public VerifierDirTest {
 protected:
  static constexpr int kChildren = 3000;
  VerifierLargeDirTest() : VerifierDirTest(/*pool_pages=*/1024, /*max_inodes=*/4096) {}

  VerifyErrorClass VerdictOf(const DirentBlock* d) {
    const Status status = verifier_->Verify(RequestFor(50, d)).status();
    EXPECT_FALSE(status.ok());
    return VerifyError::FromStatus(status).cls;
  }
};

TEST_F(VerifierLargeDirTest, LastDirentRepeatingTheFirstNameIsADuplicateName) {
  DirentBlock* d = BuildDirectory(50, kChildren);
  Result<VerifyReport> clean = verifier_->Verify(RequestFor(50, d));
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->live_dirents, static_cast<uint64_t>(kChildren));
  ChildAt(d, kChildren - 1)->SetName("c0");
  EXPECT_EQ(VerdictOf(d), VerifyErrorClass::kDuplicateName);
}

TEST_F(VerifierLargeDirTest, LastDirentRepeatingTheFirstInoIsADuplicateInode) {
  DirentBlock* d = BuildDirectory(50, kChildren);
  ChildAt(d, kChildren - 1)->ino = ChildAt(d, 0)->ino;
  EXPECT_EQ(VerdictOf(d), VerifyErrorClass::kDuplicateInode);
}

}  // namespace
}  // namespace trio
