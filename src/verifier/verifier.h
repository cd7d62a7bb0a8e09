// The trusted userspace integrity verifier (§4.3). When a LibFS releases write access to a
// file, the kernel controller hands the file's core state to the verifier, which checks
// invariants I1-I4 against the shared core-state format and the kernel's ownership tables
// (read-only, via OwnershipView). The verifier is a standalone trusted component in the
// paper; here it is a class that only ever *reads* the pool and the kernel's tables —
// corruption handling is the kernel controller's job.
//
// Invariants (§4.3):
//  I1  Fields in each inode and directory entry are valid (types, names, duplicates,
//      reserved bytes, size vs capacity).
//  I2  A file's inode number, index pages and data pages are valid: each was either part of
//      the file before the write grant or leased to the writing LibFS, and nothing is
//      doubly referenced.
//  I3  The directory hierarchy remains a connected tree: a child directory deleted since
//      the checkpoint must be unmapped everywhere and empty.
//  I4  Access permission is correctly enforced: the (cached) mode/uid/gid in a DirentBlock
//      must match the kernel's shadow inode table; new files must be owned by the creator.

#ifndef SRC_VERIFIER_VERIFIER_H_
#define SRC_VERIFIER_VERIFIER_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/core/core_state.h"
#include "src/core/format.h"
#include "src/core/ownership.h"
#include "src/nvm/nvm.h"
#include "src/obs/stats.h"
#include "src/sim/fault_injector.h"
#include "src/verifier/verify_error.h"

namespace trio {

// Fault point: a page read taken during verification hits a transient media error. The
// verifier retries the whole verification (bounded) before reporting kMediaFailure.
inline constexpr const char kFaultVerifierMediaRead[] = "verifier.media_read";

// Copies of some of a file's metadata pages, in walk order: a regular file's index chain,
// or a directory's index pages and then its data pages (the §4.3 checkpoint).
struct PageImages {
  std::vector<PageNumber> pages;
  // kPageSize bytes each, parallel to pages; one allocation per page, so adding one never
  // copies the others.
  std::vector<std::unique_ptr<char[]>> contents;

  // The chain's first page, if this holds a regular file's index chain.
  PageNumber head() const { return pages.empty() ? 0 : pages.front(); }
  // Appends a copy of `page` and returns it.
  const char* Add(const NvmPool& pool, PageNumber page) {
    pages.push_back(page);
    contents.push_back(std::make_unique_for_overwrite<char[]>(kPageSize));
    std::memcpy(contents.back().get(), pool.PageAddress(page), kPageSize);
    return contents.back().get();
  }
};

// A freshly created file discovered during directory verification.
struct NewChildInfo {
  Ino ino = kInvalidIno;
  PageNumber dirent_page = 0;
  size_t dirent_slot = 0;
  bool is_dir = false;
  uint32_t mode = 0;
  uint32_t uid = 0;
  uint32_t gid = 0;
  PageNumber first_index_page = 0;
  std::string name;
};

// An existing file this directory names at a dirent slot the kernel may not have on
// record: renamed within the directory, moved in by the writer, or back from transit. The
// kernel makes the directory its parent and this slot its location.
struct ClaimedChild {
  Ino ino = kInvalidIno;
  PageNumber dirent_page = 0;
  size_t dirent_slot = 0;
};

struct VerifyReport {
  // A regular file whose chain equals the request's verified_chain byte for byte: nothing
  // it references changed, so `pages`, `backend_slots` and `chain` stay empty.
  bool chain_unchanged = false;
  // Every index and data page referenced by the file, post-write (kernel reconciles
  // ownership from this).
  std::vector<PageNumber> pages;
  // Backend slots referenced by tier entries (digested pages), post-write; the kernel
  // reconciles backend-slot ownership from this the same way it reconciles pages.
  std::vector<uint64_t> backend_slots;
  // A regular file's index pages exactly as this pass checked them: the walk copies each
  // page before checking it and follows `next` from the copy.
  PageImages chain;
  // Directories only:
  std::vector<NewChildInfo> new_children;
  std::vector<Ino> removed_children;  // At checkpoint, now gone (deleted or moved out).
  std::vector<ClaimedChild> claimed;  // Existing children at a slot not on record.
  uint64_t live_dirents = 0;
};

// Kernel-side answers the verifier needs for I3, moved-in children and tier entries.
// Implemented by the kernel controller; the verifier treats it as an oracle over trusted
// state.
class VerifyEnv {
 public:
  virtual ~VerifyEnv() = default;
  // I3: a child directory that disappeared since the checkpoint must be unmapped
  // everywhere and contain no live dirents. The kernel knows the child's last reconciled
  // index chain and current grants, so it performs both checks and returns kCorrupted on
  // violation. (A cross-directory rename of a non-empty directory therefore fails — a
  // documented ArckFS restriction; files rename fine, see ClaimedChild.)
  virtual Status CheckRemovedChildDir(Ino child, LibFsId writer) const = 0;
  // Does `writer` hold the write grant on directory `dir`? A child another directory owns
  // may move into the one verified only from a directory its writer holds.
  virtual bool IsWriteHeldBy(Ino dir, LibFsId writer) const = 0;
  // Is `slot` a backend-tier slot legitimately owned by `ino`? Only the kernel's own
  // digestion service mints tier entries, so the default — no backend configured — rejects
  // every tier entry outright: a forged digested-page mapping is corruption by
  // construction, not something a LibFS can smuggle past an unconfigured verifier.
  virtual Status CheckTierSlot(Ino ino, uint64_t slot) const {
    (void)ino;
    return VerifyFail(VerifyErrorClass::kForeignPage, "I2",
                      "tier entry references backend slot " + std::to_string(slot) +
                          " but no backend tier is configured");
  }
};

struct VerifyRequest {
  Ino ino = kInvalidIno;
  const DirentBlock* dirent = nullptr;     // The file's dirent+inode (may be in superblock).
  LibFsId writer = kNoLibFs;
  uint32_t writer_uid = 0;
  uint32_t writer_gid = 0;
  // The directory's data pages as the checkpoint copied them, in chain order: its
  // children at the grant, each in the slot the kernel has on record. A child this
  // directory owns that the copy at the same position holds in the same slot stays put;
  // any other owned child is claimed, and each child of the copies that no live dirent
  // names was removed (I3).
  const PageImages* checkpoint_dir_pages = nullptr;
  // A regular file's chain as an earlier passing verification checked it (its report's
  // `chain`), if every page it references has belonged to the file since. A chain equal
  // to it byte for byte, head included, references the same pages and slots, so I2 holds
  // and the chain is not walked again; any difference falls through to the walk.
  const PageImages* verified_chain = nullptr;
  // Absolute deadline (clock nanoseconds) for this verification; 0 = unbounded. The
  // verifier checks it cooperatively inside its page/dirent walks — it runs on the
  // caller's thread under the kernel lock, so a watchdog thread cannot bound it without
  // deadlocking against the OwnershipView callbacks. An overrun returns kDeadline
  // (ErrorCode::kTimeout): the state is UNVERIFIED and the kernel treats it exactly like
  // corruption (rollback + quarantine) rather than accepting it unchecked.
  uint64_t deadline_ns = 0;
};

// Registered into obs::StatRegistry under layer "verifier".
struct VerifierStats : obs::StatGroup {
  obs::Counter files_verified{this, "files_verified"};
  obs::Counter failures{this, "failures"};
  // Pages and backend slots accepted by chain checks (one add per verification pass).
  obs::Counter pages_scanned{this, "pages_scanned"};
  // Regular files whose chain matched verified_chain, so no page was walked.
  obs::Counter compare_hits{this, "compare_hits"};
  // Verifications that overran deadline_ns.
  obs::Counter deadline_exceeded{this, "deadline_exceeded"};
  // Re-runs after a transient media fault.
  obs::Counter media_retries{this, "media_retries"};

 private:
  obs::ScopedRegistration reg_{"verifier", *this};
};

class IntegrityVerifier {
 public:
  IntegrityVerifier(NvmPool& pool, const OwnershipView& ownership, const VerifyEnv& env,
                    Clock* clock = SystemClock::Instance())
      : pool_(pool), ownership_(ownership), env_(env), clock_(clock) {}

  // Returns the report on success, or a structured VerifyError status (kCorrupted on any
  // I1-I4 violation, kTimeout past the deadline, kIo after media-retry exhaustion).
  Result<VerifyReport> Verify(const VerifyRequest& request);

  VerifierStats& stats() { return stats_; }

  // Attach FaultSim (kFaultVerifierMediaRead) for transient-media testing; nullptr
  // detaches. A fired fault aborts the current pass; Verify retries the whole pass up to
  // media_read_retries times before surfacing kMediaFailure.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  void set_media_read_retries(int retries) { media_read_retries_ = retries; }

 private:
  // I1 over one dirent. `ino` is its ino word, loaded once by the caller with acquire.
  Status CheckDirentFields(const DirentBlock& dirent, Ino ino, bool allow_root) const;
  // I2 over the chain rooted at first_index_page. Appends its index pages, then its data
  // pages, to report->pages, and sets *index_pages to the number of index pages.
  Status CheckChain(const VerifyRequest& request, PageNumber first_index_page,
                    VerifyReport* report, uint64_t* index_pages) const;
  // Whether the chain from `first_index_page` equals request.verified_chain byte for byte.
  Result<bool> MatchesVerifiedChain(const VerifyRequest& request,
                                    PageNumber first_index_page) const;
  Status CheckDeadline(const VerifyRequest& request) const;
  // The kFaultVerifierMediaRead point, taken once per page a pass reads.
  Status ReadFault(PageNumber page) const;
  Result<VerifyReport> VerifyOnce(const VerifyRequest& request);
  Result<VerifyReport> VerifyRegular(const VerifyRequest& request);
  Result<VerifyReport> VerifyDirectory(const VerifyRequest& request);

  NvmPool& pool_;
  const OwnershipView& ownership_;
  const VerifyEnv& env_;
  Clock* clock_;
  FaultInjector* injector_ = nullptr;
  int media_read_retries_ = 3;
  mutable VerifierStats stats_;  // Counters bump inside const check helpers.
};

}  // namespace trio

#endif  // SRC_VERIFIER_VERIFIER_H_
