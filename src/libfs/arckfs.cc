// ArckFs lifecycle + journaling. The implementation is split across four translation
// units behind the single ArckFs class:
//   arckfs.cc        — construction/registration, journal shards, recovery, shared helpers
//   node_cache.cc    — node table, mapping, op locking, revocation, aux rebuild
//   namespace_ops.cc — path resolution, directory mutation, namespace FsInterface ops
//   data_ops.cc      — regular-file data path and fd-based FsInterface ops

#include "src/libfs/arckfs.h"

#include <atomic>

#include "src/libfs/arckfs_internal.h"
#include "src/obs/persist_span.h"

namespace trio {

namespace arckfs_internal {

int64_t FakeTimeNs() {
  // Stamp k of the thread with index i is k * 2^24 + i: unique while fewer than 2^24
  // threads have stamped, increasing per thread, and no shared write per call (a thread
  // claims its index at its first stamp).
  constexpr int kThreadBits = 24;
  static std::atomic<int64_t> next_thread{0};
  thread_local int64_t next_stamp = 0;
  if (next_stamp == 0) {
    next_stamp = (next_thread.fetch_add(1, std::memory_order_relaxed) &
                  ((int64_t{1} << kThreadBits) - 1)) +
                 (int64_t{1} << kThreadBits);
  }
  const int64_t stamp = next_stamp;
  next_stamp += int64_t{1} << kThreadBits;
  return stamp;
}

Result<PageNumber> AllocZeroedPage(LeaseCache& leases, NvmPool& pool,
                                   obs::PersistStats* stats, int node_hint) {
  TRIO_ASSIGN_OR_RETURN(PageNumber page, leases.AllocPage(node_hint));
  pool.Set(pool.PageAddress(page), 0, kPageSize);
  obs::PersistSpan(pool, stats).PersistNow(pool.PageAddress(page), kPageSize);
  return page;
}

}  // namespace arckfs_internal

LibFsId ArckFs::RegisterWithKernel(KernelController& kernel, const ArckFsConfig& config) {
  LibFsOptions options;
  options.uid = config.uid;
  options.gid = config.gid;
  options.callbacks.revoke = [this](Ino ino) { RevokeNode(ino); };
  options.callbacks.fix_corruption = config.fix_corruption;
  options.callbacks.recovery = [this] { ReplayJournals(); };
  options.callbacks.quarantined = [this](Ino ino, const Status& reason) {
    OnQuarantine(ino, reason);
  };
  return kernel.RegisterLibFs(options);
}

ArckFs::ArckFs(KernelController& kernel, ArckFsConfig config)
    : kernel_(kernel),
      pool_(kernel.pool()),
      config_(std::move(config)),
      libfs_(RegisterWithKernel(kernel, config_)),
      leases_(kernel, libfs_, config_.page_batch, config_.ino_batch),
      promote_cache_(kernel.pool(), config_.promote_cache_slots) {
  Superblock* sb = SuperblockOf(pool_);
  GetOrCreateNode(kRootIno, kInvalidIno, /*is_dir=*/true, &sb->root);
  if (config_.ring.enabled) {
    ring_engine_ = std::make_unique<OpRingEngine>(
        *this, pool_, config_.ring, static_cast<RingPassHooks*>(this), &persist_stats_);
  }
}

ArckFs::~ArckFs() {
  ring_engine_.reset();  // Stop the drainer before tearing anything else down.
  fds_.ReleaseAll();
  {
    std::lock_guard<std::mutex> guard(nodes_mutex_);
    nodes_.clear();
  }
  leases_.Shutdown();  // No async refill may race the kernel-side lease teardown.
  kernel_.UnregisterLibFs(libfs_);
}

// ---------------------------------------------------------------------------
// Op-ring drain-pass hooks (drainer thread only)
// ---------------------------------------------------------------------------

namespace {
// Undo journals per LibFS; each thread journals into one, picked by its shard index.
constexpr size_t kJournalShards = 4;

// The drainer thread's pass-wide DelegationBatch. A plain thread_local works because a
// drainer thread belongs to exactly one ArckFs, and the hooks bracket every use.
thread_local DelegationBatch* tls_pass_batch = nullptr;
}  // namespace

void ArckFs::BeginPass() {
  if (config_.use_delegation && kernel_.delegation() != nullptr) {
    tls_pass_batch = new DelegationBatch(*kernel_.delegation());
  }
}

void ArckFs::FlushPass() {
  DelegationBatch* batch = tls_pass_batch;
  if (batch == nullptr || batch->requests() == 0) {
    return;
  }
  batch->Submit();
  batch->Wait();
  batch->Reset();
}

void ArckFs::EndPass() {
  FlushPass();
  delete tls_pass_batch;
  tls_pass_batch = nullptr;
}

DelegationBatch* ArckFs::PassBatch() { return tls_pass_batch; }

// ---------------------------------------------------------------------------
// Journal (rename) + recovery
// ---------------------------------------------------------------------------

UndoJournal& ArckFs::JournalShard() {
  {
    std::lock_guard<std::mutex> guard(journal_init_mutex_);
    if (journals_.empty()) {
      for (size_t i = 0; i < kJournalShards; ++i) {
        Result<PageNumber> page = leases_.AllocPage(0);
        TRIO_CHECK(page.ok()) << "cannot allocate journal page";
        journals_.push_back(
            std::make_unique<UndoJournal>(pool_, *page, &persist_stats_));
      }
    }
  }
  return *journals_[ThisThreadShardIndex() % journals_.size()];
}

std::vector<PageNumber> ArckFs::JournalPages() {
  std::lock_guard<std::mutex> guard(journal_init_mutex_);
  std::vector<PageNumber> pages;
  for (const auto& journal : journals_) {
    pages.push_back(journal->page());
  }
  return pages;
}

void ArckFs::ReplayJournals() {
  for (PageNumber page : config_.recover_journal_pages) {
    UndoJournal::RecoverPage(pool_, page, &persist_stats_);
  }
}

}  // namespace trio
