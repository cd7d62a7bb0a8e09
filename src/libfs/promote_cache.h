// LibFS promote cache (DESIGN.md §4.11): a small pool of leased NVM pages holding
// promoted copies of digested (backend-tier) file pages, so hot reads of cold data pay
// the slow backend only once. The copies are volatile auxiliary state — the tagged tier
// entry in the file's index page stays the authoritative mapping; losing the cache (or
// the whole process) merely re-promotes on the next read.
//
// Concurrency model: reads are lock-free, one Seqlock (src/common/seqlock.h) per shard. A
// reader begins a read, scans the fixed slot array for its key, copies the bytes out of
// the cached NVM page, then validates the read — a concurrent insert/evict fails it and
// the reader retries or falls back to a miss. Copying the *bytes* under the seqlock (not
// just the page number) is what makes reuse safe: an evicted page may be recycled through
// the LeaseCache and rewritten by anyone, so a page number alone could go stale between
// lookup and copy. Eviction is CLOCK over per-slot access bits.
//
// The cache never owns pages: Insert/Erase/EraseFile hand evicted page numbers back to
// the caller, who recycles them into its LeaseCache.

#ifndef SRC_LIBFS_PROMOTE_CACHE_H_
#define SRC_LIBFS_PROMOTE_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/seqlock.h"
#include "src/common/spinlock.h"
#include "src/core/format.h"
#include "src/nvm/nvm.h"
#include "src/obs/stats.h"

namespace trio {

// Registered under layer "tier" alongside the kernel and backend tier counters.
struct PromoteCacheStats : obs::StatGroup {
  // Lock-free read hits served from a cached page.
  obs::Counter promote_hits{this, "promote_hits"};
  // Lookups that fell through to a backend promote.
  obs::Counter promote_misses{this, "promote_misses"};
  // Cached pages displaced by CLOCK.
  obs::Counter promote_evictions{this, "promote_evictions"};

 private:
  obs::ScopedRegistration reg_{"tier", *this};
};

class PromoteCache {
 public:
  // `total_slots` pages cached across kShards shards; 0 slots disables the cache (every
  // lookup misses, Insert evicts the inserted page right back).
  PromoteCache(NvmPool& pool, size_t total_slots);

  bool enabled() const { return slots_per_shard_ != 0; }

  // Lock-free: if (ino, page_index) is cached, copy `len` bytes starting at `in_page`
  // within the cached page into `dst` and return true. False = miss (caller promotes).
  bool ReadHit(Ino ino, uint64_t page_index, uint64_t in_page, void* dst, size_t len);

  // Install a freshly promoted page. Returns the page number the cache no longer
  // holds — the CLOCK victim, the duplicate loser when another thread promoted the same
  // (ino, index) first, or `page` itself when the cache is disabled/unpackable. 0 = kept
  // with no displacement. The caller recycles the returned page.
  PageNumber Insert(Ino ino, uint64_t page_index, PageNumber page);

  // Drop one mapping (the page was promoted for write or truncated away). Returns the
  // cached page to recycle, or 0 if not cached.
  PageNumber Erase(Ino ino, uint64_t page_index);

  // Drop every entry for `ino` (revocation/teardown); appends recyclable pages to out.
  void EraseFile(Ino ino, std::vector<PageNumber>* recycled);

  PromoteCacheStats& stats() { return stats_; }

 private:
  static constexpr unsigned kShardBits = 3;
  static constexpr size_t kShards = size_t{1} << kShardBits;

  // All atomics: lock-free readers load them without the shard lock.
  struct Slot {
    std::atomic<uint64_t> key{0};         // Packed (ino, page_index)+1; 0 = empty.
    std::atomic<PageNumber> page{0};      // Leased NVM page holding the promoted copy.
    std::atomic<uint32_t> referenced{0};  // CLOCK access bit, set by read hits.
  };

  // Writers take `lock` for the whole update, CLOCK sweep included, and the seqlock only
  // around the slot stores, so readers are turned away for as short a time as possible.
  struct Shard {
    SpinLock lock;
    Seqlock seqlock;
    std::vector<Slot> slots;
    size_t hand = 0;  // CLOCK hand.
  };

  // CLOCK: sweeps from the shard's hand, clearing access bits, and returns the first slot
  // that is empty or whose bit was already clear. Runs under the shard lock.
  static size_t PickVictim(Shard& shard);

  // Packs (ino, page_index) into a nonzero key, or 0 if unpackable (page index beyond
  // 2^24 pages = 64 GiB into the file; such offsets simply bypass the cache).
  static uint64_t PackKey(Ino ino, uint64_t page_index) {
    if (page_index + 1 >= (1ull << kIndexKeyBits) || ino >= (1ull << (63 - kIndexKeyBits))) {
      return 0;
    }
    return (static_cast<uint64_t>(ino) << kIndexKeyBits) | (page_index + 1);
  }

  Shard& ShardFor(uint64_t key) {
    return shards_[(key * 11400714819323198485ull) >> (64 - kShardBits)];
  }

  static constexpr uint64_t kIndexKeyBits = 24;

  NvmPool& pool_;
  size_t slots_per_shard_ = 0;
  std::array<Shard, kShards> shards_;
  PromoteCacheStats stats_;
};

}  // namespace trio

#endif  // SRC_LIBFS_PROMOTE_CACHE_H_
