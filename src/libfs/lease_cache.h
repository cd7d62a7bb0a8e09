// LibFS-side caches of kernel-leased resources: NVM pages (per NUMA node, per CPU shard)
// and inode numbers. These are the LibFS halves of the paper's per-CPU block and inode
// allocators (§4.5); the kernel hands out batches, so the common create/append path never
// traps.
//
// Refill is asynchronous: when a shard drops below a quarter of its batch size after a
// pop, a background worker pulls the next batch from the kernel while the hot path keeps
// allocating from the remainder. Trapping on the caller (sync_refills) only happens when
// the cache is fully dry — at startup, or when the worker lost the race. The
// async/sync counters make the split observable.
//
// NUMA bookkeeping: the kernel's allocator falls back across nodes when the requested
// one is dry, so a refill batch may contain remote pages. Batches are scattered into the
// per-node shards by each page's REAL NodeOfPage — filing a remote page under the hint
// node would poison that shard's locality forever (every later AllocPage(hint) would
// hand out a remote page believing it local). RecyclePage files by real node for the
// same reason. Recycled pages carry stale data by contract; AllocDataPage zeroes the
// bytes of a new page that the write leaves uncovered.

#ifndef SRC_LIBFS_LEASE_CACHE_H_
#define SRC_LIBFS_LEASE_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/per_cpu.h"
#include "src/kernel/controller.h"

namespace trio {

class LeaseCache {
 public:
  LeaseCache(KernelController& kernel, LibFsId libfs, size_t page_batch = 64,
             size_t ino_batch = 64)
      : kernel_(kernel), libfs_(libfs), page_batch_(page_batch), ino_batch_(ino_batch) {
    const int nodes = kernel_.pool().topology().num_nodes;
    page_caches_.reserve(nodes);
    for (int n = 0; n < nodes; ++n) {
      page_caches_.push_back(std::make_unique<PerCpu<PageShard>>(8));
    }
    refill_thread_ = std::thread([this] { RefillWorker(); });
  }

  ~LeaseCache() { Shutdown(); }  // Leases themselves are reclaimed by UnregisterLibFs.

  // Stops the refill worker. Idempotent; ArckFs calls this before UnregisterLibFs so no
  // refill can race the kernel-side lease teardown.
  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(refill_mu_);
      if (stop_) {
        return;
      }
      stop_ = true;
    }
    refill_cv_.notify_all();
    refill_thread_.join();
  }

  // A write-mapped, leased page on (approximately) the requested node. Fresh kernel
  // pages arrive zeroed (not durably); recycled ones are dirty.
  Result<PageNumber> AllocPage(int node_hint) {
    const int nodes = static_cast<int>(page_caches_.size());
    const int node = node_hint >= 0 ? node_hint % nodes : 0;
    PageShard& local = page_caches_[node]->Local();
    {
      std::lock_guard<std::mutex> guard(local.lock);
      if (!local.pages.empty()) {
        const PageNumber page = local.pages.back();
        local.pages.pop_back();
        if (local.pages.size() < page_batch_ / 4) {
          RequestRefill(&local, nullptr, node);
        }
        return page;
      }
    }
    // Local shard dry: steal from sibling shards (same node first, then remote nodes)
    // before trapping into the kernel on this thread.
    for (int dn = 0; dn < nodes; ++dn) {
      PerCpu<PageShard>& cache = *page_caches_[(node + dn) % nodes];
      for (size_t s = 0; s < cache.NumShards(); ++s) {
        PageShard& shard = cache.Shard(s);
        std::lock_guard<std::mutex> guard(shard.lock);
        if (!shard.pages.empty()) {
          const PageNumber page = shard.pages.back();
          shard.pages.pop_back();
          RequestRefill(&local, nullptr, node);  // Replenish OUR dry shard.
          return page;
        }
      }
    }
    // Everything dry — the hot path pays the kernel crossing (counted).
    std::vector<PageNumber> batch;
    TRIO_RETURN_IF_ERROR(kernel_.AllocPages(libfs_, page_batch_, node, &batch));
    sync_refills_.fetch_add(1, std::memory_order_relaxed);
    const PageNumber page = batch.back();
    batch.pop_back();
    ScatterPages(batch, &local, node);
    return page;
  }

  // Returns a *leased* page to the cache, filed under the page's real NUMA node. The
  // caller must treat recycled pages as dirty.
  void RecyclePage(PageNumber page) {
    const int node =
        kernel_.pool().NodeOfPage(page) % static_cast<int>(page_caches_.size());
    PageShard& shard = page_caches_[node]->Local();
    std::lock_guard<std::mutex> guard(shard.lock);
    shard.pages.push_back(page);
  }

  // RecyclePage for a whole file's pages, taking each node's shard lock once.
  void RecyclePages(const std::vector<PageNumber>& pages) {
    ScatterPages(pages, nullptr, -1);
  }

  Result<Ino> AllocIno() {
    InoShard& shard = ino_caches_.Local();
    std::lock_guard<std::mutex> guard(shard.lock);
    if (shard.inos.empty()) {
      TRIO_RETURN_IF_ERROR(kernel_.AllocInos(libfs_, ino_batch_, &shard.inos));
      sync_refills_.fetch_add(1, std::memory_order_relaxed);
    }
    Ino ino = shard.inos.back();
    shard.inos.pop_back();
    if (shard.inos.size() < ino_batch_ / 4) {
      RequestRefill(nullptr, &shard, 0);
    }
    return ino;
  }

  void RecycleIno(Ino ino) {
    InoShard& shard = ino_caches_.Local();
    std::lock_guard<std::mutex> guard(shard.lock);
    shard.inos.push_back(ino);
  }

  // Refill accounting: async = batches the background worker pulled off the hot path;
  // sync = hot-path traps into the kernel (dry cache).
  uint64_t async_refills() const { return async_refills_.load(std::memory_order_relaxed); }
  uint64_t sync_refills() const { return sync_refills_.load(std::memory_order_relaxed); }

 private:
  // The shard locks are mutexes, not spinlocks: the refill worker takes them too, and a
  // worker preempted while holding one would leave a writer on the same CPU spinning for
  // a whole scheduler slice.
  struct PageShard {
    std::mutex lock;
    std::vector<PageNumber> pages;
    std::atomic<bool> refill_pending{false};  // One in-flight refill per shard.
  };
  struct InoShard {
    std::mutex lock;
    std::vector<Ino> inos;
    std::atomic<bool> refill_pending{false};
  };
  struct RefillRequest {  // Exactly one of page_shard / ino_shard is set.
    PageShard* page_shard = nullptr;
    InoShard* ino_shard = nullptr;
    int node = 0;
  };

  // File each page under its REAL node, one shard lock per node; `preferred` gets the
  // ones that match `preferred_node` (it is the shard the caller is actively allocating
  // from).
  void ScatterPages(const std::vector<PageNumber>& batch, PageShard* preferred,
                    int preferred_node) {
    const int nodes = static_cast<int>(page_caches_.size());
    for (int node = 0; node < nodes; ++node) {
      PageShard& shard = (node == preferred_node && preferred != nullptr)
                             ? *preferred
                             : page_caches_[node]->Local();
      std::lock_guard<std::mutex> guard(shard.lock);
      for (PageNumber page : batch) {
        if (kernel_.pool().NodeOfPage(page) % nodes == node) {
          shard.pages.push_back(page);
        }
      }
    }
  }

  // Callable with or without the shard lock held (only touches the atomic flag).
  void RequestRefill(PageShard* page_shard, InoShard* ino_shard, int node) {
    std::atomic<bool>& pending =
        page_shard != nullptr ? page_shard->refill_pending : ino_shard->refill_pending;
    if (pending.exchange(true, std::memory_order_acq_rel)) {
      return;  // A refill for this shard is already queued or in flight.
    }
    {
      std::lock_guard<std::mutex> lock(refill_mu_);
      if (stop_) {
        pending.store(false, std::memory_order_release);
        return;
      }
      requests_.push_back(RefillRequest{page_shard, ino_shard, node});
    }
    refill_cv_.notify_one();
  }

  void RefillWorker() {
    std::unique_lock<std::mutex> lock(refill_mu_);
    for (;;) {
      refill_cv_.wait(lock, [this] { return stop_ || !requests_.empty(); });
      if (stop_) {
        return;
      }
      const RefillRequest req = requests_.front();
      requests_.pop_front();
      lock.unlock();
      if (req.page_shard != nullptr) {
        std::vector<PageNumber> batch;
        if (kernel_.AllocPages(libfs_, page_batch_, req.node, &batch).ok()) {
          ScatterPages(batch, req.page_shard, req.node);
          // Counted only after the pages are visible in the shards: async_refills means
          // "a background batch is available to the hot path", not merely requested.
          async_refills_.fetch_add(1, std::memory_order_relaxed);
        }
        req.page_shard->refill_pending.store(false, std::memory_order_release);
      } else {
        std::vector<Ino> batch;
        if (kernel_.AllocInos(libfs_, ino_batch_, &batch).ok()) {
          {
            std::lock_guard<std::mutex> guard(req.ino_shard->lock);
            req.ino_shard->inos.insert(req.ino_shard->inos.end(), batch.begin(),
                                       batch.end());
          }
          async_refills_.fetch_add(1, std::memory_order_relaxed);
        }
        req.ino_shard->refill_pending.store(false, std::memory_order_release);
      }
      lock.lock();
    }
  }

  KernelController& kernel_;
  const LibFsId libfs_;
  const size_t page_batch_;
  const size_t ino_batch_;
  std::vector<std::unique_ptr<PerCpu<PageShard>>> page_caches_;
  PerCpu<InoShard> ino_caches_{8};

  std::atomic<uint64_t> async_refills_{0};
  std::atomic<uint64_t> sync_refills_{0};

  std::mutex refill_mu_;
  std::condition_variable refill_cv_;
  std::deque<RefillRequest> requests_;
  bool stop_ = false;
  std::thread refill_thread_;
};

}  // namespace trio

#endif  // SRC_LIBFS_LEASE_CACHE_H_
