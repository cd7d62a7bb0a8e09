#include "src/libfs/promote_cache.h"

#include <cstring>

namespace trio {

PromoteCache::PromoteCache(NvmPool& pool, size_t total_slots)
    : pool_(pool), slots_per_shard_((total_slots + kShards - 1) / kShards) {
  for (Shard& shard : shards_) {
    shard.slots = std::vector<Slot>(slots_per_shard_);
  }
}

size_t PromoteCache::PickVictim(Shard& shard) {
  // Bounded by two full laps (every bit is clear after one), so it always terminates.
  const size_t count = shard.slots.size();
  for (size_t step = 0; step < 2 * count; ++step) {
    const size_t i = shard.hand;
    shard.hand = (i + 1) % count;
    Slot& slot = shard.slots[i];
    if (slot.key.load(std::memory_order_relaxed) == 0 ||
        slot.referenced.exchange(0, std::memory_order_relaxed) == 0) {
      return i;
    }
  }
  return shard.hand;  // Unreachable; keeps the contract total.
}

bool PromoteCache::ReadHit(Ino ino, uint64_t page_index, uint64_t in_page, void* dst,
                           size_t len) {
  const uint64_t key = PackKey(ino, page_index);
  if (key == 0 || !enabled()) {
    stats_.promote_misses.fetch_add(1);
    return false;
  }
  Shard& shard = ShardFor(key);
  for (int attempt = 0; attempt < 4; ++attempt) {
    const uint64_t begin = shard.seqlock.ReadBegin();
    PageNumber page = 0;
    Slot* found = nullptr;
    for (Slot& slot : shard.slots) {
      if (slot.key.load(std::memory_order_relaxed) == key) {
        page = slot.page.load(std::memory_order_relaxed);
        found = &slot;
        break;
      }
    }
    if (found == nullptr) {
      // Key-absence is only trustworthy if no writer raced the scan.
      if (shard.seqlock.ReadValidate(begin)) {
        break;
      }
      continue;
    }
    found->referenced.store(1, std::memory_order_relaxed);
    // Copy the bytes, then revalidate: if a writer evicted this slot mid-copy the page
    // may already be recycled and rewritten, so the copy is discarded and retried.
    pool_.Read(dst, pool_.PageAddress(page) + in_page, len);
    if (shard.seqlock.ReadValidate(begin)) {
      stats_.promote_hits.fetch_add(1);
      return true;
    }
  }
  stats_.promote_misses.fetch_add(1);
  return false;
}

PageNumber PromoteCache::Insert(Ino ino, uint64_t page_index, PageNumber page) {
  const uint64_t key = PackKey(ino, page_index);
  if (key == 0 || !enabled()) {
    return page;  // Uncacheable: hand the promoted page straight back.
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<SpinLock> guard(shard.lock);
  // Duplicate promote (two readers missed concurrently): keep the incumbent copy — it
  // is byte-identical (backend slots are write-once) — and recycle the newcomer.
  for (Slot& slot : shard.slots) {
    if (slot.key.load(std::memory_order_relaxed) == key) {
      return page;
    }
  }
  Slot& slot = shard.slots[PickVictim(shard)];
  const PageNumber evicted = slot.key.load(std::memory_order_relaxed) != 0
                                 ? slot.page.load(std::memory_order_relaxed)
                                 : 0;
  shard.seqlock.WriteLock();
  slot.key.store(key, std::memory_order_relaxed);
  slot.page.store(page, std::memory_order_relaxed);
  slot.referenced.store(1, std::memory_order_relaxed);
  shard.seqlock.WriteUnlock();
  if (evicted != 0) {
    stats_.promote_evictions.fetch_add(1);
  }
  return evicted;
}

PageNumber PromoteCache::Erase(Ino ino, uint64_t page_index) {
  const uint64_t key = PackKey(ino, page_index);
  if (key == 0 || !enabled()) {
    return 0;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<SpinLock> guard(shard.lock);
  for (Slot& slot : shard.slots) {
    if (slot.key.load(std::memory_order_relaxed) == key) {
      const PageNumber page = slot.page.load(std::memory_order_relaxed);
      shard.seqlock.WriteLock();
      slot.key.store(0, std::memory_order_relaxed);
      slot.page.store(0, std::memory_order_relaxed);
      slot.referenced.store(0, std::memory_order_relaxed);
      shard.seqlock.WriteUnlock();
      return page;
    }
  }
  return 0;
}

void PromoteCache::EraseFile(Ino ino, std::vector<PageNumber>* recycled) {
  if (!enabled()) {
    return;
  }
  for (Shard& shard : shards_) {
    std::lock_guard<SpinLock> guard(shard.lock);
    bool writing = false;
    for (Slot& slot : shard.slots) {
      const uint64_t key = slot.key.load(std::memory_order_relaxed);
      if (key == 0 || (key >> kIndexKeyBits) != ino) {
        continue;
      }
      if (!writing) {
        shard.seqlock.WriteLock();
        writing = true;
      }
      recycled->push_back(slot.page.load(std::memory_order_relaxed));
      slot.key.store(0, std::memory_order_relaxed);
      slot.page.store(0, std::memory_order_relaxed);
      slot.referenced.store(0, std::memory_order_relaxed);
    }
    if (writing) {
      shard.seqlock.WriteUnlock();
    }
  }
}

}  // namespace trio
