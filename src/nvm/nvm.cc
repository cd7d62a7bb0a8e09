#include "src/nvm/nvm.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "src/sim/fault_injector.h"

namespace trio {

void NvmPool::SpinDelayNs(uint64_t ns) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < until) {
    // Busy wait: models a core stalled on an sfence / clwb drain, which does not yield.
  }
}

void NvmPool::Init() {
  TRIO_CHECK(num_pages_ >= 8) << "pool too small";
  TRIO_CHECK(topology_.num_nodes >= 1);
  pages_per_node_ = (num_pages_ + topology_.num_nodes - 1) / topology_.num_nodes;
  if (mode_ == NvmMode::kTracking) {
    shadow_ = std::make_unique<char[]>(num_pages_ * kPageSize);
    std::memcpy(shadow_.get(), main_, num_pages_ * kPageSize);
  }
}

NvmPool::NvmPool(size_t pages, NvmMode mode, NumaTopology topology)
    : num_pages_(pages), mode_(mode), topology_(topology) {
  heap_ = std::make_unique<char[]>(num_pages_ * kPageSize);  // Value-initialized: zeros.
  main_ = heap_.get();
  Init();
}

NvmPool::NvmPool(const std::string& backing_file, size_t pages, NvmMode mode,
                 NumaTopology topology)
    : num_pages_(pages), mode_(mode), topology_(topology), file_backed_(true) {
  const int fd = ::open(backing_file.c_str(), O_RDWR | O_CREAT, 0644);
  TRIO_CHECK(fd >= 0) << "cannot open backing file " << backing_file;
  const off_t size = static_cast<off_t>(num_pages_ * kPageSize);
  TRIO_CHECK(::ftruncate(fd, size) == 0) << "cannot size backing file";
  void* mapped = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  TRIO_CHECK(mapped != MAP_FAILED) << "mmap of backing file failed";
  main_ = static_cast<char*>(mapped);
  Init();
}

NvmPool::~NvmPool() {
  if (file_backed_ && main_ != nullptr) {
    ::msync(main_, num_pages_ * kPageSize, MS_SYNC);
    ::munmap(main_, num_pages_ * kPageSize);
  }
}

void NvmPool::SyncBackingFile() {
  if (file_backed_ && main_ != nullptr) {
    ::msync(main_, num_pages_ * kPageSize, MS_SYNC);
  }
}

void NvmPool::MarkDirty(const void* dst, size_t len) {
  std::lock_guard<std::mutex> guard(track_mutex_);
  const uint64_t first = LineOf(dst);
  const uint64_t last = LineOf(static_cast<const char*>(dst) + len - 1);
  for (uint64_t line = first; line <= last; ++line) {
    // A line re-dirtied after clwb must be flushed again to be durable.
    pending_lines_.erase(line);
    dirty_lines_.insert(line);
  }
}

void NvmPool::Persist(const void* dst, size_t len) {
  if (len == 0) {
    return;
  }
  const uint64_t first = LineOf(dst);
  const uint64_t last = LineOf(static_cast<const char*>(dst) + len - 1);
  stats_.lines_flushed.fetch_add(last - first + 1, std::memory_order_relaxed);
  if (cost_model_.flush_ns_per_line != 0) {
    SpinDelayNs(static_cast<uint64_t>(cost_model_.flush_ns_per_line) * (last - first + 1));
  }
  if (mode_ != NvmMode::kTracking) {
    return;
  }
  // Torn persist: the flush loses a non-empty subset of its cachelines. Dropped lines stay
  // dirty (the store is still in cache), so only a crash before a later flush loses them —
  // exactly the window real hardware exposes when a clwb is omitted.
  const bool torn = fault_injector_ != nullptr && last > first &&
                    fault_injector_->ShouldFire(kFaultNvmTornPersist);
  std::lock_guard<std::mutex> guard(track_mutex_);
  uint64_t dropped = 0;
  for (uint64_t line = first; line <= last; ++line) {
    if (torn && ((line == last && dropped == 0) || fault_injector_->NextRandom(2) == 0)) {
      ++dropped;
      continue;
    }
    if (dirty_lines_.erase(line) > 0) {
      pending_lines_.insert(line);
    }
  }
  if (dropped > 0) {
    TRIO_LOG(kDebug) << "faultsim: torn persist dropped " << dropped << " of "
                     << (last - first + 1) << " lines";
  }
}

void NvmPool::Fence() {
  stats_.fences.fetch_add(1, std::memory_order_relaxed);
  if (cost_model_.fence_ns != 0) {
    SpinDelayNs(cost_model_.fence_ns);
  }
  if (mode_ != NvmMode::kTracking) {
    return;
  }
  std::lock_guard<std::mutex> guard(track_mutex_);
  if (fault_injector_ != nullptr && !pending_lines_.empty() &&
      fault_injector_->ShouldFire(kFaultNvmBitFlip)) {
    // Media fault: one of the lines this fence commits takes a single-bit error. Flipping
    // the live copy before the commit loop below puts the damage in the persisted image
    // (and in any recorded fence delta) too.
    auto it = pending_lines_.begin();
    std::advance(it, fault_injector_->NextRandom(pending_lines_.size()));
    char* line_addr = main_ + *it * kCacheLineSize;
    const uint64_t bit = fault_injector_->NextRandom(kCacheLineSize * 8);
    line_addr[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    TRIO_LOG(kWarn) << "faultsim: bit flip injected in line " << *it << " bit " << bit;
  }
  FenceDelta delta;
  for (uint64_t line : pending_lines_) {
    std::memcpy(shadow_.get() + line * kCacheLineSize, main_ + line * kCacheLineSize,
                kCacheLineSize);
    if (recording_) {
      std::array<char, kCacheLineSize> content;
      std::memcpy(content.data(), main_ + line * kCacheLineSize, kCacheLineSize);
      delta.lines.emplace_back(line, content);
    }
  }
  pending_lines_.clear();
  if (recording_) {
    fence_deltas_.push_back(std::move(delta));
  }
}

void NvmPool::StartFenceRecording() {
  TRIO_CHECK(mode_ == NvmMode::kTracking);
  std::lock_guard<std::mutex> guard(track_mutex_);
  recording_base_.assign(shadow_.get(), shadow_.get() + num_pages_ * kPageSize);
  fence_deltas_.clear();
  recording_ = true;
}

void NvmPool::StopFenceRecording() {
  std::lock_guard<std::mutex> guard(track_mutex_);
  recording_ = false;
}

size_t NvmPool::RecordedFenceCount() {
  std::lock_guard<std::mutex> guard(track_mutex_);
  return fence_deltas_.size();
}

void NvmPool::MaterializeAt(size_t fence_index, char* out) {
  std::lock_guard<std::mutex> guard(track_mutex_);
  TRIO_CHECK(fence_index <= fence_deltas_.size());
  std::memcpy(out, recording_base_.data(), recording_base_.size());
  for (size_t i = 0; i < fence_index; ++i) {
    for (const auto& [line, content] : fence_deltas_[i].lines) {
      std::memcpy(out + line * kCacheLineSize, content.data(), kCacheLineSize);
    }
  }
}

void NvmPool::SimulateCrash(Rng* rng, double evict_probability) {
  TRIO_CHECK(mode_ == NvmMode::kTracking) << "crash simulation requires kTracking mode";
  std::lock_guard<std::mutex> guard(track_mutex_);
  auto maybe_evict = [&](uint64_t line) {
    const bool survive =
        evict_probability > 0.0 && rng != nullptr && rng->NextDouble() < evict_probability;
    if (survive) {
      std::memcpy(shadow_.get() + line * kCacheLineSize, main_ + line * kCacheLineSize,
                  kCacheLineSize);
    }
  };
  for (uint64_t line : dirty_lines_) {
    maybe_evict(line);
  }
  // clwb issued but not fenced: the writeback may or may not have completed. Same treatment.
  for (uint64_t line : pending_lines_) {
    maybe_evict(line);
  }
  dirty_lines_.clear();
  pending_lines_.clear();
  std::memcpy(main_, shadow_.get(), num_pages_ * kPageSize);
}

void NvmPool::LoadImage(const char* image) {
  std::lock_guard<std::mutex> guard(track_mutex_);
  std::memcpy(main_, image, num_pages_ * kPageSize);
  if (mode_ == NvmMode::kTracking) {
    std::memcpy(shadow_.get(), image, num_pages_ * kPageSize);
  }
  dirty_lines_.clear();
  pending_lines_.clear();
}

size_t NvmPool::InjectBitFlip(void* addr, size_t len, Rng& rng) {
  TRIO_CHECK(len > 0);
  const uint64_t bit = rng.Below(len * 8);
  char* target = static_cast<char*>(addr) + bit / 8;
  const char mask = static_cast<char>(1u << (bit % 8));
  *target ^= mask;
  if (mode_ == NvmMode::kTracking) {
    // Durable media corruption: the persisted image is damaged identically, so the flip
    // survives SimulateCrash and remount.
    std::lock_guard<std::mutex> guard(track_mutex_);
    shadow_[target - main_] ^= mask;
  }
  if (fault_injector_ != nullptr) {
    fault_injector_->RecordFire(kFaultNvmBitFlip);
  }
  TRIO_LOG(kWarn) << "faultsim: targeted bit flip at pool offset " << (target - main_);
  return bit / 8;
}

size_t NvmPool::UnpersistedLineCount() {
  std::lock_guard<std::mutex> guard(track_mutex_);
  return dirty_lines_.size() + pending_lines_.size();
}

}  // namespace trio
