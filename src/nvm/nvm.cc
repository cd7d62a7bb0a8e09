#include "src/nvm/nvm.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "src/sim/fault_injector.h"

namespace trio {

namespace {

// The clock modeled stalls spin on, in ticks.
inline int64_t StallClockTicks() {
#if defined(__x86_64__) || defined(__i386__)
  return static_cast<int64_t>(__rdtsc());
#elif defined(__aarch64__)
  uint64_t ticks;
  asm volatile("mrs %0, cntvct_el0" : "=r"(ticks));
  return static_cast<int64_t>(ticks);
#else
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
#endif
}

// Stall amounts are kept in 1/256 tick, so a 5 ns line charge keeps its fraction.
constexpr int kStallShift = 8;

struct StallClock {
  double units_per_ns = 0;  // 1/256 ticks per nanosecond.
  int64_t read_units = 0;   // One clock read, as a spin loop pays for it.
};

const StallClock& CalibratedStallClock() {
  static const StallClock clock = [] {
    StallClock c;
    // One read: the fastest of 16 batches of 256 back-to-back reads (a batch a preemption
    // hits is slower, never faster), so the credit never exceeds what a read costs.
    constexpr int kReads = 1 << kStallShift;
    int64_t best = INT64_MAX;
    for (int batch = 0; batch < 16; ++batch) {
      const int64_t start = StallClockTicks();
      int64_t last = start;
      for (int i = 0; i < kReads; ++i) {
        last = StallClockTicks();
      }
      best = std::min(best, last - start);
    }
    c.read_units = best;  // kReads reads, so already in 1/256 tick.
    // Rate: ticks over 2 ms of steady_clock, each end read as a pair.
    const auto t0 = std::chrono::steady_clock::now();
    const int64_t c0 = StallClockTicks();
    auto t1 = t0;
    int64_t c1 = c0;
    while (t1 - t0 < std::chrono::milliseconds(2)) {
      t1 = std::chrono::steady_clock::now();
      c1 = StallClockTicks();
    }
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    c.units_per_ns = static_cast<double>(c1 - c0) * (1 << kStallShift) / ns;
    return c;
  }();
  return clock;
}

// The calling thread's modeled stall not yet waited off, in 1/256 tick. Negative: the
// overshoot of its last wait, credited to its next charge.
thread_local int64_t t_stall_debt = 0;

// Waits off the calling thread's debt. The first clock read is itself part of the wait.
[[gnu::noinline]] void PayStall(int64_t read_units) {
  const int64_t start = StallClockTicks();
  const int64_t until = start + ((t_stall_debt - read_units) >> kStallShift);
  int64_t now = start;
  while (now < until) {
    // Busy wait: models a core stalled on an sfence / clwb drain, which does not yield.
    now = StallClockTicks();
  }
  // A preempted wait credits at most one read, not the time it lost.
  t_stall_debt = std::max(t_stall_debt - read_units - ((now - start) << kStallShift),
                          -read_units);
}

}  // namespace

void NvmPool::set_cost_model(NvmCostModel model) {
  cost_model_ = model;
  if (!model.enabled()) {
    fence_stall_ = line_stall_ = 0;
    return;
  }
  const StallClock& clock = CalibratedStallClock();
  fence_stall_ = std::llround(model.fence_ns * clock.units_per_ns);
  line_stall_ = std::llround(model.flush_ns_per_line * clock.units_per_ns);
  clock_read_stall_ = clock.read_units;
}

void NvmPool::ChargeStall(int64_t cost) {
  t_stall_debt += cost;
  if (t_stall_debt > clock_read_stall_) {
    PayStall(clock_read_stall_);
  }
}

void NvmPool::DrainStall() {
  if ((fence_stall_ | line_stall_) != 0 && t_stall_debt > 0) {
    PayStall(clock_read_stall_);
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
  stats_.lines_flushed.fetch_add(last - first + 1);
  if (line_stall_ != 0) {
    ChargeStall(line_stall_ * static_cast<int64_t>(last - first + 1));
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
  stats_.fences.fetch_add(1);
  if (fence_stall_ != 0) {
    ChargeStall(fence_stall_);
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
