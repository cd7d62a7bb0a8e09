#include "src/obs/op_context.h"

#include <chrono>
#include <mutex>

namespace trio {
namespace obs {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_op_id{1};

thread_local OpContext* tls_current_op = nullptr;
thread_local uint32_t tls_span_depth = 0;

// Global registry of per-thread rings. shared_ptr so a ring outlives its thread: the
// thread-local owner releases on exit, but snapshots keep the events readable.
struct RingRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<TraceRing>> rings;

  static RingRegistry& Get() {
    static RingRegistry* registry = new RingRegistry();  // Leaked: outlives all statics.
    return *registry;
  }
};

TraceRing& ThreadRing() {
  thread_local std::shared_ptr<TraceRing> ring = [] {
    auto r = std::make_shared<TraceRing>();
    RingRegistry& registry = RingRegistry::Get();
    std::lock_guard<std::mutex> guard(registry.mutex);
    registry.rings.push_back(r);
    return r;
  }();
  return *ring;
}

}  // namespace

bool TracingEnabled() { return g_tracing.load(std::memory_order_relaxed); }

void SetTracing(bool enabled) { g_tracing.store(enabled, std::memory_order_relaxed); }

OpContext* OpContext::Current() { return tls_current_op; }

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  std::vector<TraceEvent> events;
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t begin = head > kCapacity ? head - kCapacity : 0;
  events.reserve(static_cast<size_t>(head - begin));
  for (uint64_t index = begin; index < head; ++index) {
    const Slot& slot = slots_[index & (kCapacity - 1)];
    const uint64_t seq = slot.lock.ReadBegin();
    const uint64_t held = slot.index.load(std::memory_order_relaxed);
    TraceEvent copy;
    copy.op_id = slot.op_id.load(std::memory_order_relaxed);
    copy.name = slot.name.load(std::memory_order_relaxed);
    copy.begin_ns = slot.begin_ns.load(std::memory_order_relaxed);
    copy.end_ns = slot.end_ns.load(std::memory_order_relaxed);
    copy.depth = slot.depth.load(std::memory_order_relaxed);
    if (!slot.lock.ReadValidate(seq) || held != index) {
      continue;  // Torn by a concurrent push, or already overwritten by a newer event.
    }
    events.push_back(copy);
  }
  return events;
}

std::vector<TraceEvent> SnapshotAllTraceEvents() {
  RingRegistry& registry = RingRegistry::Get();
  std::vector<std::shared_ptr<TraceRing>> rings;
  {
    std::lock_guard<std::mutex> guard(registry.mutex);
    rings = registry.rings;
  }
  std::vector<TraceEvent> all;
  for (const auto& ring : rings) {
    std::vector<TraceEvent> events = ring->Snapshot();
    all.insert(all.end(), events.begin(), events.end());
  }
  return all;
}

void ClearTraceEvents() {
  RingRegistry& registry = RingRegistry::Get();
  std::lock_guard<std::mutex> guard(registry.mutex);
  // Reset rings in place: threads cache their ring pointer for life, so the registry
  // entries must stay. Callers quiesce spans first (tests do this between phases); a
  // concurrent push at worst survives the clear or is dropped by the index check.
  for (const auto& ring : registry.rings) {
    ring->Reset();
  }
}

void OpScope::Begin(const char* name) {
  armed_ = true;
  ctx_.id = g_next_op_id.fetch_add(1, std::memory_order_relaxed);
  ctx_.name = name;
  ctx_.begin_ns = MonotonicNowNs();
  ctx_.fault_domain = 0;
  ctx_.parent = tls_current_op;
  tls_current_op = &ctx_;
  ++tls_span_depth;
}

void OpScope::End() {
  TraceEvent event;
  event.op_id = ctx_.id;
  event.name = ctx_.name;
  event.begin_ns = ctx_.begin_ns;
  event.end_ns = MonotonicNowNs();
  event.depth = --tls_span_depth;
  ThreadRing().Push(event);
  tls_current_op = ctx_.parent;
}

void TraceSpan::Begin(const char* name) {
  name_ = name;
  begin_ns_ = MonotonicNowNs();
  ++tls_span_depth;
}

void TraceSpan::End() {
  TraceEvent event;
  OpContext* op = tls_current_op;
  event.op_id = op != nullptr ? op->id : 0;
  event.name = name_;
  event.begin_ns = begin_ns_;
  event.end_ns = MonotonicNowNs();
  event.depth = --tls_span_depth;
  ThreadRing().Push(event);
}

}  // namespace obs
}  // namespace trio
