#include "src/kernel/delegation.h"

#include <algorithm>

#include "src/obs/persist_span.h"
#include "src/sim/fault_injector.h"

namespace trio {

namespace {
// How many requests a worker pops (and a drain loop executes) per ring pass. Draining a
// small burst per pass amortizes the pop CAS without hoarding work other nodes could steal.
constexpr size_t kWorkerPopBatch = 8;
// Requests never exceed this, so uint32_t len always fits even for giant batch spans.
constexpr size_t kMaxRequestBytes = size_t{1} << 30;
// A single submission of at least this many requests to one ring wakes one parked worker
// on every other node so they can steal into the burst.
constexpr size_t kStealWakeThreshold = 64;
constexpr size_t kRingCapacity = 1024;  // Requests per node ring.
// Spins before a faulted chunk's first re-queue; doubles with each further attempt.
constexpr uint32_t kFaultBackoffSpins = 32;
}  // namespace

// ---------------------------------------------------------------------------
// DelegationPool
// ---------------------------------------------------------------------------

DelegationPool::DelegationPool(NvmPool& pool, DelegationConfig config)
    : pool_(pool),
      config_(config),
      num_nodes_(pool.topology().num_nodes),
      threads_per_node_(pool.topology().delegation_threads_per_node) {
  nodes_.reserve(num_nodes_);
  for (int n = 0; n < num_nodes_; ++n) {
    nodes_.push_back(std::make_unique<NodeState>(kRingCapacity));
  }
  workers_.reserve(static_cast<size_t>(num_nodes_) * threads_per_node_);
  for (int n = 0; n < num_nodes_; ++n) {
    for (int t = 0; t < threads_per_node_; ++t) {
      workers_.emplace_back([this, n] { WorkerLoop(n); });
    }
  }
}

DelegationPool::~DelegationPool() { Stop(); }

void DelegationPool::Stop() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true, std::memory_order_seq_cst)) {
    return;
  }
  // Wake every parked worker; their loops observe stopped_ and exit.
  for (auto& node : nodes_) {
    node->parker.NotifyAll();
  }
  for (auto& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  // Final drain: a Submit that pushed concurrently with the workers' exit may have left
  // requests behind. Executing them here (and inline in Submit once stopped_ is visible)
  // guarantees no waiter ever hangs across a stop.
  for (int n = 0; n < num_nodes_; ++n) {
    DrainInline(n);
  }
  waiters_.NotifyAll();
}

void DelegationPool::Submit(const DelegationRequest& request) {
  const int node = pool_.NodeOfAddress(request.nvm);
  SubmitSpan(node, &request, 1);
}

void DelegationPool::SubmitSpan(int node, const DelegationRequest* requests, size_t count) {
  if (count == 0) {
    return;
  }
  NodeState& state = *nodes_[node];
  for (size_t i = 0; i < count; ++i) {
    // Miscomputed splits must fail loudly: a request crossing a node-stripe boundary
    // would silently copy on the wrong node's ring.
    TRIO_DCHECK(requests[i].len > 0);
    TRIO_DCHECK(pool_.NodeOfAddress(requests[i].nvm) == node);
    TRIO_DCHECK(pool_.NodeOfAddress(requests[i].nvm + requests[i].len - 1) == node);
  }
  state.stats.submitted.fetch_add(count);

  size_t pushed = 0;
  while (pushed < count) {
    if (stopped_.load(std::memory_order_acquire)) {
      // Stopped (or stopping): workers may be gone. Drain whatever is queued and run the
      // rest of this span on the submitting thread so no completion is ever lost.
      DrainInline(node);
      for (size_t i = pushed; i < count; ++i) {
        Execute(requests[i], node);
      }
      return;
    }
    const size_t now = state.ring.TryPushBatch(requests + pushed, count - pushed);
    pushed += now;
    if (now == 0) {
      state.parker.NotifyAll();  // Full ring: make sure consumers are running.
      CpuRelax();
    }
  }

  // Either Stop's final drain sees our push, or this check sees stopped_.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (stopped_.load(std::memory_order_seq_cst)) {
    DrainInline(node);  // Stop raced with the push; its final drain may already be done.
  }
  if (count > 1) {
    state.parker.NotifyAll();
  } else {
    state.parker.NotifyOne();
  }
  if (config_.steal && count >= kStealWakeThreshold) {
    // Large burst: wake one parked worker on every other node to steal into it.
    for (int n = 0; n < num_nodes_; ++n) {
      if (n != node) {
        nodes_[n]->parker.NotifyOne();
      }
    }
  }
}

void DelegationPool::Execute(const DelegationRequest& request, int executing_node) {
  FaultInjector* injector = pool_.fault_injector();
  if (injector != nullptr && injector->ShouldFire(kFaultDelegationWorker)) {
    DelegationNodeStats& stats = nodes_[executing_node]->stats;
    stats.faults.fetch_add(1);
    if (request.attempts < config_.fault_max_retries &&
        !stopped_.load(std::memory_order_acquire)) {
      DelegationRequest retry = request;
      ++retry.attempts;
      // Exponential backoff before the chunk re-enters the ring.
      const uint32_t spins = kFaultBackoffSpins << retry.attempts;
      for (uint32_t i = 0; i < spins; ++i) {
        CpuRelax();
      }
      if (nodes_[executing_node]->ring.TryPush(retry)) {
        stats.fault_retries.fetch_add(1);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (stopped_.load(std::memory_order_seq_cst)) {
          // Stop raced with the re-queue; its final drain may already have run.
          DrainInline(executing_node);
        } else {
          nodes_[executing_node]->parker.NotifyOne();
        }
        return;  // The retried copy completes (and decrements pending) later.
      }
      // Ring full: fall through and complete inline right now.
    }
    stats.inline_fallbacks.fetch_add(1);
    // Fall through: retries exhausted (or no room to retry) — the faulting thread
    // completes the chunk inline below, with no further injection on this execution.
  }
  switch (request.op) {
    case DelegationRequest::Op::kRead:
      pool_.Read(request.dram, request.nvm, request.len);
      break;
    case DelegationRequest::Op::kWrite:
      pool_.Write(request.nvm, request.dram, request.len);
      if (request.persist) {
        obs::PersistSpan span(pool_, &persist_stats_);
        span.Persist(request.nvm, request.len);
        if (request.group == nullptr) {
          span.Fence();  // Standalone request: self-fencing (the pre-batch behavior).
        } else {
          span.Disarm();  // The group's last completer fences for the whole node share.
        }
      }
      break;
  }
  if (request.group != nullptr) {
    // The acq_rel RMW chain makes every earlier chunk's Persist happen-before the single
    // fence the last completer issues.
    if (request.group->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        request.group->fence) {
      obs::PersistSpan(pool_, &persist_stats_).ForceFence();
    }
  }
  nodes_[executing_node]->stats.completed.fetch_add(1);
  if (request.pending != nullptr) {
    // The final decrement is the last touch of batch-owned memory (the waiter may free
    // the batch as soon as it observes zero); waking goes through pool-owned state only.
    if (request.pending->fetch_sub(1, std::memory_order_seq_cst) == 1) {
      waiters_.NotifyAll();
    }
  }
}

void DelegationPool::WorkerLoop(int node) {
  NodeState& state = *nodes_[node];
  DelegationRequest batch[kWorkerPopBatch];
  const auto has_work = [&] {
    return !state.ring.ApproxEmpty() || stopped_.load(std::memory_order_relaxed);
  };
  while (true) {
    const size_t popped = state.ring.TryPopBatch(batch, kWorkerPopBatch);
    if (popped > 0) {
      for (size_t i = 0; i < popped; ++i) {
        Execute(batch[i], node);
      }
      continue;
    }
    if (stopped_.load(std::memory_order_acquire)) {
      return;  // Ring observed empty; Stop()'s final drain handles racing pushes.
    }
    if (config_.steal && TrySteal(node)) {
      continue;
    }
    // Returns early on a notify without work of our own: a sibling's burst wakes us to
    // steal, so rescan either way.
    if (state.parker.Await(has_work)) {
      state.stats.parks.fetch_add(1);
      state.stats.wakeups.fetch_add(1);
    }
  }
}

bool DelegationPool::TrySteal(int home) {
  for (int i = 1; i < num_nodes_; ++i) {
    const int victim = (home + i) % num_nodes_;
    DelegationRequest request;
    if (nodes_[victim]->ring.TryPop(request)) {
      nodes_[home]->stats.steals.fetch_add(1);
      Execute(request, home);
      return true;
    }
  }
  return false;
}

void DelegationPool::DrainInline(int node) {
  DelegationRequest request;
  while (nodes_[node]->ring.TryPop(request)) {
    Execute(request, node);
  }
}

void DelegationPool::Wait(std::atomic<uint32_t>& pending) {
  const auto done = [&] { return pending.load(std::memory_order_acquire) == 0; };
  // Every completed batch notifies all waiters, so a waiter may wake for someone else's.
  while (!done()) {
    waiters_.Await(done);
  }
}

uint32_t DelegationPool::parked_workers() const {
  uint32_t parked = 0;
  for (const auto& node : nodes_) {
    parked += node->parker.sleepers();
  }
  return parked;
}

// ---------------------------------------------------------------------------
// DelegationBatch
// ---------------------------------------------------------------------------

DelegationBatch::DelegationBatch(DelegationPool& pool)
    : pool_(pool),
      per_node_(static_cast<size_t>(pool.num_nodes())),
      groups_(static_cast<size_t>(pool.num_nodes())) {}

DelegationBatch::~DelegationBatch() {
  if (submitted_) {
    Wait();
  }
}

void DelegationBatch::Add(DelegationRequest::Op op, char* nvm, char* dram, size_t len,
                          bool persist) {
  TRIO_DCHECK(!submitted_);
  NvmPool& nvm_pool = pool_.pool_;
  char* nvm_cursor = nvm;
  char* dram_cursor = dram;
  size_t remaining = len;
  while (remaining > 0) {
    const int node = nvm_pool.NodeOfAddress(nvm_cursor);
    // The split happens here, once per operation: cut at the node-stripe boundary so
    // every request is node-contained.
    char* stripe_end =
        nvm_pool.base() + static_cast<size_t>(nvm_pool.NodeLastPage(node)) * kPageSize;
    const size_t chunk = std::min(
        {remaining, static_cast<size_t>(stripe_end - nvm_cursor), kMaxRequestBytes});
    if (groups_[node] == nullptr) {
      groups_[node] = std::make_unique<BatchNodeState>();
    }
    DelegationRequest request;
    request.op = op;
    request.nvm = nvm_cursor;
    request.dram = dram_cursor;
    request.len = static_cast<uint32_t>(chunk);
    request.persist = persist;
    request.group = groups_[node].get();
    request.pending = &pending_;
    if (persist && op == DelegationRequest::Op::kWrite) {
      groups_[node]->fence = true;
    }
    per_node_[node].push_back(request);
    ++total_requests_;
    nvm_cursor += chunk;
    dram_cursor += chunk;
    remaining -= chunk;
  }
}

void DelegationBatch::AddWrite(char* nvm, const char* dram, size_t len, bool persist) {
  Add(DelegationRequest::Op::kWrite, nvm, const_cast<char*>(dram), len, persist);
}

void DelegationBatch::AddRead(char* dram, const char* nvm, size_t len) {
  Add(DelegationRequest::Op::kRead, const_cast<char*>(nvm), dram, len, /*persist=*/false);
}

void DelegationBatch::Submit() {
  TRIO_DCHECK(!submitted_);
  submitted_ = true;
  if (total_requests_ == 0) {
    return;
  }
  if (auto* op = obs::OpContext::Current()) {
    op->counters.delegated_chunks.fetch_add(total_requests_, std::memory_order_relaxed);
  }
  // Completion counters are armed before anything is visible to workers.
  pending_.store(static_cast<uint32_t>(total_requests_), std::memory_order_relaxed);
  for (size_t node = 0; node < per_node_.size(); ++node) {
    const auto& requests = per_node_[node];
    if (requests.empty()) {
      continue;
    }
    groups_[node]->remaining.store(static_cast<uint32_t>(requests.size()),
                                   std::memory_order_relaxed);
    pool_.nodes_[node]->stats.batches.fetch_add(1);
    pool_.SubmitSpan(static_cast<int>(node), requests.data(), requests.size());
  }
}

void DelegationBatch::Reset() {
  TRIO_DCHECK(!submitted_ || pending_.load(std::memory_order_acquire) == 0)
      << "Reset with requests outstanding";
  for (auto& requests : per_node_) {
    requests.clear();
  }
  // Groups stay allocated (workers are done with them once pending_ reached 0); only
  // their per-round state resets.
  for (auto& group : groups_) {
    if (group != nullptr) {
      group->remaining.store(0, std::memory_order_relaxed);
      group->fence = false;
    }
  }
  pending_.store(0, std::memory_order_relaxed);
  total_requests_ = 0;
  submitted_ = false;
}

void DelegationBatch::Wait() {
  if (!submitted_ || total_requests_ == 0) {
    return;
  }
  pool_.Wait(pending_);
  if (auto* op = obs::OpContext::Current()) {
    // The workers issued one fence per fencing node on this op's behalf; the per-layer
    // count lives in the pool's PersistStats, the per-op share is attributed here.
    uint64_t node_fences = 0;
    for (const auto& group : groups_) {
      node_fences += (group != nullptr && group->fence) ? 1 : 0;
    }
    op->counters.fences.fetch_add(node_fences, std::memory_order_relaxed);
  }
}

int DelegationBatch::nodes_touched() const {
  int touched = 0;
  for (const auto& requests : per_node_) {
    touched += requests.empty() ? 0 : 1;
  }
  return touched;
}

}  // namespace trio
