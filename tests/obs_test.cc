// Tests of the observability spine: StatRegistry counters/histograms and JSON snapshots,
// OpContext/OpScope/TraceSpan tracing with the per-thread ring, PersistSpan fence
// accounting and coalescing, and the repo-wide enforcement that every persistence
// primitive call outside src/nvm goes through a PersistSpan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/format.h"
#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"
#include "src/nvm/nvm.h"
#include "src/obs/op_context.h"
#include "src/obs/persist_span.h"
#include "src/obs/stats.h"
#include "src/sim/backend.h"

namespace trio {
namespace {

// ---------------------------------------------------------------------------
// Counters, histograms, registry
// ---------------------------------------------------------------------------

TEST(StatRegistryTest, CounterBasics) {
  obs::Counter c;
  EXPECT_EQ(c.load(), 0u);
  c.fetch_add(5);
  c.fetch_sub(2);
  EXPECT_EQ(c.load(), 3u);
  c = 0;
  EXPECT_EQ(c.load(), 0u);
}

TEST(StatRegistryTest, HistogramBinsAreLogarithmic) {
  obs::LatencyHistogram h;
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(1024);
  EXPECT_EQ(h.TotalCount(), 5u);
  EXPECT_EQ(h.SumNs(), 1030u);
  EXPECT_EQ(h.BinCount(0), 2u);   // 0 and 1.
  EXPECT_EQ(h.BinCount(1), 2u);   // 2 and 3.
  EXPECT_EQ(h.BinCount(10), 1u);  // 1024.
  EXPECT_EQ(obs::LatencyHistogram::BinOf(1023), 9u);
  EXPECT_EQ(obs::LatencyHistogram::BinUpperNs(9), 1023u);
  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.SumNs(), 0u);
}

TEST(StatRegistryTest, GroupsSumPerLayerAndUnregisterOnDestruction) {
  obs::Counter a, b;
  a.fetch_add(7);
  b.fetch_add(5);
  {
    obs::ScopedRegistration reg_a("testlayer", {{"hits", &a}});
    obs::ScopedRegistration reg_b("testlayer", {{"hits", &b}});
    EXPECT_EQ(obs::StatRegistry::Global().CounterValue("testlayer", "hits"), 12u);
    const std::vector<std::string> layers = obs::StatRegistry::Global().Layers();
    EXPECT_NE(std::find(layers.begin(), layers.end(), "testlayer"), layers.end());
  }
  EXPECT_EQ(obs::StatRegistry::Global().CounterValue("testlayer", "hits"), 0u);
}

TEST(StatRegistryTest, ToJsonContainsLayersCountersAndHistograms) {
  obs::Counter ops;
  ops.fetch_add(42);
  obs::LatencyHistogram lat;
  lat.Record(100);
  obs::ScopedRegistration reg("jsonlayer", {{"ops", &ops}, {"latency", &lat}});
  const std::string json = obs::StatRegistry::Global().ToJson();
  EXPECT_NE(json.find("\"jsonlayer\""), std::string::npos);
  EXPECT_NE(json.find("\"ops\":42"), std::string::npos);
  EXPECT_NE(json.find("\"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"sum_ns\":100"), std::string::npos);
}

// The "layer.name" of every stat in StatRegistry::ToJson(): the object keys at depths 1
// and 2 (a histogram's own count/sum_ns/bins sit deeper and are skipped).
std::set<std::string> RegistryKeys() {
  const std::string json = obs::StatRegistry::Global().ToJson();
  std::set<std::string> keys;
  std::string layer;
  int depth = 0;
  for (size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '{') {
      ++depth;
    } else if (json[i] == '}') {
      --depth;
    } else if (json[i] == '"') {
      const size_t end = json.find('"', i + 1);
      const std::string key = json.substr(i + 1, end - i - 1);
      i = end;
      if (depth == 1) {
        layer = key;
      } else if (depth == 2) {
        keys.insert(layer + "." + key);
      }
    }
  }
  return keys;
}

// One of each registering component. The expected set pins every registry key: e2ebench
// reads its kernel, libfs, delegation and nvm keys by these names, so a stat that is
// renamed or dropped must fail here.
TEST(StatRegistryTest, KeysUnchanged) {
  NvmPool pool(1024);
  FormatOptions format;
  format.max_inodes = 256;
  ASSERT_TRUE(Format(pool, format).ok());
  SlowBackend backend;
  KernelConfig kernel_config;
  kernel_config.tier.backend = &backend;
  KernelController kernel(pool, kernel_config);
  kernel.StartDelegation();
  ASSERT_TRUE(kernel.Mount().ok());
  ArckFsConfig fs_config;
  fs_config.ring.enabled = true;
  fs_config.promote_cache_slots = 64;
  ArckFs fs(kernel, fs_config);

  const std::set<std::string> expected = {
      "core.bytes_persisted", "core.coalesced_fences", "core.commit_stores",
      "core.deferred_fences", "core.epoch_fences", "core.fences", "core.persists",
      "delegation.batches", "delegation.bytes_persisted", "delegation.coalesced_fences",
      "delegation.commit_stores", "delegation.completed", "delegation.deferred_fences",
      "delegation.epoch_fences", "delegation.fault_retries", "delegation.faults",
      "delegation.fences", "delegation.inline_fallbacks", "delegation.parks",
      "delegation.persists", "delegation.steals", "delegation.submitted",
      "delegation.wakeups",
      "kernel.bytes_persisted", "kernel.callback_runs", "kernel.callback_timeouts",
      "kernel.callback_wait_ns", "kernel.checkpoint_ns", "kernel.children_claimed",
      "kernel.coalesced_fences",
      "kernel.commit_stores", "kernel.corruptions_fixed_by_libfs",
      "kernel.corruptions_rolled_back", "kernel.cross_shard_acquires",
      "kernel.deferred_fences", "kernel.epoch_fences", "kernel.fences",
      "kernel.files_quarantined", "kernel.forced_releases", "kernel.map_ns", "kernel.maps",
      "kernel.pages_allocated", "kernel.pages_freed", "kernel.persists",
      "kernel.quarantine_evictions", "kernel.readers_dropped", "kernel.revocations",
      "kernel.shard_lock_contended",
      "kernel.syscall_latency", "kernel.syscalls", "kernel.transits_reclaimed",
      "kernel.unmap_ns", "kernel.unmaps",
      "kernel.verifications", "kernel.verify_failures", "kernel.verify_ns",
      "kernel.verify_timeouts",
      "libfs.bytes_persisted", "libfs.coalesced_fences", "libfs.commit_stores",
      "libfs.creates", "libfs.deferred_fences", "libfs.epoch_fences", "libfs.fences",
      "libfs.lock_wait_ns", "libfs.lookups", "libfs.persists", "libfs.read_retries",
      "libfs.reader_teardowns", "libfs.reads", "libfs.rebuild_ns", "libfs.rebuilds",
      "libfs.revocations", "libfs.unlinks",
      "libfs.writes",
      "nvm.bytes_read", "nvm.bytes_written", "nvm.fences", "nvm.lines_flushed",
      "ring.barriers", "ring.completed", "ring.cq_stalls", "ring.drain_passes",
      "ring.parks", "ring.pass_ops", "ring.submitted", "ring.wakeups",
      "tier.backend_bytes_read", "tier.backend_bytes_written", "tier.backend_pages_read",
      "tier.backend_pages_written", "tier.backend_slots_freed", "tier.digest_batches",
      "tier.digest_bytes", "tier.digest_pages", "tier.promote_evictions",
      "tier.promote_hits", "tier.promote_misses", "tier.promote_reads",
      "tier.watermark_stalls",
      "verifier.compare_hits", "verifier.deadline_exceeded", "verifier.failures",
      "verifier.files_verified", "verifier.media_retries", "verifier.pages_scanned",
  };
  EXPECT_EQ(RegistryKeys(), expected);
}

struct ResetTestStats : obs::StatGroup {
  obs::Counter first{this, "first"};
  obs::LatencyHistogram latency{this, "latency"};
  obs::Counter last{this, "last"};

 private:
  obs::ScopedRegistration reg_{"resettest", *this};
};

TEST(StatRegistryTest, ResetZeroesEveryStatInGroup) {
  ResetTestStats stats;
  stats.first.fetch_add(3);
  stats.latency.Record(100);
  stats.last.fetch_add(5);
  obs::Counter outside;  // Belongs to no group.
  outside.fetch_add(7);
  ASSERT_EQ(obs::StatRegistry::Global().CounterValue("resettest", "first"), 3u);
  ASSERT_EQ(obs::StatRegistry::Global().CounterValue("resettest", "last"), 5u);

  stats.Reset();
  EXPECT_EQ(stats.first.load(), 0u);
  EXPECT_EQ(stats.latency.TotalCount(), 0u);
  EXPECT_EQ(stats.latency.SumNs(), 0u);
  EXPECT_EQ(stats.last.load(), 0u);
  EXPECT_EQ(outside.load(), 7u);
  EXPECT_EQ(obs::StatRegistry::Global().CounterValue("resettest", "last"), 0u);
}

// ---------------------------------------------------------------------------
// Per-thread slabs
// ---------------------------------------------------------------------------

struct SlabTestStats : obs::StatGroup {
  obs::Counter bumps{this, "bumps"};
  obs::LatencyHistogram latency{this, "latency"};

 private:
  obs::ScopedRegistration reg_{"slabtest", *this};
};

TEST(StatSlabTest, ThreadsSumExactly) {
  SlabTestStats stats;
  constexpr int kThreads = 8;
  constexpr uint64_t kBumps = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kBumps; ++i) {
        stats.bumps.fetch_add(1);
      }
      stats.latency.Record(100);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(stats.bumps.load(), kThreads * kBumps);
  EXPECT_EQ(obs::StatRegistry::Global().CounterValue("slabtest", "bumps"), kThreads * kBumps);
  EXPECT_EQ(stats.latency.TotalCount(), static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.latency.SumNs(), kThreads * 100u);
}

TEST(StatSlabTest, ExitedThreadCountsStay) {
  SlabTestStats stats;
  std::thread([&] { stats.bumps.fetch_add(42); }).join();
  EXPECT_EQ(stats.bumps.load(), 42u);
  // The next thread reuses the exited one's slab and adds to it.
  std::thread([&] { stats.bumps.fetch_add(8); }).join();
  EXPECT_EQ(stats.bumps.load(), 50u);
  stats.bumps.fetch_add(1);
  EXPECT_EQ(obs::StatRegistry::Global().CounterValue("slabtest", "bumps"), 51u);
}

TEST(StatSlabTest, ResetZeroesEverySlab) {
  SlabTestStats stats;
  constexpr int kThreads = 4;
  std::atomic<int> bumped{0};
  std::atomic<bool> reset{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      stats.bumps.fetch_add(10);
      stats.latency.Record(1000);
      bumped.fetch_add(1, std::memory_order_release);
      while (!reset.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      stats.bumps.fetch_add(1);  // After the Reset, into the same (live) slab.
    });
  }
  while (bumped.load(std::memory_order_acquire) < kThreads) {
    std::this_thread::yield();
  }
  ASSERT_EQ(stats.bumps.load(), kThreads * 10u);
  stats.Reset();
  EXPECT_EQ(stats.bumps.load(), 0u);
  EXPECT_EQ(stats.latency.TotalCount(), 0u);
  EXPECT_EQ(stats.latency.SumNs(), 0u);
  reset.store(true, std::memory_order_release);
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(stats.bumps.load(), static_cast<uint64_t>(kThreads));
}

// A thread caches its slab of a group by the group's slot. When the group is destroyed
// and another is built in its place (same address, same slot) while threads still cache
// slabs of the old one, their later bumps must reach the new group's own slabs, and none
// of the old group's counts may show in it.
TEST(StatSlabTest, ReplacedGroupNeverGetsStaleWrites) {
  std::optional<SlabTestStats> stats;
  stats.emplace();
  const void* const address = &*stats;
  std::atomic<int> cached{0};
  std::atomic<bool> replaced{false};
  std::vector<std::thread> threads;
  for (uint64_t before : {7u, 3u}) {
    threads.emplace_back([&, before] {
      stats->bumps.fetch_add(before);
      cached.fetch_add(1, std::memory_order_release);
      while (!replaced.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      stats->bumps.fetch_add(1);
    });
  }
  while (cached.load(std::memory_order_acquire) < 2) {
    std::this_thread::yield();
  }
  ASSERT_EQ(stats->bumps.load(), 10u);
  stats.reset();
  stats.emplace();
  EXPECT_EQ(static_cast<const void*>(&*stats), address);
  EXPECT_EQ(stats->bumps.load(), 0u);
  replaced.store(true, std::memory_order_release);
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(stats->bumps.load(), 2u);
  EXPECT_EQ(obs::StatRegistry::Global().CounterValue("slabtest", "bumps"), 2u);
}

// ---------------------------------------------------------------------------
// OpContext / tracing
// ---------------------------------------------------------------------------

TEST(OpContextTest, CurrentIsNullWithoutTracing) {
  obs::SetTracing(false);
  EXPECT_EQ(obs::OpContext::Current(), nullptr);
  obs::OpScope op("Disabled");
  EXPECT_EQ(obs::OpContext::Current(), nullptr);
  EXPECT_EQ(op.context(), nullptr);
}

TEST(OpContextTest, OpScopeEstablishesAndNestsContexts) {
  obs::SetTracing(true);
  obs::ClearTraceEvents();
  {
    obs::OpScope outer("Outer");
    obs::OpContext* outer_ctx = obs::OpContext::Current();
    ASSERT_NE(outer_ctx, nullptr);
    EXPECT_NE(outer_ctx->id, 0u);
    EXPECT_STREQ(outer_ctx->name, "Outer");
    EXPECT_EQ(outer_ctx->parent, nullptr);
    {
      obs::OpScope inner("Inner");
      obs::OpContext* inner_ctx = obs::OpContext::Current();
      ASSERT_NE(inner_ctx, nullptr);
      EXPECT_EQ(inner_ctx->parent, outer_ctx);
      EXPECT_NE(inner_ctx->id, outer_ctx->id);
    }
    EXPECT_EQ(obs::OpContext::Current(), outer_ctx);
  }
  EXPECT_EQ(obs::OpContext::Current(), nullptr);
  obs::SetTracing(false);
}

TEST(OpContextTest, SpansLandInTheTraceRing) {
  obs::SetTracing(true);
  obs::ClearTraceEvents();
  {
    obs::OpScope op("RingOp");
    obs::TraceSpan span("RingSpan");
  }
  std::vector<obs::TraceEvent> events = obs::SnapshotAllTraceEvents();
  bool saw_op = false, saw_span = false;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "RingOp") {
      saw_op = true;
    }
    if (std::string(e.name) == "RingSpan") {
      saw_span = true;
      EXPECT_GE(e.end_ns, e.begin_ns);
      EXPECT_NE(e.op_id, 0u);
    }
  }
  EXPECT_TRUE(saw_op);
  EXPECT_TRUE(saw_span);
  obs::SetTracing(false);
  obs::ClearTraceEvents();
}

TEST(OpContextTest, RingSurvivesManyEventsFromManyThreads) {
  obs::SetTracing(true);
  obs::ClearTraceEvents();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 3000; ++i) {  // More events than one ring holds.
        obs::OpScope op("Churn");
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  std::vector<obs::TraceEvent> events = obs::SnapshotAllTraceEvents();
  EXPECT_GT(events.size(), 0u);
  for (const obs::TraceEvent& e : events) {
    EXPECT_STREQ(e.name, "Churn");
  }
  obs::SetTracing(false);
  obs::ClearTraceEvents();
}

TEST(OpContextTest, SnapshotWhileThreadsPushSeesOnlyWholeEvents) {
  obs::SetTracing(true);
  obs::ClearTraceEvents();
  std::atomic<bool> done{false};
  std::atomic<uint64_t> pushed{0};
  std::vector<std::thread> pushers;
  for (int t = 0; t < 2; ++t) {
    pushers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        { obs::OpScope op("Pushed"); }
        pushed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Snapshot until the pushers have lapped their rings several times and a few snapshots
  // have returned events (bounded: a loaded machine may starve either side for a while).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  size_t snapshots = 0;
  size_t seen = 0;
  size_t torn = 0;
  while ((pushed.load(std::memory_order_relaxed) < 16 * obs::TraceRing::kCapacity ||
          snapshots < 20) &&
         std::chrono::steady_clock::now() < deadline) {
    const std::vector<obs::TraceEvent> events = obs::SnapshotAllTraceEvents();
    snapshots += events.empty() ? 0 : 1;
    for (const obs::TraceEvent& e : events) {
      ++seen;
      if (std::string(e.name) != "Pushed" || e.op_id == 0 || e.end_ns < e.begin_ns ||
          e.depth != 0) {
        ++torn;
      }
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : pushers) {
    t.join();
  }
  EXPECT_GT(seen, 0u);
  EXPECT_EQ(torn, 0u) << "a snapshot returned an event mixing two pushes";
  obs::SetTracing(false);
  obs::ClearTraceEvents();
}

// ---------------------------------------------------------------------------
// PersistSpan
// ---------------------------------------------------------------------------

class PersistSpanTest : public ::testing::Test {
 protected:
  PersistSpanTest() : pool_(16), stats_("spantest") {}

  uint64_t* Word() { return reinterpret_cast<uint64_t*>(pool_.PageAddress(1)); }

  NvmPool pool_;
  obs::PersistStats stats_;
};

TEST_F(PersistSpanTest, FenceWithNothingPendingIsCoalesced) {
  const uint64_t fences_before = pool_.stats().fences.load();
  {
    obs::PersistSpan span(pool_, &stats_);
    span.Fence();  // Nothing pending: skipped.
    span.Fence();
  }
  EXPECT_EQ(pool_.stats().fences.load(), fences_before);
  EXPECT_EQ(stats_.fences.load(), 0u);
  EXPECT_EQ(stats_.coalesced_fences.load(), 2u);
}

TEST_F(PersistSpanTest, PersistThenFenceIssuesExactlyOne) {
  const uint64_t fences_before = pool_.stats().fences.load();
  {
    obs::PersistSpan span(pool_, &stats_);
    span.Persist(Word(), 64);
    EXPECT_TRUE(span.pending());
    span.Fence();
    EXPECT_FALSE(span.pending());
    span.Fence();  // Second fence has nothing pending: coalesced.
  }
  EXPECT_EQ(pool_.stats().fences.load(), fences_before + 1);
  EXPECT_EQ(stats_.persists.load(), 1u);
  EXPECT_EQ(stats_.bytes_persisted.load(), 64u);
  EXPECT_EQ(stats_.fences.load(), 1u);
  EXPECT_EQ(stats_.coalesced_fences.load(), 1u);
}

TEST_F(PersistSpanTest, DestructorFencesPendingPersists) {
  const uint64_t fences_before = pool_.stats().fences.load();
  {
    obs::PersistSpan span(pool_, &stats_);
    span.Persist(Word(), 8);
    // No explicit Fence: the destructor must close the span.
  }
  EXPECT_EQ(pool_.stats().fences.load(), fences_before + 1);
  EXPECT_EQ(stats_.fences.load(), 1u);
}

TEST_F(PersistSpanTest, DisarmTransfersFenceDutyAndForceFenceTakesIt) {
  const uint64_t fences_before = pool_.stats().fences.load();
  {
    obs::PersistSpan worker(pool_, &stats_);
    worker.Persist(Word(), 8);
    worker.Disarm();  // Last-completer protocol: someone else fences for us.
  }
  EXPECT_EQ(pool_.stats().fences.load(), fences_before);
  {
    obs::PersistSpan completer(pool_, &stats_);
    completer.ForceFence();  // Fences on behalf of the disarmed span.
  }
  EXPECT_EQ(pool_.stats().fences.load(), fences_before + 1);
}

TEST_F(PersistSpanTest, CommitStore64StoresPersistsAndFences) {
  const uint64_t fences_before = pool_.stats().fences.load();
  {
    obs::PersistSpan span(pool_, &stats_);
    span.CommitStore64(Word(), 0xabcdefu);
  }
  EXPECT_EQ(pool_.Load64(Word()), 0xabcdefu);
  EXPECT_EQ(pool_.stats().fences.load(), fences_before + 1);
  EXPECT_EQ(stats_.commit_stores.load(), 1u);
  EXPECT_EQ(stats_.fences.load(), 1u);
}

TEST_F(PersistSpanTest, AttributesToCurrentOpWhenTracing) {
  obs::SetTracing(true);
  {
    obs::OpScope op("PersistOp");
    obs::OpContext* ctx = obs::OpContext::Current();
    ASSERT_NE(ctx, nullptr);
    obs::PersistSpan span(pool_, &stats_);
    span.Persist(Word(), 128);
    span.Fence();
    EXPECT_EQ(ctx->counters.bytes_persisted.load(), 128u);
    EXPECT_EQ(ctx->counters.fences.load(), 1u);
  }
  obs::SetTracing(false);
  obs::ClearTraceEvents();
}

// ---------------------------------------------------------------------------
// Enforcement: no direct persistence-primitive calls outside src/nvm
// ---------------------------------------------------------------------------

TEST(PersistSpanEnforcementTest, NoDirectPersistCallsOutsideNvmAndSpans) {
  // Every Persist/PersistNow/Fence/CommitStore64 call in the file-system layers must go
  // through obs::PersistSpan so fence accounting and per-op attribution cannot drift.
  // The span itself (src/obs) and the pool implementation (src/nvm) are the only homes of
  // the primitives; sim/attack tooling and tests drive the pool deliberately and are out
  // of scope.
  const std::filesystem::path root(TRIO_SOURCE_DIR);
  ASSERT_TRUE(std::filesystem::exists(root / "src")) << root;
  const std::vector<std::string> enforced = {"src/libfs", "src/core", "src/kernel",
                                             "src/kvfs", "src/baselines"};
  // An identifier receiver followed by one of the primitives. PersistSpan temporaries
  // (`obs::PersistSpan(...).CommitStore64(...)`) do not match: the receiver there is a
  // closing parenthesis, not an identifier.
  const std::regex direct_call(
      R"((\w+)\s*(\.|->)\s*(PersistNow|Persist|Fence|CommitStore64)\s*\()");
  std::vector<std::string> violations;
  for (const std::string& dir : enforced) {
    for (const auto& entry : std::filesystem::recursive_directory_iterator(root / dir)) {
      const std::string ext = entry.path().extension().string();
      if (!entry.is_regular_file() || (ext != ".cc" && ext != ".h")) {
        continue;
      }
      std::ifstream in(entry.path());
      std::string line;
      size_t lineno = 0;
      while (std::getline(in, line)) {
        ++lineno;
        std::smatch match;
        if (!std::regex_search(line, match, direct_call)) {
          continue;
        }
        const std::string receiver = match[1].str();
        // Calls THROUGH a span are the sanctioned path.
        if (receiver.find("span") != std::string::npos ||
            receiver.find("Span") != std::string::npos) {
          continue;
        }
        violations.push_back(entry.path().string() + ":" + std::to_string(lineno) + ": " +
                             match[0].str());
      }
    }
  }
  EXPECT_TRUE(violations.empty()) << [&] {
    std::string all = "direct persistence calls found:\n";
    for (const std::string& v : violations) {
      all += "  " + v + "\n";
    }
    return all;
  }();
}

}  // namespace
}  // namespace trio
