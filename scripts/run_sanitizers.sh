#!/usr/bin/env bash
# Builds the concurrency-heavy test binaries (the Parker park/wake primitive, the seqlock,
# delegation pool, callback watchdog, crash explorer, op-ring drainer, multi-tenant
# schedule explorer, fuzz corpus, fleet, trace ring, MMU page tables, ownership tables,
# shard locks, verifier scratch and kept chains, dirent publish word, map-epoch readers and
# chain generations, BRAVO reader fast path, minildb's memtable arena and reused block
# buffers) under
# ThreadSanitizer and under AddressSanitizer with UndefinedBehaviorSanitizer, and runs a
# smoke subset of each.
#
# Usage: scripts/run_sanitizers.sh [thread|address] [--adversarial]
#   (no sanitizer: both, thread first)
#   --adversarial: run the FULL schedule-explorer, fuzz-corpus, and integrity sweeps
#   instead of the smoke subsets — the scheduled CI job's deep pass.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
adversarial=0
sanitizers=()
for arg in "$@"; do
  case "$arg" in
    --adversarial) adversarial=1 ;;
    thread|address) sanitizers+=("$arg") ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done
if [[ ${#sanitizers[@]} -eq 0 ]]; then
  sanitizers=(thread address)
fi

# Smoke subsets: the full suites pass too, but these filters keep a two-sanitizer sweep
# under a few minutes on one CPU while still exercising every thread-crossing path
# (parking/wakeup/stealing, worker-fault retry, watchdog abandonment, explorer reboots,
# tenant interleaving, verify-and-quarantine).
delegation_filter='DelegationFaultTest.*:DelegationTest.ConcurrentStandaloneSubmitsFromManyThreads:DelegationTest.*Park*:DelegationTest.*Steal*:DelegationTest.*Batch*'
explorer_filter='FaultSimKernelTest.*:CrashExplorerTest.AppendHeavyWorkloadCleanAtEveryFence'
# Every OpRingTest crosses the submitter/drainer boundary (SPSC rings, park/wake, epoch
# close before CQE post) — exactly what TSan needs to see; SpscRingTest adds the raw
# two-thread ring in isolation, ParkerTest the park/wake primitive the delegation pool
# and the drainer share, SeqlockTest the seqlock behind the promote cache and the trace
# ring, and BravoRwLockTest the LibFS inode lock's reader fast path and the readers that
# turn its bias back on (a writer-only lock scans once; readers between writers scan as
# before).
ring_filter='OpRingTest.*'
common_filter='SpscRingTest.*:ParkerTest.*:SeqlockTest.*:BravoRwLockTest.*'
# Schedule explorer smoke: determinism + a full clean sweep (both tenants, crash points);
# fuzz smoke: one seed variant of every corruption class plus the verifier/quarantine
# bounds tests.
schedule_filter='ScheduleExplorerTest.GeneratorIsDeterministicAndBounded:ScheduleExplorerTest.CleanKernelSweepsClean'
fuzz_filter='*FuzzCorpusTest*_v0:VerifierBoundsTest.*:QuarantineBoundsTest.*'
# Fleet suite: 64 tenants over the sharded controller, concurrent cross-shard renames,
# revoke/force-release canaries, cross-shard forgeries — the shard refactor's
# thread-crossing paths. Small enough to run whole under both sanitizers.
fleet_filter='FleetTest.*'
# Tier suite: background digestion thread vs grants, promote-cache seqlock reads, the
# LeaseCache refill worker, and the digestion crash sweep. Small enough to run whole.
tier_filter='TierTest.*'
# Callback watchdog in isolation: caller/helper handoff per affinity pool, nested guarded
# calls, and a hung callback abandoned at its deadline while its helper keeps running;
# then the kernel's side: a write grant drops a file's readers with no upcall, a hung
# writer is forced at its lease plus grace, and a hung reader callback delays nobody.
watchdog_filter='CallbackGuardTest.*:KernelTest.WriteOverReadersDropsThemWithoutAnUpcall:KernelRevokeTest.*'
# Per-LibFS MMU page tables: lock-free refcounts under four threads, plus the kernel's
# check for unknown LibFSes and pages.
mmu_filter='MmuSimTest.*:KernelTest.MmuCheckIsFalseForAnUnknownLibFsOrPage'
# Ownership tables: lock-free state reads while four LibFSes lease and free, and page
# numbers and inos past the tables.
ownership_filter='KernelTest.OwnershipReadsSeeOnlyStoredStatesWhileLeasesChurn:KernelBoundsTest.*'
# Shard locks: a ShardLock and an OrderedShardSpan that find a mutex held while another
# thread holds it count one contended acquisition, and a rank-order violation aborts.
shard_filter='ShardLockTest.*:OrderedShardSpanTest.*:ShardRankDeathTest.*'
# Verifier scratch: a 3,000-entry directory's duplicate checks, the checkpoint diff, and
# two threads verifying at once; the chain copies a walk keeps and compares against.
verifier_filter='VerifierLargeDirTest.*:VerifierDirTest.CheckpointDiffListsEveryRemovedChild:VerifierDirTest.TwoThreadsVerifyingDifferentDirectoriesGetTheirOwnReports:VerifierCompareTest.*'
# Dirent ino publish word: a committer toggles a slot's ino while the verifier and a
# LibFS's aux rebuild scan its page. Map epochs: a read grant dropped mid-op reruns the op
# after the writer is verified, and an upgrade after a drop rebuilds before it writes.
# Chain generations: a reader keeps its radix across a drop, and one whose rebuild raced a
# write grant (revoked on the guard's helper thread) rebuilds at its next map. Renames: a
# moved file's claim and its transit, with another LibFS's revokes run on the guard's
# helper thread. Commit: one thread commits while another truncates and extends.
arckfs_filter='ArckFsTest.DirentScansLoadTheWordsTheCommitterPublishes:ArckFsTest.ReadDroppedMidOpRunsAgainAfterTheWriterIsVerified:ArckFsTest.UpgradeAfterADroppedReadRebuildsBeforeWriting:ArckFsTest.ReaderKeepsItsRadixWhenTheWriterChangedNoIndexPage:ArckFsGenerationTest.*:ArckFsTest.ARenameWithinADirectoryMovesTheFileToItsNewSlot:ArckFsTest.AFileMoved*:ArckFsTest.TwoMovesBeforeEitherDirectoryIsVerifiedLeaveTheFileAtItsNewSlot:ArckFsTest.ACommitRacingATruncateFreesNoPageTheFileLinksAgain'
# Readers in two LibFSes overlap a third's writes. Their copies of NVM bytes race the
# writer's by design (on hardware those loads fault; the end-of-op epoch check discards
# them), so this runs in the address sweep only.
overlap_filter='ArckFsTest.OverlappingReadersReturnOnlyWholeCommittedBlocks'
# Trace ring seqlock: snapshots taken while other threads push. Stat slabs: threads bump
# their own cells while others sum, reset, exit, or replace the group they cache.
obs_filter='OpContextTest.SnapshotWhileThreadsPush*:StatSlabTest.*'
# minildb: arena lifetimes (memtable views, overwritten values, blocks freed at flush) and
# the string_views into the block buffers a table reader and compaction cursors reuse.
# The whole suite: about 10 s under ASan and 2 min under TSan, mostly spent zeroing each
# test's pool.
minildb_filter='*'
targets=(delegation_test crash_explorer_test op_ring_test common_test
         schedule_explorer_test fuzz_corpus_test fleet_test tier_test kernel_test obs_test
         verifier_test arckfs_test minildb_test)
if [[ $adversarial -eq 1 ]]; then
  schedule_filter='*'
  fuzz_filter='*'
  explorer_filter='*'
  targets+=(integrity_test)
fi

for san in "${sanitizers[@]}"; do
  build="$repo/build-$san"
  echo "== TRIO_SANITIZE=$san: configuring $build =="
  cmake -B "$build" -S "$repo" -DTRIO_SANITIZE="$san" >/dev/null
  cmake --build "$build" -j2 --target "${targets[@]}"

  echo "== TRIO_SANITIZE=$san: delegation_test =="
  "$build/tests/delegation_test" --gtest_filter="$delegation_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: crash_explorer_test =="
  "$build/tests/crash_explorer_test" --gtest_filter="$explorer_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: op_ring_test =="
  "$build/tests/op_ring_test" --gtest_filter="$ring_filter" --gtest_brief=1
  "$build/tests/common_test" --gtest_filter="$common_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: schedule_explorer_test =="
  "$build/tests/schedule_explorer_test" --gtest_filter="$schedule_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: fuzz_corpus_test =="
  "$build/tests/fuzz_corpus_test" --gtest_filter="$fuzz_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: fleet_test =="
  "$build/tests/fleet_test" --gtest_filter="$fleet_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: tier_test =="
  "$build/tests/tier_test" --gtest_filter="$tier_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: kernel_test (callback watchdog, reader drops, writer revoke) =="
  "$build/tests/kernel_test" --gtest_filter="$watchdog_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: kernel_test (MMU page tables) =="
  "$build/tests/kernel_test" --gtest_filter="$mmu_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: kernel_test (ownership tables) =="
  "$build/tests/kernel_test" --gtest_filter="$ownership_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: kernel_test (shard locks) =="
  "$build/tests/kernel_test" --gtest_filter="$shard_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: verifier_test (verification scratch) =="
  "$build/tests/verifier_test" --gtest_filter="$verifier_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: arckfs_test (dirent ino publish, map epochs, renames, commit) =="
  arckfs_run="$arckfs_filter"
  if [[ $san == address ]]; then
    arckfs_run+=":$overlap_filter"
  fi
  "$build/tests/arckfs_test" --gtest_filter="$arckfs_run" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: obs_test (trace ring, stat slabs) =="
  "$build/tests/obs_test" --gtest_filter="$obs_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: minildb_test (arena, block buffers) =="
  "$build/tests/minildb_test" --gtest_filter="$minildb_filter" --gtest_brief=1

  if [[ $adversarial -eq 1 ]]; then
    echo "== TRIO_SANITIZE=$san: integrity_test (full corruption sweep) =="
    "$build/tests/integrity_test" --gtest_brief=1
  fi
done

echo "== sanitizer sweep passed: ${sanitizers[*]} (adversarial=$adversarial) =="
