// §6.5 "Metadata Integrity and Sharing Cost" harness:
//   * runs the eleven handcrafted attacks and the scripted corruption sweep, reporting
//     detection + recovery for each (the paper: "In all the test cases, the integrity
//     verifier can detect the corruption, and the kernel controller can restore the
//     corrupted file to a consistent state");
//   * measures verification latency against file size — the paper reports "several to
//     hundreds of microseconds for medium-sized files" — for a commit after a chain change
//     (a full walk) and after none (a comparison with the chain the last commit kept).

#include <functional>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/attacks/attacks.h"
#include "src/baselines/fs_factory.h"
#include "src/kernel/controller.h"

namespace trio {
namespace bench {
namespace {

struct Stack {
  std::unique_ptr<NvmPool> pool;
  std::unique_ptr<KernelController> kernel;
  std::unique_ptr<ArckFs> victim;
  std::unique_ptr<MaliciousLibFs> attacker;
};

Stack MakeStack(size_t pool_pages = 1 << 15) {
  Stack s;
  s.pool = std::make_unique<NvmPool>(pool_pages);
  FormatOptions format;
  format.max_inodes = 1 << 16;
  TRIO_CHECK_OK(Format(*s.pool, format));
  s.kernel = std::make_unique<KernelController>(*s.pool);
  TRIO_CHECK_OK(s.kernel->Mount());
  s.victim = std::make_unique<ArckFs>(*s.kernel);
  s.attacker = std::make_unique<MaliciousLibFs>(*s.kernel);
  return s;
}

void PrepareTarget(Stack& s, const std::string& path, size_t size) {
  Result<Fd> fd = s.victim->Open(path, OpenFlags::CreateTrunc());
  TRIO_CHECK(fd.ok());
  std::string data(size, 'd');
  TRIO_CHECK(s.victim->Pwrite(*fd, data.data(), data.size(), 0).ok());
  TRIO_CHECK_OK(s.victim->Close(*fd));
  TRIO_CHECK_OK(s.victim->ReleaseFile(path));
  TRIO_CHECK_OK(s.victim->ReleaseFile("/"));
}

void AttackSuite() {
  Table table("§6.5: handcrafted malicious-LibFS attacks");
  table.SetHeader({"attack", "applied", "detected", "recovered"});

  struct AttackCase {
    const char* name;
    Status (*run)(Stack&);
  };
  auto run_simple = [](Stack& s, Status applied,
                       const std::string& release_path) -> std::pair<Status, Status> {
    if (!applied.ok()) {
      return {applied, applied};
    }
    return {applied, s.attacker->ReleaseTarget(release_path)};
  };

  const AttackCase cases[] = {
      {"1 index->DRAM pointer", [](Stack& s) { return s.attacker->AttackPointIndexOutside("/t"); }},
      {"3 '/' in file name", [](Stack& s) { return s.attacker->AttackSlashInName("/t"); }},
      {"4 index-page cycle", [](Stack& s) { return s.attacker->AttackIndexCycle("/t"); }},
      {"6 double page reference", [](Stack& s) { return s.attacker->AttackDoubleReference("/t"); }},
      {"7 permission escalation", [](Stack& s) { return s.attacker->AttackPermissionEscalation("/t"); }},
      {"8 size > capacity", [](Stack& s) { return s.attacker->AttackSizeBeyondCapacity("/t"); }},
      {"10 invalid file type", [](Stack& s) { return s.attacker->AttackInvalidType("/t"); }},
      {"11 reserved-bytes payload", [](Stack& s) { return s.attacker->AttackReservedBytes("/t"); }},
  };
  for (const AttackCase& attack : cases) {
    Stack s = MakeStack();
    PrepareTarget(s, "/t", 8192);
    auto [applied, released] = run_simple(s, attack.run(s), "/t");
    const bool recovered = [&] {
      Result<Fd> fd = s.victim->Open("/t", OpenFlags::ReadOnly());
      if (!fd.ok()) {
        return false;
      }
      char buf[8];
      const bool ok = s.victim->Pread(*fd, buf, 8, 0).ok();
      (void)s.victim->Close(*fd);
      return ok;
    }();
    table.AddRow({attack.name, applied.ok() ? "yes" : applied.ToString(),
                  released.Is(ErrorCode::kCorrupted) ? "yes" : "NO",
                  recovered ? "yes" : "NO"});
  }

  // Attacks 2 and 5 target directories; attack 9 needs a foreign file.
  {
    Stack s = MakeStack();
    TRIO_CHECK_OK(s.victim->Mkdir("/dir"));
    PrepareTarget(s, "/dir/child", 128);
    TRIO_CHECK_OK(s.victim->ReleaseFile("/dir"));
    Status applied = s.attacker->AttackRemoveNonEmptyDir("/dir");
    Status released = s.attacker->ReleaseTarget("/");
    table.AddRow({"2 remove non-empty dir", applied.ok() ? "yes" : applied.ToString(),
                  released.Is(ErrorCode::kCorrupted) ? "yes" : "NO",
                  s.victim->Stat("/dir/child").ok() ? "yes" : "NO"});
  }
  {
    Stack s = MakeStack();
    TRIO_CHECK_OK(s.victim->Mkdir("/dups"));
    PrepareTarget(s, "/dups/a", 64);
    PrepareTarget(s, "/dups/b", 64);
    TRIO_CHECK_OK(s.victim->ReleaseFile("/dups"));
    Status applied = s.attacker->AttackDuplicateName("/dups");
    Status released = s.attacker->ReleaseTarget("/dups");
    table.AddRow({"5 duplicate names", applied.ok() ? "yes" : applied.ToString(),
                  released.Is(ErrorCode::kCorrupted) ? "yes" : "NO",
                  s.victim->Stat("/dups/a").ok() && s.victim->Stat("/dups/b").ok()
                      ? "yes"
                      : "NO"});
  }
  {
    Stack s = MakeStack();
    PrepareTarget(s, "/mine", 4096);
    PrepareTarget(s, "/theirs", 4096);
    Result<StatInfo> info = s.victim->Stat("/theirs");
    PageNumber foreign = 0;
    for (PageNumber p = FileRegionStart(*s.pool); p < s.pool->num_pages(); ++p) {
      PageState state = s.kernel->StateOfPage(p);
      if (state.state == ResourceState::kOwned && state.owner == info->ino) {
        foreign = p;
        break;
      }
    }
    Status applied = s.attacker->AttackStealForeignPage("/mine", foreign);
    Status released = s.attacker->ReleaseTarget("/mine");
    table.AddRow({"9 steal foreign page", applied.ok() ? "yes" : applied.ToString(),
                  released.Is(ErrorCode::kCorrupted) ? "yes" : "NO",
                  s.victim->Stat("/theirs").ok() ? "yes" : "NO"});
  }
  table.Print();
}

void ScriptedSweep() {
  int detected = 0;
  int total = 0;
  for (size_t scenario = 0; scenario < CorruptionScenarioCount(); ++scenario) {
    for (uint64_t seed = 0; seed < 8; ++seed) {
      Stack s = MakeStack();
      const std::string name = CorruptionScenarioName(scenario);
      std::string path = "/sweep";
      if (name == "dir_size_nonzero") {
        TRIO_CHECK_OK(s.victim->Mkdir("/sweepdir"));
        PrepareTarget(s, "/sweepdir/x", 64);
        TRIO_CHECK_OK(s.victim->ReleaseFile("/sweepdir"));
        path = "/sweepdir";
      } else {
        PrepareTarget(s, path, 2 * kPageSize);
      }
      if (!ApplyScriptedCorruption(*s.attacker, path, scenario, seed).ok()) {
        continue;
      }
      ++total;
      detected += s.attacker->ReleaseTarget(path).Is(ErrorCode::kCorrupted) ? 1 : 0;
    }
  }
  std::printf("\nScripted corruption sweep: %d/%d scenarios detected and recovered "
              "(paper: 134/134)\n",
              detected, total);
}

// Mean verify time of `path`'s commits: `path` is write-mapped by s.victim and committed
// once first; `before_commit(i)` runs ahead of the i-th timed commit.
double CommitVerifyUs(Stack& s, const std::string& path,
                      const std::function<void(int)>& before_commit) {
  TRIO_CHECK_OK(s.victim->Commit(path));
  s.kernel->stats().Reset();
  constexpr int kIterations = 20;
  for (int i = 0; i < kIterations; ++i) {
    before_commit(i);
    TRIO_CHECK_OK(s.victim->Commit(path));
  }
  return s.kernel->stats().verify_ns.load() / 1e3 /
         std::max<uint64_t>(1, s.kernel->stats().verifications.load());
}

// A commit after a chain change walks the whole chain; one after none compares the chain
// with the one the previous commit kept.
void VerifierLatency() {
  Table table("Verification latency vs file size (§6.5: 'several to hundreds of us')");
  table.SetHeader({"file", "verify us/op, chain changed", "verify us/op, unchanged"});
  for (size_t size : {4u << 10, 64u << 10, 1u << 20, 16u << 20}) {
    Stack s = MakeStack(1 << 16);
    PrepareTarget(s, "/f", size);
    Result<Fd> fd = s.victim->Open("/f", OpenFlags::ReadWrite());
    TRIO_CHECK(fd.ok());
    char byte = 'x';
    TRIO_CHECK(s.victim->Pwrite(*fd, &byte, 1, 0).ok());
    // Extend by one page and truncate back, alternately.
    const double changed = CommitVerifyUs(s, "/f", [&](int i) {
      if (i % 2 == 0) {
        TRIO_CHECK(s.victim->Pwrite(*fd, &byte, 1, size).ok());
      } else {
        TRIO_CHECK_OK(s.victim->Ftruncate(*fd, size));
      }
    });
    const double unchanged = CommitVerifyUs(s, "/f", [](int) {});
    table.AddRow({std::to_string(size >> 10) + " KiB", Fmt(changed, 1), Fmt(unchanged, 1)});
    TRIO_CHECK_OK(s.victim->Close(*fd));
  }
  // A directory's verification always walks every dirent (its data pages carry children's
  // size and mtime): I1 fields, duplicate names and inos, and each child's ownership and
  // shadow inode. Its change is a create or an unlink, alternately.
  for (int entries : {64, 1024, 16384}) {
    Stack s = MakeStack(1 << 16);
    TRIO_CHECK_OK(s.victim->Mkdir("/d"));
    for (int i = 0; i < entries; ++i) {
      Result<Fd> fd = s.victim->Open("/d/f" + std::to_string(i), OpenFlags::CreateTrunc());
      TRIO_CHECK(fd.ok());
      TRIO_CHECK_OK(s.victim->Close(*fd));
    }
    const double changed = CommitVerifyUs(s, "/d", [&](int i) {
      if (i % 2 == 0) {
        Result<Fd> fd = s.victim->Open("/d/extra", OpenFlags::CreateTrunc());
        TRIO_CHECK(fd.ok());
        TRIO_CHECK_OK(s.victim->Close(*fd));
      } else {
        TRIO_CHECK_OK(s.victim->Unlink("/d/extra"));
      }
    });
    const double unchanged = CommitVerifyUs(s, "/d", [](int) {});
    table.AddRow({"dir, " + std::to_string(entries) + " entries", Fmt(changed, 1),
                  Fmt(unchanged, 1)});
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace trio

int main() {
  std::printf("§6.5 reproduction: metadata integrity under attack [measured]\n");
  trio::bench::AttackSuite();
  trio::bench::ScriptedSweep();
  trio::bench::VerifierLatency();
  trio::bench::EmitLayerStats("bench_integrity");
  return 0;
}
