// Malicious-LibFS attack library (§6.5). A malicious application links a LibFS it fully
// controls, so it can issue arbitrary stores to any NVM page the MMU lets it write — but
// *only* those pages. MaliciousLibFs models exactly that: it drives ArckFS normally to
// obtain mappings, then scribbles on the mapped core state directly (every raw store is
// checked against MmuSim, as the hardware MMU would).
//
// The eleven handcrafted attacks from the paper's evaluation (§6.5, §2.3.2) are provided,
// plus a scripted corruption generator that fuzzes every field the integrity verifier
// checks — the "134 corruption scenarios" sweep.

#ifndef SRC_ATTACKS_ATTACKS_H_
#define SRC_ATTACKS_ATTACKS_H_

#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/libfs/arckfs.h"

namespace trio {

class MaliciousLibFs : public ArckFs {
 public:
  using ArckFs::ArckFs;

  // Write-maps `path` through the normal protocol and returns its dirent. From here on
  // the attacker uses raw stores.
  Result<DirentBlock*> MapTarget(const std::string& path);

  // A raw attacker store: dies (returns false) if the MMU would fault.
  bool RawStore(void* dst, const void* src, size_t len);
  bool RawStore64(uint64_t* dst, uint64_t value);

  // Releases the file so the kernel verifies it; returns the unmap status (kCorrupted
  // when the attack is detected).
  Status ReleaseTarget(const std::string& path);

  NvmPool& raw_pool() { return pool_; }
  KernelController& raw_kernel() { return kernel_; }

  // ---- The handcrafted attacks (§6.5). Each corrupts the mapped core state of `path`
  // (or its parent directory) and returns whether the raw stores landed (i.e. the MMU
  // permitted them; detection is observed via ReleaseTarget). ----

  // (1) "modifies pointers in index pages to point to DRAM data": index entry -> a page
  // number outside anything this file owns (memory-based exploitation, §2.3.2).
  Status AttackPointIndexOutside(const std::string& path);
  // (2) "removes a non-empty directory".
  Status AttackRemoveNonEmptyDir(const std::string& dir_path);
  // (3) "creates file names containing '/' to trick another LibFS".
  Status AttackSlashInName(const std::string& path);
  // (4) "causes loops within a file's index pages".
  Status AttackIndexCycle(const std::string& path);
  // (5) Duplicate file names within one directory (semantic attack, §2.3.2).
  Status AttackDuplicateName(const std::string& dir_path);
  // (6) Double-reference: one data page linked at two offsets of the same file.
  Status AttackDoubleReference(const std::string& path);
  // (7) Permission escalation: rewrite the cached mode/uid in the dirent (I4).
  Status AttackPermissionEscalation(const std::string& path);
  // (8) File size beyond the index chain's capacity.
  Status AttackSizeBeyondCapacity(const std::string& path);
  // (9) Steal a page that belongs to another file (cross-file double reference).
  Status AttackStealForeignPage(const std::string& path, PageNumber foreign_page);
  // (10) Invalid file type bits.
  Status AttackInvalidType(const std::string& path);
  // (11) Hidden payload in reserved dirent bytes.
  Status AttackReservedBytes(const std::string& path);

  // ---- Cross-shard trust-boundary attacks: the controller's per-inode shard map means
  // a directory and a child it claims usually live under DIFFERENT shard locks; these
  // forge directory state whose validation reads another shard (the old parent's writer,
  // IsWriteHeldBy) or applies across shards (ApplyReport), probing that sharding did not
  // open seams the one-big-mutex controller never had. ----

  // (12) Forge a dirent in an attacker-owned directory claiming the file at
  // `victim_path` — a file whose real parent the attacker does NOT write-map. The
  // forged fields copy the shadow inode exactly, so only the cross-directory ownership
  // check (I2, evaluated across two shards) can catch it.
  Status AttackCrossShardForeignClaim(const std::string& dir_path,
                                      const std::string& victim_path);
  // (13) Permission lift smuggled through a "legitimate" rename: the attacker DOES
  // write-map the victim's parent (so the cross-directory move is permitted), but the
  // forged dirent lifts the cached mode/uid. I4 must hold for moved-in children too —
  // a rename is not a chmod.
  Status AttackMovedInPermissionLift(const std::string& dir_path,
                                     const std::string& victim_path);

  // Shared plumbing for the cross-shard forgeries: snapshot a victim's dirent (read- or
  // write-mapping its parent), and raw-store a crafted dirent into a free slot of an
  // attacker-owned directory.
  Result<DirentBlock> ReadVictimDirent(const std::string& victim_path,
                                       bool write_map_parent);
  Status ForgeChildClaim(const std::string& dir_path, const DirentBlock& forged);

  // Direct access outside any grant must fault: returns true if the MMU blocked it.
  bool ProbeUnmappedPageFaults();
};

// One scripted corruption: a name for diagnostics and whether it must be detected.
struct CorruptionScenario {
  std::string name;
  uint64_t seed = 0;
};

// Applies scripted corruption `scenario_index` (of CorruptionScenarioCount()) to the
// write-mapped file at `path`, seeded by `seed`. Mirrors §6.5: "for each integrity check
// in the verifier, we create an automated script to corrupt the relevant metadata with,
// say, a random value."
size_t CorruptionScenarioCount();
std::string CorruptionScenarioName(size_t scenario_index);
Status ApplyScriptedCorruption(MaliciousLibFs& attacker, const std::string& path,
                               size_t scenario_index, uint64_t seed);

}  // namespace trio

#endif  // SRC_ATTACKS_ATTACKS_H_
