// SimpleKernelFs: the in-kernel baseline file system engine (§6.1). One block-based
// engine provides the functional substrate for the ext4-, PMFS-, NOVA-, WineFS- and
// OdinFS-like baselines; a JournalMode selects the consistency mechanism each design is
// known for, which is what differentiates their metadata-write amplification and
// journal-lock contention:
//
//   kNone            PMFS-style: in-place updates with careful clwb/sfence ordering.
//   kGlobalJournal   ext4/jbd2-style: one shared undo journal (a global serialization
//                    point, like the jbd2 transaction lock).
//   kPerInodeLog     NOVA-style: the journal shard is picked by inode number.
//   kPerCpuJournal   WineFS-style: the journal shard is picked by the calling CPU.
//
// The engine is deliberately classic: fixed inode table, block bitmap, 64-byte dirents in
// directory blocks, 10 direct + 1 indirect + 1 double-indirect block pointers. It speaks
// an inode-number API; KernelFsAdapter adds VFS path resolution + locking on top.

#ifndef SRC_BASELINES_SIMPLE_KERNEL_FS_H_
#define SRC_BASELINES_SIMPLE_KERNEL_FS_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/spinlock.h"
#include "src/libfs/fs_interface.h"
#include "src/libfs/journal.h"
#include "src/nvm/nvm.h"

namespace trio {

enum class JournalMode { kNone, kGlobalJournal, kPerInodeLog, kPerCpuJournal };

struct KernelFsOptions {
  uint32_t max_inodes = 1 << 14;
  JournalMode journal_mode = JournalMode::kGlobalJournal;
};

class SimpleKernelFs {
 public:
  static constexpr Ino kKRootIno = 1;
  static constexpr size_t kDirectBlocks = 10;
  static constexpr size_t kPointersPerBlock = kPageSize / sizeof(uint64_t);

  struct KInode {
    uint32_t mode = 0;
    uint32_t uid = 0;
    uint64_t size = 0;
    int64_t mtime_ns = 0;
    uint32_t nlink = 0;  // 0 => free inode.
    uint32_t generation = 0;
    uint64_t direct[kDirectBlocks] = {};
    uint64_t indirect = 0;
    uint64_t dindirect = 0;
  };
  static_assert(sizeof(KInode) == 128);

  struct KDirent {
    uint64_t ino = 0;  // 0 => free.
    uint8_t name_len = 0;
    char name[55] = {};

    std::string_view Name() const { return std::string_view(name, name_len); }
  };
  static_assert(sizeof(KDirent) == 64);

  // Formats the pool with this engine's own layout (baselines do not share Trio's core
  // state) and returns a ready file system.
  static Status Format(NvmPool& pool, const KernelFsOptions& options);

  SimpleKernelFs(NvmPool& pool, const KernelFsOptions& options);

  // ---- Inode-number based operations (the VFS adapter resolves paths) ----
  Result<Ino> Lookup(Ino dir, std::string_view name);
  Result<Ino> Create(Ino dir, std::string_view name, uint32_t mode);
  Status Remove(Ino dir, std::string_view name, bool must_be_dir);
  Status Rename(Ino src_dir, std::string_view src_name, Ino dst_dir,
                std::string_view dst_name);
  Result<size_t> Read(Ino ino, void* buf, size_t count, uint64_t offset);
  Result<size_t> Write(Ino ino, const void* buf, size_t count, uint64_t offset);
  Status Truncate(Ino ino, uint64_t size);
  Result<StatInfo> Stat(Ino ino);
  Result<std::vector<DirEntryInfo>> List(Ino dir);
  Status Chmod(Ino ino, uint32_t perm);

  KInode* InodeOf(Ino ino);
  NvmPool& pool() { return pool_; }
  uint64_t journal_bytes() const { return journal_bytes_.load(std::memory_order_relaxed); }

 private:
  struct KSuper {
    uint64_t magic;
    uint64_t total_pages;
    uint64_t inode_table_page;
    uint64_t max_inodes;
    uint64_t bitmap_page;
    uint64_t bitmap_pages;
    uint64_t journal_page;
    uint64_t journal_pages;
    uint64_t data_start;
  };
  static constexpr uint64_t kKMagic = 0x53494d504c454653ull;  // "SIMPLEFS"

  KSuper* Super() { return reinterpret_cast<KSuper*>(pool_.PageAddress(0)); }

  // Journal shard selection per the configured mode; nullptr when kNone.
  UndoJournal* ShardFor(Ino ino);

  Result<PageNumber> AllocBlock();
  void FreeBlock(PageNumber page);
  Result<Ino> AllocInode();
  void FreeInode(Ino ino);

  // Data-block address for logical block `index` of `inode`; allocates when `grow`.
  Result<PageNumber> BlockOf(KInode* inode, uint64_t index, bool grow);
  // Address of the mapping slot for logical block `index`, or nullptr when the slot's
  // containing pointer block doesn't exist. Never allocates.
  uint64_t* SlotOf(KInode* inode, uint64_t index);
  Status ForEachDirentBlock(KInode* dir,
                            const std::function<Status(KDirent*, size_t)>& fn);

  NvmPool& pool_;
  KernelFsOptions options_;
  obs::PersistStats persist_stats_{"baselines"};
  std::mutex alloc_mutex_;    // Bitmap + inode allocation (a global lock, as in ext4).
  std::mutex journal_mutex_;  // Global-journal mode only.
  std::vector<std::unique_ptr<UndoJournal>> journals_;
  uint64_t bitmap_cursor_ = 0;
  std::atomic<uint64_t> journal_bytes_{0};
};

}  // namespace trio

#endif  // SRC_BASELINES_SIMPLE_KERNEL_FS_H_
