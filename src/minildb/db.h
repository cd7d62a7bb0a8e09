// MiniDb: the LSM key-value store standing in for LevelDB in the Table 5 experiments
// (see DESIGN.md "Substitutions"). Same structure as LevelDB: writes append to a WAL and
// land in a skiplist memtable; full memtables flush to L0 SSTables; L0 files (searched
// newest-first) compact into a sorted L1 run when they pile up; reads check memtable ->
// L0 (newest first) -> L1 with bloom filters. Everything persists through an FsInterface,
// so the same database runs over ArckFS or any baseline.

#ifndef SRC_MINILDB_DB_H_
#define SRC_MINILDB_DB_H_

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/minildb/skiplist.h"
#include "src/minildb/sstable.h"

namespace trio {

struct MiniDbOptions {
  std::string dir = "/db";
  size_t memtable_bytes = 1 << 20;  // Flush threshold.
  size_t l0_compaction_trigger = 4;
  bool sync_wal = false;  // fsync the WAL after every write (fillsync).
};

struct MiniDbStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t deletes = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t wal_bytes = 0;
};

class MiniDb {
 public:
  static Result<std::unique_ptr<MiniDb>> Open(FsInterface& fs, MiniDbOptions options);
  ~MiniDb();

  Status Put(const std::string& key, const std::string& value);
  Status Delete(const std::string& key);
  Result<std::string> Get(const std::string& key);

  // Force-flush the memtable (tests + clean shutdown).
  Status Flush();
  const MiniDbStats& stats() const { return stats_; }
  size_t L0Count() const { return level0_.size(); }
  size_t L1Count() const { return level1_.size(); }

 private:
  MiniDb(FsInterface& fs, MiniDbOptions options) : fs_(fs), options_(std::move(options)) {}

  Status Recover();
  Status ReplayWal(const std::string& path);
  Status WalAppend(uint8_t type, std::string_view key, std::string_view value);
  Status RotateWal();
  Status WriteInternal(std::string_view key, std::string_view value, bool deleted);
  // Stores the value behind its live/tombstone prefix; returns the bytes charged.
  size_t InsertLocked(std::string_view key, std::string_view value, bool deleted);
  Status MaybeFlushLocked();
  Status CompactLocked();
  std::string TablePath(uint64_t number) const;
  std::string WalPath(uint64_t number) const;

  FsInterface& fs_;
  MiniDbOptions options_;
  std::mutex mutex_;
  std::unique_ptr<SkipList> memtable_;
  size_t memtable_bytes_ = 0;
  std::string stored_;  // Reused prefix+value buffer for memtable inserts.
  Fd wal_fd_ = -1;
  std::string wal_record_;  // Reused WAL record buffer.
  uint64_t wal_offset_ = 0;
  uint64_t next_file_number_ = 1;
  uint64_t current_wal_ = 0;
  std::deque<std::unique_ptr<SsTableReader>> level0_;  // Newest first.
  std::vector<std::unique_ptr<SsTableReader>> level1_;  // Sorted, disjoint ranges.
  MiniDbStats stats_;
};

// Tombstone marker kept in the memtable (values never start with '\x01' headers because
// user values are stored with a 1-byte live prefix).
inline constexpr char kLivePrefix = 'L';
inline constexpr char kTombstonePrefix = 'T';

}  // namespace trio

#endif  // SRC_MINILDB_DB_H_
