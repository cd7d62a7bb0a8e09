// SSTable: the immutable on-FS sorted table format of minildb.
//
// Layout (all little-endian, lengths are uint32):
//   [data blocks]     repeated (klen vlen key value) entries, ~4 KiB per block
//   [index block]     per data block: (last_key_len last_key offset size)
//   [bloom filter]    BloomFilter bits over every key
//   [footer]          index_offset index_size bloom_offset bloom_size entry_count magic
//
// The builder streams entries a block at a time (LevelDB's TableBuilder); readers
// binary-search the in-memory index and search one data block in place per lookup
// (LevelDB's Block::Iter); a TableCursor streams a run of tables for compaction.

#ifndef SRC_MINILDB_SSTABLE_H_
#define SRC_MINILDB_SSTABLE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/libfs/fs_interface.h"

namespace trio {

// What a table holds for a key: its value, or a tombstone (deleted=true) that masks older
// tables until compaction drops it.
struct TableEntry {
  std::string value;
  bool deleted = false;
};

// Writes one table from entries added in strictly increasing key order.
class SsTableBuilder {
 public:
  static Result<std::unique_ptr<SsTableBuilder>> Create(FsInterface& fs,
                                                        const std::string& path);
  ~SsTableBuilder();  // Closes the file if Finish() did not.
  SsTableBuilder(const SsTableBuilder&) = delete;
  SsTableBuilder& operator=(const SsTableBuilder&) = delete;

  // Copies the entry into the current data block, writing the block out once it is full.
  Status Add(std::string_view key, std::string_view value, bool deleted);
  // Writes the last block, the index, the bloom filter and the footer; syncs and closes.
  Status Finish();

 private:
  SsTableBuilder(FsInterface& fs, Fd fd) : fs_(fs), fd_(fd) {}
  Status FlushBlock();

  FsInterface& fs_;
  Fd fd_;
  uint64_t offset_ = 0;
  std::string block_;
  std::string last_key_;  // Of the current block.
  std::string index_;
  std::vector<uint64_t> key_hashes_;
};

class SsTableReader {
 public:
  // Loads index + bloom into memory (the auxiliary state of the table).
  static Result<std::unique_ptr<SsTableReader>> Open(FsInterface& fs,
                                                     const std::string& path);
  ~SsTableReader();

  // kNotFound when the key is absent; a found tombstone yields deleted=true. Reads the one
  // block that can hold the key into a buffer this reader reuses, so calls on one reader
  // must not overlap (MiniDb makes them under its mutex).
  Result<TableEntry> Get(std::string_view key);

  const std::string& path() const { return path_; }
  const std::string& smallest() const { return smallest_; }
  const std::string& largest() const { return largest_; }
  uint64_t entry_count() const { return entry_count_; }

 private:
  friend class TableCursor;

  struct IndexEntry {
    std::string last_key;
    uint64_t offset;
    uint32_t size;
  };

  SsTableReader(FsInterface& fs, std::string path) : fs_(fs), path_(std::move(path)) {}
  Status Load();
  // Replaces `*buffer` with the bytes of one data block.
  Status ReadBlock(const IndexEntry& index, std::string* buffer);

  FsInterface& fs_;
  std::string path_;
  Fd fd_ = -1;
  std::vector<IndexEntry> index_;
  std::string bloom_;
  std::string smallest_;
  std::string largest_;
  uint64_t entry_count_ = 0;
  std::string block_;  // Get()'s block buffer.
};

// Streams the entries of a run of tables whose key ranges are disjoint and increasing
// (one L0 table, or all of L1) in key order, holding one data block in memory: the
// compaction input. key() and value() view that block and stay valid until Next().
class TableCursor {
 public:
  explicit TableCursor(std::vector<SsTableReader*> tables) : tables_(std::move(tables)) {}

  // Moves to the next entry (the first, on the first call). Valid() is false after the
  // last entry, and after an error.
  Status Next();
  bool Valid() const { return valid_; }
  std::string_view key() const { return key_; }
  std::string_view value() const { return value_; }
  bool deleted() const { return deleted_; }

 private:
  std::vector<SsTableReader*> tables_;
  size_t table_ = 0;       // Table whose block is loaded.
  size_t next_block_ = 0;  // Next block of that table to load.
  std::string block_;
  size_t cursor_ = 0;  // Offset of the next entry in block_.
  bool valid_ = false;
  std::string_view key_;
  std::string_view value_;
  bool deleted_ = false;
};

}  // namespace trio

#endif  // SRC_MINILDB_SSTABLE_H_
