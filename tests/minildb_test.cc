// Tests for minildb: skiplist, bloom filter, SSTables, the LSM DB (flush, compaction,
// WAL recovery) — run over ArckFS, plus an interop check over a baseline FS.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string_view>

#include "src/baselines/fs_factory.h"
#include "src/common/random.h"
#include "src/minildb/bloom.h"
#include "src/minildb/db.h"
#include "src/minildb/db_bench.h"
#include "src/minildb/skiplist.h"
#include "src/minildb/sstable.h"

namespace trio {
namespace {

TEST(SkipListTest, InsertLookupOverwrite) {
  SkipList list;
  EXPECT_GT(list.Insert("b", "2"), 0u);
  EXPECT_GT(list.Insert("a", "1"), 0u);
  EXPECT_EQ(list.Insert("a", "one"), 0u);  // Overwrite.
  std::optional<std::string_view> value = list.Lookup("a");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "one");
  EXPECT_FALSE(list.Lookup("c").has_value());
  EXPECT_EQ(list.Size(), 2u);
}

TEST(SkipListTest, OrderedTraversal) {
  SkipList list;
  for (int i = 100; i > 0; --i) {
    list.Insert("k" + std::to_string(1000 + i), std::to_string(i));
  }
  std::string last;
  int visits = 0;
  for (SkipList::Iterator it(list); it.Valid(); it.Next()) {
    EXPECT_LT(last, it.key());
    last = it.key();
    ++visits;
  }
  EXPECT_EQ(visits, 100);
}

// Nodes, keys and values live in the arena: values of every size class (inline in a
// block, and over a quarter block, which get their own), overwrites that swing a node to
// a new value, and views taken before an overwrite, which keep the old bytes.
TEST(SkipListTest, ArenaKeepsKeysAndValuesThroughOverwritesAndTraversal) {
  SkipList list;
  std::map<std::string, std::string> model;
  Rng rng(17);
  for (int i = 0; i < 3000; ++i) {
    const std::string key = "key" + std::to_string(rng.Below(1000));
    const size_t size = rng.Below(3) == 0 ? 1500 + i : i % 50;
    const std::string value(size, static_cast<char>('a' + i % 26));
    const bool fresh = model.count(key) == 0;
    const size_t charged = list.Insert(key, value);
    EXPECT_EQ(charged, fresh ? key.size() + value.size() + SkipList::kChargedNodeBytes : 0u);
    model[key] = value;
  }
  EXPECT_EQ(list.Size(), model.size());

  const std::string& first_key = model.begin()->first;
  const std::string_view before = *list.Lookup(first_key);
  const std::string old_value = model[first_key];
  list.Insert(first_key, "replaced");
  model[first_key] = "replaced";
  EXPECT_EQ(before, old_value);  // The old bytes stay until the list is destroyed.

  for (const auto& [key, value] : model) {
    std::optional<std::string_view> got = list.Lookup(key);
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(*got, value) << key;
  }
  auto expected = model.begin();
  for (SkipList::Iterator it(list); it.Valid(); it.Next(), ++expected) {
    ASSERT_NE(expected, model.end());
    EXPECT_EQ(it.key(), expected->first);
    EXPECT_EQ(it.value(), expected->second);
  }
  EXPECT_EQ(expected, model.end());
}

std::vector<uint64_t> Hashes(const std::vector<std::string>& keys) {
  std::vector<uint64_t> hashes;
  for (const std::string& key : keys) {
    hashes.push_back(BloomFilter::Hash(key));
  }
  return hashes;
}

TEST(BloomTest, NoFalseNegatives) {
  std::vector<std::string> keys;
  for (int i = 0; i < 500; ++i) {
    keys.push_back("key" + std::to_string(i));
  }
  const std::string filter = BloomFilter::Build(Hashes(keys));
  for (const std::string& key : keys) {
    EXPECT_TRUE(BloomFilter::MayContain(filter, key));
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back("present" + std::to_string(i));
  }
  const std::string filter = BloomFilter::Build(Hashes(keys));
  int false_positives = 0;
  for (int i = 0; i < 1000; ++i) {
    false_positives += BloomFilter::MayContain(filter, "absent" + std::to_string(i));
  }
  EXPECT_LT(false_positives, 30);  // ~1% expected at 10 bits/key.
}

class MiniDbTest : public ::testing::Test {
 protected:
  MiniDbTest() : instance_(MakeFs("ArckFS")) {}
  FsInterface& fs() { return *instance_.fs; }
  FsInstance instance_;
};

// A (key, value, deleted) record for building test tables.
struct Row {
  std::string key;
  std::string value;
  bool deleted = false;
};

Status WriteRows(FsInterface& fs, const std::string& path, const std::vector<Row>& rows) {
  TRIO_ASSIGN_OR_RETURN(std::unique_ptr<SsTableBuilder> builder,
                        SsTableBuilder::Create(fs, path));
  for (const Row& row : rows) {
    TRIO_RETURN_IF_ERROR(builder->Add(row.key, row.value, row.deleted));
  }
  return builder->Finish();
}

// Every entry of one table, by a full cursor scan: the reference Get() must agree with.
Result<std::map<std::string, TableEntry>> ScanTable(SsTableReader* table) {
  std::map<std::string, TableEntry> entries;
  TableCursor cursor({table});
  TRIO_RETURN_IF_ERROR(cursor.Next());
  while (cursor.Valid()) {
    entries[std::string(cursor.key())] = TableEntry{std::string(cursor.value()),
                                                    cursor.deleted()};
    TRIO_RETURN_IF_ERROR(cursor.Next());
  }
  return entries;
}

// Get() must agree with a full scan for every key present, every key absent between two
// entries, keys before the first and after the last entry, and tombstones.
void ExpectGetAgreesWithScan(SsTableReader* table, const std::vector<std::string>& probes) {
  Result<std::map<std::string, TableEntry>> scanned = ScanTable(table);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  for (const std::string& probe : probes) {
    Result<TableEntry> got = table->Get(probe);
    auto want = scanned->find(probe);
    if (want == scanned->end()) {
      EXPECT_TRUE(got.status().Is(ErrorCode::kNotFound)) << probe;
      continue;
    }
    ASSERT_TRUE(got.ok()) << probe << ": " << got.status().ToString();
    EXPECT_EQ(got->deleted, want->second.deleted) << probe;
    EXPECT_EQ(got->value, want->second.value) << probe;
  }
}

TEST_F(MiniDbTest, SsTableRoundTrip) {
  std::vector<Row> entries;
  for (int i = 0; i < 1000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    entries.push_back(Row{key, "value" + std::to_string(i), i % 7 == 0});
  }
  ASSERT_TRUE(WriteRows(fs(), "/table", entries).ok());
  Result<std::unique_ptr<SsTableReader>> reader = SsTableReader::Open(fs(), "/table");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->entry_count(), 1000u);
  EXPECT_EQ((*reader)->smallest(), "k000000");
  EXPECT_EQ((*reader)->largest(), "k000999");

  for (int i = 0; i < 1000; i += 37) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    Result<TableEntry> entry = (*reader)->Get(key);
    ASSERT_TRUE(entry.ok()) << key;
    EXPECT_EQ(entry->deleted, i % 7 == 0);
    if (!entry->deleted) {
      EXPECT_EQ(entry->value, "value" + std::to_string(i));
    }
  }
  EXPECT_TRUE((*reader)->Get("nope").status().Is(ErrorCode::kNotFound));

  Result<std::map<std::string, TableEntry>> streamed = ScanTable(reader->get());
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed->size(), 1000u);
}

TEST_F(MiniDbTest, SsTableGetAgreesWithFullScan) {
  // Even keys only, so every odd key is absent between two entries; one in five is a
  // tombstone. ~36 entries per 4 KiB block, so probes land on block edges too.
  std::vector<Row> rows;
  std::vector<std::string> probes = {"a", "k", "k000000", "k99999", "z"};
  for (int i = 0; i < 2000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    probes.push_back(key);
    if (i % 2 == 0) {
      rows.push_back(Row{key, std::string(100, static_cast<char>('a' + i % 26)), i % 5 == 0});
    }
  }
  probes.push_back("k001998a");  // Past the last key, sorting before "k001999".
  ASSERT_TRUE(WriteRows(fs(), "/scan", rows).ok());
  Result<std::unique_ptr<SsTableReader>> reader = SsTableReader::Open(fs(), "/scan");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->smallest(), "k000000");
  EXPECT_EQ((*reader)->largest(), "k001998");
  ExpectGetAgreesWithScan(reader->get(), probes);
}

TEST_F(MiniDbTest, SsTableGetAgreesWithFullScanForOneEntryBlocks) {
  // fill100K's shape: every 100 KiB value fills a block on its own.
  std::vector<Row> rows;
  std::vector<std::string> probes = {"a", "z"};
  for (int i = 0; i < 12; ++i) {
    const std::string key = "key" + std::to_string(10 + 2 * i);
    rows.push_back(Row{key, std::string(100 * 1024, static_cast<char>('a' + i)), i == 5});
    probes.push_back(key);
    probes.push_back("key" + std::to_string(11 + 2 * i));
  }
  ASSERT_TRUE(WriteRows(fs(), "/big", rows).ok());
  Result<std::unique_ptr<SsTableReader>> reader = SsTableReader::Open(fs(), "/big");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->entry_count(), 12u);
  ExpectGetAgreesWithScan(reader->get(), probes);
}

TEST_F(MiniDbTest, SsTableEntryOverrunIsCorrupted) {
  // 115-byte entries (8-byte header, 7-byte key, 100-byte value): a block closes at the
  // first entry that takes it to 4096 bytes or more.
  constexpr size_t kEntryBytes = 8 + 7 + 100;
  constexpr size_t kPerBlock = (4096 + kEntryBytes - 1) / kEntryBytes;
  std::vector<Row> rows;
  for (size_t i = 0; i < 3 * kPerBlock; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06zu", i);
    rows.push_back(Row{key, std::string(100, 'v')});
  }
  auto key_of = [&](size_t i) { return rows[i].key; };
  auto corrupt_entry = [&](const std::string& path, size_t entry) {
    Result<Fd> fd = fs().Open(path, OpenFlags::ReadWrite());
    ASSERT_TRUE(fd.ok());
    const uint32_t huge_key_len = 1 << 20;
    ASSERT_TRUE(fs().Pwrite(*fd, &huge_key_len, 4, entry * kEntryBytes).ok());
    ASSERT_TRUE(fs().Close(*fd).ok());
  };

  // An overrun in the second block, after the key looked up: the whole block is checked.
  ASSERT_TRUE(WriteRows(fs(), "/mid", rows).ok());
  corrupt_entry("/mid", kPerBlock + 20);
  Result<std::unique_ptr<SsTableReader>> reader = SsTableReader::Open(fs(), "/mid");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE((*reader)->Get(key_of(kPerBlock + 3)).status().Is(ErrorCode::kCorrupted));
  EXPECT_TRUE((*reader)->Get(key_of(kPerBlock + 30)).status().Is(ErrorCode::kCorrupted));
  EXPECT_TRUE((*reader)->Get(key_of(3)).ok());
  EXPECT_TRUE((*reader)->Get(key_of(2 * kPerBlock + 3)).ok());
  EXPECT_TRUE(ScanTable(reader->get()).status().Is(ErrorCode::kCorrupted));

  // In the first block, opening the table (which reads its smallest key) fails.
  ASSERT_TRUE(WriteRows(fs(), "/first", rows).ok());
  corrupt_entry("/first", 10);
  EXPECT_TRUE(SsTableReader::Open(fs(), "/first").status().Is(ErrorCode::kCorrupted));
}

TEST_F(MiniDbTest, PutGetDelete) {
  MiniDbOptions options;
  Result<std::unique_ptr<MiniDb>> db = MiniDb::Open(fs(), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Put("apple", "red").ok());
  ASSERT_TRUE((*db)->Put("banana", "yellow").ok());
  EXPECT_EQ(*(*db)->Get("apple"), "red");
  ASSERT_TRUE((*db)->Delete("apple").ok());
  EXPECT_TRUE((*db)->Get("apple").status().Is(ErrorCode::kNotFound));
  EXPECT_EQ(*(*db)->Get("banana"), "yellow");
}

TEST_F(MiniDbTest, FlushAndReadFromTables) {
  MiniDbOptions options;
  options.memtable_bytes = 16 << 10;  // Flush often.
  Result<std::unique_ptr<MiniDb>> db = MiniDb::Open(fs(), options);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*db)->Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  EXPECT_GT((*db)->stats().flushes, 0u);
  for (int i = 0; i < 2000; i += 53) {
    Result<std::string> value = (*db)->Get("key" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << i << ": " << value.status().ToString();
    EXPECT_EQ(*value, "v" + std::to_string(i));
  }
}

TEST_F(MiniDbTest, CompactionKeepsNewestAndDropsTombstones) {
  MiniDbOptions options;
  options.memtable_bytes = 8 << 10;
  options.l0_compaction_trigger = 3;
  Result<std::unique_ptr<MiniDb>> db = MiniDb::Open(fs(), options);
  ASSERT_TRUE(db.ok());
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(
          (*db)->Put("key" + std::to_string(i), "round" + std::to_string(round)).ok());
    }
    for (int i = 0; i < 200; i += 10) {
      ASSERT_TRUE((*db)->Delete("key" + std::to_string(i)).ok());
    }
  }
  ASSERT_TRUE((*db)->Flush().ok());
  EXPECT_GT((*db)->stats().compactions, 0u);
  for (int i = 1; i < 200; i += 7) {
    if (i % 10 == 0) {
      continue;
    }
    Result<std::string> value = (*db)->Get("key" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << i;
    EXPECT_EQ(*value, "round5");
  }
  EXPECT_TRUE((*db)->Get("key0").status().Is(ErrorCode::kNotFound));
  EXPECT_TRUE((*db)->Get("key10").status().Is(ErrorCode::kNotFound));
}

// Live keys hold their newest value, and deleted ones (an empty model value) stay deleted.
void ExpectDbMatches(MiniDb& db, const std::map<std::string, std::string>& model,
                     const std::string& context) {
  for (const auto& [key, value] : model) {
    Result<std::string> got = db.Get(key);
    if (value.empty()) {
      EXPECT_TRUE(got.status().Is(ErrorCode::kNotFound))
          << context << ": deleted " << key << " came back";
    } else {
      ASSERT_TRUE(got.ok()) << context << ": " << key << " " << got.status().ToString();
      EXPECT_EQ(*got, value) << context << ": " << key;
    }
  }
}

TEST_F(MiniDbTest, CompactionMergesNewestWinsDropsTombstonesAndSplitsTables) {
  MiniDbOptions options;
  options.l0_compaction_trigger = 1;  // Every flush compacts all tables into L1.
  Result<std::unique_ptr<MiniDb>> db = MiniDb::Open(fs(), options);
  ASSERT_TRUE(db.ok());
  std::map<std::string, std::string> model;
  Rng rng(29);
  auto put = [&](int i, size_t size, char fill) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    model[key] = std::string(size, fill);
    ASSERT_TRUE((*db)->Put(key, model[key]).ok());
  };
  for (int i = 0; i < 24000; ++i) {
    put(i, 200, 'a');
  }
  for (int n = 0; n < 8000; ++n) {
    put(static_cast<int>(rng.Below(24000)), 150, 'b');
  }
  for (int n = 0; n < 5000; ++n) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", static_cast<int>(rng.Below(24000)));
    model[key].clear();
    ASSERT_TRUE((*db)->Delete(key).ok());
  }
  ASSERT_TRUE((*db)->Flush().ok());
  EXPECT_EQ((*db)->stats().compactions, (*db)->stats().flushes);
  EXPECT_EQ((*db)->L0Count(), 0u);
  EXPECT_EQ((*db)->L1Count(), 2u);  // ~3.3 MB of live entries, split at 2 MiB.
  ExpectDbMatches(**db, model, "after compaction");

  // The L1 tables hold exactly the live keys: every tombstone was dropped.
  Result<std::vector<DirEntryInfo>> names = fs().ReadDir(options.dir);
  ASSERT_TRUE(names.ok());
  uint64_t stored = 0;
  for (const DirEntryInfo& entry : *names) {
    if (entry.name.rfind("sst_", 0) == 0) {
      Result<std::unique_ptr<SsTableReader>> table =
          SsTableReader::Open(fs(), options.dir + "/" + entry.name);
      ASSERT_TRUE(table.ok());
      stored += (*table)->entry_count();
    }
  }
  const auto live = std::count_if(model.begin(), model.end(),
                                  [](const auto& kv) { return !kv.second.empty(); });
  EXPECT_EQ(stored, static_cast<uint64_t>(live));
}

// A fixed mix of puts (overwriting often), deletes and gets flushes and compacts at fixed
// points: the per-insert byte accounting decides them, not the memtable's storage.
TEST_F(MiniDbTest, FixedPutSequenceFlushesAtTheSamePoints) {
  MiniDbOptions options;
  options.memtable_bytes = 64 << 10;
  Result<std::unique_ptr<MiniDb>> db = MiniDb::Open(fs(), options);
  ASSERT_TRUE(db.ok());
  Rng rng(23);
  for (int i = 0; i < 20000; ++i) {
    const std::string key = "key" + std::to_string(rng.Below(4000));
    const uint64_t pick = rng.Below(10);
    if (pick < 6) {
      const std::string value(20 + rng.Below(200), static_cast<char>('a' + i % 26));
      ASSERT_TRUE((*db)->Put(key, value).ok());
    } else if (pick < 7) {
      ASSERT_TRUE((*db)->Delete(key).ok());
    } else {
      Result<std::string> got = (*db)->Get(key);
      ASSERT_TRUE(got.ok() || got.status().Is(ErrorCode::kNotFound));
    }
  }
  EXPECT_EQ((*db)->stats().flushes, 39u);
  EXPECT_EQ((*db)->stats().compactions, 9u);
  EXPECT_EQ((*db)->L0Count(), 3u);
  EXPECT_EQ((*db)->L1Count(), 1u);
}

// Forwards to a file system but fails the n-th unlink of an SSTable (from 1), as a crash
// between two of a compaction's input unlinks would leave the directory.
class FailNthTableUnlink final : public FsInterface {
 public:
  FailNthTableUnlink(FsInterface& fs, int n) : fs_(fs), n_(n) {}

  Status Unlink(const std::string& path) override {
    if (path.find("/sst_") != std::string::npos && ++table_unlinks_ == n_) {
      return IoError("crash before this unlink");
    }
    return fs_.Unlink(path);
  }

  Result<Fd> Open(const std::string& path, OpenFlags flags, uint32_t mode = 0644) override {
    return fs_.Open(path, flags, mode);
  }
  Status Close(Fd fd) override { return fs_.Close(fd); }
  Result<size_t> Read(Fd fd, void* buf, size_t count) override {
    return fs_.Read(fd, buf, count);
  }
  Result<size_t> Write(Fd fd, const void* buf, size_t count) override {
    return fs_.Write(fd, buf, count);
  }
  Result<size_t> Pread(Fd fd, void* buf, size_t count, uint64_t offset) override {
    return fs_.Pread(fd, buf, count, offset);
  }
  Result<size_t> Pwrite(Fd fd, const void* buf, size_t count, uint64_t offset) override {
    return fs_.Pwrite(fd, buf, count, offset);
  }
  Result<uint64_t> Seek(Fd fd, uint64_t offset) override { return fs_.Seek(fd, offset); }
  Status Fsync(Fd fd) override { return fs_.Fsync(fd); }
  Status Ftruncate(Fd fd, uint64_t size) override { return fs_.Ftruncate(fd, size); }
  Status Mkdir(const std::string& path, uint32_t mode = 0755) override {
    return fs_.Mkdir(path, mode);
  }
  Status Rmdir(const std::string& path) override { return fs_.Rmdir(path); }
  Status Rename(const std::string& from, const std::string& to) override {
    return fs_.Rename(from, to);
  }
  Result<StatInfo> Stat(const std::string& path) override { return fs_.Stat(path); }
  Result<std::vector<DirEntryInfo>> ReadDir(const std::string& path) override {
    return fs_.ReadDir(path);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    return fs_.Truncate(path, size);
  }
  Status Chmod(const std::string& path, uint32_t perm) override {
    return fs_.Chmod(path, perm);
  }
  std::string Name() const override { return fs_.Name(); }

 private:
  FsInterface& fs_;
  const int n_;
  int table_unlinks_ = 0;
};

// Rounds that write every key and then delete a third of them, so tombstones in newer L0
// tables mask values in older L0 tables and in L1 when compactions run. Each op goes into
// `model` (empty = deleted) before the DB sees it: an op whose compaction fails has already
// flushed its write.
Status RunTombstoneRounds(MiniDb& db, std::map<std::string, std::string>* model) {
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 200; ++i) {
      const std::string key = "key" + std::to_string(1000 + i);
      (*model)[key] = "round" + std::to_string(round) + "-" + std::to_string(i);
      TRIO_RETURN_IF_ERROR(db.Put(key, (*model)[key]));
    }
    for (int i = round; i < 200; i += 3) {
      const std::string key = "key" + std::to_string(1000 + i);
      (*model)[key].clear();
      TRIO_RETURN_IF_ERROR(db.Delete(key));
    }
  }
  return OkStatus();
}

// Stops a compaction before its k-th input unlink, for every k the workload reaches, and
// reopens: no deleted key may come back, whichever inputs were already gone.
TEST(MiniDbCrashTest, CompactionStoppedBetweenInputUnlinksKeepsDeletedKeysDeleted) {
  MiniDbOptions options;
  options.memtable_bytes = 4 << 10;
  int k = 1;
  for (;; ++k) {
    FsFactoryOptions fs_options;
    fs_options.pool_pages = 1 << 12;
    FsInstance instance = MakeFs("ArckFS", fs_options);
    FailNthTableUnlink failing(*instance.fs, k);
    std::map<std::string, std::string> model;
    Status run;
    {
      Result<std::unique_ptr<MiniDb>> db = MiniDb::Open(failing, options);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      run = RunTombstoneRounds(**db, &model);
    }  // Dropped without a clean shutdown.
    if (run.ok()) {
      break;  // The workload made fewer than k table unlinks: every stop point was tried.
    }
    ASSERT_TRUE(run.Is(ErrorCode::kIo)) << run.ToString();
    Result<std::unique_ptr<MiniDb>> reopened = MiniDb::Open(*instance.fs, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ExpectDbMatches(**reopened, model, "stopped before table unlink " + std::to_string(k));
    if (HasFailure()) {
      return;
    }
  }
  EXPECT_GT(k, 20);  // Several compactions' worth of stop points.
}

TEST_F(MiniDbTest, WalRecoveryAfterReopen) {
  {
    Result<std::unique_ptr<MiniDb>> db = MiniDb::Open(fs(), MiniDbOptions{});
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put("durable", "yes").ok());
    ASSERT_TRUE((*db)->Put("other", "data").ok());
    ASSERT_TRUE((*db)->Delete("other").ok());
    // No flush: everything lives in the WAL. Drop the DB object ("crash").
  }
  Result<std::unique_ptr<MiniDb>> reopened = MiniDb::Open(fs(), MiniDbOptions{});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(*(*reopened)->Get("durable"), "yes");
  EXPECT_TRUE((*reopened)->Get("other").status().Is(ErrorCode::kNotFound));
}

TEST_F(MiniDbTest, DbBenchWorkloadsRun) {
  for (DbBenchWorkload workload :
       {DbBenchWorkload::kFillSeq, DbBenchWorkload::kFillRandom,
        DbBenchWorkload::kReadRandom, DbBenchWorkload::kDeleteRandom}) {
    FsInstance fresh = MakeFs("ArckFS");
    Result<DbBenchResult> result = RunDbBench(*fresh.fs, workload, 500);
    ASSERT_TRUE(result.ok()) << DbBenchName(workload) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->ops, 500u);
  }
}

TEST(MiniDbInterop, RunsOverBaselineFs) {
  FsInstance instance = MakeFs("NOVA");
  Result<std::unique_ptr<MiniDb>> db = MiniDb::Open(*instance.fs, MiniDbOptions{});
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE((*db)->Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*db)->Flush().ok());
  EXPECT_EQ(*(*db)->Get("k7"), "v7");
}

}  // namespace
}  // namespace trio
