#include "src/minildb/db.h"

#include <algorithm>
#include <cstring>
#include <optional>

namespace trio {

namespace {
constexpr uint8_t kWalPut = 1;
constexpr uint8_t kWalDelete = 2;
constexpr size_t kOutputTableBytes = 2 << 20;  // Compaction splits its run at ~2 MiB.
}  // namespace

Result<std::unique_ptr<MiniDb>> MiniDb::Open(FsInterface& fs, MiniDbOptions options) {
  std::unique_ptr<MiniDb> db(new MiniDb(fs, std::move(options)));
  Status made = fs.Mkdir(db->options_.dir);
  if (!made.ok() && !made.Is(ErrorCode::kExists)) {
    return made;
  }
  db->memtable_ = std::make_unique<SkipList>();
  TRIO_RETURN_IF_ERROR(db->Recover());
  return db;
}

MiniDb::~MiniDb() {
  if (wal_fd_ >= 0) {
    (void)fs_.Close(wal_fd_);
  }
}

std::string MiniDb::TablePath(uint64_t number) const {
  return options_.dir + "/sst_" + std::to_string(number);
}
std::string MiniDb::WalPath(uint64_t number) const {
  return options_.dir + "/wal_" + std::to_string(number);
}

Status MiniDb::Recover() {
  // Discover existing tables and WALs from the directory.
  TRIO_ASSIGN_OR_RETURN(std::vector<DirEntryInfo> entries, fs_.ReadDir(options_.dir));
  std::vector<uint64_t> tables;
  std::vector<uint64_t> wals;
  for (const DirEntryInfo& entry : entries) {
    if (entry.name.rfind("sst_", 0) == 0) {
      tables.push_back(std::stoull(entry.name.substr(4)));
    } else if (entry.name.rfind("wal_", 0) == 0) {
      wals.push_back(std::stoull(entry.name.substr(4)));
    }
  }
  std::sort(tables.begin(), tables.end());
  std::sort(wals.begin(), wals.end());
  for (uint64_t number : tables) {
    TRIO_ASSIGN_OR_RETURN(std::unique_ptr<SsTableReader> reader,
                          SsTableReader::Open(fs_, TablePath(number)));
    // Recovered tables all go to L0 ordering by age; newest last in `tables`.
    level0_.push_front(std::move(reader));
    next_file_number_ = std::max(next_file_number_, number + 1);
  }
  for (uint64_t number : wals) {
    TRIO_RETURN_IF_ERROR(ReplayWal(WalPath(number)));
    TRIO_RETURN_IF_ERROR(fs_.Unlink(WalPath(number)));
    next_file_number_ = std::max(next_file_number_, number + 1);
  }
  return RotateWal();
}

Status MiniDb::ReplayWal(const std::string& path) {
  TRIO_ASSIGN_OR_RETURN(StatInfo info, fs_.Stat(path));
  std::string log(info.size, '\0');
  TRIO_ASSIGN_OR_RETURN(Fd fd, fs_.Open(path, OpenFlags::ReadOnly()));
  TRIO_ASSIGN_OR_RETURN(size_t n, fs_.Pread(fd, log.data(), log.size(), 0));
  TRIO_RETURN_IF_ERROR(fs_.Close(fd));
  log.resize(n);
  size_t cursor = 0;
  while (cursor + 9 <= log.size()) {
    const uint8_t type = static_cast<uint8_t>(log[cursor]);
    uint32_t key_len;
    uint32_t value_len;
    std::memcpy(&key_len, log.data() + cursor + 1, 4);
    std::memcpy(&value_len, log.data() + cursor + 5, 4);
    cursor += 9;
    if (cursor + key_len + value_len > log.size()) {
      break;  // Torn tail record: ignore (it never committed).
    }
    const std::string_view key(log.data() + cursor, key_len);
    cursor += key_len;
    const std::string_view value(log.data() + cursor, value_len);
    cursor += value_len;
    if (type == kWalPut) {
      memtable_bytes_ += InsertLocked(key, value, false);
    } else if (type == kWalDelete) {
      memtable_bytes_ += InsertLocked(key, "", true);
    }
  }
  return OkStatus();
}

Status MiniDb::RotateWal() {
  if (wal_fd_ >= 0) {
    TRIO_RETURN_IF_ERROR(fs_.Close(wal_fd_));
    TRIO_RETURN_IF_ERROR(fs_.Unlink(WalPath(current_wal_)));
  }
  current_wal_ = next_file_number_++;
  TRIO_ASSIGN_OR_RETURN(Fd fd, fs_.Open(WalPath(current_wal_), OpenFlags::CreateTrunc()));
  wal_fd_ = fd;
  wal_offset_ = 0;
  return OkStatus();
}

Status MiniDb::WalAppend(uint8_t type, std::string_view key, std::string_view value) {
  std::string& record = wal_record_;
  record.clear();
  record.push_back(static_cast<char>(type));
  const uint32_t key_len = key.size();
  const uint32_t value_len = value.size();
  record.append(reinterpret_cast<const char*>(&key_len), 4);
  record.append(reinterpret_cast<const char*>(&value_len), 4);
  record.append(key);
  record.append(value);
  TRIO_ASSIGN_OR_RETURN(size_t n, fs_.Pwrite(wal_fd_, record.data(), record.size(),
                                             wal_offset_));
  wal_offset_ += n;
  stats_.wal_bytes += n;
  if (options_.sync_wal) {
    TRIO_RETURN_IF_ERROR(fs_.Fsync(wal_fd_));
  }
  return OkStatus();
}

size_t MiniDb::InsertLocked(std::string_view key, std::string_view value, bool deleted) {
  stored_.assign(1, deleted ? kTombstonePrefix : kLivePrefix);
  if (!deleted) {
    stored_.append(value);
  }
  return memtable_->Insert(key, stored_);
}

Status MiniDb::WriteInternal(std::string_view key, std::string_view value, bool deleted) {
  std::lock_guard<std::mutex> guard(mutex_);
  TRIO_RETURN_IF_ERROR(WalAppend(deleted ? kWalDelete : kWalPut, key, deleted ? "" : value));
  memtable_bytes_ += InsertLocked(key, value, deleted);
  return MaybeFlushLocked();
}

Status MiniDb::Put(const std::string& key, const std::string& value) {
  stats_.puts++;
  return WriteInternal(key, value, false);
}

Status MiniDb::Delete(const std::string& key) {
  stats_.deletes++;
  return WriteInternal(key, "", true);
}

Result<std::string> MiniDb::Get(const std::string& key) {
  std::lock_guard<std::mutex> guard(mutex_);
  stats_.gets++;
  if (std::optional<std::string_view> stored = memtable_->Lookup(key)) {
    if ((*stored)[0] == kTombstonePrefix) {
      return NotFound(key);
    }
    return std::string(stored->substr(1));
  }
  for (auto& table : level0_) {
    Result<TableEntry> entry = table->Get(key);
    if (entry.ok()) {
      if (entry->deleted) {
        return NotFound(key);
      }
      return std::move(entry->value);
    }
    if (!entry.status().Is(ErrorCode::kNotFound)) {
      return entry.status();
    }
  }
  for (auto& table : level1_) {
    if (key < table->smallest() || key > table->largest()) {
      continue;
    }
    Result<TableEntry> entry = table->Get(key);
    if (entry.ok()) {
      if (entry->deleted) {
        return NotFound(key);
      }
      return std::move(entry->value);
    }
    if (!entry.status().Is(ErrorCode::kNotFound)) {
      return entry.status();
    }
  }
  return NotFound(key);
}

Status MiniDb::Flush() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (memtable_->Size() == 0) {
    return OkStatus();
  }
  memtable_bytes_ = options_.memtable_bytes;  // Force.
  return MaybeFlushLocked();
}

Status MiniDb::MaybeFlushLocked() {
  if (memtable_bytes_ < options_.memtable_bytes || memtable_->Size() == 0) {
    return OkStatus();
  }
  const std::string path = TablePath(next_file_number_++);
  TRIO_ASSIGN_OR_RETURN(std::unique_ptr<SsTableBuilder> builder,
                        SsTableBuilder::Create(fs_, path));
  for (SkipList::Iterator it(*memtable_); it.Valid(); it.Next()) {
    const std::string_view stored = it.value();
    TRIO_RETURN_IF_ERROR(
        builder->Add(it.key(), stored.substr(1), stored[0] == kTombstonePrefix));
  }
  TRIO_RETURN_IF_ERROR(builder->Finish());
  TRIO_ASSIGN_OR_RETURN(std::unique_ptr<SsTableReader> reader, SsTableReader::Open(fs_, path));
  level0_.push_front(std::move(reader));
  memtable_ = std::make_unique<SkipList>();
  memtable_bytes_ = 0;
  stats_.flushes++;
  TRIO_RETURN_IF_ERROR(RotateWal());
  if (level0_.size() >= options_.l0_compaction_trigger) {
    return CompactLocked();
  }
  return OkStatus();
}

Status MiniDb::CompactLocked() {
  stats_.compactions++;
  // Merge every L0 table with the whole of L1 into a fresh sorted run. One cursor per
  // input, newest first (each L0 table, then L1 as one stream), so among cursors at the
  // same key the first holds the newest entry.
  std::vector<TableCursor> inputs;
  inputs.reserve(level0_.size() + 1);  // A started cursor views its own buffer: no moves.
  for (auto& table : level0_) {
    inputs.emplace_back(std::vector<SsTableReader*>{table.get()});
  }
  std::vector<SsTableReader*> l1_run;
  for (auto& table : level1_) {
    l1_run.push_back(table.get());
  }
  inputs.emplace_back(std::move(l1_run));
  for (TableCursor& input : inputs) {
    TRIO_RETURN_IF_ERROR(input.Next());
  }

  // Drop tombstones (nothing older than L1 exists) and split into ~2 MiB tables.
  std::vector<std::unique_ptr<SsTableReader>> outputs;
  std::unique_ptr<SsTableBuilder> builder;
  std::string builder_path;
  size_t builder_bytes = 0;
  auto finish_output = [&]() -> Status {
    if (builder == nullptr) {
      return OkStatus();
    }
    TRIO_RETURN_IF_ERROR(builder->Finish());
    builder.reset();
    builder_bytes = 0;
    TRIO_ASSIGN_OR_RETURN(std::unique_ptr<SsTableReader> reader,
                          SsTableReader::Open(fs_, builder_path));
    outputs.push_back(std::move(reader));
    return OkStatus();
  };
  std::string key;  // A copy: advancing a cursor replaces the block its key views.
  while (true) {
    TableCursor* newest = nullptr;
    for (TableCursor& input : inputs) {
      if (input.Valid() && (newest == nullptr || input.key() < newest->key())) {
        newest = &input;
      }
    }
    if (newest == nullptr) {
      break;
    }
    key.assign(newest->key());
    if (!newest->deleted()) {
      if (builder == nullptr) {
        builder_path = TablePath(next_file_number_++);
        TRIO_ASSIGN_OR_RETURN(builder, SsTableBuilder::Create(fs_, builder_path));
      }
      TRIO_RETURN_IF_ERROR(builder->Add(key, newest->value(), false));
      builder_bytes += key.size() + newest->value().size();
      if (builder_bytes >= kOutputTableBytes) {
        TRIO_RETURN_IF_ERROR(finish_output());
      }
    }
    for (TableCursor& input : inputs) {
      if (input.Valid() && input.key() == key) {
        TRIO_RETURN_IF_ERROR(input.Next());
      }
    }
  }
  TRIO_RETURN_IF_ERROR(finish_output());

  // Unlink the inputs oldest first (L1, then L0 from oldest to newest): a crash part way
  // through then leaves only tables newer than every one removed, so no surviving table
  // holds a value whose tombstone is gone.
  std::vector<std::string> old_paths;
  for (auto& table : level1_) {
    old_paths.push_back(table->path());
  }
  for (auto it = level0_.rbegin(); it != level0_.rend(); ++it) {
    old_paths.push_back((*it)->path());
  }
  inputs.clear();  // The cursors point at the readers dropped next.
  level0_.clear();
  level1_ = std::move(outputs);
  for (const std::string& path : old_paths) {
    TRIO_RETURN_IF_ERROR(fs_.Unlink(path));
  }
  return OkStatus();
}

}  // namespace trio
