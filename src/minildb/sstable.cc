#include "src/minildb/sstable.h"

#include <algorithm>
#include <cstring>

#include "src/minildb/bloom.h"

namespace trio {

namespace {

constexpr uint64_t kTableMagic = 0x4d494e494c444254ull;  // "MINILDBT"
constexpr size_t kTargetBlockSize = 4096;
constexpr uint32_t kDeletedBit = 0x80000000u;

void Append32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void Append64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
uint32_t Read32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t Read64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

struct Footer {
  uint64_t index_offset;
  uint64_t index_size;
  uint64_t bloom_offset;
  uint64_t bloom_size;
  uint64_t entry_count;
  uint64_t magic;
};

// One data-block entry, viewed in place.
struct BlockEntry {
  std::string_view key;
  std::string_view value;
  bool deleted = false;
};

enum class Parse { kEntry, kEnd, kOverrun };

// Parses the entry at `*cursor` and advances past it. kEnd once fewer than 8 bytes
// remain; kOverrun when the entry's lengths run past the block.
Parse NextEntry(std::string_view block, size_t* cursor, BlockEntry* entry) {
  if (*cursor + 8 > block.size()) {
    return Parse::kEnd;
  }
  const uint32_t key_len = Read32(block.data() + *cursor);
  const uint32_t raw_value_len = Read32(block.data() + *cursor + 4);
  const uint32_t value_len = raw_value_len & ~kDeletedBit;
  const size_t start = *cursor + 8;
  if (start + key_len + value_len > block.size()) {
    return Parse::kOverrun;
  }
  entry->key = std::string_view(block.data() + start, key_len);
  entry->value = std::string_view(block.data() + start + key_len, value_len);
  entry->deleted = (raw_value_len & kDeletedBit) != 0;
  *cursor = start + key_len + value_len;
  return Parse::kEntry;
}

// Hands every entry of a block to `fn` in order, checking the bounds of each.
template <typename Fn>
Status ForEachInBlock(std::string_view block, Fn&& fn) {
  size_t cursor = 0;
  BlockEntry entry;
  Parse parsed = Parse::kEnd;
  while ((parsed = NextEntry(block, &cursor, &entry)) == Parse::kEntry) {
    fn(entry);
  }
  return parsed == Parse::kOverrun ? Corrupted("block entry overruns") : OkStatus();
}

}  // namespace

Result<std::unique_ptr<SsTableBuilder>> SsTableBuilder::Create(FsInterface& fs,
                                                               const std::string& path) {
  TRIO_ASSIGN_OR_RETURN(Fd fd, fs.Open(path, OpenFlags::CreateTrunc()));
  return std::unique_ptr<SsTableBuilder>(new SsTableBuilder(fs, fd));
}

SsTableBuilder::~SsTableBuilder() {
  if (fd_ >= 0) {
    (void)fs_.Close(fd_);
  }
}

Status SsTableBuilder::Add(std::string_view key, std::string_view value, bool deleted) {
  key_hashes_.push_back(BloomFilter::Hash(key));
  Append32(&block_, static_cast<uint32_t>(key.size()));
  Append32(&block_, static_cast<uint32_t>(value.size()) | (deleted ? kDeletedBit : 0));
  block_.append(key);
  block_.append(value);
  last_key_.assign(key);
  if (block_.size() >= kTargetBlockSize) {
    return FlushBlock();
  }
  return OkStatus();
}

Status SsTableBuilder::FlushBlock() {
  if (block_.empty()) {
    return OkStatus();
  }
  TRIO_ASSIGN_OR_RETURN(size_t n, fs_.Pwrite(fd_, block_.data(), block_.size(), offset_));
  (void)n;
  Append32(&index_, static_cast<uint32_t>(last_key_.size()));
  index_.append(last_key_);
  Append64(&index_, offset_);
  Append32(&index_, static_cast<uint32_t>(block_.size()));
  offset_ += block_.size();
  block_.clear();
  return OkStatus();
}

Status SsTableBuilder::Finish() {
  TRIO_RETURN_IF_ERROR(FlushBlock());

  Footer footer{};
  footer.index_offset = offset_;
  footer.index_size = index_.size();
  TRIO_ASSIGN_OR_RETURN(size_t iw, fs_.Pwrite(fd_, index_.data(), index_.size(), offset_));
  (void)iw;
  offset_ += index_.size();

  const std::string bloom = BloomFilter::Build(key_hashes_);
  footer.bloom_offset = offset_;
  footer.bloom_size = bloom.size();
  TRIO_ASSIGN_OR_RETURN(size_t bw, fs_.Pwrite(fd_, bloom.data(), bloom.size(), offset_));
  (void)bw;
  offset_ += bloom.size();

  footer.entry_count = key_hashes_.size();
  footer.magic = kTableMagic;
  TRIO_ASSIGN_OR_RETURN(size_t fw, fs_.Pwrite(fd_, &footer, sizeof(footer), offset_));
  (void)fw;
  TRIO_RETURN_IF_ERROR(fs_.Fsync(fd_));
  const Fd fd = fd_;
  fd_ = -1;
  return fs_.Close(fd);
}

Result<std::unique_ptr<SsTableReader>> SsTableReader::Open(FsInterface& fs,
                                                           const std::string& path) {
  std::unique_ptr<SsTableReader> reader(new SsTableReader(fs, path));
  TRIO_RETURN_IF_ERROR(reader->Load());
  return reader;
}

SsTableReader::~SsTableReader() {
  if (fd_ >= 0) {
    (void)fs_.Close(fd_);
  }
}

Status SsTableReader::Load() {
  TRIO_ASSIGN_OR_RETURN(StatInfo info, fs_.Stat(path_));
  if (info.size < sizeof(Footer)) {
    return Corrupted("table too small");
  }
  TRIO_ASSIGN_OR_RETURN(Fd fd, fs_.Open(path_, OpenFlags::ReadOnly()));
  fd_ = fd;
  Footer footer;
  TRIO_ASSIGN_OR_RETURN(size_t n,
                        fs_.Pread(fd_, &footer, sizeof(footer), info.size - sizeof(footer)));
  if (n != sizeof(footer) || footer.magic != kTableMagic) {
    return Corrupted("bad table footer");
  }
  entry_count_ = footer.entry_count;

  std::string index(footer.index_size, '\0');
  TRIO_ASSIGN_OR_RETURN(size_t in,
                        fs_.Pread(fd_, index.data(), index.size(), footer.index_offset));
  if (in != index.size()) {
    return Corrupted("short index read");
  }
  size_t cursor = 0;
  while (cursor + 16 <= index.size()) {
    const uint32_t key_len = Read32(index.data() + cursor);
    cursor += 4;
    if (cursor + key_len + 12 > index.size()) {
      return Corrupted("index entry overruns");
    }
    IndexEntry entry;
    entry.last_key.assign(index.data() + cursor, key_len);
    cursor += key_len;
    entry.offset = Read64(index.data() + cursor);
    cursor += 8;
    entry.size = Read32(index.data() + cursor);
    cursor += 4;
    index_.push_back(std::move(entry));
  }

  bloom_.resize(footer.bloom_size);
  TRIO_ASSIGN_OR_RETURN(size_t bn,
                        fs_.Pread(fd_, bloom_.data(), bloom_.size(), footer.bloom_offset));
  if (bn != bloom_.size()) {
    return Corrupted("short bloom read");
  }

  if (!index_.empty()) {
    largest_ = index_.back().last_key;
    // Smallest: first key of the first block.
    TRIO_RETURN_IF_ERROR(ReadBlock(index_.front(), &block_));
    bool first = true;
    TRIO_RETURN_IF_ERROR(ForEachInBlock(block_, [&](const BlockEntry& entry) {
      if (first) {
        smallest_.assign(entry.key);
        first = false;
      }
    }));
  }
  return OkStatus();
}

Status SsTableReader::ReadBlock(const IndexEntry& index, std::string* buffer) {
  buffer->resize(index.size);
  TRIO_ASSIGN_OR_RETURN(size_t n, fs_.Pread(fd_, buffer->data(), buffer->size(), index.offset));
  if (n != buffer->size()) {
    return Corrupted("short block read");
  }
  return OkStatus();
}

Result<TableEntry> SsTableReader::Get(std::string_view key) {
  if (!BloomFilter::MayContain(bloom_, key)) {
    return NotFound("bloom miss");
  }
  // Binary search for the first block whose last_key >= key.
  auto it = std::lower_bound(index_.begin(), index_.end(), key,
                             [](const IndexEntry& e, std::string_view k) {
                               return e.last_key < k;
                             });
  if (it == index_.end()) {
    return NotFound("beyond table");
  }
  TRIO_RETURN_IF_ERROR(ReadBlock(*it, &block_));
  // The first entry at or past `key` decides; the walk goes on to the block's end so every
  // entry's bounds are still checked.
  bool searching = true;
  bool found = false;
  TableEntry result;
  TRIO_RETURN_IF_ERROR(ForEachInBlock(block_, [&](const BlockEntry& entry) {
    if (searching && entry.key >= key) {
      searching = false;
      if (entry.key == key) {
        found = true;
        result.value.assign(entry.value);
        result.deleted = entry.deleted;
      }
    }
  }));
  if (!found) {
    return NotFound(key);
  }
  return result;
}

Status TableCursor::Next() {
  while (true) {
    BlockEntry entry;
    switch (NextEntry(block_, &cursor_, &entry)) {
      case Parse::kEntry:
        key_ = entry.key;
        value_ = entry.value;
        deleted_ = entry.deleted;
        valid_ = true;
        return OkStatus();
      case Parse::kOverrun:
        valid_ = false;
        return Corrupted("block entry overruns");
      case Parse::kEnd:
        break;
    }
    while (table_ < tables_.size() && next_block_ == tables_[table_]->index_.size()) {
      ++table_;
      next_block_ = 0;
    }
    if (table_ == tables_.size()) {
      valid_ = false;
      return OkStatus();
    }
    SsTableReader& table = *tables_[table_];
    if (Status read = table.ReadBlock(table.index_[next_block_++], &block_); !read.ok()) {
      valid_ = false;
      return read;
    }
    cursor_ = 0;
  }
}

}  // namespace trio
