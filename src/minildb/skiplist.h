// Skiplist memtable backbone for minildb — the in-memory sorted structure LevelDB keeps
// its recent writes in. Single writer at a time (the DB serializes writes, as LevelDB
// does); readers may run concurrently with the writer because a node's key is immutable,
// next-pointers and values are published with release stores, and no memory is reused
// while the list lives.
//
// Nodes, keys and values live in an Arena, as in LevelDB, so a full memtable is freed as
// a few hundred blocks rather than one chunk per record. An overwrite writes the new value
// into the arena and swings the node's value pointer; the old value stays until the list
// is destroyed.

#ifndef SRC_MINILDB_SKIPLIST_H_
#define SRC_MINILDB_SKIPLIST_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <string_view>
#include <vector>

#include "src/common/random.h"

namespace trio {

// Bump allocator freed all at once: 4 KiB blocks, with requests over a quarter block
// given a block of their own so a large value wastes no tail.
class Arena {
 public:
  static constexpr size_t kBlockSize = 4096;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  char* Allocate(size_t bytes) {
    if (bytes <= remaining_) {
      char* result = ptr_;
      ptr_ += bytes;
      remaining_ -= bytes;
      return result;
    }
    return AllocateFallback(bytes);
  }

  char* AllocateAligned(size_t bytes) {
    constexpr size_t kAlign = alignof(std::max_align_t);
    const size_t slop = (kAlign - reinterpret_cast<uintptr_t>(ptr_) % kAlign) % kAlign;
    if (bytes + slop <= remaining_) {
      char* result = ptr_ + slop;
      ptr_ += bytes + slop;
      remaining_ -= bytes + slop;
      return result;
    }
    return AllocateFallback(bytes);  // Fresh blocks come from new[], suitably aligned.
  }

 private:
  char* AllocateFallback(size_t bytes) {
    if (bytes > kBlockSize / 4) {
      return NewBlock(bytes);
    }
    ptr_ = NewBlock(kBlockSize);
    remaining_ = kBlockSize;
    return Allocate(bytes);
  }

  char* NewBlock(size_t bytes) {
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(bytes));
    return blocks_.back().get();
  }

  char* ptr_ = nullptr;
  size_t remaining_ = 0;
  std::vector<std::unique_ptr<char[]>> blocks_;
};

class SkipList {
  struct Node;

 public:
  static constexpr int kMaxHeight = 12;
  // Bytes an inserted node charges toward the DB's flush threshold on top of its key and
  // value. A fixed figure (a heap node's size), not the arena's usage, so where the DB
  // flushes does not depend on how the memtable lays out its nodes.
  static constexpr size_t kChargedNodeBytes = 80;

  SkipList() : rng_(0xdb) { head_ = NewNode({}, {}, kMaxHeight); }
  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  // Inserts or overwrites. Returns the bytes charged toward the flush threshold: the key,
  // the value and kChargedNodeBytes for a new node, nothing for an overwrite.
  size_t Insert(std::string_view key, std::string_view value) {
    Node* prev[kMaxHeight];
    Node* node = FindGreaterOrEqual(key, prev);
    if (node != nullptr && node->key() == key) {
      node->value.store(NewValue(value), std::memory_order_release);
      return 0;
    }
    const int height = RandomHeight();
    if (height > height_.load(std::memory_order_relaxed)) {
      for (int i = height_.load(std::memory_order_relaxed); i < height; ++i) {
        prev[i] = head_;
      }
      height_.store(height, std::memory_order_relaxed);
    }
    Node* fresh = NewNode(key, value, height);
    for (int i = 0; i < height; ++i) {
      fresh->next[i].store(prev[i]->next[i].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
      prev[i]->next[i].store(fresh, std::memory_order_release);
    }
    size_.fetch_add(1, std::memory_order_relaxed);
    return key.size() + value.size() + kChargedNodeBytes;
  }

  // The key's value, viewing arena bytes that stay valid while the list lives.
  std::optional<std::string_view> Lookup(std::string_view key) const {
    Node* node = FindGreaterOrEqual(key, nullptr);
    if (node != nullptr && node->key() == key) {
      return node->Value();
    }
    return std::nullopt;
  }

  size_t Size() const { return size_.load(std::memory_order_relaxed); }

  // In-order traversal (flush path).
  class Iterator {
   public:
    explicit Iterator(const SkipList& list)
        : node_(list.head_->next[0].load(std::memory_order_acquire)) {}
    bool Valid() const { return node_ != nullptr; }
    void Next() { node_ = node_->next[0].load(std::memory_order_acquire); }
    std::string_view key() const { return node_->key(); }
    std::string_view value() const { return node_->Value(); }

   private:
    const Node* node_;
  };

 private:
  struct Node {
    const char* key_data;
    uint32_t key_size;
    // A value record in the arena: a uint32 length, then the bytes.
    std::atomic<const char*> value;
    std::atomic<Node*> next[1];  // Over-allocated to the node's height.

    std::string_view key() const { return {key_data, key_size}; }
    std::string_view Value() const {
      const char* record = value.load(std::memory_order_acquire);
      uint32_t size;
      std::memcpy(&size, record, sizeof(size));
      return {record + sizeof(size), size};
    }
  };

  const char* NewKey(std::string_view key) {
    char* bytes = arena_.Allocate(key.size());
    if (!key.empty()) {
      std::memcpy(bytes, key.data(), key.size());
    }
    return bytes;
  }

  const char* NewValue(std::string_view value) {
    const uint32_t size = static_cast<uint32_t>(value.size());
    char* record = arena_.Allocate(sizeof(size) + value.size());
    std::memcpy(record, &size, sizeof(size));
    if (!value.empty()) {
      std::memcpy(record + sizeof(size), value.data(), value.size());
    }
    return record;
  }

  Node* NewNode(std::string_view key, std::string_view value, int height) {
    char* memory =
        arena_.AllocateAligned(sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1));
    Node* node = new (memory) Node{NewKey(key), static_cast<uint32_t>(key.size()), {}, {}};
    node->value.store(NewValue(value), std::memory_order_relaxed);
    for (int i = 1; i < height; ++i) {
      new (&node->next[i]) std::atomic<Node*>(nullptr);
    }
    return node;
  }

  int RandomHeight() {
    int height = 1;
    while (height < kMaxHeight && rng_.OneIn(4)) {
      ++height;
    }
    return height;
  }

  Node* FindGreaterOrEqual(std::string_view key, Node** prev) const {
    Node* node = head_;
    int level = height_.load(std::memory_order_relaxed) - 1;
    while (true) {
      Node* next = node->next[level].load(std::memory_order_acquire);
      if (next != nullptr && next->key() < key) {
        node = next;
      } else {
        if (prev != nullptr) {
          prev[level] = node;
        }
        if (level == 0) {
          return next;
        }
        --level;
      }
    }
  }

  Arena arena_;  // Declared first: every node below lives in it.
  Node* head_;
  std::atomic<int> height_{1};
  std::atomic<size_t> size_{0};
  Rng rng_;
};

}  // namespace trio

#endif  // SRC_MINILDB_SKIPLIST_H_
