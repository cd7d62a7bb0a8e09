// Per-file radix tree (§4.2): auxiliary state mapping a file-page index (byte offset /
// 4 KiB) to the data page number cached from the file's index pages. Lock-free lookups,
// atomically installed interior nodes; concurrent inserts are safe. Mutation happens under
// the file's range/inode locks so a slot is never written by two threads at once.
//
// Three levels of fanout 512 cover 512^3 pages = 512 TiB per file.

#ifndef SRC_LIBFS_RADIX_TREE_H_
#define SRC_LIBFS_RADIX_TREE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>

#include "src/nvm/nvm.h"

namespace trio {

class PageRadixTree {
 public:
  static constexpr int kBits = 9;
  static constexpr uint64_t kFanout = 1ull << kBits;  // 512, matching kIndexEntriesPerPage+1.
  static constexpr uint64_t kMask = kFanout - 1;
  static constexpr uint64_t kMaxPages = kFanout * kFanout * kFanout;

  PageRadixTree() = default;
  ~PageRadixTree() { DeleteLevel(root_.load(std::memory_order_relaxed), 0); }
  PageRadixTree(const PageRadixTree&) = delete;
  PageRadixTree& operator=(const PageRadixTree&) = delete;

  // Data page number for file page `index`, or 0 (= hole / unknown).
  PageNumber Lookup(uint64_t index) const {
    if (index >= kMaxPages) {
      return 0;
    }
    const Node* node = root_.load(std::memory_order_acquire);
    if (node == nullptr) {
      return 0;
    }
    const Node* mid = Child(node, (index >> (2 * kBits)) & kMask);
    if (mid == nullptr) {
      return 0;
    }
    const Node* leaf = Child(mid, (index >> kBits) & kMask);
    if (leaf == nullptr) {
      return 0;
    }
    return leaf->slots[index & kMask].load(std::memory_order_acquire);
  }

  // Installs index -> page. `page` == 0 erases.
  void Insert(uint64_t index, PageNumber page) {
    if (index >= kMaxPages) {
      return;
    }
    Node* node = GetOrCreate(&root_);
    Node* mid = GetOrCreateChild(node, (index >> (2 * kBits)) & kMask);
    Node* leaf = GetOrCreateChild(mid, (index >> kBits) & kMask);
    leaf->slots[index & kMask].store(page, std::memory_order_release);
    if (page != 0) {
      uint64_t extent = extent_.load(std::memory_order_relaxed);
      while (index >= extent &&
             !extent_.compare_exchange_weak(extent, index + 1, std::memory_order_relaxed)) {
      }
    }
  }

  void Erase(uint64_t index) { Insert(index, 0); }

  // Empties the tree in place (rebuild path): zeroes the leaf slots below the extent and
  // keeps every node for the refill, so the cost follows the indices in use, not the
  // fanout. Not safe against concurrent writers; callers hold the node exclusively.
  void Reset() {
    const uint64_t end = extent_.exchange(0, std::memory_order_relaxed);
    const Node* root = root_.load(std::memory_order_relaxed);
    if (root == nullptr) {
      return;
    }
    for (uint64_t base = 0; base < end;) {
      const Node* mid = Child(root, (base >> (2 * kBits)) & kMask);
      if (mid == nullptr) {
        base = (base | (kFanout * kFanout - 1)) + 1;  // Past this whole mid subtree.
        continue;
      }
      auto* leaf = reinterpret_cast<Node*>(
          mid->slots[(base >> kBits) & kMask].load(std::memory_order_relaxed));
      if (leaf != nullptr) {
        const uint64_t used = std::min(kFanout, end - base);
        for (uint64_t i = 0; i < used; ++i) {
          leaf->slots[i].store(0, std::memory_order_relaxed);
        }
      }
      base += kFanout;
    }
  }

 private:
  struct Node {
    // Interior levels store Node*; the leaf level stores page numbers. Both are 8 bytes,
    // so one slot array serves double duty via reinterpretation kept private to this class.
    std::atomic<uint64_t> slots[kFanout] = {};
  };

  static const Node* Child(const Node* node, uint64_t slot) {
    return reinterpret_cast<const Node*>(node->slots[slot].load(std::memory_order_acquire));
  }

  static Node* GetOrCreate(std::atomic<Node*>* cell) {
    Node* node = cell->load(std::memory_order_acquire);
    if (node != nullptr) {
      return node;
    }
    auto fresh = std::make_unique<Node>();
    Node* expected = nullptr;
    if (cell->compare_exchange_strong(expected, fresh.get(), std::memory_order_acq_rel)) {
      return fresh.release();
    }
    return expected;
  }

  static Node* GetOrCreateChild(Node* node, uint64_t slot) {
    uint64_t existing = node->slots[slot].load(std::memory_order_acquire);
    if (existing != 0) {
      return reinterpret_cast<Node*>(existing);
    }
    auto fresh = std::make_unique<Node>();
    uint64_t expected = 0;
    if (node->slots[slot].compare_exchange_strong(
            expected, reinterpret_cast<uint64_t>(fresh.get()), std::memory_order_acq_rel)) {
      return fresh.release();
    }
    return reinterpret_cast<Node*>(expected);
  }

  void DeleteLevel(Node* node, int depth) {
    if (node == nullptr) {
      return;
    }
    if (depth < 2) {
      for (auto& slot : node->slots) {
        DeleteLevel(reinterpret_cast<Node*>(slot.load(std::memory_order_relaxed)), depth + 1);
      }
    }
    delete node;
  }

  std::atomic<Node*> root_{nullptr};
  // One past the highest index given a page since the last Reset: the slots Reset zeroes.
  std::atomic<uint64_t> extent_{0};
};

}  // namespace trio

#endif  // SRC_LIBFS_RADIX_TREE_H_
