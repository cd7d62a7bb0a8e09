// A flat array of atomic 64-bit words, [0, size), in which a word never stored into reads
// as zero. The words live in 4 KiB chunks of 512, each allocated by the first store into
// its range and freed with the array, so memory follows the entries in use. Nothing here
// takes a lock: racing first stores install a chunk with one compare-exchange and the
// loser frees its copy. The kernel's flat tables live in it: each LibFS's MmuSim page
// table and the controller's page and ino ownership tables.

#ifndef SRC_KERNEL_CHUNKED_WORDS_H_
#define SRC_KERNEL_CHUNKED_WORDS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>

namespace trio {

class ChunkedWords {
 public:
  explicit ChunkedWords(uint64_t size = 0) { Resize(size); }
  ~ChunkedWords() { FreeChunks(); }
  ChunkedWords(const ChunkedWords&) = delete;
  ChunkedWords& operator=(const ChunkedWords&) = delete;

  // Frees every chunk and makes the array [0, size). No other call may run concurrently.
  void Resize(uint64_t size) {
    FreeChunks();
    size_ = size;
    num_chunks_ = (size + kChunkWords - 1) / kChunkWords;
    chunks_ = std::make_unique<std::atomic<Chunk*>[]>(num_chunks_);  // All null.
  }

  uint64_t size() const { return size_; }

  // The word at `index`, or nullptr if it is past the array or no store reached its chunk.
  std::atomic<uint64_t>* Find(uint64_t index) const {
    if (index >= size_) {
      return nullptr;
    }
    Chunk* chunk = chunks_[index / kChunkWords].load(std::memory_order_acquire);
    return chunk == nullptr ? nullptr : &chunk->words[index % kChunkWords];
  }

  // The word at `index`, allocating its chunk on first use; nullptr if past the array.
  std::atomic<uint64_t>* FindOrAdd(uint64_t index) {
    if (index >= size_) {
      return nullptr;
    }
    std::atomic<Chunk*>& entry = chunks_[index / kChunkWords];
    Chunk* chunk = entry.load(std::memory_order_acquire);
    if (chunk == nullptr) {
      auto fresh = std::make_unique<Chunk>();
      if (entry.compare_exchange_strong(chunk, fresh.get(), std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        chunk = fresh.release();
      }
    }
    return &chunk->words[index % kChunkWords];
  }

  // Calls fn(index, word) for every word of every allocated chunk, in index order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint64_t c = 0; c < num_chunks_; ++c) {
      Chunk* chunk = chunks_[c].load(std::memory_order_acquire);
      if (chunk == nullptr) {
        continue;
      }
      const uint64_t base = c * kChunkWords;
      for (uint64_t i = 0; i < std::min(kChunkWords, size_ - base); ++i) {
        fn(base + i, chunk->words[i]);
      }
    }
  }

 private:
  static constexpr uint64_t kChunkWords = 512;
  struct Chunk {
    std::atomic<uint64_t> words[kChunkWords];  // Zero-initialized (C++20 std::atomic).
  };

  void FreeChunks() {
    for (uint64_t i = 0; i < num_chunks_; ++i) {
      delete chunks_[i].load(std::memory_order_relaxed);
    }
  }

  uint64_t size_ = 0;
  uint64_t num_chunks_ = 0;
  std::unique_ptr<std::atomic<Chunk*>[]> chunks_;
};

}  // namespace trio

#endif  // SRC_KERNEL_CHUNKED_WORDS_H_
