// Bloom filter for SSTable point lookups (double hashing, ~10 bits/key, k=6), as LevelDB
// uses to skip tables that cannot contain a key.

#ifndef SRC_MINILDB_BLOOM_H_
#define SRC_MINILDB_BLOOM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/hash.h"

namespace trio {

class BloomFilter {
 public:
  static constexpr int kBitsPerKey = 10;
  static constexpr int kProbes = 6;

  static uint64_t Hash(std::string_view key) { return HashString(key); }

  // Builds the filter bits for a key set, given the Hash() of each key.
  static std::string Build(const std::vector<uint64_t>& key_hashes) {
    size_t bits = key_hashes.size() * kBitsPerKey;
    bits = bits < 64 ? 64 : bits;
    std::string filter((bits + 7) / 8, '\0');
    const size_t total_bits = filter.size() * 8;
    for (uint64_t h : key_hashes) {
      const uint64_t delta = (h >> 33) | (h << 31);
      for (int probe = 0; probe < kProbes; ++probe) {
        const size_t bit = h % total_bits;
        filter[bit / 8] |= static_cast<char>(1 << (bit % 8));
        h += delta;
      }
    }
    return filter;
  }

  static bool MayContain(std::string_view filter, std::string_view key) {
    if (filter.empty()) {
      return true;
    }
    const size_t total_bits = filter.size() * 8;
    uint64_t h = Hash(key);
    const uint64_t delta = (h >> 33) | (h << 31);
    for (int probe = 0; probe < kProbes; ++probe) {
      const size_t bit = h % total_bits;
      if ((filter[bit / 8] & (1 << (bit % 8))) == 0) {
        return false;
      }
      h += delta;
    }
    return true;
  }
};

}  // namespace trio

#endif  // SRC_MINILDB_BLOOM_H_
