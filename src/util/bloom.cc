#include <cstdint>

#include "util/filter_policy.h"
#include "util/hash.h"

namespace sealdb {

namespace {

uint32_t BloomHash(const Slice& key) {
  return Hash(key.data(), key.size(), 0xbc9f1d34);
}

// h % bits for a filter of `bits` bits, by two multiplications instead of a
// division per probe (Lemire, Kaser and Kurz, "Faster Remainder by Direct
// Computation", 2019). Exact for every 32-bit h, so a filter holds the bits
// the plain remainder would set.
class BitPosition {
 public:
  explicit BitPosition(uint64_t bits)
      : bits_(bits), m_(bits <= UINT32_MAX ? ~uint64_t{0} / bits + 1 : 0) {}

  uint32_t operator()(uint32_t h) const {
    if (bits_ > UINT32_MAX) return h;  // h < bits
    const uint64_t low = m_ * h;
    return static_cast<uint32_t>(
        (static_cast<unsigned __int128>(low) * bits_) >> 64);
  }

 private:
  const uint64_t bits_;
  const uint64_t m_;
};

class BloomFilterPolicy : public FilterPolicy {
 public:
  explicit BloomFilterPolicy(int bits_per_key) : bits_per_key_(bits_per_key) {
    // Round down k to reduce probing cost a little; clamp to sane range.
    k_ = static_cast<size_t>(bits_per_key * 0.69);  // 0.69 =~ ln(2)
    if (k_ < 1) k_ = 1;
    if (k_ > 30) k_ = 30;
  }

  const char* Name() const override { return "sealdb.BuiltinBloomFilter"; }

  void CreateFilter(const Slice* keys, int n, std::string* dst) const override {
    // Compute bloom filter size (in both bits and bytes)
    size_t bits = n * bits_per_key_;

    // For small n, we can see a very high false positive rate.  Fix it
    // by enforcing a minimum bloom filter length.
    if (bits < 64) bits = 64;

    size_t bytes = (bits + 7) / 8;
    bits = bytes * 8;

    const size_t init_size = dst->size();
    dst->resize(init_size + bytes, 0);
    dst->push_back(static_cast<char>(k_));  // Remember # of probes
    char* array = &(*dst)[init_size];
    const BitPosition position(bits);
    for (int i = 0; i < n; i++) {
      // Use double-hashing to generate a sequence of hash values.
      uint32_t h = BloomHash(keys[i]);
      const uint32_t delta = (h >> 17) | (h << 15);  // Rotate right 17 bits
      for (size_t j = 0; j < k_; j++) {
        const uint32_t bitpos = position(h);
        array[bitpos / 8] |= (1 << (bitpos % 8));
        h += delta;
      }
    }
  }

  bool KeyMayMatch(const Slice& key, const Slice& bloom_filter) const override {
    const size_t len = bloom_filter.size();
    if (len < 2) return false;

    const char* array = bloom_filter.data();
    const size_t bits = (len - 1) * 8;

    // Use the encoded k so we can read filters generated by other builds.
    const size_t k = static_cast<uint8_t>(array[len - 1]);
    if (k > 30) {
      // Reserved for potentially new encodings; consider it a match.
      return true;
    }

    const BitPosition position(bits);
    uint32_t h = BloomHash(key);
    const uint32_t delta = (h >> 17) | (h << 15);
    for (size_t j = 0; j < k; j++) {
      const uint32_t bitpos = position(h);
      if ((array[bitpos / 8] & (1 << (bitpos % 8))) == 0) return false;
      h += delta;
    }
    return true;
  }

 private:
  int bits_per_key_;
  size_t k_;
};

}  // namespace

const FilterPolicy* NewBloomFilterPolicy(int bits_per_key) {
  return new BloomFilterPolicy(bits_per_key);
}

}  // namespace sealdb
