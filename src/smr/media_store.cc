#include <algorithm>
#include <cassert>
#include <cstring>

#include "smr/drive.h"

namespace sealdb::smr {

MediaStore::MediaStore(const Geometry& geo) : geo_(geo) {
  valid_bits_.assign((geo_.num_blocks() + 63) / 64, 0);
}

void MediaStore::Write(uint64_t offset, const Slice& data) {
  const char* src = data.data();
  uint64_t remaining = data.size();
  uint64_t pos = offset;
  while (remaining > 0) {
    const uint64_t chunk_id = pos / kChunkBytes;
    const uint64_t in_chunk = pos % kChunkBytes;
    const uint64_t n = std::min(remaining, kChunkBytes - in_chunk);
    auto& chunk = chunks_[chunk_id];
    if (chunk.empty()) chunk.assign(kChunkBytes, 0);
    std::memcpy(chunk.data() + in_chunk, src, n);
    src += n;
    pos += n;
    remaining -= n;
  }
}

void MediaStore::Read(uint64_t offset, uint64_t n, char* scratch) const {
  uint64_t remaining = n;
  uint64_t pos = offset;
  char* dst = scratch;
  while (remaining > 0) {
    const uint64_t chunk_id = pos / kChunkBytes;
    const uint64_t in_chunk = pos % kChunkBytes;
    const uint64_t m = std::min(remaining, kChunkBytes - in_chunk);
    auto it = chunks_.find(chunk_id);
    if (it == chunks_.end()) {
      std::memset(dst, 0, m);
    } else {
      std::memcpy(dst, it->second.data() + in_chunk, m);
    }
    dst += m;
    pos += m;
    remaining -= m;
  }
}

namespace {

// Bits of valid-map word `w` that fall inside blocks [first, last].
uint64_t RangeMask(uint64_t w, uint64_t first, uint64_t last) {
  const uint64_t lo = w == (first >> 6) ? (first & 63) : 0;
  const uint64_t hi = w == (last >> 6) ? (last & 63) : 63;
  return (~0ull << lo) & (~0ull >> (63 - hi));
}

}  // namespace

void MediaStore::MarkValid(uint64_t offset, uint64_t n) {
  if (n == 0) return;
  const uint64_t first = geo_.block_of(offset);
  const uint64_t last = geo_.block_of(offset + n - 1);
  for (uint64_t w = first >> 6; w <= last >> 6; w++) {
    valid_bits_[w] |= RangeMask(w, first, last);
  }
}

void MediaStore::MarkInvalid(uint64_t offset, uint64_t n) {
  if (n == 0) return;
  const uint64_t first = geo_.block_of(offset);
  const uint64_t last = geo_.block_of(offset + n - 1);
  for (uint64_t w = first >> 6; w <= last >> 6; w++) {
    valid_bits_[w] &= ~RangeMask(w, first, last);
  }
}

bool MediaStore::AllValid(uint64_t offset, uint64_t n) const {
  if (n == 0) return true;
  const uint64_t first = geo_.block_of(offset);
  const uint64_t last = geo_.block_of(offset + n - 1);
  for (uint64_t w = first >> 6; w <= last >> 6; w++) {
    const uint64_t mask = RangeMask(w, first, last);
    if ((valid_bits_[w] & mask) != mask) return false;
  }
  return true;
}

bool MediaStore::AnyValid(uint64_t offset, uint64_t n) const {
  if (n == 0) return false;
  const uint64_t first = geo_.block_of(offset);
  const uint64_t last = geo_.block_of(offset + n - 1);
  for (uint64_t w = first >> 6; w <= last >> 6; w++) {
    if (valid_bits_[w] & RangeMask(w, first, last)) return true;
  }
  return false;
}

}  // namespace sealdb::smr
