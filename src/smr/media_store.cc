#include <algorithm>
#include <cassert>
#include <cstring>

#include "smr/drive.h"

namespace sealdb::smr {

MediaStore::MediaStore(const Geometry& geo)
    : geo_(geo), chunk_bytes_(64ull * geo.block_bytes) {
  valid_bits_.assign((geo_.num_blocks() + 63) / 64, 0);
  chunks_.resize(valid_bits_.size());
}

void MediaStore::Write(uint64_t offset, const Slice& data) {
  const char* src = data.data();
  uint64_t remaining = data.size();
  uint64_t pos = offset;
  while (remaining > 0) {
    const uint64_t chunk_id = pos / chunk_bytes_;
    const uint64_t in_chunk = pos % chunk_bytes_;
    const uint64_t n = std::min(remaining, chunk_bytes_ - in_chunk);
    std::unique_ptr<char[]>& chunk = chunks_[chunk_id];
    if (chunk == nullptr) {
      chunk = std::make_unique_for_overwrite<char[]>(chunk_bytes_);
      // Only the bytes this write does not cover need clearing.
      std::memset(chunk.get(), 0, in_chunk);
      std::memset(chunk.get() + in_chunk + n, 0, chunk_bytes_ - in_chunk - n);
    }
    std::memcpy(chunk.get() + in_chunk, src, n);
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
    const uint64_t chunk_id = pos / chunk_bytes_;
    const uint64_t in_chunk = pos % chunk_bytes_;
    const uint64_t m = std::min(remaining, chunk_bytes_ - in_chunk);
    const char* chunk = chunks_[chunk_id].get();
    if (chunk == nullptr) {
      std::memset(dst, 0, m);
    } else {
      std::memcpy(dst, chunk + in_chunk, m);
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
    const uint64_t mask = RangeMask(w, first, last);
    // Invalid blocks of a kept chunk already read as zeros, so a word with
    // nothing valid in range needs no work.
    if ((valid_bits_[w] & mask) == 0) continue;
    valid_bits_[w] &= ~mask;
    std::unique_ptr<char[]>& chunk = chunks_[w];
    if (chunk == nullptr) continue;
    if (valid_bits_[w] == 0) {
      chunk.reset();
      continue;
    }
    const uint64_t lo = std::max(first, w << 6) - (w << 6);
    const uint64_t hi = std::min(last, (w << 6) + 63) - (w << 6);
    std::memset(chunk.get() + lo * geo_.block_bytes, 0,
                (hi - lo + 1) * geo_.block_bytes);
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
