// CRC32C (Castagnoli) checksums for the WAL record format, SSTable block
// trailers, the FileStore journal and checkpoint, the wire codec and the
// shard superblock. On x86-64 CPUs with SSE4.2 (checked once per process)
// the `crc32` instruction computes them; elsewhere a portable slicing-by-8
// table does. Both produce identical values.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sealdb::crc32c {

// Return the crc32c of concat(A, data[0,n-1]) where init_crc is the
// crc32c of some string A.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

static constexpr uint32_t kMaskDelta = 0xa282ead8ul;

// Masking makes a crc stored alongside the data it covers resilient to
// the "crc of data that itself contains crcs" problem.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

// The kernels behind Extend, exposed so tests can check each directly.
namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

#if defined(__x86_64__)
// Requires a CPU with SSE4.2.
uint32_t ExtendSse42(uint32_t init_crc, const char* data, size_t n);
#endif

// The kernel Extend uses in this process: "sse4.2" or "portable".
const char* Implementation();

}  // namespace internal

}  // namespace sealdb::crc32c
