#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace sealdb::crc32c {

namespace {

constexpr uint32_t kPoly = 0x82f63b78u;  // reversed CRC32C polynomial

// Build the 8 lookup tables for slicing-by-8 at first use.
struct Tables {
  uint32_t t[8][256];
  Tables() {
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t crc = i;
      for (int j = 0; j < 8; j++) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; i++) {
      for (int k = 1; k < 8; k++) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

const Tables& tables() {
  static const Tables kTables;
  return kTables;
}

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const Tables& tab = tables();
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);
  uint32_t crc = init_crc ^ 0xffffffffu;

  // Process 8 bytes at a time (slicing-by-8).
  while (n >= 8) {
    uint32_t lo = static_cast<uint32_t>(p[0]) |
                  (static_cast<uint32_t>(p[1]) << 8) |
                  (static_cast<uint32_t>(p[2]) << 16) |
                  (static_cast<uint32_t>(p[3]) << 24);
    crc ^= lo;
    crc = tab.t[7][crc & 0xff] ^ tab.t[6][(crc >> 8) & 0xff] ^
          tab.t[5][(crc >> 16) & 0xff] ^ tab.t[4][crc >> 24] ^
          tab.t[3][p[4]] ^ tab.t[2][p[5]] ^ tab.t[1][p[6]] ^ tab.t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ tab.t[0][(crc ^ *p++) & 0xff];
  }
  return crc ^ 0xffffffffu;
}

}  // namespace internal

#if defined(__x86_64__)

namespace {

// The SSE4.2 `crc32` instruction retires one 8-byte step per cycle but has
// a three-cycle latency, so one dependent stream runs at a third of the
// unit's rate. Long inputs are therefore cut into three equal streams
// computed side by side; each stream's register is then advanced over the
// bytes that follow it by a "zero-shift" operator (the CRC of appending
// `len` zero bytes is linear in the register, so it is a 32x32 GF(2)
// matrix) and XORed into the next. This is Mark Adler's crc32c_hw scheme.
// The operators are applied through four byte-indexed tables each,
// computed at compile time.
using Gf2Matrix = std::array<uint32_t, 32>;
using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;

constexpr uint32_t Gf2Times(const Gf2Matrix& mat, uint32_t vec) {
  uint32_t sum = 0;
  for (int i = 0; vec != 0; i++, vec >>= 1) {
    if (vec & 1) sum ^= mat[i];
  }
  return sum;
}

constexpr Gf2Matrix Gf2Square(const Gf2Matrix& mat) {
  Gf2Matrix sq{};
  for (int i = 0; i < 32; i++) sq[i] = Gf2Times(mat, mat[i]);
  return sq;
}

// Table form of the operator that appends `len` zero bytes, for `len` a
// power of two: start from one zero bit and square log2(8 * len) times.
constexpr ShiftTable MakeShiftTable(size_t len) {
  Gf2Matrix op{};
  op[0] = kPoly;
  for (int i = 1; i < 32; i++) op[i] = 1u << (i - 1);
  for (size_t bits = 1; bits < 8 * len; bits <<= 1) op = Gf2Square(op);
  ShiftTable table{};
  for (uint32_t b = 0; b < 256; b++) {
    for (int k = 0; k < 4; k++) table[k][b] = Gf2Times(op, b << (8 * k));
  }
  return table;
}

constexpr size_t kLong = 8192;  // bytes per stream, inputs >= 24 KiB
constexpr size_t kShort = 256;  // bytes per stream, inputs >= 768 B
constexpr ShiftTable kLongShift = MakeShiftTable(kLong);
constexpr ShiftTable kShortShift = MakeShiftTable(kShort);

inline uint32_t Shift(const ShiftTable& table, uint32_t crc) {
  return table[0][crc & 0xff] ^ table[1][(crc >> 8) & 0xff] ^
         table[2][(crc >> 16) & 0xff] ^ table[3][crc >> 24];
}

__attribute__((target("sse4.2"))) inline uint64_t Step8(uint64_t crc,
                                                       const char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return _mm_crc32_u64(crc, word);
}

// Consumes as many 3 * `len`-byte groups as `n` holds.
__attribute__((target("sse4.2"))) inline void ThreeStreams(
    size_t len, const ShiftTable& shift, uint64_t* crc0, const char** p,
    size_t* n) {
  while (*n >= 3 * len) {
    uint64_t crc1 = 0, crc2 = 0;
    const char* s = *p;
    const char* end = s + len;
    for (; s < end; s += 8) {
      *crc0 = Step8(*crc0, s);
      crc1 = Step8(crc1, s + len);
      crc2 = Step8(crc2, s + 2 * len);
    }
    *crc0 = Shift(shift, static_cast<uint32_t>(*crc0)) ^ crc1;
    *crc0 = Shift(shift, static_cast<uint32_t>(*crc0)) ^ crc2;
    *p += 3 * len;
    *n -= 3 * len;
  }
}

}  // namespace

namespace internal {

__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                        const char* data,
                                                        size_t n) {
  const char* p = data;
  uint64_t crc = init_crc ^ 0xffffffffu;
  // Align to 8 bytes so every word load below is aligned.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
    n--;
  }
  ThreeStreams(kLong, kLongShift, &crc, &p, &n);
  ThreeStreams(kShort, kShortShift, &crc, &p, &n);
  for (; n >= 8; n -= 8, p += 8) crc = Step8(crc, p);
  for (; n > 0; n--) crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
  return static_cast<uint32_t>(crc) ^ 0xffffffffu;
}

}  // namespace internal

#endif  // defined(__x86_64__)

namespace {

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn Chosen() {
  static const ExtendFn kChosen = [] {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) return &internal::ExtendSse42;
#endif
    return &internal::ExtendPortable;
  }();
  return kChosen;
}

}  // namespace

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return Chosen()(init_crc, data, n);
}

namespace internal {

const char* Implementation() {
  return Chosen() == &ExtendPortable ? "portable" : "sse4.2";
}

}  // namespace internal

}  // namespace sealdb::crc32c
