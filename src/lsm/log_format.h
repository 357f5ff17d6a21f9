// WAL record format. Records are packed into fixed-size blocks
// matching the drive block (4 KB) so that a synced log can be padded to a
// block boundary and never rewritten in place — a requirement on shingled
// media.
//
// Block := record* trailer?
// record :=
//    checksum: uint32  (crc32c of type and data[], masked)
//    length:   uint16
//    type:     uint8   (kZeroType..kLastType)
//    data:     uint8[length]
#pragma once

#include <cstdint>

namespace sealdb::log {

enum RecordType {
  // Zero is reserved for preallocated/padded areas.
  kZeroType = 0,

  kFullType = 1,
  // For fragments:
  kFirstType = 2,
  kMiddleType = 3,
  kLastType = 4
};
static const int kMaxRecordType = kLastType;

static const int kBlockSize = 4096;

// Header is checksum (4 bytes), length (2 bytes), type (1 byte).
static const int kHeaderSize = 4 + 2 + 1;

}  // namespace sealdb::log
