// On-disk SSTable framing: block handles, the table footer, and the shared
// block-read helper. Blocks are stored uncompressed with a 5-byte trailer
// (compression type + crc32c).
#pragma once

#include <cstdint>
#include <string>

#include "lsm/iterator.h"
#include "util/slice.h"
#include "util/status.h"

namespace sealdb {

namespace fs {
class RandomAccessFile;
}

struct ReadOptions;

// BlockHandle is a pointer to the extent of a file that stores a data
// block or a meta block.
class BlockHandle {
 public:
  // Maximum encoding length of a BlockHandle
  enum { kMaxEncodedLength = 10 + 10 };

  BlockHandle();

  // The offset of the block in the file.
  uint64_t offset() const { return offset_; }
  void set_offset(uint64_t offset) { offset_ = offset; }

  // The size of the stored block
  uint64_t size() const { return size_; }
  void set_size(uint64_t size) { size_ = size; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  uint64_t offset_;
  uint64_t size_;
};

// Footer encapsulates the fixed information stored at the tail end of
// every table file.
class Footer {
 public:
  // Encoded length of a Footer: two block handles and a magic number.
  enum { kEncodedLength = 2 * BlockHandle::kMaxEncodedLength + 8 };

  Footer() = default;

  const BlockHandle& metaindex_handle() const { return metaindex_handle_; }
  void set_metaindex_handle(const BlockHandle& h) { metaindex_handle_ = h; }

  const BlockHandle& index_handle() const { return index_handle_; }
  void set_index_handle(const BlockHandle& h) { index_handle_ = h; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  BlockHandle metaindex_handle_;
  BlockHandle index_handle_;
};

static const uint64_t kTableMagicNumber = 0x5345414c44422121ull;  // "SEALDB!!"

// kNoCompression is the only supported type; the byte is kept for format
// compatibility with future compressed blocks.
enum CompressionType : uint8_t { kNoCompression = 0x0 };

// 1-byte type + 32-bit crc
static const size_t kBlockTrailerSize = 5;

struct BlockContents {
  Slice data;           // Actual contents of data
  bool cachable;        // True iff data can be cached
  bool heap_allocated;  // True iff caller should delete[] data.data()
};

// Read the block identified by "handle" from "file".  On failure
// return non-OK.  On success fill *result and return OK. A file that
// serves from its own memory yields a block pointing into that memory,
// with no copy; any other file's block lands in a new heap buffer.
Status ReadBlock(fs::RandomAccessFile* file, const ReadOptions& options,
                 const BlockHandle& handle, BlockContents* result);

}  // namespace sealdb
