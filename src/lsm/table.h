// Table: immutable SSTable reader (index + data blocks + filter), safe for
// concurrent access without synchronization.
#pragma once

#include <cstdint>
#include <memory>

#include "buf/buffer_pool.h"
#include "lsm/iterator.h"
#include "util/options.h"

namespace sealdb {

namespace fs {
class RandomAccessFile;
}

class Block;
class BlockHandle;
class Footer;
struct Options;

class Table {
 public:
  // Attempt to open the table that is stored in bytes [0..file_size) of
  // "file", and read the metadata entries necessary to allow retrieving
  // data from the table. The metadata (filter, metaindex and index blocks,
  // footer) sits contiguously at EOF and is read in one request sized from
  // the file; a block that request does not cover is read on its own.
  //
  // If successful, returns ok and sets "*table" to the newly opened table,
  // which owns "file" from then on. The client should delete "*table" when
  // no longer needed.
  //
  // When `buffer` names a registered buffer-pool client, every block this
  // table reads (data, index, filter) is cached in — and served from —
  // that pool, keyed by (buffer.owner, file_number, block offset); the
  // index and filter pages additionally stay pinned for the table's
  // lifetime. An empty `buffer` reads blocks privately with no caching.
  //
  // A non-empty `tail` holds the file's last tail.size() bytes, as its
  // TableBuilder wrote them (TableBuilder::tail()): Open then reads
  // nothing from "file", decodes the footer, index and filter from `tail`,
  // and fails with Corruption when a handle points outside it.
  static Status Open(const Options& options,
                     std::unique_ptr<fs::RandomAccessFile> file,
                     uint64_t file_size, Table** table,
                     const buf::BufferClient& buffer = {},
                     uint64_t file_number = 0, const Slice& tail = Slice());

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  ~Table();

  // Returns a new iterator over the table contents.
  // The result of NewIterator() is initially invalid (caller must
  // call one of the Seek methods on the iterator before using it).
  Iterator* NewIterator(const ReadOptions&) const;

  // Given a key, return an approximate byte offset in the file where
  // the data for that key begins (or would begin if the key were
  // present in the file).
  uint64_t ApproximateOffsetOf(const Slice& key) const;

 private:
  friend class TableCache;
  struct Rep;

  static Iterator* BlockReader(void*, const ReadOptions&, const Slice&);

  explicit Table(Rep* rep) : rep_(rep) {}

  // Calls (*handle_result)(arg, ...) with the entry found after a call
  // to Seek(key).  May not make such a call if filter policy says
  // that key is not present.
  Status InternalGet(const ReadOptions&, const Slice& key, void* arg,
                     void (*handle_result)(void* arg, const Slice& k,
                                           const Slice& v));

  // Read the filter through `file`, the table file or Open's tail span.
  void ReadMeta(const Footer& footer, fs::RandomAccessFile* file);
  void ReadFilter(const Slice& filter_handle_value,
                  fs::RandomAccessFile* file);

  Rep* const rep_;
};

}  // namespace sealdb
