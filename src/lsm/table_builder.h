// TableBuilder: streams sorted key/value pairs into an SSTable file
// (data blocks + filter block + metaindex + index + footer). The bytes go
// out through the file's own chunking; the builder never flushes it.
#pragma once

#include <cstdint>

#include "util/options.h"
#include "util/slice.h"
#include "util/status.h"

namespace sealdb {

namespace fs {
class WritableFile;
}

class BlockBuilder;
class BlockHandle;

class TableBuilder {
 public:
  // Create a builder that will store the contents of the table it is
  // building in *file.  Does not close the file.
  TableBuilder(const Options& options, fs::WritableFile* file);

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  // REQUIRES: Either Finish() or Abandon() has been called.
  ~TableBuilder();

  // Add key,value to the table being constructed.
  // REQUIRES: key is after any previously added key in comparator order.
  // REQUIRES: Finish(), Abandon() have not been called
  void Add(const Slice& key, const Slice& value);

  // Return non-ok iff some error has been detected.
  Status status() const;

  // Finish building the table.
  Status Finish();

  // Indicate that the contents of this builder should be abandoned.
  void Abandon();

  // Number of calls to Add() so far.
  uint64_t NumEntries() const;

  // Size of the file generated so far.
  uint64_t FileSize() const;

  // The bytes a successful Finish() appended after the last data block --
  // filter, metaindex and index blocks and the footer -- which end the
  // file at FileSize(). Table::Open takes them to open the new table
  // without reading it back.
  Slice tail() const;

 private:
  bool ok() const { return status().ok(); }
  // Append the pending data block to the file.
  void Flush();
  void WriteBlock(BlockBuilder* block, BlockHandle* handle);
  void WriteRawBlock(const Slice& data, BlockHandle* handle);
  // Append to the file and advance the offset; Finish()'s bytes are kept
  // in the tail too.
  void Append(const Slice& data);

  struct Rep;
  Rep* rep_;
};

}  // namespace sealdb
