#include "lsm/table.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "buf/buffer_pool.h"
#include "fs/file_store.h"
#include "lsm/block.h"
#include "lsm/filter_block.h"
#include "lsm/format.h"
#include "lsm/two_level_iterator.h"
#include "util/coding.h"
#include "util/comparator.h"
#include "util/filter_policy.h"

namespace sealdb {

namespace {

// A pooled filter page: owns the raw filter bytes so the page can outlive
// the Table that read it (a FilterBlockReader is rebuilt per table from
// the shared bytes).
struct FilterPage {
  const char* data = nullptr;
  size_t size = 0;
  ~FilterPage() { delete[] data; }
};

void DeleteFilterPageValue(void* value) {
  delete static_cast<FilterPage*>(value);
}

void DeleteBlockValue(void* value) { delete static_cast<Block*>(value); }

// Open reads the table's tail -- filter, metaindex and index blocks and the
// footer, which sit contiguously at EOF -- in one request of
// max(kMinTailBytes, size / kTailDivisor) bytes. Measured tails (16 B keys,
// 10-bit bloom filter) are 1.3% of the table with 4 KiB values, 1.5% with
// 256 B and 2.0% with 128 B; size/48 = 2.08% covers them. With 64 B values
// (2.7%) a table past the 4 KiB floor reads the blocks the span misses on
// their own.
constexpr uint64_t kMinTailBytes = 4096;
constexpr uint64_t kTailDivisor = 48;

// Serves reads inside the tail span from memory, copied into the caller's
// scratch so the blocks stay heap-allocated and poolable; a block the span
// does not cover is read from the file, or, without one, is corrupt.
class TailFile final : public fs::RandomAccessFile {
 public:
  TailFile(fs::RandomAccessFile* file, uint64_t offset, Slice tail)
      : file_(file), offset_(offset), tail_(tail) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    if (offset >= offset_ && offset + n <= offset_ + tail_.size()) {
      std::memcpy(scratch, tail_.data() + (offset - offset_), n);
      *result = Slice(scratch, n);
      return Status::OK();
    }
    if (file_ == nullptr) {
      return Status::Corruption("table block outside its tail");
    }
    return file_->Read(offset, n, result, scratch);
  }

 private:
  fs::RandomAccessFile* const file_;
  const uint64_t offset_;
  const Slice tail_;
};

}  // namespace

struct Table::Rep {
  ~Rep() {
    delete filter;
    delete[] filter_data;
    if (index_owned) delete index_block;
  }

  Options options;
  Status status;
  fs::RandomAccessFile* file;
  buf::BufferClient buffer;  // empty => read blocks privately, no caching
  uint64_t file_number;
  FilterBlockReader* filter;
  const char* filter_data;               // owned iff non-null (unpooled path)
  buf::BufferPool::PageRef filter_page;  // pins the pooled filter bytes

  BlockHandle metaindex_handle;  // Handle to metaindex_block: saved from footer
  Block* index_block;
  bool index_owned;                     // false when the pool owns it
  buf::BufferPool::PageRef index_page;  // pins the pooled index block
};

Status Table::Open(const Options& options, fs::RandomAccessFile* file,
                   uint64_t size, Table** table,
                   const buf::BufferClient& buffer, uint64_t file_number,
                   const Slice& written_tail) {
  *table = nullptr;
  if (size < Footer::kEncodedLength) {
    return Status::Corruption("file is too short to be an sstable");
  }

  Slice tail = written_tail;
  std::unique_ptr<char[]> tail_space;
  Status s;
  if (tail.empty()) {
    const uint64_t span =
        std::min(size, std::max(kMinTailBytes, size / kTailDivisor));
    tail_space = std::make_unique_for_overwrite<char[]>(span);
    s = file->Read(size - span, span, &tail, tail_space.get());
    if (!s.ok()) return s;
    if (tail.size() != span) return Status::Corruption("truncated table tail");
  } else if (tail.size() < Footer::kEncodedLength || tail.size() > size) {
    return Status::Corruption("bad table tail size");
  }
  TailFile meta_file(written_tail.empty() ? file : nullptr,
                     size - tail.size(), tail);

  Slice footer_input(tail.data() + tail.size() - Footer::kEncodedLength,
                     Footer::kEncodedLength);
  Footer footer;
  s = footer.DecodeFrom(&footer_input);
  if (!s.ok()) return s;

  // Read the index block: pooled (and pinned for the table's lifetime,
  // the strongest admission bias) when a buffer client is supplied.
  ReadOptions opt;
  if (options.paranoid_checks) {
    opt.verify_checksums = true;
  }
  Block* index_block = nullptr;
  bool index_owned = true;
  buf::BufferPool::PageRef index_page;
  const uint64_t index_offset = footer.index_handle().offset();
  if (buffer &&
      buffer.pool->Lookup(buffer, file_number, index_offset,
                          buf::BlockKind::kIndex, &index_page)) {
    index_block = static_cast<Block*>(index_page.value());
    index_owned = false;
  } else {
    BlockContents index_block_contents;
    s = ReadBlock(&meta_file, opt, footer.index_handle(),
                  &index_block_contents);
    if (s.ok()) {
      index_block = new Block(index_block_contents);
      if (buffer && index_block_contents.cachable) {
        buffer.pool->Insert(buffer, file_number, index_offset,
                            buf::BlockKind::kIndex, index_block,
                            index_block->size(), &DeleteBlockValue,
                            &index_page);
        // A racing open may have inserted this index first, in which case
        // the resident copy won and ours was deleted.
        index_block = static_cast<Block*>(index_page.value());
        index_owned = false;
      }
    }
  }

  if (s.ok()) {
    // We've successfully read the footer and the index block: we're
    // ready to serve requests.
    Rep* rep = new Table::Rep;
    rep->options = options;
    rep->file = file;
    rep->buffer = buffer;
    rep->file_number = file_number;
    rep->metaindex_handle = footer.metaindex_handle();
    rep->index_block = index_block;
    rep->index_owned = index_owned;
    rep->index_page = std::move(index_page);
    rep->filter_data = nullptr;
    rep->filter = nullptr;
    *table = new Table(rep);
    (*table)->ReadMeta(footer, &meta_file);
  }

  return s;
}

void Table::ReadMeta(const Footer& footer, fs::RandomAccessFile* file) {
  if (rep_->options.filter_policy == nullptr) {
    return;  // Do not need any metadata
  }

  ReadOptions opt;
  if (rep_->options.paranoid_checks) {
    opt.verify_checksums = true;
  }
  BlockContents contents;
  if (!ReadBlock(file, opt, footer.metaindex_handle(), &contents).ok()) {
    // Do not propagate errors since meta info is not needed for operation
    return;
  }
  Block* meta = new Block(contents);

  Iterator* iter = meta->NewIterator(BytewiseComparator());
  std::string key = "filter.";
  key.append(rep_->options.filter_policy->Name());
  iter->Seek(key);
  if (iter->Valid() && iter->key() == Slice(key)) {
    ReadFilter(iter->value(), file);
  }
  delete iter;
  delete meta;
}

void Table::ReadFilter(const Slice& filter_handle_value,
                       fs::RandomAccessFile* file) {
  Slice v = filter_handle_value;
  BlockHandle filter_handle;
  if (!filter_handle.DecodeFrom(&v).ok()) {
    return;
  }

  const buf::BufferClient& buffer = rep_->buffer;
  if (buffer) {
    // Pooled filter page, pinned for the table's lifetime so lookups
    // never re-read filter bytes while the table is open.
    if (buffer.pool->Lookup(buffer, rep_->file_number,
                            filter_handle.offset(), buf::BlockKind::kFilter,
                            &rep_->filter_page)) {
      auto* page = static_cast<FilterPage*>(rep_->filter_page.value());
      rep_->filter = new FilterBlockReader(rep_->options.filter_policy,
                                           Slice(page->data, page->size));
      return;
    }
  }

  ReadOptions opt;
  if (rep_->options.paranoid_checks) {
    opt.verify_checksums = true;
  }
  BlockContents block;
  if (!ReadBlock(file, opt, filter_handle, &block).ok()) {
    return;
  }
  if (buffer && block.heap_allocated) {
    auto* page = new FilterPage;
    page->data = block.data.data();
    page->size = block.data.size();
    buffer.pool->Insert(buffer, rep_->file_number, filter_handle.offset(),
                        buf::BlockKind::kFilter, page,
                        page->size + sizeof(FilterPage),
                        &DeleteFilterPageValue, &rep_->filter_page);
    // A racing open may have inserted this filter first; ours would have
    // been deleted, so read back the resident page.
    page = static_cast<FilterPage*>(rep_->filter_page.value());
    rep_->filter = new FilterBlockReader(rep_->options.filter_policy,
                                         Slice(page->data, page->size));
    return;
  }
  if (block.heap_allocated) {
    rep_->filter_data = block.data.data();  // Will need to delete later
  }
  rep_->filter = new FilterBlockReader(rep_->options.filter_policy, block.data);
}

Table::~Table() { delete rep_; }

static void DeleteBlock(void* arg, void* ignored) {
  (void)ignored;
  delete reinterpret_cast<Block*>(arg);
}

// Convert an index iterator value (i.e., an encoded BlockHandle)
// into an iterator over the contents of the corresponding block.
Iterator* Table::BlockReader(void* arg, const ReadOptions& options,
                             const Slice& index_value) {
  Table* table = reinterpret_cast<Table*>(arg);
  const buf::BufferClient& buffer = table->rep_->buffer;
  Block* block = nullptr;
  buf::BufferPool::PageRef page;

  BlockHandle handle;
  Slice input = index_value;
  Status s = handle.DecodeFrom(&input);
  // We intentionally allow extra stuff in index_value so that we
  // can add more features in the future.

  if (s.ok()) {
    BlockContents contents;
    if (buffer) {
      if (buffer.pool->Lookup(buffer, table->rep_->file_number,
                              handle.offset(), buf::BlockKind::kData,
                              &page)) {
        block = static_cast<Block*>(page.value());
      } else {
        s = ReadBlock(table->rep_->file, options, handle, &contents);
        if (s.ok()) {
          block = new Block(contents);
          if (contents.cachable) {
            buffer.pool->Insert(buffer, table->rep_->file_number,
                                handle.offset(), buf::BlockKind::kData,
                                block, block->size(), &DeleteBlockValue,
                                &page);
            // If a racing reader inserted this page first, the resident
            // copy won and ours was deleted: always adopt the pinned one.
            block = static_cast<Block*>(page.value());
          }
        }
      }
    } else {
      s = ReadBlock(table->rep_->file, options, handle, &contents);
      if (s.ok()) {
        block = new Block(contents);
      }
    }
  }

  Iterator* iter;
  if (block != nullptr) {
    iter = block->NewIterator(table->rep_->options.comparator);
    if (page) {
      // Hand the pin to the iterator: released when the iterator dies.
      iter->RegisterCleanup(&buf::BufferPool::UnpinToken, buffer.pool,
                            page.ReleaseToken());
    } else {
      iter->RegisterCleanup(&DeleteBlock, block, nullptr);
    }
  } else {
    iter = NewErrorIterator(s);
  }
  return iter;
}

Iterator* Table::NewIterator(const ReadOptions& options) const {
  return NewTwoLevelIterator(
      rep_->index_block->NewIterator(rep_->options.comparator),
      &Table::BlockReader, const_cast<Table*>(this), options);
}

Status Table::InternalGet(const ReadOptions& options, const Slice& k,
                          void* arg,
                          void (*handle_result)(void*, const Slice&,
                                                const Slice&)) {
  Status s;
  Iterator* iiter = rep_->index_block->NewIterator(rep_->options.comparator);
  iiter->Seek(k);
  if (iiter->Valid()) {
    Slice handle_value = iiter->value();
    FilterBlockReader* filter = rep_->filter;
    BlockHandle handle;
    if (filter != nullptr && handle.DecodeFrom(&handle_value).ok() &&
        !filter->KeyMayMatch(handle.offset(), k)) {
      // Not found
    } else {
      Iterator* block_iter = BlockReader(const_cast<Table*>(this), options,
                                         iiter->value());
      block_iter->Seek(k);
      if (block_iter->Valid()) {
        (*handle_result)(arg, block_iter->key(), block_iter->value());
      }
      s = block_iter->status();
      delete block_iter;
    }
  }
  if (s.ok()) {
    s = iiter->status();
  }
  delete iiter;
  return s;
}

uint64_t Table::ApproximateOffsetOf(const Slice& key) const {
  Iterator* index_iter =
      rep_->index_block->NewIterator(rep_->options.comparator);
  index_iter->Seek(key);
  uint64_t result;
  if (index_iter->Valid()) {
    BlockHandle handle;
    Slice input = index_iter->value();
    Status s = handle.DecodeFrom(&input);
    if (s.ok()) {
      result = handle.offset();
    } else {
      // Strange: we can't decode the block handle in the index block.
      // We'll just return the offset of the metaindex block, which is
      // close to the whole file size for this case.
      result = rep_->metaindex_handle.offset();
    }
  } else {
    // key is past the last key in the file.  Approximate the offset
    // by returning the offset of the metaindex block (which is
    // right near the end of the file).
    result = rep_->metaindex_handle.offset();
  }
  delete index_iter;
  return result;
}

}  // namespace sealdb
