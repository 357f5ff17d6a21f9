#include "lsm/table_cache.h"

#include <algorithm>
#include <utility>

#include "fs/file_store.h"
#include "lsm/filename.h"
#include "lsm/table.h"
#include "lsm/version_edit.h"

namespace sealdb {

TableCache::TableCache(const std::string& dbname, const Options& options,
                       fs::FileStore* store)
    : dbname_(dbname), options_(options), store_(store) {
  if (options.buffer_pool != nullptr) {
    buffer_ = options.buffer_pool->RegisterClient(options.metrics_shard_label);
  }
}

TableCache::~TableCache() {
  if (buffer_) {
    buffer_.pool->UnregisterClient(buffer_);
  }
}

Status TableCache::Open(FileMetaData* f, Table** table) {
  *table = f->table.load(std::memory_order_acquire);
  if (*table != nullptr) return Status::OK();

  std::lock_guard<std::mutex> l(open_mu_);
  *table = f->table.load(std::memory_order_acquire);
  if (*table != nullptr) return Status::OK();
  std::unique_ptr<Table> opened;
  Status s = OpenTable(f->number, f->file_size, Slice(), &opened);
  if (!s.ok()) return s;
  *table = opened.release();
  f->table.store(*table, std::memory_order_release);
  return s;
}

Status TableCache::OpenTable(uint64_t file_number, uint64_t file_size,
                             const Slice& tail, std::unique_ptr<Table>* table) {
  std::unique_ptr<fs::RandomAccessFile> file;
  Status s = store_->NewRandomAccessFile(TableFileName(dbname_, file_number),
                                         &file);
  if (!s.ok()) return s;
  Table* opened = nullptr;
  s = Table::Open(options_, std::move(file), file_size, &opened, buffer_,
                  file_number, tail);
  table->reset(opened);
  return s;
}

namespace {

// A table image's bytes as a file. Reads return pointers into the image,
// so ReadBlock decodes blocks in place, with no scratch buffer.
class ImageFile final : public fs::RandomAccessFile {
 public:
  explicit ImageFile(Slice image) : image_(image) {}

  bool serves_from_memory() const override { return true; }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    (void)scratch;
    if (offset >= image_.size()) {
      *result = Slice();
      return Status::OK();
    }
    *result = Slice(image_.data() + offset,
                    std::min<uint64_t>(n, image_.size() - offset));
    return Status::OK();
  }

 private:
  const Slice image_;
};

}  // namespace

TableImage::TableImage() = default;
TableImage::TableImage(TableImage&&) noexcept = default;
TableImage::~TableImage() = default;

Status TableCache::ReadImages(const std::vector<FileMetaData*>& victims,
                              const std::vector<FileMetaData*>& set,
                              TableImages* images) {
  const uint64_t block = store_->drive()->geometry().block_bytes;
  uint64_t held = 0;
  std::vector<fs::Extent> extents;
  for (const std::vector<FileMetaData*>* files : {&victims, &set}) {
    std::vector<std::pair<uint64_t, const FileMetaData*>> order;  // physical
    for (const FileMetaData* f : *files) {
      Status s =
          store_->GetFileExtents(TableFileName(dbname_, f->number), &extents);
      if (!s.ok()) return s;
      order.emplace_back(extents.empty() ? 0 : extents.front().offset, f);
    }
    std::sort(order.begin(), order.end());

    for (const auto& [physical, f] : order) {
      const std::string fname = TableFileName(dbname_, f->number);
      const uint64_t len = (f->file_size + block - 1) / block * block;
      TableImage image;
      std::unique_ptr<fs::RandomAccessFile> file;
      Status s;
      if (held + len <= kMaxImageBytes) {
        image.data = std::make_unique_for_overwrite<char[]>(len);
        s = store_->ReadFileRange(fname, 0, len, image.data.get());
        if (!s.ok()) return s;
        file =
            std::make_unique<ImageFile>(Slice(image.data.get(), f->file_size));
        held += len;
      } else {
        s = store_->NewRandomAccessFile(fname, &file);
        if (!s.ok()) return s;
      }
      Table* table = nullptr;
      s = Table::Open(options_, std::move(file), f->file_size, &table);
      if (!s.ok()) return s;
      image.table.reset(table);
      images->emplace(f->number, std::move(image));
    }
  }
  return Status::OK();
}

Iterator* TableCache::NewIterator(const ReadOptions& options,
                                  FileMetaData* f) {
  Table* table;
  Status s = Open(f, &table);
  if (!s.ok()) return NewErrorIterator(s);
  return table->NewIterator(options);
}

Status TableCache::Get(const ReadOptions& options, FileMetaData* f,
                       const Slice& k, void* arg,
                       void (*handle_result)(void*, const Slice&,
                                             const Slice&)) {
  Table* table;
  Status s = Open(f, &table);
  if (!s.ok()) return s;
  return table->InternalGet(options, k, arg, handle_result);
}

void TableCache::Evict(uint64_t file_number, bool ban) {
  if (buffer_) {
    buffer_.pool->EvictFile(buffer_, file_number, ban);
  }
}

}  // namespace sealdb
