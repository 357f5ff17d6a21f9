#include "lsm/table_cache.h"

#include <algorithm>
#include <utility>

#include "fs/file_store.h"
#include "lsm/filename.h"
#include "lsm/table.h"
#include "lsm/version_edit.h"
#include "util/coding.h"

namespace sealdb {

struct TableAndFile {
  std::unique_ptr<fs::RandomAccessFile> file;
  Table* table;
};

static void DeleteEntry(const Slice& key, void* value) {
  (void)key;
  TableAndFile* tf = reinterpret_cast<TableAndFile*>(value);
  delete tf->table;
  delete tf;
}

static void UnrefEntry(void* arg1, void* arg2) {
  Cache* cache = reinterpret_cast<Cache*>(arg1);
  Cache::Handle* h = reinterpret_cast<Cache::Handle*>(arg2);
  cache->Release(h);
}

TableCache::TableCache(const std::string& dbname, const Options& options,
                       fs::FileStore* store, int entries)
    : dbname_(dbname),
      options_(options),
      store_(store),
      cache_(NewLRUCache(entries)) {
  if (options.buffer_pool != nullptr) {
    buffer_ = options.buffer_pool->RegisterClient(options.metrics_shard_label);
  }
}

TableCache::~TableCache() {
  // Close the tables first: their pinned index/filter pages must drop
  // before the owner purge so the pool can free them immediately.
  cache_.reset();
  if (buffer_) {
    buffer_.pool->UnregisterClient(buffer_);
  }
}

Status TableCache::FindTable(uint64_t file_number, uint64_t file_size,
                             const Slice& tail, Cache::Handle** handle) {
  Status s;
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  Slice key(buf, sizeof(buf));
  *handle = cache_->Lookup(key);
  if (*handle == nullptr) {
    std::string fname = TableFileName(dbname_, file_number);
    std::unique_ptr<fs::RandomAccessFile> file;
    Table* table = nullptr;
    s = store_->NewRandomAccessFile(fname, &file);
    if (s.ok()) {
      s = Table::Open(options_, file.get(), file_size, &table, buffer_,
                      file_number, tail);
    }

    if (!s.ok()) {
      assert(table == nullptr);
      // We do not cache error results so that if the error is transient,
      // or somebody repairs the file, we recover automatically.
    } else {
      TableAndFile* tf = new TableAndFile;
      tf->file = std::move(file);
      tf->table = table;
      *handle = cache_->Insert(key, tf, 1, &DeleteEntry);
    }
  }
  return s;
}

Status TableCache::AddNewTable(uint64_t file_number, uint64_t file_size,
                               const Slice& tail) {
  Cache::Handle* handle = nullptr;
  Status s = FindTable(file_number, file_size, tail, &handle);
  if (s.ok()) cache_->Release(handle);
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
      Status s;
      if (held + len <= kMaxImageBytes) {
        image.data = std::make_unique_for_overwrite<char[]>(len);
        s = store_->ReadFileRange(fname, 0, len, image.data.get());
        if (!s.ok()) return s;
        image.file =
            std::make_unique<ImageFile>(Slice(image.data.get(), f->file_size));
        held += len;
      } else {
        s = store_->NewRandomAccessFile(fname, &image.file);
        if (!s.ok()) return s;
      }
      Table* table = nullptr;
      s = Table::Open(options_, image.file.get(), f->file_size, &table);
      if (!s.ok()) return s;
      image.table.reset(table);
      images->emplace(f->number, std::move(image));
    }
  }
  return Status::OK();
}

Iterator* TableCache::NewIterator(const ReadOptions& options,
                                  uint64_t file_number, uint64_t file_size,
                                  Table** tableptr) {
  if (tableptr != nullptr) {
    *tableptr = nullptr;
  }

  Cache::Handle* handle = nullptr;
  Status s = FindTable(file_number, file_size, Slice(), &handle);
  if (!s.ok()) {
    return NewErrorIterator(s);
  }

  Table* table = reinterpret_cast<TableAndFile*>(cache_->Value(handle))->table;
  Iterator* result = table->NewIterator(options);
  result->RegisterCleanup(&UnrefEntry, cache_.get(), handle);
  if (tableptr != nullptr) {
    *tableptr = table;
  }
  return result;
}

Status TableCache::Get(const ReadOptions& options, uint64_t file_number,
                       uint64_t file_size, const Slice& k, void* arg,
                       void (*handle_result)(void*, const Slice&,
                                             const Slice&)) {
  Cache::Handle* handle = nullptr;
  Status s = FindTable(file_number, file_size, Slice(), &handle);
  if (s.ok()) {
    Table* t = reinterpret_cast<TableAndFile*>(cache_->Value(handle))->table;
    s = t->InternalGet(options, k, arg, handle_result);
    cache_->Release(handle);
  }
  return s;
}

void TableCache::Evict(uint64_t file_number, bool ban) {
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  // Erase the table handle first so a cached Table's pinned index/filter
  // pages unpin (unless an iterator still holds the table), then purge
  // the dead file's pages from the pool; still-pinned ones are doomed and
  // freed at last unpin.
  cache_->Erase(Slice(buf, sizeof(buf)));
  if (buffer_) {
    buffer_.pool->EvictFile(buffer_, file_number, ban);
  }
}

}  // namespace sealdb
