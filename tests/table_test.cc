// SSTable stack tests: block builder/reader, filter blocks, table
// build + seek + iterate, footer encoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dynamic_band_allocator.h"
#include "fs/file_store.h"
#include "lsm/block.h"
#include "lsm/block_builder.h"
#include "lsm/filter_block.h"
#include "lsm/filename.h"
#include "lsm/format.h"
#include "lsm/table.h"
#include "lsm/table_builder.h"
#include "lsm/table_cache.h"
#include "lsm/version_edit.h"
#include "smr/drive.h"
#include "util/coding.h"
#include "util/comparator.h"
#include "util/crc32c.h"
#include "util/filter_policy.h"
#include "util/random.h"

namespace sealdb {

// ------------------------------------------------------------- blocks

static BlockContents Contents(const Slice& data) {
  BlockContents contents;
  contents.data = data;
  contents.cachable = false;
  contents.heap_allocated = false;
  return contents;
}

TEST(BlockTest, EmptyBlock) {
  Options options;
  BlockBuilder builder(&options);
  Slice raw = builder.Finish();
  Block block(Contents(raw));
  std::unique_ptr<Iterator> iter(block.NewIterator(BytewiseComparator()));
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
}

TEST(BlockTest, RoundtripAndSeek) {
  Options options;
  options.block_restart_interval = 3;
  BlockBuilder builder(&options);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 200; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i * 3);
    std::string value = "value" + std::to_string(i);
    builder.Add(key, value);
    model[key] = value;
  }
  Slice raw = builder.Finish();
  Block block(Contents(raw));

  std::unique_ptr<Iterator> iter(block.NewIterator(BytewiseComparator()));
  // Full scan matches the model.
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_EQ(mit, model.end());

  // Seeks: existing, between, before-all, after-all.
  iter->Seek("key000300");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key000300", iter->key().ToString());

  iter->Seek("key000301");  // between entries (key...300 and ...303)
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key000303", iter->key().ToString());

  iter->Seek("a");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(model.begin()->first, iter->key().ToString());

  iter->Seek("z");
  EXPECT_FALSE(iter->Valid());

  // Backward iteration.
  iter->SeekToLast();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(model.rbegin()->first, iter->key().ToString());
  iter->Prev();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(std::next(model.rbegin())->first, iter->key().ToString());
}

// -------------------------------------------------------- filter block

TEST(FilterBlockTest, EmptyBuilder) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  FilterBlockBuilder builder(policy.get());
  Slice block = builder.Finish();
  FilterBlockReader reader(policy.get(), block);
  EXPECT_TRUE(reader.KeyMayMatch(0, "foo"));
  EXPECT_TRUE(reader.KeyMayMatch(100000, "foo"));
}

TEST(FilterBlockTest, SingleChunk) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  FilterBlockBuilder builder(policy.get());
  builder.StartBlock(100);
  builder.AddKey("foo");
  builder.AddKey("bar");
  builder.AddKey("box");
  builder.StartBlock(200);
  builder.AddKey("box");
  builder.StartBlock(300);
  builder.AddKey("hello");
  Slice block = builder.Finish();
  FilterBlockReader reader(policy.get(), block);
  EXPECT_TRUE(reader.KeyMayMatch(100, "foo"));
  EXPECT_TRUE(reader.KeyMayMatch(100, "bar"));
  EXPECT_TRUE(reader.KeyMayMatch(100, "box"));
  EXPECT_TRUE(reader.KeyMayMatch(100, "hello"));
  EXPECT_TRUE(reader.KeyMayMatch(100, "foo"));
  EXPECT_FALSE(reader.KeyMayMatch(100, "missing"));
  EXPECT_FALSE(reader.KeyMayMatch(100, "other"));
}

TEST(FilterBlockTest, MultiChunk) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  FilterBlockBuilder builder(policy.get());

  // First filter
  builder.StartBlock(0);
  builder.AddKey("foo");
  builder.StartBlock(2000);
  builder.AddKey("bar");

  // Second filter
  builder.StartBlock(3100);
  builder.AddKey("box");

  // Third filter is empty

  // Last filter
  builder.StartBlock(9000);
  builder.AddKey("box");
  builder.AddKey("hello");

  Slice block = builder.Finish();
  FilterBlockReader reader(policy.get(), block);

  // Check first filter
  EXPECT_TRUE(reader.KeyMayMatch(0, "foo"));
  EXPECT_TRUE(reader.KeyMayMatch(2000, "bar"));
  EXPECT_FALSE(reader.KeyMayMatch(0, "box"));
  EXPECT_FALSE(reader.KeyMayMatch(0, "hello"));

  // Check second filter
  EXPECT_TRUE(reader.KeyMayMatch(3100, "box"));
  EXPECT_FALSE(reader.KeyMayMatch(3100, "foo"));

  // Check third filter (empty)
  EXPECT_FALSE(reader.KeyMayMatch(4100, "foo"));
  EXPECT_FALSE(reader.KeyMayMatch(4100, "box"));

  // Check last filter
  EXPECT_TRUE(reader.KeyMayMatch(9000, "box"));
  EXPECT_TRUE(reader.KeyMayMatch(9000, "hello"));
  EXPECT_FALSE(reader.KeyMayMatch(9000, "foo"));
}

// ------------------------------------------------------------- footer

TEST(FormatTest, FooterRoundtrip) {
  Footer footer;
  BlockHandle meta, index;
  meta.set_offset(12345);
  meta.set_size(678);
  index.set_offset(99999);
  index.set_size(1234);
  footer.set_metaindex_handle(meta);
  footer.set_index_handle(index);
  std::string encoded;
  footer.EncodeTo(&encoded);
  EXPECT_EQ(Footer::kEncodedLength, encoded.size());

  Footer decoded;
  Slice input(encoded);
  ASSERT_TRUE(decoded.DecodeFrom(&input).ok());
  EXPECT_EQ(12345u, decoded.metaindex_handle().offset());
  EXPECT_EQ(678u, decoded.metaindex_handle().size());
  EXPECT_EQ(99999u, decoded.index_handle().offset());
  EXPECT_EQ(1234u, decoded.index_handle().size());
}

TEST(FormatTest, BadMagicRejected) {
  std::string encoded(Footer::kEncodedLength, '\0');
  Footer decoded;
  Slice input(encoded);
  EXPECT_TRUE(decoded.DecodeFrom(&input).IsCorruption());
}

// A file over bytes it holds: in memory it returns pointers into them,
// otherwise it copies into the caller's scratch. Records each scratch.
class BytesFile final : public fs::RandomAccessFile {
 public:
  BytesFile(Slice bytes, bool in_memory)
      : bytes_(bytes), in_memory_(in_memory) {}

  bool serves_from_memory() const override { return in_memory_; }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    scratches.push_back(scratch);
    n = std::min<uint64_t>(n, bytes_.size() - offset);
    if (in_memory_) {
      *result = Slice(bytes_.data() + offset, n);
    } else {
      std::memcpy(scratch, bytes_.data() + offset, n);
      *result = Slice(scratch, n);
    }
    return Status::OK();
  }

  mutable std::vector<const char*> scratches;

 private:
  const Slice bytes_;
  const bool in_memory_;
};

// ReadBlock decodes a block of an in-memory file in place, with no scratch
// buffer; any other file's block lands in a heap buffer the caller owns.
TEST(FormatTest, ReadBlockFromMemoryAllocatesNothing) {
  Options options;
  BlockBuilder builder(&options);
  builder.Add("apple", "red");
  builder.Add("banana", "yellow");
  std::string bytes = builder.Finish().ToString();
  const size_t n = bytes.size();
  char trailer[kBlockTrailerSize];
  trailer[0] = kNoCompression;
  const uint32_t crc = crc32c::Extend(crc32c::Value(bytes.data(), n), trailer, 1);
  EncodeFixed32(trailer + 1, crc32c::Mask(crc));
  bytes.append(trailer, kBlockTrailerSize);
  BlockHandle handle;
  handle.set_offset(0);
  handle.set_size(n);
  ReadOptions verify;
  verify.verify_checksums = true;

  BytesFile memory(bytes, /*in_memory=*/true);
  BlockContents contents;
  ASSERT_TRUE(ReadBlock(&memory, verify, handle, &contents).ok());
  EXPECT_FALSE(contents.heap_allocated);
  EXPECT_FALSE(contents.cachable);
  EXPECT_EQ(contents.data.data(), bytes.data());
  EXPECT_EQ(contents.data.size(), n);
  EXPECT_EQ(memory.scratches, std::vector<const char*>{nullptr});

  BytesFile copying(bytes, /*in_memory=*/false);
  ASSERT_TRUE(ReadBlock(&copying, verify, handle, &contents).ok());
  ASSERT_TRUE(contents.heap_allocated);
  EXPECT_TRUE(contents.cachable);
  ASSERT_EQ(copying.scratches.size(), 1u);
  EXPECT_EQ(contents.data.data(), copying.scratches[0]);
  EXPECT_EQ(contents.data, Slice(bytes.data(), n));
  delete[] contents.data.data();
}

// ------------------------------------------------------------- tables

class TableTest : public ::testing::Test {
 protected:
  TableTest() {
    smr::Geometry geo;
    geo.capacity_bytes = 256ull << 20;
    geo.conventional_bytes = 4 << 20;
    drive_ = smr::NewHddDrive(geo, smr::LatencyParams::Hdd());
    core::DynamicBandOptions opt;
    opt.base = 4 << 20;
    opt.limit = 256ull << 20;
    opt.track_bytes = 1 << 20;
    opt.guard_bytes = 4 << 20;
    opt.class_unit = 4 << 20;
    allocator_ = std::make_unique<core::DynamicBandAllocator>(opt);
    store_ = std::make_unique<fs::FileStore>(drive_.get(), allocator_.get());
    EXPECT_TRUE(store_->Format().ok());
    filter_.reset(NewBloomFilterPolicy(10));
  }

  // Build a table from the model and open it.
  void BuildAndOpen(const std::map<std::string, std::string>& model,
                    bool with_filter, size_t block_size = 1024,
                    const std::string& fname = "/table") {
    options_ = Options();
    options_.block_size = block_size;
    if (with_filter) options_.filter_policy = filter_.get();

    std::unique_ptr<fs::WritableFile> file;
    ASSERT_TRUE(store_->NewWritableFile(fname, 8 << 20, &file).ok());
    TableBuilder builder(options_, file.get());
    for (const auto& [k, v] : model) {
      builder.Add(k, v);
    }
    ASSERT_TRUE(builder.Finish().ok());
    file_size_ = builder.FileSize();
    tail_ = builder.tail().ToString();
    ASSERT_TRUE(file->Close().ok());

    fname_ = fname;
    std::unique_ptr<fs::RandomAccessFile> raf;
    ASSERT_TRUE(store_->NewRandomAccessFile(fname, &raf).ok());
    const uint64_t reads_before = drive_->metrics().read_ops->Value();
    Table* table = nullptr;
    ASSERT_TRUE(
        Table::Open(options_, std::move(raf), file_size_, &table).ok());
    table_.reset(table);
    open_reads_ = drive_->metrics().read_ops->Value() - reads_before;
  }

  std::unique_ptr<smr::Drive> drive_;
  std::unique_ptr<core::DynamicBandAllocator> allocator_;
  std::unique_ptr<fs::FileStore> store_;
  std::unique_ptr<const FilterPolicy> filter_;
  std::unique_ptr<Table> table_;
  Options options_;
  std::string fname_;  // the file BuildAndOpen wrote
  uint64_t file_size_ = 0;
  std::string tail_;         // the builder's tail (TableBuilder::tail())
  uint64_t open_reads_ = 0;  // drive requests Table::Open sent
};

static std::map<std::string, std::string> MakeModel(int n) {
  std::map<std::string, std::string> model;
  Random rnd(301);
  for (int i = 0; i < n; i++) {
    char key[20];
    std::snprintf(key, sizeof(key), "k%08d", i * 7);
    std::string value;
    const int len = 10 + rnd.Uniform(200);
    for (int j = 0; j < len; j++) value.push_back('a' + rnd.Uniform(26));
    model[key] = value;
  }
  return model;
}

TEST_F(TableTest, FullScan) {
  auto model = MakeModel(1000);
  BuildAndOpen(model, /*with_filter=*/false);
  std::unique_ptr<Iterator> iter(table_->NewIterator(ReadOptions()));
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_EQ(mit, model.end());
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(TableTest, SeekBehavior) {
  auto model = MakeModel(500);
  BuildAndOpen(model, /*with_filter=*/true);
  std::unique_ptr<Iterator> iter(table_->NewIterator(ReadOptions()));
  Random rnd(17);
  for (int i = 0; i < 200; i++) {
    char key[20];
    std::snprintf(key, sizeof(key), "k%08d", static_cast<int>(rnd.Uniform(500 * 7 + 10)));
    iter->Seek(key);
    auto mit = model.lower_bound(key);
    if (mit == model.end()) {
      EXPECT_FALSE(iter->Valid());
    } else {
      ASSERT_TRUE(iter->Valid());
      EXPECT_EQ(mit->first, iter->key().ToString());
      EXPECT_EQ(mit->second, iter->value().ToString());
    }
  }
}

TEST_F(TableTest, BackwardScan) {
  auto model = MakeModel(300);
  BuildAndOpen(model, /*with_filter=*/false);
  std::unique_ptr<Iterator> iter(table_->NewIterator(ReadOptions()));
  auto mit = model.rbegin();
  for (iter->SeekToLast(); iter->Valid(); iter->Prev(), ++mit) {
    ASSERT_NE(mit, model.rend());
    EXPECT_EQ(mit->first, iter->key().ToString());
  }
  EXPECT_EQ(mit, model.rend());
}

TEST_F(TableTest, ApproximateOffset) {
  auto model = MakeModel(1000);
  BuildAndOpen(model, /*with_filter=*/false);
  // Offsets must be monotonically nondecreasing in key order and bounded
  // by the file size.
  uint64_t prev = 0;
  for (auto it = model.begin(); it != model.end(); ++it) {
    uint64_t off = table_->ApproximateOffsetOf(it->first);
    EXPECT_GE(off, prev);
    EXPECT_LE(off, file_size_);
    prev = off;
  }
  // Past-the-end keys map to (approximately) the end of the data area.
  EXPECT_GE(table_->ApproximateOffsetOf("zzz"), prev);
  EXPECT_LE(table_->ApproximateOffsetOf("zzz"), file_size_);
}

TEST_F(TableTest, ChecksumVerification) {
  auto model = MakeModel(100);
  BuildAndOpen(model, /*with_filter=*/false);
  ReadOptions ro;
  ro.verify_checksums = true;
  std::unique_ptr<Iterator> iter(table_->NewIterator(ro));
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) count++;
  EXPECT_EQ(count, 100);
  EXPECT_TRUE(iter->status().ok());
}

// The filter, metaindex and index blocks and the footer sit contiguously
// at EOF, so opening a table with ordinary blocks is one drive request,
// even when that metadata (mostly filter here) spans several device blocks.
TEST_F(TableTest, OpenReadsTheTailInOneRequest) {
  BuildAndOpen(MakeModel(6000), /*with_filter=*/true, /*block_size=*/4096);
  EXPECT_EQ(open_reads_, 1u);
}

// Tiny blocks make the index outgrow Open's tail span: the blocks the span
// misses are read on their own, and the table still serves Gets (through
// its filter), seeks and full scans.
TEST_F(TableTest, TailLargerThanOpenSpanFallsBackToBlockReads) {
  const auto model = MakeModel(2000);
  const std::string fname = TableFileName("/tail", 7);
  BuildAndOpen(model, /*with_filter=*/true, /*block_size=*/64, fname);
  EXPECT_GT(open_reads_, 1u);

  std::unique_ptr<Iterator> iter(table_->NewIterator(ReadOptions()));
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    ASSERT_EQ(mit->first, iter->key().ToString());
    ASSERT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_EQ(mit, model.end());
  EXPECT_TRUE(iter->status().ok());
  iter->Seek("k00000700");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "k00000700");

  TableCache cache("/tail", options_, store_.get());
  FileMetaData meta;
  meta.number = 7;
  meta.file_size = file_size_;
  struct Found {
    std::string key, value;
  };
  auto save = [](void* arg, const Slice& k, const Slice& v) {
    auto* found = static_cast<Found*>(arg);
    found->key = k.ToString();
    found->value = v.ToString();
  };
  for (const auto& [k, v] : model) {
    Found found;
    ASSERT_TRUE(cache.Get(ReadOptions(), &meta, k, &found, save).ok());
    ASSERT_EQ(found.key, k);
    ASSERT_EQ(found.value, v);
  }
  Found absent;
  ASSERT_TRUE(
      cache.Get(ReadOptions(), &meta, "k00000701", &absent, save).ok());
  EXPECT_NE(absent.key, "k00000701");
}

// A table opened from its builder's tail costs no drive read and serves
// the same entries and the same Get results as the table opened through a
// file read.
TEST_F(TableTest, OpenFromBuilderTailMatchesOpenFromFile) {
  const auto model = MakeModel(3000);
  const std::string fname = TableFileName("/new", 9);
  BuildAndOpen(model, /*with_filter=*/true, /*block_size=*/4096, fname);
  ASSERT_FALSE(tail_.empty());
  ASSERT_LT(tail_.size(), file_size_);

  TableCache from_tail("/new", options_, store_.get());
  FileMetaData tail_meta;
  tail_meta.number = 9;
  tail_meta.file_size = file_size_;
  const uint64_t reads_before = drive_->metrics().read_ops->Value();
  std::unique_ptr<Table> opened;
  ASSERT_TRUE(from_tail.OpenTable(9, file_size_, tail_, &opened).ok());
  tail_meta.table = opened.release();
  std::unique_ptr<Iterator> a(from_tail.NewIterator(ReadOptions(), &tail_meta));
  EXPECT_EQ(drive_->metrics().read_ops->Value(), reads_before);
  TableCache from_file("/new", options_, store_.get());
  FileMetaData file_meta;
  file_meta.number = 9;
  file_meta.file_size = file_size_;
  std::unique_ptr<Iterator> b(from_file.NewIterator(ReadOptions(), &file_meta));
  size_t entries = 0;
  for (a->SeekToFirst(), b->SeekToFirst(); a->Valid(); a->Next(), b->Next()) {
    ASSERT_TRUE(b->Valid());
    ASSERT_EQ(a->key(), b->key());
    ASSERT_EQ(a->value(), b->value());
    entries++;
  }
  EXPECT_FALSE(b->Valid());
  EXPECT_EQ(entries, model.size());
  EXPECT_TRUE(a->status().ok());
  EXPECT_TRUE(b->status().ok());

  auto save = [](void* arg, const Slice& k, const Slice& v) {
    *static_cast<std::string*>(arg) = k.ToString() + "=" + v.ToString();
  };
  Random rnd(7);
  for (int i = 0; i < 2000; i++) {
    char key[20];
    std::snprintf(key, sizeof(key), "k%08d",
                  static_cast<int>(rnd.Uniform(3000 * 7 + 10)));
    std::string got_tail, got_file;
    ASSERT_TRUE(
        from_tail.Get(ReadOptions(), &tail_meta, key, &got_tail, save).ok());
    ASSERT_TRUE(
        from_file.Get(ReadOptions(), &file_meta, key, &got_file, save).ok());
    ASSERT_EQ(got_tail, got_file) << key;
  }
}

// The open from a builder's tail still checks what it decodes: a bad
// footer magic, or an index handle pointing outside the tail, is
// Corruption, not a drive read.
TEST_F(TableTest, OpenFromCorruptTailFails) {
  BuildAndOpen(MakeModel(500), /*with_filter=*/true);
  const size_t footer_at = tail_.size() - Footer::kEncodedLength;
  Footer footer;
  Slice footer_input(tail_.data() + footer_at, Footer::kEncodedLength);
  ASSERT_TRUE(footer.DecodeFrom(&footer_input).ok());

  auto open = [this](const std::string& tail) {
    Table* table = nullptr;
    std::unique_ptr<fs::RandomAccessFile> raf;
    EXPECT_TRUE(store_->NewRandomAccessFile(fname_, &raf).ok());
    const uint64_t reads_before = drive_->metrics().read_ops->Value();
    Status s = Table::Open(options_, std::move(raf), file_size_, &table, {},
                           0, tail);
    EXPECT_EQ(drive_->metrics().read_ops->Value(), reads_before);
    EXPECT_EQ(table == nullptr, !s.ok());
    delete table;
    return s;
  };
  ASSERT_TRUE(open(tail_).ok());

  std::string bad_magic = tail_;
  bad_magic.back() ^= 0x01;
  EXPECT_TRUE(open(bad_magic).IsCorruption());

  for (uint64_t offset : {file_size_, uint64_t{0}}) {
    SCOPED_TRACE("index handle at " + std::to_string(offset));
    Footer moved = footer;
    BlockHandle index = footer.index_handle();
    index.set_offset(offset);
    moved.set_index_handle(index);
    std::string encoded;
    moved.EncodeTo(&encoded);
    std::string bad_index = tail_.substr(0, footer_at) + encoded;
    EXPECT_TRUE(open(bad_index).IsCorruption());
  }
}

// A compaction's inputs are read whole while their images fit in
// TableCache::kMaxImageBytes, victim first; the tables past it are opened
// over a streaming handle (one tail read each) and still scan in full.
TEST_F(TableTest, ImagesPastTheBudgetStream) {
  options_ = Options();
  const int kTables = 5;
  const int kEntries = 256;  // 64 KiB values: 16 MiB tables
  auto key_of = [](int t, int i) {
    char key[20];
    std::snprintf(key, sizeof(key), "t%d-k%06d", t, i);
    return std::string(key);
  };
  auto value_of = [](int t, int i) {
    return std::string(64 << 10, static_cast<char>('a' + (t * 7 + i) % 26));
  };
  std::vector<FileMetaData> metas(kTables);
  for (int t = 0; t < kTables; t++) {
    metas[t].number = t + 1;
    std::unique_ptr<fs::WritableFile> file;
    ASSERT_TRUE(store_
                    ->NewWritableFile(TableFileName("/img", t + 1), 17 << 20,
                                      &file)
                    .ok());
    TableBuilder builder(options_, file.get());
    for (int i = 0; i < kEntries; i++) builder.Add(key_of(t, i), value_of(t, i));
    ASSERT_TRUE(builder.Finish().ok());
    metas[t].file_size = builder.FileSize();
    ASSERT_TRUE(file->Close().ok());
  }
  std::vector<FileMetaData*> victims = {&metas[0]};
  std::vector<FileMetaData*> set;
  for (int t = 1; t < kTables; t++) set.push_back(&metas[t]);

  TableCache cache("/img", options_, store_.get());
  TableImages images;
  const uint64_t reads_before = drive_->metrics().read_ops->Value();
  ASSERT_TRUE(cache.ReadImages(victims, set, &images).ok());
  EXPECT_EQ(drive_->metrics().read_ops->Value() - reads_before,
            static_cast<uint64_t>(kTables));
  ASSERT_EQ(images.size(), static_cast<size_t>(kTables));
  ASSERT_NE(images.at(1).data, nullptr);
  uint64_t held = 0;
  int streamed = 0;
  for (const auto& [number, image] : images) {
    if (image.data != nullptr) {
      held += metas[number - 1].file_size;
    } else {
      streamed++;
    }
  }
  EXPECT_LE(held, TableCache::kMaxImageBytes);
  EXPECT_GT(streamed, 0);

  for (int t = 0; t < kTables; t++) {
    std::unique_ptr<Iterator> iter(
        images.at(t + 1).table->NewIterator(ReadOptions()));
    int i = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next(), i++) {
      ASSERT_EQ(iter->key().ToString(), key_of(t, i));
      ASSERT_TRUE(iter->value() == Slice(value_of(t, i)));
    }
    EXPECT_TRUE(iter->status().ok());
    EXPECT_EQ(i, kEntries);
  }
}

TEST_F(TableTest, OpenTooShortFails) {
  std::unique_ptr<fs::WritableFile> file;
  ASSERT_TRUE(store_->NewWritableFile("/short", 64 << 10, &file).ok());
  ASSERT_TRUE(file->Append("not a table").ok());
  ASSERT_TRUE(file->Close().ok());
  std::unique_ptr<fs::RandomAccessFile> raf;
  ASSERT_TRUE(store_->NewRandomAccessFile("/short", &raf).ok());
  Table* table = nullptr;
  EXPECT_FALSE(Table::Open(Options(), std::move(raf), 11, &table).ok());
  EXPECT_EQ(table, nullptr);
}

}  // namespace sealdb
