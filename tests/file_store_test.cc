// FileStore tests: file round-trips, growth chains, removal, commit records
// (engine tags and state), regions (set allocation), and metadata-journal
// crash recovery.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/dynamic_band_allocator.h"
#include "fs/ext4_allocator.h"
#include "fs/file_store.h"
#include "smr/drive.h"
#include "smr/fault_injection_drive.h"
#include "util/random.h"

namespace sealdb::fs {

namespace {

std::string RandomPayload(size_t n, uint32_t seed) {
  Random rnd(seed);
  std::string s;
  s.reserve(n);
  while (s.size() < n) {
    s.push_back(static_cast<char>('a' + rnd.Uniform(26)));
  }
  return s;
}

}  // namespace

class FileStoreTest : public ::testing::Test {
 protected:
  FileStoreTest() { Rebuild(/*format=*/true); }

  void Rebuild(bool format) {
    store_.reset();
    allocator_.reset();
    if (format) {
      smr::Geometry geo;
      geo.capacity_bytes = 256ull << 20;
      geo.conventional_bytes = 8 << 20;
      drive_ = std::make_unique<smr::FaultInjectionDrive>(
          smr::NewShingledDisk(geo, smr::LatencyParams::Smr()));
    }
    core::DynamicBandOptions opt;
    opt.base = 8 << 20;
    opt.limit = 256ull << 20;
    opt.track_bytes = 1 << 20;
    opt.guard_bytes = 4 << 20;
    opt.class_unit = 4 << 20;
    allocator_ = std::make_unique<core::DynamicBandAllocator>(opt);
    store_ = std::make_unique<FileStore>(drive_.get(), allocator_.get());
    if (format) {
      ASSERT_TRUE(store_->Format().ok());
    } else {
      ASSERT_TRUE(store_->Recover().ok());
    }
  }

  // Simulate a restart: new FileStore over the same drive contents.
  void Reopen() { Rebuild(/*format=*/false); }

  std::string ReadAll(const std::string& name) {
    uint64_t size = 0;
    EXPECT_TRUE(store_->GetFileSize(name, &size).ok());
    std::unique_ptr<RandomAccessFile> f;
    EXPECT_TRUE(store_->NewRandomAccessFile(name, &f).ok());
    std::string buf(size, 0);
    Slice result;
    EXPECT_TRUE(f->Read(0, size, &result, buf.data()).ok());
    return result.ToString();
  }

  std::unique_ptr<smr::FaultInjectionDrive> drive_;
  std::unique_ptr<core::DynamicBandAllocator> allocator_;
  std::unique_ptr<FileStore> store_;
};

TEST_F(FileStoreTest, WriteReadRoundtrip) {
  const std::string payload = RandomPayload(100000, 1);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(store_->NewWritableFile("/db/a", 1 << 20, &f).ok());
  ASSERT_TRUE(f->Append(payload).ok());
  ASSERT_TRUE(f->Close().ok());
  EXPECT_EQ(payload, ReadAll("/db/a"));
}

TEST_F(FileStoreTest, NonBlockAlignedSizesPreserved) {
  for (size_t n : {0ul, 1ul, 4095ul, 4096ul, 4097ul, 12289ul}) {
    const std::string name = "/db/f" + std::to_string(n);
    const std::string payload = RandomPayload(n, 2);
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(store_->NewWritableFile(name, 64 << 10, &f).ok());
    ASSERT_TRUE(f->Append(payload).ok());
    ASSERT_TRUE(f->Close().ok());
    uint64_t size;
    ASSERT_TRUE(store_->GetFileSize(name, &size).ok());
    EXPECT_EQ(n, size);
    if (n > 0) {
      EXPECT_EQ(payload, ReadAll(name));
    }
  }
}

TEST_F(FileStoreTest, GrowsBeyondSizeHint) {
  // 4 MB of data against a 64 KB hint forces extent chaining.
  const std::string payload = RandomPayload(4 << 20, 3);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(store_->NewWritableFile("/db/big", 64 << 10, &f).ok());
  ASSERT_TRUE(f->Append(payload).ok());
  ASSERT_TRUE(f->Close().ok());
  EXPECT_EQ(payload, ReadAll("/db/big"));
}

TEST_F(FileStoreTest, PartialReads) {
  const std::string payload = RandomPayload(50000, 4);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(store_->NewWritableFile("/db/a", 1 << 20, &f).ok());
  ASSERT_TRUE(f->Append(payload).ok());
  ASSERT_TRUE(f->Close().ok());

  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(store_->NewRandomAccessFile("/db/a", &r).ok());
  char buf[1000];
  Slice result;
  ASSERT_TRUE(r->Read(12345, 1000, &result, buf).ok());
  EXPECT_EQ(payload.substr(12345, 1000), result.ToString());
  // Read past EOF clips.
  ASSERT_TRUE(r->Read(49900, 1000, &result, buf).ok());
  EXPECT_EQ(100u, result.size());
  // Read at EOF returns empty.
  ASSERT_TRUE(r->Read(50000, 10, &result, buf).ok());
  EXPECT_EQ(0u, result.size());
}

TEST_F(FileStoreTest, SequentialFile) {
  const std::string payload = RandomPayload(30000, 5);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(store_->NewWritableFile("/db/a", 1 << 20, &f).ok());
  ASSERT_TRUE(f->Append(payload).ok());
  ASSERT_TRUE(f->Close().ok());

  std::unique_ptr<SequentialFile> s;
  ASSERT_TRUE(store_->NewSequentialFile("/db/a", &s).ok());
  std::string got;
  char buf[7001];
  while (true) {
    Slice result;
    ASSERT_TRUE(s->Read(7001, &result, buf).ok());
    if (result.empty()) break;
    got.append(result.data(), result.size());
  }
  EXPECT_EQ(payload, got);
}

// A front-to-back reader streams: after the first (random) block fetch,
// every drive request is a full 256 KiB readahead, including the refills
// that follow a run of reads served from the buffer.
TEST_F(FileStoreTest, SequentialReaderStreamsAcrossBufferRefills) {
  constexpr uint64_t kFile = 1 << 20;
  constexpr uint64_t kStep = 4096;
  constexpr uint64_t kReadahead = 256 << 10;
  const std::string payload = RandomPayload(kFile, 11);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(store_->NewWritableFile("/db/seq", kFile, &f).ok());
  ASSERT_TRUE(f->Append(payload).ok());
  ASSERT_TRUE(f->Close().ok());

  const obs::MetricsRegistry& reg = *drive_->metrics().registry();
  auto read_ops = [&reg] {
    return reg.counter_value("sealdb_device_ops_total", {{"kind", "read"}});
  };
  const uint64_t ops_before = read_ops();
  const uint64_t bytes_before = drive_->metrics().logical_read->Value();

  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(store_->NewRandomAccessFile("/db/seq", &r).ok());
  char buf[kStep];
  for (uint64_t off = 0; off < kFile; off += kStep) {
    Slice result;
    ASSERT_TRUE(r->Read(off, kStep, &result, buf).ok());
    ASSERT_EQ(payload.substr(off, kStep), result.ToString()) << off;
  }

  // One block, then ceil((1 MiB - 4 KiB) / 256 KiB) streamed requests, and
  // no byte fetched twice.
  EXPECT_EQ(read_ops() - ops_before,
            1 + (kFile - kStep + kReadahead - 1) / kReadahead);
  EXPECT_EQ(drive_->metrics().logical_read->Value() - bytes_before, kFile);
}

TEST_F(FileStoreTest, RemoveFreesSpace) {
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(store_->NewWritableFile("/db/a", 1 << 20, &f).ok());
  ASSERT_TRUE(f->Append(RandomPayload(1 << 20, 6)).ok());
  ASSERT_TRUE(f->Close().ok());
  const uint64_t allocated = allocator_->allocated_bytes();
  EXPECT_GT(allocated, 0u);
  ASSERT_TRUE(store_->RemoveFile("/db/a").ok());
  EXPECT_EQ(allocator_->allocated_bytes(), 0u);
  EXPECT_FALSE(store_->FileExists("/db/a"));
  std::unique_ptr<RandomAccessFile> r;
  EXPECT_TRUE(store_->NewRandomAccessFile("/db/a", &r).IsNotFound());
}

// One commit sets and clears tags, removes files and replaces the engine
// state with a single journal record; a commit naming a missing file
// changes nothing.
TEST_F(FileStoreTest, CommitIsOneRecord) {
  for (const char* name : {"/db/a", "/db/b", "/db/c"}) {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(store_->NewWritableFile(name, 64 << 10, &f).ok());
    ASSERT_TRUE(f->Append(name).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  FileCommit first;
  first.tags = {{"/db/a", "tag-a"}, {"/db/b", "tag-b"}};
  first.engine_state = "state-1";
  ASSERT_TRUE(store_->Commit(first).ok());

  const uint64_t records = store_->journal_records_written();
  const uint64_t allocated = allocator_->allocated_bytes();
  FileCommit second;
  second.tags = {{"/db/a", ""}, {"/db/b", "tag-b2"}};
  second.removes = {"/db/c", "/db/never-created"};
  second.engine_state = "state-2";
  ASSERT_TRUE(store_->Commit(second).ok());
  EXPECT_EQ(store_->journal_records_written(), records + 1);
  EXPECT_FALSE(store_->FileExists("/db/c"));
  EXPECT_LT(allocator_->allocated_bytes(), allocated);

  FileCommit bad;
  bad.tags = {{"/db/b", "tag-b3"}, {"/db/missing", "x"}};
  bad.engine_state = "state-3";
  EXPECT_TRUE(store_->Commit(bad).IsNotFound());
  EXPECT_EQ(store_->journal_records_written(), records + 1);

  for (int pass = 0; pass < 2; pass++) {
    SCOPED_TRACE(pass == 0 ? "live" : "recovered");
    const std::vector<FileInfo> files = store_->ListFiles();
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(files[0].name, "/db/a");
    EXPECT_EQ(files[0].tag, "");
    EXPECT_EQ(files[1].name, "/db/b");
    EXPECT_EQ(files[1].tag, "tag-b2");
    EXPECT_EQ(files[1].size, 5u);
    EXPECT_EQ(store_->engine_state(), "state-2");
    EXPECT_EQ("/db/b", ReadAll("/db/b"));
    Reopen();
  }
}

TEST_F(FileStoreTest, TruncateOnRecreate) {
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(store_->NewWritableFile("/db/a", 64 << 10, &f).ok());
  ASSERT_TRUE(f->Append("old contents").ok());
  ASSERT_TRUE(f->Close().ok());
  ASSERT_TRUE(store_->NewWritableFile("/db/a", 64 << 10, &f).ok());
  ASSERT_TRUE(f->Append("new").ok());
  ASSERT_TRUE(f->Close().ok());
  EXPECT_EQ("new", ReadAll("/db/a"));
}

TEST_F(FileStoreTest, GetChildren) {
  for (const char* name : {"/db/a", "/db/b", "/other/c"}) {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(store_->NewWritableFile(name, 64 << 10, &f).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  auto children = store_->GetChildren();
  EXPECT_EQ(children.size(), 3u);
}

// ----------------------------------------------------------- regions

TEST_F(FileStoreTest, RegionFilesAreContiguous) {
  uint64_t region;
  ASSERT_TRUE(store_->AllocateRegion(16 << 20, &region).ok());
  std::vector<std::string> names;
  for (int i = 0; i < 3; i++) {
    const std::string name = "/db/set" + std::to_string(i);
    names.push_back(name);
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(store_->NewWritableFileInRegion(region, name, &f).ok());
    ASSERT_TRUE(f->Append(RandomPayload(3 << 20, 10 + i)).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  ASSERT_TRUE(store_->SealRegion(region).ok());

  // All files live inside one contiguous physical run.
  uint64_t prev_end = 0;
  for (const std::string& name : names) {
    std::vector<Extent> extents;
    ASSERT_TRUE(store_->GetFileExtents(name, &extents).ok());
    ASSERT_EQ(extents.size(), 1u);
    if (prev_end != 0) {
      EXPECT_EQ(extents[0].offset, prev_end);
    }
    prev_end = extents[0].end();
  }
}

TEST_F(FileStoreTest, SealShrinksRegion) {
  uint64_t region;
  ASSERT_TRUE(store_->AllocateRegion(32 << 20, &region).ok());
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(store_->NewWritableFileInRegion(region, "/db/s0", &f).ok());
  ASSERT_TRUE(f->Append(RandomPayload(2 << 20, 20)).ok());
  ASSERT_TRUE(f->Close().ok());
  const uint64_t before = allocator_->allocated_bytes();
  ASSERT_TRUE(store_->SealRegion(region).ok());
  EXPECT_LT(allocator_->allocated_bytes(), before);
}

TEST_F(FileStoreTest, RegionSpaceFreedWhenLastFileDies) {
  uint64_t region;
  ASSERT_TRUE(store_->AllocateRegion(8 << 20, &region).ok());
  for (int i = 0; i < 2; i++) {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(store_->NewWritableFileInRegion(
                    region, "/db/s" + std::to_string(i), &f)
                    .ok());
    ASSERT_TRUE(f->Append(RandomPayload(1 << 20, 30 + i)).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  ASSERT_TRUE(store_->SealRegion(region).ok());

  const uint64_t with_region = allocator_->allocated_bytes();
  ASSERT_TRUE(store_->RemoveFile("/db/s0").ok());
  // Set-granular reclamation: space NOT freed while a member lives.
  EXPECT_EQ(allocator_->allocated_bytes(), with_region);
  ASSERT_TRUE(store_->RemoveFile("/db/s1").ok());
  EXPECT_EQ(allocator_->allocated_bytes(), 0u);
}

TEST_F(FileStoreTest, EmptyRegionDroppedOnSeal) {
  uint64_t region;
  ASSERT_TRUE(store_->AllocateRegion(8 << 20, &region).ok());
  ASSERT_TRUE(store_->SealRegion(region).ok());
  EXPECT_EQ(allocator_->allocated_bytes(), 0u);
  Extent e;
  EXPECT_TRUE(store_->GetRegionExtent(region, &e).IsNotFound());
}

// ----------------------------------------------------------- recovery

TEST_F(FileStoreTest, RecoverSimpleFiles) {
  const std::string payload = RandomPayload(100000, 40);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(store_->NewWritableFile("/db/a", 1 << 20, &f).ok());
  ASSERT_TRUE(f->Append(payload).ok());
  ASSERT_TRUE(f->Close().ok());

  Reopen();
  EXPECT_TRUE(store_->FileExists("/db/a"));
  EXPECT_EQ(payload, ReadAll("/db/a"));
}

TEST_F(FileStoreTest, RecoverAfterRemovesAndCommits) {
  for (const char* name : {"/db/a", "/db/b", "/db/c", "/db/d"}) {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(store_->NewWritableFile(name, 64 << 10, &f).ok());
    ASSERT_TRUE(f->Append(std::string("data-") + name).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  ASSERT_TRUE(store_->RemoveFile("/db/b").ok());
  FileCommit commit;
  commit.tags = {{"/db/d", "live"}};
  commit.removes = {"/db/c"};
  ASSERT_TRUE(store_->Commit(commit).ok());
  // An update record (a later sync) keeps the tag the commit set.
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(store_->NewWritableFile("/db/e", 64 << 10, &f).ok());
  ASSERT_TRUE(f->Append("e").ok());
  ASSERT_TRUE(f->Sync().ok());
  commit.tags = {{"/db/e", "tagged-while-open"}};
  commit.removes.clear();
  ASSERT_TRUE(store_->Commit(commit).ok());
  ASSERT_TRUE(f->Append(std::string(8192, 'e')).ok());
  ASSERT_TRUE(f->Close().ok());

  Reopen();
  EXPECT_TRUE(store_->FileExists("/db/a"));
  EXPECT_FALSE(store_->FileExists("/db/b"));
  EXPECT_FALSE(store_->FileExists("/db/c"));
  EXPECT_EQ("data-/db/d", ReadAll("/db/d"));
  const std::vector<FileInfo> files = store_->ListFiles();
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[1].tag, "live");
  EXPECT_EQ(files[2].tag, "tagged-while-open");
  EXPECT_EQ(files[2].size, 8193u);
}

// Replay releases a region with the record that removes its last file,
// and an empty region sealed without a file is released by a journaled
// record: neither leaves a region behind in the recovered state.
TEST_F(FileStoreTest, RegionsReleasedOnReplay) {
  uint64_t used = 0, empty = 0;
  ASSERT_TRUE(store_->AllocateRegion(8 << 20, &used).ok());
  ASSERT_TRUE(store_->AllocateRegion(8 << 20, &empty).ok());
  for (const char* name : {"/db/r1", "/db/r2"}) {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(store_->NewWritableFileInRegion(used, name, &f).ok());
    ASSERT_TRUE(f->Append(RandomPayload(100000, 9)).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  ASSERT_TRUE(store_->SealRegion(used).ok());
  ASSERT_TRUE(store_->SealRegion(empty).ok());
  Extent extent;
  EXPECT_TRUE(store_->GetRegionExtent(empty, &extent).IsNotFound());
  ASSERT_TRUE(store_->RemoveFile("/db/r1").ok());
  ASSERT_TRUE(store_->GetRegionExtent(used, &extent).ok());
  ASSERT_TRUE(store_->RemoveFile("/db/r2").ok());
  EXPECT_TRUE(store_->GetRegionExtent(used, &extent).IsNotFound());
  EXPECT_EQ(allocator_->allocated_bytes(), 0u);

  Reopen();
  EXPECT_TRUE(store_->GetChildren().empty());
  EXPECT_TRUE(store_->GetRegionExtent(used, &extent).IsNotFound());
  EXPECT_TRUE(store_->GetRegionExtent(empty, &extent).IsNotFound());
  EXPECT_EQ(allocator_->allocated_bytes(), 0u);
}

// A region is a set: it counts its members that died while it lived, the
// count restarts at zero on recovery (it is not journaled), and the region
// goes away with its last member.
TEST_F(FileStoreTest, RegionCountsDeadMembers) {
  uint64_t region = 0;
  ASSERT_TRUE(store_->AllocateRegion(8 << 20, &region).ok());
  for (int i = 0; i < 4; i++) {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(store_->NewWritableFileInRegion(
                    region, "/db/m" + std::to_string(i), &f)
                    .ok());
    ASSERT_TRUE(f->Append(RandomPayload(100000, 60 + i)).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  ASSERT_TRUE(store_->SealRegion(region).ok());
  EXPECT_EQ(store_->RegionDeadFiles(region), 0u);
  ASSERT_TRUE(store_->RemoveFile("/db/m0").ok());
  EXPECT_EQ(store_->RegionDeadFiles(region), 1u);
  // Removing a name that is not a member changes nothing.
  EXPECT_FALSE(store_->RemoveFile("/db/absent").ok());
  EXPECT_EQ(store_->RegionDeadFiles(region), 1u);
  ASSERT_TRUE(store_->RemoveFile("/db/m1").ok());
  EXPECT_EQ(store_->RegionDeadFiles(region), 2u);

  Reopen();
  EXPECT_EQ(store_->RegionDeadFiles(region), 0u);
  ASSERT_TRUE(store_->RemoveFile("/db/m2").ok());
  EXPECT_EQ(store_->RegionDeadFiles(region), 1u);
  Extent extent;
  ASSERT_TRUE(store_->GetRegionExtent(region, &extent).ok());
  ASSERT_TRUE(store_->RemoveFile("/db/m3").ok());
  EXPECT_TRUE(store_->GetRegionExtent(region, &extent).IsNotFound());
  EXPECT_EQ(store_->RegionDeadFiles(region), 0u);
  EXPECT_EQ(allocator_->allocated_bytes(), 0u);
}

TEST_F(FileStoreTest, RecoverRegions) {
  uint64_t region;
  ASSERT_TRUE(store_->AllocateRegion(16 << 20, &region).ok());
  const std::string payload = RandomPayload(3 << 20, 50);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(store_->NewWritableFileInRegion(region, "/db/s0", &f).ok());
  ASSERT_TRUE(f->Append(payload).ok());
  ASSERT_TRUE(f->Close().ok());
  ASSERT_TRUE(store_->SealRegion(region).ok());

  Reopen();
  EXPECT_EQ(payload, ReadAll("/db/s0"));
  // Removing the last member after recovery still frees the region.
  ASSERT_TRUE(store_->RemoveFile("/db/s0").ok());
  EXPECT_EQ(allocator_->allocated_bytes(), 0u);
}

TEST_F(FileStoreTest, UnsyncedDataLostOnCrash) {
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(store_->NewWritableFile("/db/a", 1 << 20, &f).ok());
  ASSERT_TRUE(f->Append(RandomPayload(100000, 60)).ok());
  // No Sync/Close: buffered data (and size) must not survive.
  f.reset();  // note: reset() calls Close() via dtor — use a fresh file

  ASSERT_TRUE(store_->NewWritableFile("/db/b", 1 << 20, &f).ok());
  // A full 256 KiB chunk goes to the drive on Append.
  ASSERT_TRUE(f->Append(std::string(256 << 10, 'x')).ok());
  // Written but not synced: metadata journal doesn't know the size yet.
  // Power cut: the destructor's Close hits a dead drive and persists
  // nothing; Reopen() restores power and recovers.
  drive_->PowerOff();
  f.reset();
  drive_->ClearCrash();

  Reopen();
  uint64_t size = 0;
  ASSERT_TRUE(store_->GetFileSize("/db/b", &size).ok());
  EXPECT_EQ(size, 0u);  // creation was journaled, data size was not
}

TEST_F(FileStoreTest, SyncedDataSurvivesCrash) {
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(store_->NewWritableFile("/db/a", 1 << 20, &f).ok());
  ASSERT_TRUE(f->Append(std::string(8192, 'y')).ok());
  ASSERT_TRUE(f->Sync().ok());
  drive_->PowerOff();  // crash without Close
  f.reset();
  drive_->ClearCrash();

  Reopen();
  uint64_t size = 0;
  ASSERT_TRUE(store_->GetFileSize("/db/a", &size).ok());
  EXPECT_EQ(size, 8192u);
  EXPECT_EQ(std::string(8192, 'y'), ReadAll("/db/a"));
}

TEST_F(FileStoreTest, JournalCheckpointRollover) {
  // Enough create/remove churn to overflow the journal log area and force
  // checkpoints; everything must still recover.
  for (int round = 0; round < 800; round++) {
    const std::string name = "/db/t" + std::to_string(round % 7);
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(store_->NewWritableFile(name, 64 << 10, &f).ok());
    ASSERT_TRUE(f->Append("round " + std::to_string(round)).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  EXPECT_GT(store_->journal_records_written(), 800u);
  Reopen();
  for (int i = 0; i < 7; i++) {
    EXPECT_TRUE(store_->FileExists("/db/t" + std::to_string(i)));
  }
  EXPECT_EQ("round 799", ReadAll("/db/t" + std::to_string(799 % 7)));
}

// ------------------------------------------------- crash-consistency fuzz

// Random op streams with power-cuts at random points. After every reopen,
// each file must expose exactly its last durably-persisted (synced/closed)
// prefix, and the allocator must accept the recovered layout.
class FileStoreCrashFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FileStoreCrashFuzzTest, DurabilityContract) {
  Random rnd(GetParam());

  smr::Geometry geo;
  geo.capacity_bytes = 256ull << 20;
  geo.conventional_bytes = 8 << 20;
  auto drive = std::make_unique<smr::FaultInjectionDrive>(
      smr::NewShingledDisk(geo, smr::LatencyParams::Smr()));

  core::DynamicBandOptions aopt;
  aopt.base = 8 << 20;
  aopt.limit = 256ull << 20;
  aopt.track_bytes = 1 << 20;
  aopt.guard_bytes = 4 << 20;
  aopt.class_unit = 4 << 20;

  auto allocator = std::make_unique<core::DynamicBandAllocator>(aopt);
  auto store = std::make_unique<FileStore>(drive.get(), allocator.get());
  ASSERT_TRUE(store->Format().ok());

  // Durable model: name -> synced content prefix.
  std::map<std::string, std::string> durable;

  struct OpenFile {
    std::string name;
    std::unique_ptr<WritableFile> handle;
    std::string written;  // everything appended
    size_t synced = 0;    // prefix known durable
  };
  std::vector<OpenFile> open_files;
  int next_name = 0;

  auto reopen = [&](bool crash) {
    if (crash) {
      // Power cut: the open handles' destructors Close into a dead drive
      // and persist nothing.
      drive->PowerOff();
    } else {
      for (auto& f : open_files) {
        ASSERT_TRUE(f.handle->Close().ok());
        durable[f.name] = f.written;
      }
    }
    open_files.clear();
    store.reset();
    drive->ClearCrash();
    allocator = std::make_unique<core::DynamicBandAllocator>(aopt);
    store = std::make_unique<FileStore>(drive.get(), allocator.get());
    ASSERT_TRUE(store->Recover().ok());

    // Verify the durable contract.
    for (const auto& [name, content] : durable) {
      ASSERT_TRUE(store->FileExists(name)) << name;
      uint64_t size = 0;
      ASSERT_TRUE(store->GetFileSize(name, &size).ok());
      ASSERT_EQ(size, content.size()) << name;
      if (size > 0) {
        std::unique_ptr<RandomAccessFile> raf;
        ASSERT_TRUE(store->NewRandomAccessFile(name, &raf).ok());
        std::string buf(size, 0);
        Slice result;
        ASSERT_TRUE(raf->Read(0, size, &result, buf.data()).ok());
        ASSERT_EQ(content, result.ToString()) << name;
      }
    }
  };

  for (int step = 0; step < 400; step++) {
    const int op = rnd.Uniform(100);
    if (op < 30) {
      // Create a file. The fuzz keeps handles open across arbitrary other
      // allocations, which is exactly the append-mode contract (see
      // NewWritableFile): long-lived open files need trailing guards on
      // shingled media.
      OpenFile f;
      f.name = "/fuzz/f" + std::to_string(next_name++);
      ASSERT_TRUE(store->NewWritableFile(f.name, 64 << 10, &f.handle,
                                         /*appendable=*/true)
                      .ok());
      durable[f.name] = "";  // creation is journaled immediately
      open_files.push_back(std::move(f));
    } else if (op < 60 && !open_files.empty()) {
      // Append to a random open file.
      OpenFile& f = open_files[rnd.Uniform(open_files.size())];
      std::string chunk = RandomPayload(1 + rnd.Uniform(100000), rnd.Next());
      ASSERT_TRUE(f.handle->Append(chunk).ok());
      f.written += chunk;
    } else if (op < 70 && !open_files.empty()) {
      // Sync persists the flushed prefix: everything appended so far,
      // rounded down to the device block.
      OpenFile& f = open_files[rnd.Uniform(open_files.size())];
      ASSERT_TRUE(f.handle->Sync().ok());
      f.synced = f.written.size() / 4096 * 4096;
      durable[f.name] = f.written.substr(0, f.synced);
    } else if (op < 85 && !open_files.empty()) {
      // Close a random file: content fully durable.
      const size_t idx = rnd.Uniform(open_files.size());
      OpenFile& f = open_files[idx];
      ASSERT_TRUE(f.handle->Close().ok());
      durable[f.name] = f.written;
      open_files.erase(open_files.begin() + idx);
    } else if (op < 92 && !durable.empty()) {
      // Remove a random closed file (skip ones still open).
      auto it = durable.begin();
      std::advance(it, rnd.Uniform(durable.size()));
      bool is_open = false;
      for (const auto& f : open_files) {
        if (f.name == it->first) is_open = true;
      }
      if (!is_open) {
        ASSERT_TRUE(store->RemoveFile(it->first).ok());
        durable.erase(it);
      }
    } else if (op < 96) {
      reopen(/*crash=*/true);
    } else {
      reopen(/*crash=*/false);
    }
  }
  reopen(/*crash=*/true);

  std::string why;
  EXPECT_TRUE(allocator->CheckInvariants(&why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FileStoreCrashFuzzTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace sealdb::fs
