// Version machinery tests: FindFile / SomeFileOverlapsRange, the table tag
// and commit record round trips (including the SEALDB set id), and the
// SEALDB picker's victim score.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fs/ext4_allocator.h"
#include "fs/file_store.h"
#include "lsm/filename.h"
#include "lsm/version_edit.h"
#include "lsm/version_set.h"
#include "smr/drive.h"
#include "util/coding.h"
#include "util/comparator.h"

namespace sealdb {

class FindFileTest : public ::testing::Test {
 public:
  FindFileTest() : disjoint_sorted_files_(true) {}

  ~FindFileTest() override {
    for (size_t i = 0; i < files_.size(); i++) {
      delete files_[i];
    }
  }

  void Add(const char* smallest, const char* largest,
           SequenceNumber smallest_seq = 100,
           SequenceNumber largest_seq = 100) {
    FileMetaData* f = new FileMetaData;
    f->number = files_.size() + 1;
    f->smallest = InternalKey(smallest, smallest_seq, kTypeValue);
    f->largest = InternalKey(largest, largest_seq, kTypeValue);
    files_.push_back(f);
  }

  int Find(const char* key) {
    InternalKey target(key, 100, kTypeValue);
    InternalKeyComparator cmp(BytewiseComparator());
    return FindFile(cmp, files_, target.Encode());
  }

  bool Overlaps(const char* smallest, const char* largest) {
    InternalKeyComparator cmp(BytewiseComparator());
    Slice s(smallest != nullptr ? smallest : "");
    Slice l(largest != nullptr ? largest : "");
    return SomeFileOverlapsRange(cmp, disjoint_sorted_files_, files_,
                                 (smallest != nullptr ? &s : nullptr),
                                 (largest != nullptr ? &l : nullptr));
  }

  bool disjoint_sorted_files_;
  std::vector<FileMetaData*> files_;
};

TEST_F(FindFileTest, Empty) {
  EXPECT_EQ(0, Find("foo"));
  EXPECT_TRUE(!Overlaps("a", "z"));
  EXPECT_TRUE(!Overlaps(nullptr, "z"));
  EXPECT_TRUE(!Overlaps("a", nullptr));
  EXPECT_TRUE(!Overlaps(nullptr, nullptr));
}

TEST_F(FindFileTest, Single) {
  Add("p", "q");
  EXPECT_EQ(0, Find("a"));
  EXPECT_EQ(0, Find("p"));
  EXPECT_EQ(0, Find("p1"));
  EXPECT_EQ(0, Find("q"));
  EXPECT_EQ(1, Find("q1"));
  EXPECT_EQ(1, Find("z"));

  EXPECT_TRUE(!Overlaps("a", "b"));
  EXPECT_TRUE(!Overlaps("z1", "z2"));
  EXPECT_TRUE(Overlaps("a", "p"));
  EXPECT_TRUE(Overlaps("a", "q"));
  EXPECT_TRUE(Overlaps("a", "z"));
  EXPECT_TRUE(Overlaps("p", "p1"));
  EXPECT_TRUE(Overlaps("p", "q"));
  EXPECT_TRUE(Overlaps("p", "z"));
  EXPECT_TRUE(Overlaps("p1", "p2"));
  EXPECT_TRUE(Overlaps("p1", "z"));
  EXPECT_TRUE(Overlaps("q", "q"));
  EXPECT_TRUE(Overlaps("q", "q1"));

  EXPECT_TRUE(!Overlaps(nullptr, "j"));
  EXPECT_TRUE(!Overlaps("r", nullptr));
  EXPECT_TRUE(Overlaps(nullptr, "p"));
  EXPECT_TRUE(Overlaps(nullptr, "p1"));
  EXPECT_TRUE(Overlaps("q", nullptr));
  EXPECT_TRUE(Overlaps(nullptr, nullptr));
}

TEST_F(FindFileTest, Multiple) {
  Add("150", "200");
  Add("200", "250");
  Add("300", "350");
  Add("400", "450");
  EXPECT_EQ(0, Find("100"));
  EXPECT_EQ(0, Find("150"));
  EXPECT_EQ(0, Find("151"));
  EXPECT_EQ(0, Find("199"));
  EXPECT_EQ(0, Find("200"));
  EXPECT_EQ(1, Find("201"));
  EXPECT_EQ(1, Find("249"));
  EXPECT_EQ(1, Find("250"));
  EXPECT_EQ(2, Find("251"));
  EXPECT_EQ(2, Find("299"));
  EXPECT_EQ(2, Find("300"));
  EXPECT_EQ(2, Find("349"));
  EXPECT_EQ(2, Find("350"));
  EXPECT_EQ(3, Find("351"));
  EXPECT_EQ(3, Find("400"));
  EXPECT_EQ(3, Find("450"));
  EXPECT_EQ(4, Find("451"));

  EXPECT_TRUE(!Overlaps("100", "149"));
  EXPECT_TRUE(!Overlaps("251", "299"));
  EXPECT_TRUE(!Overlaps("451", "500"));
  EXPECT_TRUE(!Overlaps("351", "399"));

  EXPECT_TRUE(Overlaps("100", "150"));
  EXPECT_TRUE(Overlaps("100", "200"));
  EXPECT_TRUE(Overlaps("100", "300"));
  EXPECT_TRUE(Overlaps("100", "400"));
  EXPECT_TRUE(Overlaps("100", "500"));
  EXPECT_TRUE(Overlaps("375", "400"));
  EXPECT_TRUE(Overlaps("450", "450"));
  EXPECT_TRUE(Overlaps("450", "500"));
}

TEST_F(FindFileTest, MultipleNullBoundaries) {
  Add("150", "200");
  Add("200", "250");
  Add("300", "350");
  Add("400", "450");
  EXPECT_TRUE(!Overlaps(nullptr, "149"));
  EXPECT_TRUE(!Overlaps("451", nullptr));
  EXPECT_TRUE(Overlaps(nullptr, nullptr));
  EXPECT_TRUE(Overlaps(nullptr, "150"));
  EXPECT_TRUE(Overlaps(nullptr, "199"));
  EXPECT_TRUE(Overlaps(nullptr, "200"));
  EXPECT_TRUE(Overlaps(nullptr, "201"));
  EXPECT_TRUE(Overlaps(nullptr, "400"));
  EXPECT_TRUE(Overlaps(nullptr, "800"));
  EXPECT_TRUE(Overlaps("100", nullptr));
  EXPECT_TRUE(Overlaps("200", nullptr));
  EXPECT_TRUE(Overlaps("449", nullptr));
  EXPECT_TRUE(Overlaps("450", nullptr));
}

TEST_F(FindFileTest, OverlapSequenceChecks) {
  Add("200", "200", 5000, 3000);
  EXPECT_TRUE(!Overlaps("199", "199"));
  EXPECT_TRUE(!Overlaps("201", "300"));
  EXPECT_TRUE(Overlaps("200", "200"));
  EXPECT_TRUE(Overlaps("190", "200"));
  EXPECT_TRUE(Overlaps("200", "210"));
}

TEST_F(FindFileTest, OverlappingFiles) {
  Add("150", "600");
  Add("400", "500");
  disjoint_sorted_files_ = false;
  EXPECT_TRUE(!Overlaps("100", "149"));
  EXPECT_TRUE(!Overlaps("601", "700"));
  EXPECT_TRUE(Overlaps("100", "150"));
  EXPECT_TRUE(Overlaps("100", "200"));
  EXPECT_TRUE(Overlaps("100", "300"));
  EXPECT_TRUE(Overlaps("100", "400"));
  EXPECT_TRUE(Overlaps("100", "500"));
  EXPECT_TRUE(Overlaps("375", "400"));
  EXPECT_TRUE(Overlaps("450", "450"));
  EXPECT_TRUE(Overlaps("450", "500"));
  EXPECT_TRUE(Overlaps("450", "700"));
  EXPECT_TRUE(Overlaps("600", "700"));
}

// ------------------------------------------------ table tags and commits

// A table's tag (its level and key range) and the commit record that sets
// it are the engine's only on-media metadata.
TEST(TableTagTest, EncodeDecode) {
  static const uint64_t kBig = 1ull << 50;
  for (int level = 0; level < 7; level++) {
    FileMetaData f;
    f.smallest = InternalKey("foo", kBig + 500 + level, kTypeValue);
    f.largest = InternalKey("zoo", kBig + 600 + level, kTypeDeletion);
    std::string tag;
    EncodeTableTag(&tag, level, f);
    int parsed_level = -1;
    FileMetaData parsed;
    ASSERT_TRUE(DecodeTableTag(tag, &parsed_level, &parsed));
    EXPECT_EQ(parsed_level, level);
    EXPECT_EQ(parsed.smallest.Encode(), f.smallest.Encode());
    EXPECT_EQ(parsed.largest.Encode(), f.largest.Encode());
    std::string again;
    EncodeTableTag(&again, parsed_level, parsed);
    EXPECT_EQ(again, tag);
  }

  fs::FileCommit commit;
  for (int i = 0; i < 4; i++) {
    FileMetaData f;
    f.smallest = InternalKey("a" + std::to_string(i), kBig + i, kTypeValue);
    f.largest = InternalKey("b" + std::to_string(i), kBig + i, kTypeValue);
    EncodeTableTag(&commit.tags["/db/00000" + std::to_string(i) + ".ldb"], i,
                   f);
  }
  commit.tags["/db/000009.ldb"] = "";  // a cleared tag
  commit.removes = {"/db/000007.log", "/db/000008.log"};
  PutVarint64(&commit.engine_state, kBig + 1000);
  std::string body;
  fs::EncodeCommit(&body, commit);
  fs::FileCommit parsed;
  ASSERT_TRUE(fs::DecodeCommit(body, &parsed));
  EXPECT_EQ(parsed.tags, commit.tags);
  EXPECT_EQ(parsed.removes, commit.removes);
  EXPECT_EQ(parsed.engine_state, commit.engine_state);
  std::string again;
  fs::EncodeCommit(&again, parsed);
  EXPECT_EQ(again, body);
}

// The set id is not in the tag: it is the table's FileStore region, and it
// survives a store restart next to the tag a commit gave the table.
TEST(TableTagTest, SetIdSurvivesRoundtrip) {
  smr::Geometry geo;
  geo.capacity_bytes = 64ull << 20;
  geo.conventional_bytes = 8 << 20;
  auto drive = smr::NewShingledDisk(geo, smr::LatencyParams::Smr());
  auto make_allocator = [] {
    return fs::NewExt4Allocator(8 << 20, 56ull << 20, 4096, fs::Ext4Options());
  };
  auto allocator = make_allocator();
  auto store = std::make_unique<fs::FileStore>(drive.get(), allocator.get());
  ASSERT_TRUE(store->Format().ok());
  uint64_t region = 0;
  ASSERT_TRUE(store->AllocateRegion(1 << 20, &region).ok());
  ASSERT_NE(region, 0u);
  std::unique_ptr<fs::WritableFile> file;
  ASSERT_TRUE(store->NewWritableFileInRegion(region, "/db/000007.ldb", &file)
                  .ok());
  ASSERT_TRUE(file->Append(std::string(5000, 'x')).ok());
  ASSERT_TRUE(file->Close().ok());
  ASSERT_TRUE(store->SealRegion(region).ok());

  FileMetaData f;
  f.smallest = InternalKey("a", 1, kTypeValue);
  f.largest = InternalKey("b", 2, kTypeValue);
  fs::FileCommit commit;
  EncodeTableTag(&commit.tags["/db/000007.ldb"], 2, f);
  ASSERT_TRUE(store->Commit(commit).ok());

  store.reset();
  allocator = make_allocator();
  store = std::make_unique<fs::FileStore>(drive.get(), allocator.get());
  ASSERT_TRUE(store->Recover().ok());
  const std::vector<fs::FileInfo> files = store->ListFiles();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].name, "/db/000007.ldb");
  EXPECT_EQ(files[0].region_id, region);
  EXPECT_EQ(files[0].size, 5000u);
  int level = -1;
  FileMetaData parsed;
  ASSERT_TRUE(DecodeTableTag(files[0].tag, &level, &parsed));
  EXPECT_EQ(level, 2);
  EXPECT_EQ(parsed.largest.Encode(), f.largest.Encode());
}

TEST(TableTagTest, CorruptInputRejected) {
  int level;
  FileMetaData f;
  EXPECT_FALSE(DecodeTableTag(Slice("\xff\xff garbage"), &level, &f));
  EXPECT_FALSE(DecodeTableTag(Slice(), &level, &f));
  FileMetaData good;
  good.smallest = InternalKey("a", 1, kTypeValue);
  good.largest = InternalKey("b", 2, kTypeValue);
  std::string tag;
  EncodeTableTag(&tag, 1, good);
  EXPECT_FALSE(DecodeTableTag(Slice(tag.data(), tag.size() - 1), &level, &f));
  EXPECT_FALSE(DecodeTableTag(tag + "x", &level, &f));

  fs::FileCommit commit;
  EXPECT_FALSE(fs::DecodeCommit(Slice("\xff\xff garbage"), &commit));
  commit.tags["/db/000001.ldb"] = tag;
  std::string body;
  fs::EncodeCommit(&body, commit);
  EXPECT_FALSE(fs::DecodeCommit(Slice(body.data(), body.size() - 1), &commit));
  EXPECT_FALSE(fs::DecodeCommit(body + "x", &commit));
}

// The SEALDB picker (compaction_unit == kSet, level >= 1) takes the victim
// with the lowest score: the bytes its compaction rewrites per victim byte,
// less kFreedSetWeight times the set-region bytes it frees per victim byte.
// kSSTable keeps LevelDB's key-order rotation. Each case builds its tables
// in a FileStore, commits them, and asks a freshly opened picker.
class VictimScoreTest : public ::testing::Test {
 public:
  VictimScoreTest()
      : drive_(smr::NewHddDrive(Geometry(), smr::LatencyParams::Hdd())),
        allocator_(fs::NewExt4Allocator(8 << 20, 56ull << 20, 4096,
                                        fs::Ext4Options())),
        store_(drive_.get(), allocator_.get()),
        icmp_(BytewiseComparator()) {
    EXPECT_TRUE(store_.Format().ok());
    // L1 is far over its 1-byte budget, so level 1 is the one compacted.
    options_.max_bytes_for_level_base = 1;
    versions_ = std::make_unique<VersionSet>("/db", &options_, &store_,
                                             nullptr, &icmp_);
    std::vector<uint64_t> logs;
    EXPECT_TRUE(versions_->Recover(&logs).ok());
  }

  // A set: one region that holds the tables written into it until Seal.
  uint64_t NewSet() {
    uint64_t region = 0;
    EXPECT_TRUE(store_.AllocateRegion(1 << 20, &region).ok());
    return region;
  }
  void Seal(uint64_t region) { ASSERT_TRUE(store_.SealRegion(region).ok()); }

  // Table `number` of `bytes` bytes at `level`, holding keys c0..c1, in
  // `region` (0 = standalone).
  void AddTable(int level, uint64_t number, char c, size_t bytes,
                uint64_t region = 0) {
    std::unique_ptr<fs::WritableFile> file;
    const std::string name = TableFileName("/db", number);
    Status s = region == 0 ? store_.NewWritableFile(name, 4096, &file)
                           : store_.NewWritableFileInRegion(region, name, &file);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_TRUE(file->Append(std::string(bytes, 'x')).ok());
    ASSERT_TRUE(file->Close().ok());
    VersionEdit edit;
    edit.AddFile(level, number, bytes, Key(c, 0), Key(c, 1), region);
    ASSERT_TRUE(versions_->LogAndApply(&edit).ok());
  }

  void Kill(int level, uint64_t number) {
    VersionEdit edit;
    edit.RemoveFile(level, number);
    ASSERT_TRUE(versions_->LogAndApply(&edit).ok());
    for (uint64_t dead : versions_->TakeObsoleteFiles()) {
      ASSERT_TRUE(store_.RemoveFile(TableFileName("/db", dead)).ok());
    }
  }

  // The level-1 victim a freshly opened engine picks (the rotation starts
  // at the beginning of the key space on open).
  uint64_t Victim(CompactionUnit unit) {
    Options opened = options_;
    opened.compaction_unit = unit;
    VersionSet fresh("/db", &opened, &store_, nullptr, &icmp_);
    std::vector<uint64_t> logs;
    EXPECT_TRUE(fresh.Recover(&logs).ok());
    std::unique_ptr<Compaction> c(fresh.PickCompaction());
    if (c == nullptr || c->num_input_files(0) == 0) return 0;
    EXPECT_EQ(c->level(), 1);
    return c->input(0, 0)->number;
  }

 private:
  static smr::Geometry Geometry() {
    smr::Geometry geo;
    geo.capacity_bytes = 64ull << 20;
    geo.conventional_bytes = 8 << 20;
    return geo;
  }
  static InternalKey Key(char c, int i) {
    return InternalKey(std::string(1, c) + std::to_string(i), 1, kTypeValue);
  }

  std::unique_ptr<smr::Drive> drive_;
  std::unique_ptr<fs::ExtentAllocator> allocator_;
  fs::FileStore store_;
  const InternalKeyComparator icmp_;
  Options options_;
  std::unique_ptr<VersionSet> versions_;
};

// (a) With no set to free, the least next-level overlap per victim byte
// wins: table 2 rewrites 30 level-2 bytes for its 20 (2.5 per byte), table
// 1 only 20 for its 5 (5 per byte). The rotation takes table 1.
TEST_F(VictimScoreTest, LeastOverlapPerByteWins) {
  AddTable(1, 1, 'a', 5);
  AddTable(2, 11, 'a', 20);
  AddTable(1, 2, 'c', 20);
  AddTable(2, 12, 'c', 30);
  EXPECT_EQ(Victim(CompactionUnit::kSet), 2u);
  // (c) Per-table compaction keeps the rotation's table.
  EXPECT_EQ(Victim(CompactionUnit::kSSTable), 1u);
}

// (b) Two victims of equal size and overlap. Table 1 comes first in key
// order, but its set still has table 3 live elsewhere. Table 2 is the last
// live member of its set together with the level-2 table it overlaps, so
// its compaction releases that region: it wins.
TEST_F(VictimScoreTest, VictimThatFreesItsSetWins) {
  const uint64_t live_set = NewSet();
  AddTable(1, 1, 'a', 5, live_set);
  AddTable(1, 3, 'e', 5, live_set);
  Seal(live_set);
  AddTable(2, 11, 'a', 10);
  AddTable(2, 13, 'e', 50);  // keeps table 3 out of the running

  const uint64_t draining_set = NewSet();
  AddTable(1, 2, 'c', 5, draining_set);
  AddTable(2, 12, 'c', 10, draining_set);
  for (uint64_t number = 4; number <= 6; number++) {
    AddTable(1, number, static_cast<char>('f' + number), 5, draining_set);
  }
  Seal(draining_set);
  for (uint64_t number = 4; number <= 6; number++) Kill(1, number);

  EXPECT_EQ(Victim(CompactionUnit::kSet), 2u);
  EXPECT_EQ(Victim(CompactionUnit::kSSTable), 1u);
}

}  // namespace sealdb
