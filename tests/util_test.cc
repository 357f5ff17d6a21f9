// Unit tests for the util layer: coding, crc32c, hash, random, arena,
// bloom, histogram, logging, slice, status, comparator.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "util/arena.h"
#include "util/coding.h"
#include "util/comparator.h"
#include "util/crc32c.h"
#include "util/filter_policy.h"
#include "util/hash.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/status.h"

namespace sealdb {

// ---------------------------------------------------------------- coding

TEST(Coding, Fixed32) {
  std::string s;
  for (uint32_t v = 0; v < 100000; v++) {
    PutFixed32(&s, v);
  }
  const char* p = s.data();
  for (uint32_t v = 0; v < 100000; v++) {
    uint32_t actual = DecodeFixed32(p);
    EXPECT_EQ(v, actual);
    p += sizeof(uint32_t);
  }
}

TEST(Coding, Fixed64) {
  std::string s;
  for (int power = 0; power <= 63; power++) {
    uint64_t v = static_cast<uint64_t>(1) << power;
    PutFixed64(&s, v - 1);
    PutFixed64(&s, v + 0);
    PutFixed64(&s, v + 1);
  }

  const char* p = s.data();
  for (int power = 0; power <= 63; power++) {
    uint64_t v = static_cast<uint64_t>(1) << power;
    EXPECT_EQ(v - 1, DecodeFixed64(p));
    p += sizeof(uint64_t);
    EXPECT_EQ(v + 0, DecodeFixed64(p));
    p += sizeof(uint64_t);
    EXPECT_EQ(v + 1, DecodeFixed64(p));
    p += sizeof(uint64_t);
  }
}

TEST(Coding, EncodingOutputIsLittleEndian) {
  std::string dst;
  PutFixed32(&dst, 0x04030201);
  ASSERT_EQ(4u, dst.size());
  EXPECT_EQ(0x01, static_cast<int>(dst[0]));
  EXPECT_EQ(0x02, static_cast<int>(dst[1]));
  EXPECT_EQ(0x03, static_cast<int>(dst[2]));
  EXPECT_EQ(0x04, static_cast<int>(dst[3]));
}

TEST(Coding, Varint32) {
  std::string s;
  for (uint32_t i = 0; i < (32 * 32); i++) {
    uint32_t v = (i / 32) << (i % 32);
    PutVarint32(&s, v);
  }

  const char* p = s.data();
  const char* limit = p + s.size();
  for (uint32_t i = 0; i < (32 * 32); i++) {
    uint32_t expected = (i / 32) << (i % 32);
    uint32_t actual;
    const char* start = p;
    p = GetVarint32Ptr(p, limit, &actual);
    ASSERT_TRUE(p != nullptr);
    EXPECT_EQ(expected, actual);
    EXPECT_EQ(VarintLength(actual), p - start);
  }
  EXPECT_EQ(p, s.data() + s.size());
}

TEST(Coding, Varint64) {
  // Construct the list of values to check
  std::vector<uint64_t> values;
  // Some special values
  values.push_back(0);
  values.push_back(100);
  values.push_back(~static_cast<uint64_t>(0));
  values.push_back(~static_cast<uint64_t>(0) - 1);
  for (uint32_t k = 0; k < 64; k++) {
    // Test values near powers of two
    const uint64_t power = 1ull << k;
    values.push_back(power);
    values.push_back(power - 1);
    values.push_back(power + 1);
  }

  std::string s;
  for (size_t i = 0; i < values.size(); i++) {
    PutVarint64(&s, values[i]);
  }

  const char* p = s.data();
  const char* limit = p + s.size();
  for (size_t i = 0; i < values.size(); i++) {
    ASSERT_TRUE(p < limit);
    uint64_t actual;
    const char* start = p;
    p = GetVarint64Ptr(p, limit, &actual);
    ASSERT_TRUE(p != nullptr);
    EXPECT_EQ(values[i], actual);
    EXPECT_EQ(VarintLength(actual), p - start);
  }
  EXPECT_EQ(p, limit);
}

TEST(Coding, Varint32Overflow) {
  uint32_t result;
  std::string input("\x81\x82\x83\x84\x85\x11");
  EXPECT_TRUE(GetVarint32Ptr(input.data(), input.data() + input.size(),
                             &result) == nullptr);
}

TEST(Coding, Varint32Truncation) {
  uint32_t large_value = (1u << 31) + 100;
  std::string s;
  PutVarint32(&s, large_value);
  uint32_t result;
  for (size_t len = 0; len < s.size() - 1; len++) {
    EXPECT_TRUE(GetVarint32Ptr(s.data(), s.data() + len, &result) == nullptr);
  }
  EXPECT_TRUE(GetVarint32Ptr(s.data(), s.data() + s.size(), &result) !=
              nullptr);
  EXPECT_EQ(large_value, result);
}

TEST(Coding, Varint64Overflow) {
  uint64_t result;
  std::string input("\x81\x82\x83\x84\x85\x81\x82\x83\x84\x85\x11");
  EXPECT_TRUE(GetVarint64Ptr(input.data(), input.data() + input.size(),
                             &result) == nullptr);
}

TEST(Coding, Strings) {
  std::string s;
  PutLengthPrefixedSlice(&s, Slice(""));
  PutLengthPrefixedSlice(&s, Slice("foo"));
  PutLengthPrefixedSlice(&s, Slice("bar"));
  PutLengthPrefixedSlice(&s, Slice(std::string(200, 'x')));

  Slice input(s);
  Slice v;
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("foo", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("bar", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ(std::string(200, 'x'), v.ToString());
  EXPECT_TRUE(input.empty());
}

// ---------------------------------------------------------------- crc32c

// Each kernel behind crc32c::Extend is checked directly; the accelerated
// one only on CPUs that can run it.
using Crc32cFn = uint32_t (*)(uint32_t, const char*, size_t);

bool CpuHasSse42() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

class Crc32cKernel : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "portable") {
      fn_ = crc32c::internal::ExtendPortable;
      return;
    }
    if (!CpuHasSse42()) GTEST_SKIP() << "CPU lacks SSE4.2";
#if defined(__x86_64__)
    fn_ = crc32c::internal::ExtendSse42;
#endif
  }

  uint32_t Value(const void* data, size_t n) const {
    return fn_(0, static_cast<const char*>(data), n);
  }

  Crc32cFn fn_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(
    Kernels, Crc32cKernel, ::testing::Values("portable", "sse4.2"),
    [](const auto& info) {
      return info.param == "sse4.2" ? std::string("sse42") : info.param;
    });

TEST_P(Crc32cKernel, StandardResults) {
  // From rfc3720 section B.4.
  char buf[32];

  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(0x8a9136aau, Value(buf, sizeof(buf)));

  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(0x62a8ab43u, Value(buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) {
    buf[i] = i;
  }
  EXPECT_EQ(0x46dd794eu, Value(buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) {
    buf[i] = 31 - i;
  }
  EXPECT_EQ(0x113fdb5cu, Value(buf, sizeof(buf)));

  uint8_t data[48] = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  EXPECT_EQ(0xd9963a56u, Value(data, sizeof(data)));
}

std::string RandomBytes(size_t n, uint32_t seed) {
  Random rnd(seed);
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rnd.Uniform(256));
  return s;
}

TEST_P(Crc32cKernel, ExtendSplitsAcrossStreamThresholds) {
  // The accelerated kernel switches to three streams at 3 x 256 B and to
  // longer streams at 3 x 8 KiB; splitting an input anywhere around those
  // sizes must not change its checksum.
  const std::string data = RandomBytes(3 * 8192 + 1024, 7);
  const uint32_t whole = crc32c::internal::ExtendPortable(0, data.data(),
                                                          data.size());
  ASSERT_EQ(whole, Value(data.data(), data.size()));
  for (size_t center : {size_t{768}, size_t{3 * 8192}}) {
    for (size_t split = center - 17; split <= center + 17; split++) {
      const uint32_t head = Value(data.data(), split);
      EXPECT_EQ(whole, fn_(head, data.data() + split, data.size() - split))
          << "split at " << split;
    }
  }
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, data.size() - 1,
                       data.size()}) {
    const uint32_t head = Value(data.data(), split);
    EXPECT_EQ(whole, fn_(head, data.data() + split, data.size() - split))
        << "split at " << split;
  }
}

TEST(Crc32c, AcceleratedMatchesPortable) {
  if (!CpuHasSse42()) GTEST_SKIP() << "CPU lacks SSE4.2";
#if defined(__x86_64__)
  // Every length up to three 4 KiB blocks and a bit, from every start
  // alignment, so the byte-wise head, each stream loop and the tail are
  // all exercised at every offset.
  const size_t kMaxLen = 3 * 4096 + 64;
  const std::string data = RandomBytes(kMaxLen + 8, 11);
  for (size_t align = 0; align < 8; align++) {
    for (size_t n = 0; n <= kMaxLen; n++) {
      const char* p = data.data() + align;
      ASSERT_EQ(crc32c::internal::ExtendPortable(0, p, n),
                crc32c::internal::ExtendSse42(0, p, n))
          << "length " << n << ", alignment " << align;
    }
  }
#endif
}

TEST(Crc32c, ExtendUsesTheCpusKernel) {
  EXPECT_STREQ(CpuHasSse42() ? "sse4.2" : "portable",
               crc32c::internal::Implementation());
}

TEST(Crc32c, Values) {
  EXPECT_NE(crc32c::Value("a", 1), crc32c::Value("foo", 3));
}

TEST(Crc32c, Extend) {
  EXPECT_EQ(crc32c::Value("hello world", 11),
            crc32c::Extend(crc32c::Value("hello ", 6), "world", 5));
}

TEST(Crc32c, Mask) {
  uint32_t crc = crc32c::Value("foo", 3);
  EXPECT_NE(crc, crc32c::Mask(crc));
  EXPECT_NE(crc, crc32c::Mask(crc32c::Mask(crc)));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Mask(crc)));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Unmask(
                     crc32c::Mask(crc32c::Mask(crc)))));
}

// ---------------------------------------------------------------- hash

TEST(Hash, SignedUnsignedIssue) {
  const uint8_t data1[1] = {0x62};
  const uint8_t data2[2] = {0xc3, 0x97};
  const uint8_t data3[3] = {0xe2, 0x99, 0xa5};
  const uint8_t data4[4] = {0xe1, 0x80, 0xb9, 0x32};
  EXPECT_EQ(Hash(nullptr, 0, 0xbc9f1d34), 0xbc9f1d34u);
  EXPECT_NE(Hash(reinterpret_cast<const char*>(data1), sizeof(data1), 0xbc9f1d34),
            0u);
  // Hash should differ for different inputs.
  EXPECT_NE(Hash(reinterpret_cast<const char*>(data2), sizeof(data2), 1),
            Hash(reinterpret_cast<const char*>(data3), sizeof(data3), 1));
  EXPECT_NE(Hash(reinterpret_cast<const char*>(data3), sizeof(data3), 1),
            Hash(reinterpret_cast<const char*>(data4), sizeof(data4), 1));
}

// ---------------------------------------------------------------- random

TEST(Random, Deterministic) {
  Random a(301), b(301);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Random, UniformRange) {
  Random r(17);
  for (int i = 0; i < 1000; i++) {
    uint32_t v = r.Uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(Random, DoubleRange) {
  Random r(23);
  for (int i = 0; i < 1000; i++) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ---------------------------------------------------------------- arena

TEST(Arena, Empty) { Arena arena; }

TEST(Arena, Simple) {
  std::vector<std::pair<size_t, char*>> allocated;
  Arena arena;
  const int N = 100000;
  size_t bytes = 0;
  Random rnd(301);
  for (int i = 0; i < N; i++) {
    size_t s;
    if (i % (N / 10) == 0) {
      s = i;
    } else {
      s = rnd.OneIn(4000)
              ? rnd.Uniform(6000)
              : (rnd.OneIn(10) ? rnd.Uniform(100) : rnd.Uniform(20));
    }
    if (s == 0) {
      // Our arena disallows size 0 allocations.
      s = 1;
    }
    char* r;
    if (rnd.OneIn(10)) {
      r = arena.AllocateAligned(s);
    } else {
      r = arena.Allocate(s);
    }

    for (size_t b = 0; b < s; b++) {
      // Fill the "i"th allocation with a known bit pattern
      r[b] = i % 256;
    }
    bytes += s;
    allocated.push_back(std::make_pair(s, r));
    EXPECT_GE(arena.MemoryUsage(), bytes);
    if (i > N / 10) {
      EXPECT_LE(arena.MemoryUsage(), bytes * 1.10);
    }
  }
  for (size_t i = 0; i < allocated.size(); i++) {
    size_t num_bytes = allocated[i].first;
    const char* p = allocated[i].second;
    for (size_t b = 0; b < num_bytes; b++) {
      // Check the "i"th allocation for the known bit pattern
      EXPECT_EQ(static_cast<int>(p[b]) & 0xff, static_cast<int>(i % 256));
    }
  }
}

// ---------------------------------------------------------------- bloom

TEST(Bloom, EmptyFilter) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  std::string filter;
  policy->CreateFilter(nullptr, 0, &filter);
  EXPECT_FALSE(policy->KeyMayMatch("hello", filter));
  EXPECT_FALSE(policy->KeyMayMatch("world", filter));
}

TEST(Bloom, Small) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  std::vector<Slice> keys = {Slice("hello"), Slice("world")};
  std::string filter;
  policy->CreateFilter(keys.data(), 2, &filter);
  EXPECT_TRUE(policy->KeyMayMatch("hello", filter));
  EXPECT_TRUE(policy->KeyMayMatch("world", filter));
  EXPECT_FALSE(policy->KeyMayMatch("x", filter));
  EXPECT_FALSE(policy->KeyMayMatch("foo", filter));
}

static std::string BloomKey(int i) {
  char buf[8];
  EncodeFixed32(buf, i);
  return std::string(buf, 4);
}

TEST(Bloom, VaryingLengths) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  int mediocre_filters = 0;
  int good_filters = 0;

  for (int length = 1; length <= 5000; length = (length * 5) / 4 + 1) {
    std::vector<std::string> key_storage;
    std::vector<Slice> keys;
    for (int i = 0; i < length; i++) {
      key_storage.push_back(BloomKey(i));
    }
    for (int i = 0; i < length; i++) {
      keys.push_back(Slice(key_storage[i]));
    }
    std::string filter;
    policy->CreateFilter(keys.data(), length, &filter);
    EXPECT_LE(filter.size(), static_cast<size_t>((length * 10 / 8) + 40));

    // All added keys must match
    for (int i = 0; i < length; i++) {
      EXPECT_TRUE(policy->KeyMayMatch(Slice(key_storage[i]), filter))
          << "Length " << length << "; key " << i;
    }

    // Check false positive rate
    int result = 0;
    for (int i = 0; i < 10000; i++) {
      if (policy->KeyMayMatch(BloomKey(i + 1000000000), filter)) {
        result++;
      }
    }
    double rate = result / 10000.0;
    EXPECT_LE(rate, 0.02);  // Must not be over 2%
    if (rate > 0.0125) {
      mediocre_filters++;  // Allowed, but not too often
    } else {
      good_filters++;
    }
  }
  EXPECT_LE(mediocre_filters, good_filters / 5);
}

// The filter's bit positions are the plain remainder h % bits, computed
// without a division: every filter must hold the bytes this reference
// (the division, with the policy's hash, k = 6 for 10 bits per key) sets,
// so filters written before and after read the same.
TEST(Bloom, BitsMatchTheRemainderReference) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  for (int length = 1; length <= 20000; length = (length * 5) / 4 + 1) {
    std::vector<std::string> key_storage;
    for (int i = 0; i < length; i++) {
      key_storage.push_back(BloomKey(i * 7919 + length));
    }
    std::vector<Slice> keys(key_storage.begin(), key_storage.end());
    std::string filter;
    policy->CreateFilter(keys.data(), length, &filter);

    const size_t bytes = (std::max<size_t>(64, length * 10) + 7) / 8;
    const size_t bits = bytes * 8;
    std::string want(bytes, '\0');
    want.push_back(6);
    for (const Slice& key : keys) {
      uint32_t h = Hash(key.data(), key.size(), 0xbc9f1d34);
      const uint32_t delta = (h >> 17) | (h << 15);
      for (int j = 0; j < 6; j++) {
        const uint32_t bitpos = h % bits;
        want[bitpos / 8] |= static_cast<char>(1 << (bitpos % 8));
        h += delta;
      }
    }
    ASSERT_EQ(filter, want) << "length " << length;
  }
}

// ---------------------------------------------------------------- misc

TEST(Histogram, Basics) {
  Histogram h;
  for (int i = 1; i <= 100; i++) {
    h.Add(i);
  }
  EXPECT_EQ(100, h.Num());
  EXPECT_NEAR(50.5, h.Average(), 0.01);
  EXPECT_EQ(1, h.Min());
  EXPECT_EQ(100, h.Max());
  EXPECT_GT(h.Median(), 30.0);
  EXPECT_LT(h.Median(), 70.0);
  EXPECT_FALSE(h.ToString().empty());
}

TEST(Histogram, Merge) {
  Histogram a, b;
  a.Add(1);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(2, a.Num());
  EXPECT_EQ(1, a.Min());
  EXPECT_EQ(1000, a.Max());
}

TEST(Logging, NumberToString) {
  EXPECT_EQ("0", NumberToString(0));
  EXPECT_EQ("1", NumberToString(1));
  EXPECT_EQ("9", NumberToString(9));
  EXPECT_EQ("18446744073709551615",
            NumberToString(std::numeric_limits<uint64_t>::max()));
}

TEST(Logging, ConsumeDecimalNumberRoundtrip) {
  for (uint64_t v : std::vector<uint64_t>{
           0, 1, 9, 10, 100000, std::numeric_limits<uint64_t>::max()}) {
    std::string s = NumberToString(v);
    Slice in(s);
    uint64_t out;
    ASSERT_TRUE(ConsumeDecimalNumber(&in, &out));
    EXPECT_EQ(v, out);
    EXPECT_TRUE(in.empty());
  }
}

TEST(Logging, ConsumeDecimalNumberOverflow) {
  std::string s = "18446744073709551616";  // max + 1
  Slice in(s);
  uint64_t out;
  EXPECT_FALSE(ConsumeDecimalNumber(&in, &out));
}

TEST(Logging, ConsumeDecimalNumberNoDigits) {
  Slice in("abc");
  uint64_t out;
  EXPECT_FALSE(ConsumeDecimalNumber(&in, &out));
}

TEST(Logging, EscapeString) {
  EXPECT_EQ("abc", EscapeString("abc"));
  EXPECT_EQ("\\x00\\x01", EscapeString(Slice("\x00\x01", 2)));
}

TEST(Slice, Basics) {
  Slice empty;
  EXPECT_TRUE(empty.empty());
  Slice s("hello");
  EXPECT_EQ(5u, s.size());
  EXPECT_EQ('h', s[0]);
  EXPECT_TRUE(s.starts_with("he"));
  EXPECT_FALSE(s.starts_with("x"));
  Slice t = s;
  t.remove_prefix(2);
  EXPECT_EQ("llo", t.ToString());
  EXPECT_LT(Slice("a").compare(Slice("b")), 0);
  EXPECT_GT(Slice("ab").compare(Slice("a")), 0);
  EXPECT_EQ(0, Slice("a").compare(Slice("a")));
  EXPECT_TRUE(Slice("a") == Slice("a"));
  EXPECT_TRUE(Slice("a") != Slice("b"));
}

TEST(Status, Basics) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ("OK", ok.ToString());

  Status nf = Status::NotFound("missing", "key1");
  EXPECT_FALSE(nf.ok());
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_EQ("NotFound: missing: key1", nf.ToString());

  Status copy = nf;
  EXPECT_TRUE(copy.IsNotFound());

  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::NoSpace("x").IsNoSpace());
}

TEST(Comparator, Bytewise) {
  const Comparator* cmp = BytewiseComparator();
  EXPECT_LT(cmp->Compare("abc", "abd"), 0);
  EXPECT_GT(cmp->Compare("abd", "abc"), 0);
  EXPECT_EQ(cmp->Compare("abc", "abc"), 0);

  std::string start = "abcdefghij";
  cmp->FindShortestSeparator(&start, "abzzzz");
  EXPECT_LT(Slice(start).compare("abzzzz"), 0);
  EXPECT_GE(Slice(start).compare("abcdefghij"), 0);
  EXPECT_LE(start.size(), 3u);

  std::string key = "abc";
  cmp->FindShortSuccessor(&key);
  EXPECT_GE(Slice(key).compare("abc"), 0);
  EXPECT_EQ(1u, key.size());

  // All 0xff: cannot shorten.
  std::string ff(3, '\xff');
  std::string ff_copy = ff;
  cmp->FindShortSuccessor(&ff);
  EXPECT_EQ(ff_copy, ff);
}

}  // namespace sealdb
