// web_index: a domain-specific scenario from the paper's introduction —
// key-value stores backing web indexing. We model an inverted-index
// posting store: keys are "term#docid", values are posting payloads.
// Crawl batches update hot terms continuously (write-heavy, skewed), while
// query serving does ordered scans over a term's postings.
//
//   ./web_index [num_docs]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/sealdb.h"
#include "util/random.h"

namespace {

const char* kTerms[] = {
    "storage", "shingled", "magnetic",  "recording", "compaction",
    "database", "keyvalue", "lsm",      "band",      "dynamic",
    "guard",    "track",    "sstable",  "memtable",  "zipfian",
};
constexpr int kNumTerms = sizeof(kTerms) / sizeof(kTerms[0]);

std::string PostingKey(const std::string& term, uint32_t doc) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s#%08u", term.c_str(), doc);
  return buf;
}

std::string PostingPayload(uint32_t doc, sealdb::Random* rnd) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"doc\":%u,\"tf\":%u,\"positions\":[%u,%u,%u]}", doc,
                1 + rnd->Uniform(20), rnd->Uniform(1000), rnd->Uniform(1000),
                rnd->Uniform(1000));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const uint32_t num_docs = argc > 1 ? atoi(argv[1]) : 30000;

  sealdb::core::SealDBOptions options;
  options.capacity_bytes = 2ull << 30;
  options.sstable_bytes = 512 << 10;
  options.write_buffer_bytes = 512 << 10;
  options.track_bytes = 128 << 10;
  std::unique_ptr<sealdb::core::SealDB> db;
  sealdb::Status s = sealdb::core::SealDB::Open(options, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open: %s\n", s.ToString().c_str());
    return 1;
  }

  // Crawl phase: each document contributes postings for a few terms, with
  // a zipf-ish skew toward popular terms (hot keys churn, which exercises
  // set invalidation and dynamic-band reuse).
  sealdb::Random rnd(20260704);
  uint64_t postings = 0;
  std::printf("indexing %u documents...\n", num_docs);
  for (uint32_t doc = 0; doc < num_docs; doc++) {
    const int terms_in_doc = 2 + rnd.Uniform(4);
    for (int t = 0; t < terms_in_doc; t++) {
      // Skew: low-numbered terms are much more frequent.
      const int term = rnd.Skewed(4) % kNumTerms;
      s = db->Put(PostingKey(kTerms[term], doc), PostingPayload(doc, &rnd));
      if (!s.ok()) {
        std::fprintf(stderr, "put: %s\n", s.ToString().c_str());
        return 1;
      }
      postings++;
    }
    // Re-crawl: ~5% of older documents get refreshed postings.
    if (doc > 1000 && rnd.OneIn(20)) {
      const uint32_t old_doc = rnd.Uniform(doc);
      const int term = rnd.Skewed(4) % kNumTerms;
      db->Put(PostingKey(kTerms[term], old_doc),
              PostingPayload(old_doc, &rnd));
      postings++;
    }
  }
  std::printf("indexed %llu postings\n", (unsigned long long)postings);

  // Query phase: ordered scans over a term's posting list.
  for (const char* term : {"storage", "lsm", "zipfian"}) {
    std::vector<std::pair<std::string, std::string>> rows;
    s = db->Scan(std::string(term) + "#", 1000000, &rows);
    // Count only rows still belonging to this term.
    size_t count = 0;
    for (const auto& [k, v] : rows) {
      if (k.compare(0, strlen(term) + 1, std::string(term) + "#") != 0) break;
      count++;
    }
    std::printf("term %-10s -> %zu postings\n", term, count);
  }

  // The workload is update-heavy and skewed: exactly where the paper says
  // SEALDB shines. Confirm the device never amplified a write.
  std::printf("\nWA %.2f, AWA %.2f (always 1.0 on dynamic bands), MWA %.2f\n",
              db->wa(), db->awa(), db->mwa());
  const sealdb::obs::MetricsRegistry& metrics =
      *db->stack()->metrics_registry();
  std::printf(
      "device: %.1f MB written, %llu seeks, %.3f s busy\n",
      metrics.counter_value("sealdb_device_logical_bytes_total",
                            {{"dir", "write"}}) /
          1048576.0,
      (unsigned long long)metrics.counter_value("sealdb_device_seeks_total"),
      metrics.time_value("sealdb_device_busy_seconds_total"));
  return 0;
}
