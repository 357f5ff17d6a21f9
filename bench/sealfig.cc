// sealfig: regenerates the paper's evaluation, Table II and Figs. 2, 3 and
// 8-14.
//
//   sealfig <table2|fig02|fig03|fig08|...|fig14|all> [--mb=N] [--scale=K]
//           [--read_ops=N]
//
// Prints JSON rows only, one per line: the figure, the system, the metric,
// its value and the run's parameters. Throughput is ops per second of
// simulated device time. A metric `name[x]` is one point of a series: x is
// the compaction's index in the load's event list (Figs. 2, 10, 11), the
// band size in full-scale MB (Fig. 3) or the band's index on the disk
// (Fig. 13). Ratios across systems are left to scripts/figures.py, which
// renders the tables of README.md and EXPERIMENTS.md from these rows.
//
// Each distinct load, keyed by its whole StackConfig and its key order, is
// built and loaded once and handed to every figure that reads it. Layout
// and amplification readings come first, then the read phases (Figs. 8
// and 14), which can trigger compactions. One stack is live at a time.
#include <algorithm>
#include <cstring>
#include <deque>
#include <functional>
#include <set>
#include <tuple>

#include "bench_common.h"
#include "core/band_inspector.h"
#include "smr/drive.h"
#include "ycsb/runner.h"

using namespace sealdb;
using namespace sealdb::bench;

namespace {

constexpr double kMiB = 1048576.0;

// ------------------------------- rows -------------------------------

struct Row {
  std::string system;
  std::string metric;
  double value;
};

// Rows read off one load. A block is not repeatable when its values depend
// on thread interleaving; figures.py leaves such rows out of the
// committed-rows comparison.
struct Block {
  bool repeatable = true;
  std::vector<Row> rows;

  void Add(const std::string& system, const std::string& metric,
           double value) {
    rows.push_back({system, metric, value});
  }
};

std::string At(const char* metric, uint64_t x) {
  return std::string(metric) + "[" + std::to_string(x) + "]";
}

// One figure's rows, printed in the order its blocks were opened (not the
// order the loads ran), so a figure prints the same rows whether it runs
// alone or under `all`.
class FigureRows {
 public:
  explicit FigureRows(const char* figure) : figure_(figure) {}

  Block* NewBlock(bool repeatable = true) {
    blocks_.push_back(Block{repeatable, {}});
    return &blocks_.back();
  }

  void Print(const BenchParams& params) const {
    for (const Block& block : blocks_) {
      for (const Row& row : block.rows) {
        std::printf(
            "{\"figure\": \"%s\", \"system\": \"%s\", \"metric\": \"%s\", "
            "\"value\": %.10g, \"mb\": %llu, \"scale\": %llu, "
            "\"read_ops\": %llu%s}\n",
            figure_, row.system.c_str(), row.metric.c_str(), row.value,
            static_cast<unsigned long long>(params.load_mb),
            static_cast<unsigned long long>(params.scale),
            static_cast<unsigned long long>(params.read_ops),
            block.repeatable ? "" : ", \"repeatable\": false");
      }
    }
  }

 private:
  const char* figure_;
  std::deque<Block> blocks_;  // a deque keeps handed-out blocks in place
};

// ------------------------------- loads -------------------------------

enum class Order { kSequential, kRandom, kYcsb };

struct Load {
  baselines::StackConfig config;
  Order order;
};

// Binds every StackConfig field, so a field added to the struct fails to
// compile here instead of letting two different stacks share one load.
auto LoadKey(const Load& load) {
  const auto& [kind, capacity, band, sstable, write_buffer, track, overlap,
               conventional, inline_compactions, workers, pool, time_scale,
               fault_injection, slowdown, stop, scrub, scrub_rate,
               scrub_degrade, shards] = load.config;
  return std::tuple(kind, capacity, band, sstable, write_buffer, track,
                    overlap, conventional, inline_compactions, workers, pool,
                    time_scale, fault_injection, slowdown, stop, scrub,
                    scrub_rate, scrub_degrade, shards, load.order);
}

// What a figure reads off a loaded stack.
struct Loaded {
  baselines::Stack* stack;
  LoadResult load;
  std::vector<CompactionEvent> events;  // the load's compactions
};

// The read phases, run once per load, in this order, after every layout
// reading of that load.
struct Reads {
  ReadResult random;
  // Device seconds of the compactions the random reads triggered (seek
  // compactions); exact on the one-shard inline stacks the figures use.
  double random_compaction_seconds = 0.0;
  ReadResult seq;
};

using LayoutReader = std::function<Status(const Loaded&)>;
using ReadsReader = std::function<void(const Loaded&, const Reads&)>;

class Plan {
 public:
  explicit Plan(const BenchParams& params) : params_(params) {}

  void AfterLoad(const Load& load, LayoutReader reader) {
    Find(load).layout.push_back(std::move(reader));
  }
  void AfterReads(const Load& load, ReadsReader reader) {
    Find(load).reads.push_back(std::move(reader));
  }

  Status Run() {
    for (Job& job : jobs_) {
      Status s = RunJob(job);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  size_t loads() const { return jobs_.size(); }

 private:
  struct Job {
    Load load;
    std::vector<LayoutReader> layout;
    std::vector<ReadsReader> reads;
  };

  Job& Find(const Load& load) {
    for (Job& job : jobs_) {
      if (LoadKey(job.load) == LoadKey(load)) return job;
    }
    jobs_.push_back(Job{load, {}, {}});
    return jobs_.back();
  }

  Status RunJob(const Job& job) {
    std::unique_ptr<baselines::Stack> stack;
    Status s = baselines::BuildStack(job.load.config, "/db", &stack);
    if (!s.ok()) return s;
    DB* db = stack->db();
    db->SetRecordCompactionEvents(true);
    Loaded loaded{stack.get(), {}, {}};
    if (job.load.order == Order::kYcsb) {
      ycsb::Runner runner(stack.get(), params_.key_bytes,
                          params_.value_bytes());
      ycsb::RunResult r;
      // One driver thread per shard keeps every shard's pipeline fed.
      s = runner.Load(params_.entries(), &r, job.load.config.num_shards);
      if (!s.ok()) return s;
      loaded.load.entries = r.operations;
      loaded.load.device_seconds = r.device_seconds;
      loaded.load.ops_per_second = r.ops_per_second();
    } else {
      loaded.load = LoadDatabase(stack.get(), params_.entries(), params_,
                                 job.load.order == Order::kRandom);
      if (loaded.load.entries != params_.entries()) {
        return Status::IOError("load stopped early");
      }
    }
    loaded.events = db->TakeCompactionEvents();
    for (const LayoutReader& reader : job.layout) {
      s = reader(loaded);
      if (!s.ok()) return s;
    }
    if (job.reads.empty()) return Status::OK();
    Reads reads;
    reads.random = RandomRead(stack.get(), params_.entries(),
                              params_.read_ops, params_);
    for (const CompactionEvent& ev : db->TakeCompactionEvents()) {
      reads.random_compaction_seconds += ev.device_seconds;
    }
    reads.seq = SequentialRead(stack.get());
    for (const ReadsReader& reader : job.reads) reader(loaded, reads);
    return Status::OK();
  }

  const BenchParams params_;
  std::vector<Job> jobs_;
};

Load RandomLoad(const BenchParams& p, baselines::SystemKind kind) {
  return {p.MakeConfig(kind), Order::kRandom};
}

// The three systems the paper compares.
constexpr baselines::SystemKind kSystems[] = {
    baselines::SystemKind::kLevelDB,
    baselines::SystemKind::kSMRDB,
    baselines::SystemKind::kSEALDB,
};

// ------------------------------ figures ------------------------------
//
// Each figure opens its row blocks and registers its readers on the plan.
// Paper values live with the rendered tables (scripts/figures.py).

// Table II: raw device performance of the latency model alone (no stack).
void Table2(const BenchParams&, Plan*, FigureRows* rows) {
  constexpr uint64_t kSpan = 1ull << 40;  // 1 TB address space
  constexpr int kRandomOps = 3000;
  Block* block = rows->NewBlock();
  for (const char* device : {"HDD", "SMR"}) {
    smr::LatencyParams lp = smr::LatencyParams::Smr();
    if (std::strcmp(device, "HDD") == 0) lp = smr::LatencyParams::Hdd();
    for (bool is_write : {false, true}) {
      // Sequential: stream 256 MiB in 1 MiB requests (decimal MB/s).
      smr::LatencyModel seq(lp, kSpan);
      double t = 0;
      for (uint64_t off = 0; off < (256ull << 20); off += 1 << 20) {
        t += seq.Access(off, 1 << 20, is_write).total;
      }
      block->Add(device, is_write ? "seq_write_mb_s" : "seq_read_mb_s",
                 256.0 * kMiB / 1e6 / t);
      // Random: 4 KiB requests at LCG offsets over the whole span.
      smr::LatencyModel rnd(lp, kSpan);
      t = 0;
      uint64_t pos = 12345;
      for (int op = 0; op < kRandomOps; op++) {
        pos = pos * 6364136223846793005ull + 1442695040888963407ull;
        const uint64_t offset = (pos % (kSpan - 4096)) / 4096 * 4096;
        t += rnd.Access(offset, 4096, is_write).total;
      }
      block->Add(device, is_write ? "rand_write_iops" : "rand_read_iops",
                 kRandomOps / t);
    }
  }
}

// Fig. 2: where stock LevelDB on an ext4-like allocator over a
// conventional drive places each compaction's output tables.
void Fig02(const BenchParams& p, Plan* plan, FigureRows* rows) {
  constexpr size_t kEvery = 20;  // series stride over the event list
  const baselines::SystemKind kind = baselines::SystemKind::kLevelDBOnHdd;
  const char* sys = baselines::SystemName(kind);
  Block* block = rows->NewBlock();
  auto reader = [block, sys](const Loaded& l) {
    uint64_t outputs = 0, max_pba = 0;
    double span = 0;
    int merges = 0;
    for (size_t i = 0; i < l.events.size(); i++) {
      const CompactionEvent& ev = l.events[i];
      if (ev.output_placement.empty()) continue;
      uint64_t lo = UINT64_MAX, hi = 0;
      for (const auto& [offset, length] : ev.output_placement) {
        lo = std::min(lo, offset);
        hi = std::max(hi, offset + length);
      }
      max_pba = std::max(max_pba, hi);
      outputs += ev.num_outputs;
      span += (hi - lo) / kMiB;
      merges++;
      if (i % kEvery == 0) {
        block->Add(sys, At("outputs", i), ev.num_outputs);
        block->Add(sys, At("min_pba_mb", i), lo / kMiB);
        block->Add(sys, At("max_pba_mb", i), hi / kMiB);
        block->Add(sys, At("span_mb", i), (hi - lo) / kMiB);
      }
    }
    const double user_bytes = l.load.user_bytes;
    block->Add(sys, "user_data_mb", user_bytes / kMiB);
    block->Add(sys, "compactions", merges);
    block->Add(sys, "avg_outputs", merges ? 1.0 * outputs / merges : 0);
    block->Add(sys, "avg_span_mb", merges ? span / merges : 0);
    block->Add(sys, "space_touched_mb", max_pba / kMiB);
    block->Add(sys, "data_per_space_touched",
               max_pba ? user_bytes / max_pba : 0);
    return Status::OK();
  };
  plan->AfterLoad(RandomLoad(p, kind), reader);
}

// Fig. 3: LevelDB on fixed-band SMR over a band-size sweep; tables and
// bands per compaction, WA, AWA, MWA.
void Fig03(const BenchParams& p, Plan* plan, FigureRows* rows) {
  for (uint64_t band_mb : {20, 30, 40, 50, 60}) {
    baselines::StackConfig config =
        p.MakeConfig(baselines::SystemKind::kLevelDB);
    config.band_bytes = band_mb * (1ull << 20) / p.scale;
    const char* sys = baselines::SystemName(config.kind);
    Block* block = rows->NewBlock();
    auto reader = [block, sys, band_mb, config](const Loaded& l) {
      const uint64_t conv = config.conventional_bytes;
      uint64_t outputs = 0, bands_touched = 0;
      int merges = 0;
      for (const CompactionEvent& ev : l.events) {
        if (ev.trivial_move || ev.output_placement.empty()) continue;
        std::set<uint64_t> bands;
        for (const auto& [offset, length] : ev.output_placement) {
          if (offset < conv) continue;
          const uint64_t first = (offset - conv) / config.band_bytes;
          const uint64_t last =
              (offset + length - 1 - conv) / config.band_bytes;
          for (uint64_t b = first; b <= last; b++) bands.insert(b);
        }
        outputs += ev.num_outputs;
        bands_touched += bands.size();
        merges++;
      }
      block->Add(sys, At("ssts_per_compaction", band_mb),
                 merges ? 1.0 * outputs / merges : 0);
      block->Add(sys, At("bands_per_compaction", band_mb),
                 merges ? 1.0 * bands_touched / merges : 0);
      block->Add(sys, At("wa", band_mb), l.stack->wa());
      block->Add(sys, At("awa", band_mb), l.stack->awa());
      block->Add(sys, At("mwa", band_mb), l.stack->mwa());
      return Status::OK();
    };
    plan->AfterLoad({config, Order::kRandom}, reader);
  }
}

// The micro-benchmark columns of Figs. 8 and 14 for one system: fill-seq
// on a fresh store; fill-random on another, then read-random and read-seq
// on that randomly loaded store (as the paper reads).
void Micro(const BenchParams& p, baselines::SystemKind kind, Plan* plan,
           FigureRows* rows) {
  const char* sys = baselines::SystemName(kind);
  Block* seq = rows->NewBlock();
  auto seq_reader = [seq, sys](const Loaded& l) {
    seq->Add(sys, "fill_seq", l.load.ops_per_second);
    return Status::OK();
  };
  plan->AfterLoad({p.MakeConfig(kind), Order::kSequential}, seq_reader);
  Block* rnd = rows->NewBlock();
  auto rnd_reader = [rnd, sys](const Loaded& l, const Reads& r) {
    rnd->Add(sys, "fill_random", l.load.ops_per_second);
    rnd->Add(sys, "read_random", r.random.ops_per_second);
    rnd->Add(sys, "read_random_compaction_s", r.random_compaction_seconds);
    // The random load draws ids with replacement, so some reads miss.
    rnd->Add(sys, "read_random_found_share",
             1.0 - static_cast<double>(r.random.not_found) / r.random.ops);
    rnd->Add(sys, "read_seq", r.seq.ops_per_second);
  };
  plan->AfterReads(RandomLoad(p, kind), rnd_reader);
}

// Fig. 8: micro-benchmarks of LevelDB, SMRDB and SEALDB.
void Fig08(const BenchParams& p, Plan* plan, FigureRows* rows) {
  for (baselines::SystemKind kind : kSystems) Micro(p, kind, plan, rows);
}

// Fig. 14: the same micro-benchmarks with LevelDB+sets in SMRDB's place,
// separating the contribution of sets from that of dynamic bands.
void Fig14(const BenchParams& p, Plan* plan, FigureRows* rows) {
  Micro(p, baselines::SystemKind::kLevelDB, plan, rows);
  Micro(p, baselines::SystemKind::kLevelDBWithSets, plan, rows);
  Micro(p, baselines::SystemKind::kSEALDB, plan, rows);
}

// Fig. 9: YCSB load, then workloads A-F in order on the same store. A
// fourth column hash-partitions SEALDB over kShards shards; its device
// time depends on thread interleaving, so its rows are not repeatable.
void Fig09(const BenchParams& p, Plan* plan, FigureRows* rows) {
  constexpr int kShards = 4;
  auto column = [&](baselines::SystemKind kind, const char* sys, int shards) {
    baselines::StackConfig config = p.MakeConfig(kind);
    config.num_shards = shards;
    Block* block = rows->NewBlock(/*repeatable=*/shards == 1);
    auto reader = [block, sys, p](const Loaded& l) {
      block->Add(sys, "Load", l.load.ops_per_second);
      ycsb::Runner runner(l.stack, p.key_bytes, p.value_bytes());
      for (const char* workload : {"A", "B", "C", "D", "E", "F"}) {
        // Workload E scans are ~50x heavier per op; run fewer.
        uint64_t ops = p.read_ops;
        if (std::strcmp(workload, "E") == 0) ops /= 10;
        ycsb::RunResult r;
        Status s = runner.Run(ycsb::WorkloadSpec::ByName(workload),
                              p.entries(), ops, &r);
        if (!s.ok()) return s;
        block->Add(sys, workload, r.ops_per_second());
      }
      return Status::OK();
    };
    plan->AfterLoad({config, Order::kYcsb}, reader);
  };
  for (baselines::SystemKind kind : kSystems) {
    column(kind, baselines::SystemName(kind), 1);
  }
  column(baselines::SystemKind::kSEALDB, "SEALDB-shard", kShards);
}

// Fig. 10: per-compaction latency and data while randomly loading.
void Fig10(const BenchParams& p, Plan* plan, FigureRows* rows) {
  constexpr size_t kEvery = 25;  // series stride over the event list
  for (baselines::SystemKind kind : kSystems) {
    const char* sys = baselines::SystemName(kind);
    Block* block = rows->NewBlock();
    auto reader = [block, sys](const Loaded& l) {
      uint64_t data_bytes = 0, outputs = 0;
      double latency = 0;
      int merges = 0;
      for (size_t i = 0; i < l.events.size(); i++) {
        const CompactionEvent& ev = l.events[i];
        if (ev.trivial_move) continue;
        data_bytes += ev.output_bytes;
        outputs += ev.num_outputs;
        latency += ev.device_seconds;
        merges++;
        if (i % kEvery == 0) {
          block->Add(sys, At("latency_ms", i), ev.device_seconds * 1000.0);
          block->Add(sys, At("data_mb", i), ev.output_bytes / kMiB);
          block->Add(sys, At("outputs", i), ev.num_outputs);
        }
      }
      block->Add(sys, "compactions", merges);
      block->Add(sys, "total_latency_s", latency);
      if (merges > 0) {
        block->Add(sys, "avg_latency_ms", latency / merges * 1000.0);
        block->Add(sys, "avg_data_mb", data_bytes / kMiB / merges);
        block->Add(sys, "avg_outputs", 1.0 * outputs / merges);
      }
      return Status::OK();
    };
    plan->AfterLoad(RandomLoad(p, kind), reader);
  }
}

// Fig. 11: SEALDB's set placement per compaction and its disk footprint.
void Fig11(const BenchParams& p, Plan* plan, FigureRows* rows) {
  constexpr size_t kEvery = 20;  // series stride over the event list
  const baselines::SystemKind kind = baselines::SystemKind::kSEALDB;
  const char* sys = baselines::SystemName(kind);
  Block* block = rows->NewBlock();
  auto reader = [block, sys](const Loaded& l) {
    int merges = 0, contiguous = 0;
    for (size_t i = 0; i < l.events.size(); i++) {
      const CompactionEvent& ev = l.events[i];
      if (ev.trivial_move || ev.output_placement.empty()) continue;
      bool is_contiguous = true;
      uint64_t prev_end = 0, lo = UINT64_MAX, bytes = 0;
      for (const auto& [offset, length] : ev.output_placement) {
        if (prev_end != 0 && offset != prev_end) is_contiguous = false;
        prev_end = offset + length;
        lo = std::min(lo, offset);
        bytes += length;
      }
      merges++;
      if (is_contiguous) contiguous++;
      if (i % kEvery == 0) {
        block->Add(sys, At("outputs", i), ev.output_placement.size());
        block->Add(sys, At("set_pba_mb", i), lo / kMiB);
        block->Add(sys, At("set_mb", i), bytes / kMiB);
        block->Add(sys, At("contiguous", i), is_contiguous);
      }
    }
    core::DynamicBandAllocator* alloc = l.stack->dynamic_allocator();
    const double occupied = alloc->frontier() - alloc->base();
    const double user_bytes = l.load.user_bytes;
    block->Add(sys, "user_data_mb", user_bytes / kMiB);
    block->Add(sys, "compactions", merges);
    block->Add(sys, "contiguous_pct", merges ? 100.0 * contiguous / merges : 0);
    block->Add(sys, "occupied_mb", occupied / kMiB);
    block->Add(sys, "occupied_per_user_byte",
               user_bytes > 0 ? occupied / user_bytes : 0);
    block->Add(sys, "dynamic_bands", core::BandInspector(alloc).Bands().size());
    return Status::OK();
  };
  plan->AfterLoad(RandomLoad(p, kind), reader);
}

// Fig. 12: WA, AWA and MWA after a random load, with the drive counters
// behind them.
void Fig12(const BenchParams& p, Plan* plan, FigureRows* rows) {
  for (baselines::SystemKind kind : kSystems) {
    const char* sys = baselines::SystemName(kind);
    Block* block = rows->NewBlock();
    auto reader = [block, sys](const Loaded& l) {
      const smr::DeviceMetrics& dev = l.stack->drive()->metrics();
      block->Add(sys, "wa", l.stack->wa());
      block->Add(sys, "awa", l.stack->awa());
      block->Add(sys, "mwa", l.stack->mwa());
      block->Add(sys, "logical_mb", dev.logical_write->Value() / kMiB);
      block->Add(sys, "physical_mb", dev.physical_write->Value() / kMiB);
      block->Add(sys, "busy_s", dev.busy->Seconds());
      block->Add(sys, "seeks", dev.seeks->Value());
      block->Add(sys, "rmws", dev.rmw_ops->Value());
      return Status::OK();
    };
    plan->AfterLoad(RandomLoad(p, kind), reader);
  }
}

// Fig. 13: SEALDB's dynamic bands and the fragments between them, counting
// free regions no larger than the run's average set as fragments.
void Fig13(const BenchParams& p, Plan* plan, FigureRows* rows) {
  constexpr size_t kMaxBands = 40;  // series points
  const baselines::SystemKind kind = baselines::SystemKind::kSEALDB;
  const char* sys = baselines::SystemName(kind);
  Block* block = rows->NewBlock();
  auto reader = [block, sys](const Loaded& l) {
    // Average set size measured from the run itself, like the paper.
    uint64_t avg_set = l.stack->config().sstable_bytes * 7;
    uint64_t set_bytes = 0;
    int sets = 0;
    for (const CompactionEvent& ev : l.events) {
      if (ev.trivial_move || ev.set_id == 0) continue;
      set_bytes += ev.output_bytes;
      sets++;
    }
    if (sets > 0) avg_set = set_bytes / sets;
    core::BandInspector inspector(l.stack->dynamic_allocator());
    const auto report = inspector.Fragments(avg_set);
    block->Add(sys, "avg_set_mb", avg_set / kMiB);
    block->Add(sys, "dynamic_bands", report.num_bands);
    block->Add(sys, "occupied_mb", report.occupied_bytes / kMiB);
    block->Add(sys, "allocated_mb", report.allocated_bytes / kMiB);
    block->Add(sys, "guard_mb", report.guard_bytes / kMiB);
    block->Add(sys, "fragment_mb", report.fragment_bytes / kMiB);
    block->Add(sys, "large_free_mb", report.large_free_bytes / kMiB);
    block->Add(sys, "fragment_pct", 100.0 * report.fragment_fraction());
    const auto bands = inspector.Bands();
    const size_t step = std::max<size_t>(1, bands.size() / kMaxBands);
    for (size_t i = 0; i < bands.size(); i += step) {
      block->Add(sys, At("offset_mb", i), bands[i].offset / kMiB);
      block->Add(sys, At("length_mb", i), bands[i].length / kMiB);
      block->Add(sys, At("gap_mb", i), bands[i].following_gap / kMiB);
    }
    return Status::OK();
  };
  plan->AfterLoad(RandomLoad(p, kind), reader);
}

struct Figure {
  const char* name;
  void (*add)(const BenchParams&, Plan*, FigureRows*);
};

constexpr Figure kFigures[] = {
    {"table2", Table2}, {"fig02", Fig02}, {"fig03", Fig03},
    {"fig08", Fig08},   {"fig09", Fig09}, {"fig10", Fig10},
    {"fig11", Fig11},   {"fig12", Fig12}, {"fig13", Fig13},
    {"fig14", Fig14},
};

int Usage() {
  std::fprintf(stderr,
               "usage: sealfig <table2|fig02|fig03|fig08|fig09|fig10|fig11|"
               "fig12|fig13|fig14|all> [--mb=N] [--scale=K] "
               "[--read_ops=N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string which = argv[1];
  for (int i = 2; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind("--mb=", 0) != 0 && arg.rfind("--scale=", 0) != 0 &&
        arg.rfind("--read_ops=", 0) != 0) {
      return Usage();
    }
  }
  const BenchParams params = BenchParams::FromFlags(Flags(argc, argv));

  Plan plan(params);
  std::deque<FigureRows> figures;
  for (const Figure& figure : kFigures) {
    if (which != "all" && which != figure.name) continue;
    figures.emplace_back(figure.name);
    figure.add(params, &plan, &figures.back());
  }
  if (figures.empty()) return Usage();

  Status s = plan.Run();
  if (!s.ok()) {
    std::fprintf(stderr, "sealfig: %s\n", s.ToString().c_str());
    return 1;
  }
  for (const FigureRows& rows : figures) rows.Print(params);
  std::fprintf(stderr, "sealfig %s: %zu loads\n", which.c_str(),
               plan.loads());
  return 0;
}
