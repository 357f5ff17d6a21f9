// Fig. 2 — SSTable placement of stock LevelDB on ext4 for each compaction.
//
// Paper: randomly loading a 10 GB database yields ~600 compactions, and
// each compaction's SSTables are written to locations scattered over the
// first 10 GB of the disk.
//
// We random-load a scaled database on the conventional-drive + ext4-like
// stack and report, per compaction, where its output SSTables landed, plus
// scatter statistics (span and distinct 1%-of-disk regions touched).
#include <algorithm>
#include <set>

#include "bench_common.h"

using namespace sealdb;
using namespace sealdb::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchParams params = BenchParams::FromFlags(flags);
  const uint64_t print_every = flags.GetInt("print_every", 20);

  std::unique_ptr<baselines::Stack> stack;
  Status s = baselines::BuildStack(
      params.MakeConfig(baselines::SystemKind::kLevelDBOnHdd), "/db", &stack);
  if (!s.ok()) {
    std::fprintf(stderr, "build failed: %s\n", s.ToString().c_str());
    return 1;
  }
  stack->db()->SetRecordCompactionEvents(true);

  PrintHeader("Fig. 2: LevelDB-on-ext4 SSTable placement per compaction (" +
              std::to_string(params.load_mb) + " MB random load)");
  LoadResult load = LoadDatabase(stack.get(), params.entries(), params,
                                 /*random_order=*/true);
  auto events = stack->db()->TakeCompactionEvents();

  std::printf("%8s %8s %14s %14s %12s\n", "compact#", "outputs", "min-PBA-MB",
              "max-PBA-MB", "span-MB");
  const double mb = 1048576.0;
  uint64_t total_outputs = 0;
  double total_span = 0;
  uint64_t max_pba = 0;
  int merges = 0;
  for (size_t i = 0; i < events.size(); i++) {
    const CompactionEvent& ev = events[i];
    if (ev.output_placement.empty()) continue;
    uint64_t lo = UINT64_MAX, hi = 0;
    for (const auto& [offset, length] : ev.output_placement) {
      lo = std::min(lo, offset);
      hi = std::max(hi, offset + length);
    }
    max_pba = std::max(max_pba, hi);
    total_outputs += ev.num_outputs;
    total_span += (hi - lo) / mb;
    merges++;
    if (i % print_every == 0) {
      std::printf("%8zu %8d %14.1f %14.1f %12.1f\n", i, ev.num_outputs,
                  lo / mb, hi / mb, (hi - lo) / mb);
    }
  }

  PrintHeader("Fig. 2 summary");
  PrintKV("user data loaded", FormatMB(load.user_bytes));
  PrintKV("compactions (paper: ~600 at 10 GB)", std::to_string(merges));
  if (merges > 0) {
    PrintKV("avg SSTables written per compaction",
            static_cast<double>(total_outputs) / merges);
    PrintKV("avg placement span per compaction", total_span / merges, "MB");
  }
  PrintKV("disk space touched (paper: ~DB size)",
          FormatMB(max_pba));
  PrintKV("DB size / space-touched ratio",
          max_pba > 0 ? static_cast<double>(load.user_bytes) / max_pba : 0.0);
  return 0;
}
