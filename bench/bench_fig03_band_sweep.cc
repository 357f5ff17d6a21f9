// Fig. 3 — SSTable distribution over SMR bands and the resulting write
// amplification, as a function of the band size.
//
// Paper (10 GB random load, bands 20-60 MB):
//   (a) 9.83 SSTables written per compaction, spread over 6.22 bands at
//       40 MB (~5-7 across the sweep)
//   (b) WA 9.83x -> MWA ~40-75x (52.85x at 40 MB bands)
//
// We random-load LevelDB-on-fixed-band-SMR at each (scaled) band size and
// report SSTables/compaction (output tables, not their extents), bands
// touched/compaction, WA, AWA, and MWA.
#include <algorithm>
#include <set>

#include "bench_common.h"

using namespace sealdb;
using namespace sealdb::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchParams params = BenchParams::FromFlags(flags);

  PrintHeader("Fig. 3: band-size sweep, LevelDB on fixed-band SMR (" +
              std::to_string(params.load_mb) + " MB random load, scale 1/" +
              std::to_string(params.scale) + ")");
  std::printf("%12s %14s %14s %8s %8s %8s\n", "band-MB", "ssts/compact",
              "bands/compact", "WA", "AWA", "MWA");

  // The paper sweeps 20..60 MB in 10 MB steps at full scale.
  for (uint64_t band_mb_full : {20, 30, 40, 50, 60}) {
    baselines::StackConfig config =
        params.MakeConfig(baselines::SystemKind::kLevelDB);
    config.band_bytes = band_mb_full * (1ull << 20) / params.scale;

    std::unique_ptr<baselines::Stack> stack;
    Status s = baselines::BuildStack(config, "/db", &stack);
    if (!s.ok()) {
      std::fprintf(stderr, "build failed: %s\n", s.ToString().c_str());
      return 1;
    }
    stack->db()->SetRecordCompactionEvents(true);
    LoadDatabase(stack.get(), params.entries(), params,
                 /*random_order=*/true);
    auto events = stack->db()->TakeCompactionEvents();

    uint64_t total_outputs = 0, total_bands = 0;
    int merges = 0;
    const uint64_t conv = config.conventional_bytes;
    for (const CompactionEvent& ev : events) {
      if (ev.trivial_move || ev.output_placement.empty()) continue;
      std::set<uint64_t> bands;
      for (const auto& [offset, length] : ev.output_placement) {
        if (offset < conv) continue;
        const uint64_t first = (offset - conv) / config.band_bytes;
        const uint64_t last =
            (offset + length - 1 - conv) / config.band_bytes;
        for (uint64_t b = first; b <= last; b++) bands.insert(b);
      }
      total_outputs += ev.num_outputs;
      total_bands += bands.size();
      merges++;
    }

    const double ssts = merges ? static_cast<double>(total_outputs) / merges
                               : 0;
    const double bands = merges ? static_cast<double>(total_bands) / merges
                                : 0;
    std::printf("%12llu %14.2f %14.2f %8.2f %8.2f %8.2f\n",
                static_cast<unsigned long long>(band_mb_full), ssts, bands,
                stack->wa(), stack->awa(), stack->mwa());
  }

  std::printf(
      "\npaper @40MB: 9.83 SSTables over 6.22 bands; WA 9.83x -> MWA "
      "52.85x\n");
  return 0;
}
