// Fig. 13 — dynamic band layout and fragments after a random load.
//
// Paper (40 GB random load): each dynamic band is followed by a fragment
// or gap; ignoring free regions larger than the average set size
// (27.48 MB), fragments total 1.7 GB = 9.32% of the occupied space.
#include "bench_common.h"
#include "core/band_inspector.h"

using namespace sealdb;
using namespace sealdb::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchParams params = BenchParams::FromFlags(flags);

  std::unique_ptr<baselines::Stack> stack;
  Status s = baselines::BuildStack(
      params.MakeConfig(baselines::SystemKind::kSEALDB), "/db", &stack);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  stack->db()->SetRecordCompactionEvents(true);

  PrintHeader("Fig. 13: dynamic bands and fragments (" +
              std::to_string(params.load_mb) + " MB random load)");
  LoadDatabase(stack.get(), params.entries(), params, /*random_order=*/true);

  // Average set size measured from the run itself, like the paper.
  auto events = stack->db()->TakeCompactionEvents();
  uint64_t set_bytes = 0;
  int sets = 0;
  for (const CompactionEvent& ev : events) {
    if (ev.trivial_move || ev.set_id == 0) continue;
    set_bytes += ev.output_bytes;
    sets++;
  }
  const uint64_t avg_set =
      sets > 0 ? set_bytes / sets : stack->config().sstable_bytes * 7;
  PrintKV("average set size (paper: 27.48 MB full scale)",
          avg_set / 1048576.0, "MB");

  core::BandInspector inspector(stack->dynamic_allocator());
  const auto report = inspector.Fragments(avg_set);

  PrintKV("dynamic bands", std::to_string(report.num_bands));
  PrintKV("occupied space", FormatMB(report.occupied_bytes));
  PrintKV("allocated (live) data", FormatMB(report.allocated_bytes));
  PrintKV("guard regions", FormatMB(report.guard_bytes));
  PrintKV("fragments (small free + guards)", FormatMB(report.fragment_bytes));
  PrintKV("large reusable free regions", FormatMB(report.large_free_bytes));
  PrintKV("fragment share of occupied space (paper: 9.32%)",
          100.0 * report.fragment_fraction(), "%");

  std::printf("\n--- band layout (band, following gap) ---\n");
  const auto bands = inspector.Bands();
  const size_t step = bands.size() > 40 ? bands.size() / 40 : 1;
  for (size_t i = 0; i < bands.size(); i += step) {
    std::printf("  band @%9.1f MB  len %9.2f MB  gap %8.2f MB\n",
                bands[i].offset / 1048576.0, bands[i].length / 1048576.0,
                bands[i].following_gap / 1048576.0);
  }

  return 0;
}
