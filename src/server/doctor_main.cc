// sealdb_doctor: offline consistency checker for a FileStore-formatted
// drive (fs/doctor.h).
//
// The simulated drives are process-local, so the binary is a
// self-contained harness: it builds a stack, loads data, simulates a
// crash + recovery, optionally injects deliberate metadata corruption,
// then runs the doctor and prints its report. Tests and check.sh use it
// to prove the checker catches (and --repair fixes) real damage; library
// users call RunDoctor() on their own drive.
//
// The default load makes every shard run set compactions. A store at rest
// then holds set regions and orphans none, so without --corrupt-slot the
// check also fails when a shard holds no region (the check would say
// nothing about regions) or an orphaned one (a leaked set region).
//
//   sealdb_doctor [--shards N] [--keys N] [--scale F]
//                 [--corrupt-slot] [--repair] [--verbose]
//
//   --corrupt-slot   overwrite shard 0's active checkpoint slot with
//                    garbage after loading (the doctor must flag it;
//                    with --repair it must also fix it)
//   --repair         re-run the doctor in repair mode after a failed
//                    check and verify the store recovers clean
//
// A clean final check then reads every loaded key back; a lost or stale
// value fails it.
//
// Exit status: 0 = final check clean, 1 = corruption found (and not
// repaired), 2 = usage/setup error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "baselines/presets.h"
#include "fs/doctor.h"
#include "util/random.h"

namespace {

using namespace sealdb;

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--shards N] [--keys N] [--scale F]\n"
               "          [--corrupt-slot] [--repair] [--verbose]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  int shards = 4;
  int keys = 40000;
  uint64_t scale = 64;
  bool corrupt_slot = false;
  bool repair = false;
  bool verbose = false;

  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--shards" && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
    } else if (arg == "--keys" && i + 1 < argc) {
      keys = std::atoi(argv[++i]);
    } else if (arg == "--scale" && i + 1 < argc) {
      scale = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--corrupt-slot") {
      corrupt_slot = true;
    } else if (arg == "--repair") {
      repair = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  baselines::StackConfig config =
      baselines::StackConfig{}.Scaled(scale);
  config.kind = baselines::SystemKind::kSEALDB;
  config.num_shards = shards;
  std::unique_ptr<baselines::Stack> stack;
  Status s = baselines::BuildStack(config, "doctor", &stack);
  if (!s.ok()) {
    std::fprintf(stderr, "setup: %s\n", s.ToString().c_str());
    return 2;
  }

  WriteOptions wo;
  wo.sync = false;
  // Random order, so flushes overlap and compact instead of landing in
  // disjoint key ranges.
  Random rnd(301);
  std::map<std::string, std::string> acked;  // each key's last value
  for (int i = 0; i < keys; i++) {
    char key[32], value[64];
    std::snprintf(key, sizeof(key), "doctor-key-%08d",
                  static_cast<int>(rnd.Uniform(keys)));
    std::snprintf(value, sizeof(value), "value-%08d-%032d", i, 0);
    acked[key] = value;
    s = stack->db()->Put(wo, key, value);
    if (!s.ok()) {
      std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
      return 2;
    }
  }
  stack->db()->WaitForIdle();

  // Crash + recover: the doctor always runs over a *recovered* store, the
  // state it would meet in the field.
  s = stack->Reopen();
  if (!s.ok()) {
    std::fprintf(stderr, "recover: %s\n", s.ToString().c_str());
    return 2;
  }

  if (corrupt_slot) {
    // Trash shard 0's active checkpoint slot (one block of garbage). The
    // mirror slot still carries the store, so this is the classic
    // single-copy-damaged case the doctor must flag and repair.
    fs::FileStore* store = stack->shard_store(0);
    const int slot = store->active_checkpoint_slot();
    std::string garbage(stack->drive()->geometry().block_bytes, '\xa5');
    s = stack->drive()->Write(store->checkpoint_slot_offset(slot), garbage);
    if (!s.ok()) {
      std::fprintf(stderr, "corrupt: %s\n", s.ToString().c_str());
      return 2;
    }
  }

  fs::DoctorOptions dopt;
  dopt.num_shards = shards;
  fs::DoctorReport report;
  s = fs::RunDoctor(stack->drive(), dopt, &report);
  if (!s.ok()) {
    std::fprintf(stderr, "doctor: %s\n", s.ToString().c_str());
    return 2;
  }
  if (verbose || !report.ok()) std::fputs(report.ToString().c_str(), stdout);

  bool clean = report.ok();
  const bool damage_expected = corrupt_slot;
  if (!damage_expected) {
    for (const auto& sr : report.shards) {
      if (sr.regions == 0) {
        std::fprintf(stderr,
                     "shard %d holds no set region: load more keys so "
                     "every shard compacts\n",
                     sr.shard);
        return 2;
      }
      if (sr.orphaned_regions > 0) {
        std::fprintf(stderr, "shard %d: %llu orphaned region(s)\n", sr.shard,
                     static_cast<unsigned long long>(sr.orphaned_regions));
        if (clean && !verbose) std::fputs(report.ToString().c_str(), stdout);
        clean = false;
      }
    }
  }
  if (damage_expected && clean && !repair) {
    // A corrupted slot the checker failed to notice is itself a failure.
    // (A damaged inactive slot is only a warning; the active slot carries
    // the freshest seq, so trashing it must at least surface a warning —
    // require one.)
    bool flagged = false;
    for (const auto& sr : report.shards) {
      flagged = flagged || sr.damaged_checkpoint_slots > 0;
    }
    if (!flagged) {
      std::fprintf(stderr, "doctor missed the injected slot damage\n");
      return 1;
    }
  }

  if (repair) {
    dopt.repair = true;
    s = fs::RunDoctor(stack->drive(), dopt, &report);
    if (!s.ok()) {
      std::fprintf(stderr, "repair: %s\n", s.ToString().c_str());
      return 2;
    }
    // Re-check from scratch, then prove the store still recovers.
    dopt.repair = false;
    s = fs::RunDoctor(stack->drive(), dopt, &report);
    if (!s.ok() || !report.ok()) {
      std::fputs(report.ToString().c_str(), stdout);
      std::fprintf(stderr, "store still inconsistent after repair\n");
      return 1;
    }
    s = stack->Reopen();
    if (!s.ok()) {
      std::fprintf(stderr, "post-repair recover: %s\n", s.ToString().c_str());
      return 1;
    }
    clean = true;
    if (verbose) std::fputs(report.ToString().c_str(), stdout);
  }

  // Clean metadata is not enough: every acked write must read back.
  if (clean) {
    uint64_t lost = 0;
    std::string value;
    for (const auto& [key, want] : acked) {
      if (!stack->db()->Get(ReadOptions(), key, &value).ok() || value != want) {
        lost++;
      }
    }
    if (lost > 0) {
      std::fprintf(stderr, "%llu of %zu keys do not read back\n",
                   static_cast<unsigned long long>(lost), acked.size());
      clean = false;
    }
  }

  std::printf("sealdb_doctor: %s\n", clean ? "clean" : "corruption found");
  return clean ? 0 : 1;
}
