// sealbench: runs one SEALDB benchmark workload and reports its metrics.
//
//   sealbench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//             [--out=result.json] [--spans=trace.spans] [--inject-wrong=K]
//   sealbench --selftest
//
// Prints one line per metric (name, value, unit, and the sample count
// behind each percentile) and writes the full result to --out. Exits 1 when
// any check failed: a failed, refused or wrong operation, a guard
// violation, or too few samples for the reported percentiles.
// --inject-wrong=K flips a byte of every K-th value read back, which the
// checks must catch. run.py builds this binary and drives it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

// Held out: never used while tuning the benchmark, kept for verifying a
// later claim on inputs its author did not see.
constexpr uint64_t kHeldOutSeed = 20181016;

bool FlagValue(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

int Fail(const char* what) {
  std::fprintf(stderr, "selftest failed: %s\n", what);
  return 1;
}

// Checks of the benchmark's own machinery: the percentile rule and the
// record codec. The output schema and the injected-wrong-value path are
// exercised end to end by selftest.py.
int SelfTest() {
  // Nearest rank: p50 of 1..100 is 50; p99.9 of 10000 samples is rank 9990,
  // leaving exactly 10 beyond it.
  if (RankIndex(100, 50) != 49) return Fail("RankIndex(100, 50)");
  if (RankIndex(10000, 99.9) != 9989) return Fail("RankIndex(10000, 99.9)");
  if (SamplesBeyond(10000, 99.9) != 10) return Fail("SamplesBeyond");
  if (!PercentileSupported(10000, 99.9)) return Fail("p99.9 of 10000");
  if (PercentileSupported(9999, 99.9)) return Fail("p99.9 of 9999");
  if (PercentileSupported(999, 99)) return Fail("p99 of 999");
  if (!PercentileSupported(1000, 99)) return Fail("p99 of 1000");
  if (HighestSupportedPercentile(10000) != 99.9) return Fail("top of 10000");
  if (HighestSupportedPercentile(1000) != 99) return Fail("top of 1000");
  if (HighestSupportedPercentile(5) != 0) return Fail("top of 5");
  std::vector<uint32_t> ns;
  for (uint32_t i = 1000; i >= 1; i--) ns.push_back(i);
  const LatencySummary s = Summarize(&ns);
  if (s.count != 1000 || s.p50_us != 0.5 || s.p99_us != 0.99 ||
      s.p999_us != 0.999 || s.top_pct != 99) {
    return Fail("Summarize(1..1000 ns)");
  }
  // Equal samples are spread between the midpoints to their neighbours:
  // the p50 of {10, 10, 10, 20} is the second of three values evenly placed
  // in [10, 15].
  std::vector<uint32_t> ties = {20, 10, 10, 10};
  if (std::fabs(Summarize(&ties).p50_us - 0.0125) > 1e-12) {
    return Fail("Summarize spreads ties");
  }

  // Records: keys sort as ids, values name their write and fail when
  // altered anywhere.
  if (!(KeyOf(9) < KeyOf(10)) || KeyOf(123).size() != kKeyBytes) {
    return Fail("KeyOf order");
  }
  uint64_t id = 0, version = 0;
  if (!ParseKey(KeyOf(987654), &id) || id != 987654) return Fail("ParseKey");
  std::string v;
  ValueOf(42, 7, &v);
  if (!ParseValue(v, &id, &version) || id != 42 || version != 7) {
    return Fail("ParseValue");
  }
  if (!Checker::ValueIs(42, 7, v) || Checker::ValueIs(42, 8, v) ||
      Checker::ValueIs(43, 7, v)) {
    return Fail("ValueIs");
  }
  Checker checker(3);
  int caught = 0;
  for (int i = 0; i < 9; i++) {
    std::string copy = v;
    checker.MaybeCorrupt(&copy);
    const bool ok = Checker::ValueIs(42, 7, copy);
    checker.Record(ok, "selftest injected value");
    caught += ok ? 0 : 1;
  }
  if (caught != 3 || checker.failed() != 3 || checker.attempted() != 9) {
    return Fail("injected values must be caught");
  }
  std::printf("selftest ok\n");
  return 0;
}

int Main(int argc, char** argv) {
  RunOptions opt;
  std::string out_path, value;
  uint64_t inject_every = 0;
  for (int i = 1; i < argc; i++) {
    const char* a = argv[i];
    if (std::strcmp(a, "--selftest") == 0) return SelfTest();
    if (FlagValue(a, "--workload", &value)) {
      opt.workload = value;
    } else if (FlagValue(a, "--seed", &value)) {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (FlagValue(a, "--seconds", &value)) {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (FlagValue(a, "--trace", &value)) {
      opt.trace = value == "1";
    } else if (FlagValue(a, "--out", &value)) {
      out_path = value;
    } else if (FlagValue(a, "--spans", &value)) {
      opt.spans_path = value;
    } else if (FlagValue(a, "--inject-wrong", &value)) {
      inject_every = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a);
      return 2;
    }
  }
  if (!(opt.seconds > 0) || !std::isfinite(opt.seconds)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  Report report;
  report.Info("workload", opt.workload);
  report.Info("seed", std::to_string(opt.seed));
  report.Info("held_out_seed", std::to_string(kHeldOutSeed));
  report.Info("trace", opt.trace ? "1" : "0");
  StampHost(&report);
  Checker checker(inject_every);
  if (!RunWorkload(opt, &checker, &report)) {
    std::fprintf(stderr, "workload %s did not run (known: ",
                 opt.workload.c_str());
    for (const std::string& w : WorkloadNames()) {
      std::fprintf(stderr, "%s ", w.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }
  const uint64_t attempted = checker.attempted();
  const uint64_t failed = checker.failed();
  const bool correct = failed == 0 && attempted > 0;
  report.Print();
  std::printf("%-40s %.6g ratio (failed %llu of %llu)\n", "error_ratio",
              attempted > 0 ? static_cast<double>(failed) / attempted : 1.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (!out_path.empty() &&
      !report.WriteJson(out_path, correct, attempted, failed)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
