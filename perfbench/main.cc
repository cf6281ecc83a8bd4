// One repetition of the repository benchmark, or its coverage check.
//
//   mtm_perfbench run --workload gups-replay --seed 42 [--traced]
//     Builds the workload and the mtm Solution (timed as set-up), runs it
//     once — through RunSimulation, or through the traced replica with
//     --traced — checks the outputs and prints one JSON line.
//   mtm_perfbench check
//     On every workload at reduced size: the traced replica reproduces
//     RunSimulation's fingerprint, every layer timer runs, the timers cover
//     over 90% of its wall time, and the held-out seed gives a different
//     fingerprint.
//
// perfbench/run.py runs one process per repetition and aggregates them.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench.h"
#include "src/common/types.h"
#include "src/core/driver.h"
#include "src/core/solution.h"
#include "src/workloads/workload_factory.h"
#include "traced_run.h"

namespace mtm::perfbench {
namespace {

// The default seed, and the held-out seed a later claim must also hold on.
constexpr u64 kDefaultSeed = 42;
constexpr u64 kHeldOutSeed = 7;

using HostClock = std::chrono::steady_clock;

double SecondsSince(HostClock::time_point start) {
  return std::chrono::duration<double>(HostClock::now() - start).count();
}

struct Repetition {
  double setup_s = 0.0;
  double run_s = 0.0;
  RunResult result;
  double fast_tier_share = 0.0;
  std::string error;  // empty when every output check passed
  TraceProfile trace;
  u64 page_faults = 0;
  u64 hint_faults = 0;
  u64 write_track_faults = 0;
};

Repetition RunOnce(const WorkloadSpec& spec, u64 seed, bool traced) {
  Repetition rep;
  const ExperimentConfig config = MakeConfig(spec, seed);
  const HostClock::time_point setup_start = HostClock::now();
  std::unique_ptr<Workload> workload =
      MakeWorkload(spec.sim_workload, config.sim_scale, config.num_threads, config.seed);
  auto solution = std::make_unique<Solution>(SolutionKind::kMtm, config, *workload);
  rep.setup_s = SecondsSince(setup_start);

  const HostClock::time_point run_start = HostClock::now();
  rep.result = traced ? RunTraced(*workload, *solution, config, rep.trace)
                      : RunSimulation(*workload, *solution, config);
  rep.run_s = SecondsSince(run_start);

  const AccessEngine& engine = solution->engine();
  rep.page_faults = engine.page_faults();
  rep.hint_faults = engine.hint_faults();
  rep.write_track_faults = engine.write_track_faults();
  rep.fast_tier_share = FastTierShare(rep.result, *solution);

  u64 served = 0;
  for (u64 accesses : rep.result.component_app_accesses) {
    served += accesses;
  }
  const Status invariants = solution->migration()->VerifyInvariants();
  if (!invariants.ok()) {
    rep.error = "invariant violation: " + invariants.ToString();
  } else if (rep.result.total_accesses == 0) {
    rep.error = "no accesses simulated";
  } else if (spec.target_accesses != 0 && rep.result.total_accesses < spec.target_accesses) {
    rep.error = "fixed work not completed";
  } else if (served != engine.total_accesses()) {
    rep.error = "per-component app accesses do not sum to the accesses applied";
  } else if (rep.result.migration_stats.regions_migrated == 0) {
    rep.error = "no region migrated";
  }
  return rep;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void PrintRepetition(const WorkloadSpec& spec, u64 seed, bool traced, const Repetition& rep) {
  const RunResult& r = rep.result;
  const MigrationStats& ms = r.migration_stats;
  std::printf("{\"workload\": %s, \"seed\": %" PRIu64 ", \"traced\": %s, \"error\": %s, "
              "\"fingerprint\": \"%016" PRIx64 "\", \"setup_s\": %.9g, \"run_s\": %.9g, "
              "\"accesses\": %" PRIu64 ", \"sim_s\": %.12g, \"fast_tier_share\": %.12g, "
              "\"peak_rss_kib\": %" PRIu64,
              JsonString(spec.name).c_str(), seed, traced ? "true" : "false",
              JsonString(rep.error).c_str(), Fingerprint(r), rep.setup_s, rep.run_s,
              r.total_accesses, static_cast<double>(r.total_ns().value()) / 1e9,
              rep.fast_tier_share, PeakRssKib());
  if (traced) {
    const TraceProfile& t = rep.trace;
    std::printf(", \"wall_ns\": %" PRIu64 ", \"batches\": %" PRIu64 ", \"intervals\": %" PRIu64
                ", \"layer_ns\": {",
                t.wall_ns, t.batches, t.intervals);
    for (int layer = 0; layer < kNumLayers; ++layer) {
      std::printf("%s\"%s\": %" PRIu64, layer == 0 ? "" : ", ",
                  LayerName(static_cast<Layer>(layer)), t.ns[layer]);
    }
    std::printf("}, \"counts\": {\"sim.page_faults\": %" PRIu64
                ", \"sim.hint_faults\": %" PRIu64 ", \"sim.write_track_faults\": %" PRIu64
                ", \"profiling.pte_scans\": %" PRIu64 ", \"profiling.regions_avg\": %.9g"
                ", \"profiling.regions_split\": %" PRIu64
                ", \"profiling.regions_merged\": %" PRIu64 ", \"migration.orders\": %" PRIu64
                ", \"migration.regions_migrated\": %" PRIu64
                ", \"migration.bytes_migrated_mib\": %.9g"
                ", \"migration.async_copies\": %" PRIu64
                ", \"migration.sync_fallbacks\": %" PRIu64
                ", \"migration.reclaim_demotions\": %" PRIu64 "}",
                rep.page_faults, rep.hint_faults, rep.write_track_faults, t.pte_scans,
                r.avg_num_regions, t.regions_split, t.regions_merged, t.orders,
                ms.regions_migrated,
                static_cast<double>(ms.bytes_migrated.value()) / (1 << 20), ms.async_copies,
                ms.sync_fallbacks, ms.reclaim_demotions);
  }
  std::printf("}\n");
}

// One workload of the coverage check at reduced size; returns the failure,
// or an empty string.
std::string CheckWorkload(const WorkloadSpec& spec) {
  const Repetition untraced = RunOnce(spec, kDefaultSeed, /*traced=*/false);
  const Repetition traced = RunOnce(spec, kDefaultSeed, /*traced=*/true);
  const Repetition held_out = RunOnce(spec, kHeldOutSeed, /*traced=*/false);
  std::printf("%-14s fingerprint %016" PRIx64 "  unattributed %.4f\n", spec.name.c_str(),
              Fingerprint(untraced.result), traced.trace.UnattributedShare());
  if (!untraced.error.empty() || !traced.error.empty() || !held_out.error.empty()) {
    return "output check failed: " + untraced.error + traced.error + held_out.error;
  }
  if (Fingerprint(traced.result) != Fingerprint(untraced.result)) {
    return "traced replica diverged from RunSimulation";
  }
  for (int layer = 0; layer < kNumLayers; ++layer) {
    // Some calls, such as AccessTracker::ResetEpoch under mtm, leave the
    // simulated outputs unchanged, so only their timer shows they ran.
    if (traced.trace.ns[layer] == 0) {
      return std::string("layer never timed: ") + LayerName(static_cast<Layer>(layer));
    }
  }
  if (traced.trace.UnattributedShare() >= 0.1) {
    return "timers miss over 10% of the traced wall time";
  }
  if (Fingerprint(held_out.result) == Fingerprint(untraced.result)) {
    return "the held-out seed did not change the simulated outputs";
  }
  return "";
}

int Check() {
  int failures = 0;
  for (const WorkloadSpec& spec : Workloads()) {
    const std::string failure = CheckWorkload(Reduced(spec));
    if (!failure.empty()) {
      std::printf("%s: %s\n", spec.name.c_str(), failure.c_str());
      ++failures;
    }
  }
  std::printf("%s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: mtm_perfbench run --workload NAME --seed N [--traced]\n"
               "       mtm_perfbench check\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "check") == 0) {
    return Check();
  }
  if (argc < 2 || std::strcmp(argv[1], "run") != 0) {
    return Usage();
  }
  const WorkloadSpec* found = nullptr;
  u64 seed = kDefaultSeed;
  bool traced = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      found = FindWorkload(argv[++i]);
      if (found == nullptr) {
        std::fprintf(stderr, "unknown workload: %s\n", argv[i]);
        return 2;
      }
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::fprintf(stderr, "bad seed: %s\n", argv[i]);
        return 2;
      }
    } else if (arg == "--traced") {
      traced = true;
    } else {
      return Usage();
    }
  }
  if (found == nullptr) {
    return Usage();
  }
  PrintRepetition(*found, seed, traced, RunOnce(*found, seed, traced));
  return 0;
}

}  // namespace
}  // namespace mtm::perfbench

int main(int argc, char** argv) { return mtm::perfbench::Main(argc, argv); }
