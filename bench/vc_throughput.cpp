//===- bench/vc_throughput.cpp - Symbolic VC engine throughput ---------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// Measures the symbolic VC pipeline (WP generation + obligation
// discharge + counterexample replay) over the same targets tools/vc
// verifies in CI — the three contracted firmware functions and the
// annotated example corpus — once per discharge mode:
//
//   cold          one cold solver call per obligation (the PR-9 path)
//   tiers         + interval/rewrite pre-solvers
//   slice         + cone-of-influence slicing
//   staged        + shared incremental encoding and the solved-obligation
//                 cache (1 thread)
//   threads4      the staged pipeline on a 4-thread fleet
//   staged_probes the staged pipeline plus the default 16 concrete probes
//                 of each Valid verdict: tools/vc's default, end to end
//
// The reported rate is discharged obligations per second. Concrete
// probes are disabled for every row but staged_probes: their cost does
// not depend on the discharge mode, so the discharge rows trend the
// engine, and staged_probes trends the probe layer on top of it. That
// row runs with metrics paused, so METRICS_vc.json's counters and the
// ratios derived from them are untouched by it. Every verdict must stay
// Valid with zero unconfirmed models and zero probe violations, and
// every mode must agree with cold — a throughput number bought by a
// wrong verdict is a correctness bug, so disagreement fails the bench.
//
// Each rate row is the median (and IQR) of repeated MinSeconds windows
// (bench/BenchUtil.h); each row also has a deterministic SAT-conflict
// count. Gate (non-quick runs): the staged pipeline at 1 thread must
// discharge the firmware-contract corpus at >= 3x the cold rate, as the
// median ratio of interleaved staged/cold pairs.
//
// Emits BENCH_vc.json (schema b2stack-bench-v1; workload program/func,
// variant mode) and METRICS_vc.json (schema b2stack-metrics-v1, the vc.*
// counter subtree, which also carries the tier kills and cache hits).
//
// Usage: vc_throughput [--quick]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "app/Firmware.h"
#include "support/Metrics.h"
#include "vc/Corpus.h"
#include "vc/Vc.h"

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

using namespace b2;

namespace {

struct Mode {
  const char *Name;
  vc::DischargeOptions D;
  bool Probes = false; ///< Run the default concrete probes (metrics paused).
};

vc::DischargeOptions modeOpts(bool Tiers, bool Slice, bool Incr,
                              unsigned Threads) {
  vc::DischargeOptions D;
  D.Tiers = Tiers;
  D.Slice = Slice;
  D.Cache = Incr;
  D.Incremental = Incr;
  D.Threads = Threads;
  return D;
}

} // namespace

int main(int argc, char **argv) {
  const bool Quick = bench::quickFlag(argc, argv);
  const double MinSeconds = Quick ? 0.0 : 0.1;
  const unsigned Reps = Quick ? 1 : 3;
  bench::Report Rep("vc_throughput", Quick);

  std::printf("== vc_throughput: WP + staged discharge pipeline ==\n\n");

  app::FirmwareOptions Fw;
  Fw.Timeouts = true;
  bedrock2::Program Firmware = app::buildFirmware(Fw);
  std::vector<vc::VcExample> Examples = vc::vcExamples();

  struct Leg {
    std::string Program;
    std::string Func;
    const bedrock2::Program *Prog;
  };
  std::vector<Leg> Legs;
  for (const char *Fn : {"spi_write", "spi_read", "lightbulb_loop"})
    Legs.push_back({"firmware", Fn, &Firmware});
  for (const vc::VcExample &E : Examples)
    Legs.push_back({E.Name, E.Func, &E.Prog});

  const Mode Modes[] = {
      {"cold", modeOpts(false, false, false, 1)},
      {"tiers", modeOpts(true, false, false, 1)},
      {"slice", modeOpts(true, true, false, 1)},
      {"staged", modeOpts(true, true, true, 1)},
      {"threads4", modeOpts(true, true, true, 4)},
      {"staged_probes", modeOpts(true, true, true, 1), /*Probes=*/true},
  };
  auto OptionsOf = [](const Mode &M) {
    vc::VcOptions Opts;
    Opts.Discharge = M.D;
    if (!M.Probes)
      Opts.Probes = 0; // Probe cost is mode-independent; see header.
    return Opts;
  };

  bool AllOk = true;
  for (const Leg &L : Legs) {
    std::optional<vc::FuncReport> Cold;
    for (const Mode &M : Modes) {
      const vc::VcOptions Opts = OptionsOf(M);
      std::optional<metrics::PauseScope> Pause;
      if (M.Probes)
        Pause.emplace();
      // The first call's report is the row's verdict; every later call
      // must reproduce it.
      std::optional<vc::FuncReport> First;
      std::vector<double> Rates = bench::repeat(Reps, [&] {
        return bench::timeWindow(MinSeconds, [&]() -> uint64_t {
                 vc::FuncReport R =
                     vc::verifyFunction(*L.Prog, L.Func, L.Program, Opts);
                 uint64_t N = R.Obligations.size();
                 if (!First) {
                   First = std::move(R);
                 } else if (R.V != First->V) {
                   std::fprintf(stderr,
                                "FAIL: %s/%s verdict unstable across reruns\n",
                                L.Func.c_str(), M.Name);
                   AllOk = false;
                 }
                 return N;
               })
            .rate();
      });
      const vc::FuncReport &R = *First;
      if (R.V != vc::Verdict::Valid || R.Unconfirmed != 0 ||
          R.ProbeViolations != 0 || !R.Error.empty()) {
        std::fprintf(stderr, "FAIL: %s/%s/%s expected Valid, got %s %s%s\n",
                     L.Program.c_str(), L.Func.c_str(), M.Name,
                     vc::verdictName(R.V), R.Error.c_str(),
                     R.CexDetail.c_str());
        AllOk = false;
      }
      // Every mode must reproduce the cold path's verdict and
      // counterexample args bit for bit (here: all Valid, no cex).
      if (Cold && (R.V != Cold->V || R.CexArgs != Cold->CexArgs ||
                   R.Obligations.size() != Cold->Obligations.size())) {
        std::fprintf(stderr,
                     "FAIL: %s/%s mode '%s' disagrees with the cold path\n",
                     L.Program.c_str(), L.Func.c_str(), M.Name);
        AllOk = false;
      }
      if (!Cold)
        Cold = R;
      const std::string Workload = L.Program + "/" + L.Func;
      Rep.row("vc", Workload, M.Name, "vcs_per_sec", "1/s", true,
              bench::summarize(Rates));
      Rep.row("vc", Workload, M.Name, "sat_conflicts", "count", false,
              bench::summarize({double(R.Solver.Conflicts)}),
              /*Deterministic=*/true);
    }
  }

  // The acceptance gate: staged (1 thread) vs cold over the
  // firmware-contract corpus, each side one window over the three
  // contracted functions, in interleaved pairs.
  auto FirmwareRate = [&](const Mode &M) {
    return [&, Opts = OptionsOf(M)] {
      return bench::timeWindow(MinSeconds, [&]() -> uint64_t {
               uint64_t N = 0;
               for (const Leg &L : Legs)
                 if (L.Program == "firmware")
                   N += vc::verifyFunction(*L.Prog, L.Func, L.Program, Opts)
                            .Obligations.size();
               return N;
             })
          .rate();
    };
  };
  bench::Pairs P =
      bench::pairs(Quick ? 1 : 5, FirmwareRate(Modes[3]),
                   FirmwareRate(Modes[0])); // staged vs cold
  Rep.gate("staged_vs_cold_firmware", bench::summarize(P.Ratio).Median, ">=",
           3.0);
  Rep.finish("BENCH_vc.json");

  // One clean instrumented pass per target for the metrics report (the
  // tools/vc default pipeline), so rates derived from it (conflicts per
  // VC, cheap-tier kill ratio, cache hit ratio) trend the engine rather
  // than the bench's per-target repeat counts.
  metrics::resetAll();
  for (const Leg &L : Legs) {
    vc::VcOptions Opts;
    (void)vc::verifyFunction(*L.Prog, L.Func, L.Program, Opts);
  }
  if (metrics::writeMetricsFile("METRICS_vc.json", "vc"))
    std::printf("wrote METRICS_vc.json\n");

  return AllOk && Rep.gatesOk() ? 0 : 1;
}
