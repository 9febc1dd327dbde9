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
// Gate (non-quick runs): the staged pipeline at 1 thread must discharge
// the firmware-contract corpus at >= 3x the cold rate. The measured
// speedup and the gate outcome are recorded in BENCH_vc.json.
//
// Emits BENCH_vc.json (rows keyed by func+program+mode, trended by
// tools/bench_compare.py) and METRICS_vc.json (schema
// b2stack-metrics-v1, the vc.* counter subtree).
//
// Usage: vc_throughput [--quick]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "app/Firmware.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "vc/Corpus.h"
#include "vc/Vc.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

using namespace b2;

namespace {

double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

struct Mode {
  const char *Name;
  vc::DischargeOptions D;
  bool Probes = false; ///< Run the default concrete probes (metrics paused).
};

struct Row {
  std::string Program;
  std::string Func;
  std::string Mode;
  vc::FuncReport Report;
  unsigned Iters = 0;
  double Seconds = 0;

  double rate() const {
    return Seconds > 0
               ? double(Report.Obligations.size()) * Iters / Seconds
               : 0;
  }
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
  bool Quick = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;

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

  // Full runs time every row over at least MinCalls calls, so a row whose
  // single call outlasts MinSeconds still carries repetitions.
  const double MinSeconds = Quick ? 0.0 : 0.2;
  const unsigned MinCalls = Quick ? 1 : 3;
  bool AllOk = true;
  std::vector<Row> Rows;
  // ColdRep points into Rows; never let a push_back reallocate under it.
  Rows.reserve(Legs.size() * (sizeof(Modes) / sizeof(Modes[0])));
  for (const Leg &L : Legs) {
    const vc::FuncReport *ColdRep = nullptr;
    for (const Mode &M : Modes) {
      vc::VcOptions Opts;
      Opts.Discharge = M.D;
      if (!M.Probes)
        Opts.Probes = 0; // Probe cost is mode-independent; see header.
      std::optional<metrics::PauseScope> Pause;
      if (M.Probes)
        Pause.emplace();
      Row R;
      R.Program = L.Program;
      R.Func = L.Func;
      R.Mode = M.Name;
      double T0 = now();
      R.Report = vc::verifyFunction(*L.Prog, L.Func, L.Program, Opts);
      R.Iters = 1;
      R.Seconds = now() - T0;
      while (R.Seconds < MinSeconds || R.Iters < MinCalls) {
        double T1 = now();
        vc::FuncReport Re =
            vc::verifyFunction(*L.Prog, L.Func, L.Program, Opts);
        R.Seconds += now() - T1;
        ++R.Iters;
        if (Re.V != R.Report.V) {
          std::fprintf(stderr, "FAIL: %s/%s verdict unstable across reruns\n",
                       L.Func.c_str(), M.Name);
          AllOk = false;
          break;
        }
      }
      if (R.Report.V != vc::Verdict::Valid || R.Report.Unconfirmed != 0 ||
          R.Report.ProbeViolations != 0 || !R.Report.Error.empty()) {
        std::fprintf(stderr, "FAIL: %s/%s/%s expected Valid, got %s %s%s\n",
                     L.Program.c_str(), L.Func.c_str(), M.Name,
                     vc::verdictName(R.Report.V), R.Report.Error.c_str(),
                     R.Report.CexDetail.c_str());
        AllOk = false;
      }
      // Every mode must reproduce the cold path's verdict and
      // counterexample args bit for bit (here: all Valid, no cex).
      if (ColdRep &&
          (R.Report.V != ColdRep->V || R.Report.CexArgs != ColdRep->CexArgs ||
           R.Report.Obligations.size() != ColdRep->Obligations.size())) {
        std::fprintf(stderr,
                     "FAIL: %s/%s mode '%s' disagrees with the cold path\n",
                     L.Program.c_str(), L.Func.c_str(), M.Name);
        AllOk = false;
      }
      Rows.push_back(std::move(R));
      if (Rows.back().Mode == "cold")
        ColdRep = &Rows.back().Report;
    }
  }

  // The acceptance gate: staged (1 thread) vs cold, aggregated over the
  // firmware-contract corpus. Quick runs measure single iterations and
  // are too noisy to gate on; they still record the observed ratio.
  double ColdObs = 0, ColdSec = 0, StagedObs = 0, StagedSec = 0;
  for (const Row &R : Rows) {
    if (R.Program != "firmware")
      continue;
    if (R.Mode == "cold") {
      ColdObs += double(R.Report.Obligations.size()) * R.Iters;
      ColdSec += R.Seconds;
    } else if (R.Mode == "staged") {
      StagedObs += double(R.Report.Obligations.size()) * R.Iters;
      StagedSec += R.Seconds;
    }
  }
  double ColdRate = ColdSec > 0 ? ColdObs / ColdSec : 0;
  double StagedRate = StagedSec > 0 ? StagedObs / StagedSec : 0;
  double Speedup = ColdRate > 0 ? StagedRate / ColdRate : 0;
  const double GateMin = 3.0;
  bool GatePass = Speedup >= GateMin;
  if (!Quick && !GatePass) {
    std::fprintf(stderr,
                 "FAIL: staged firmware discharge is %.2fx cold "
                 "(gate: >= %.1fx)\n",
                 Speedup, GateMin);
    AllOk = false;
  }

  bench::Table Tab({"program", "func", "mode", "verdict", "obs", "tiered",
                    "cached", "conflicts", "iters", "obs/sec"});
  for (const Row &R : Rows) {
    uint64_t Tiered =
        R.Report.Pipeline.TierKills[size_t(vc::DischargeTier::Interval)] +
        R.Report.Pipeline.TierKills[size_t(vc::DischargeTier::Rewrite)];
    Tab.row({R.Program, R.Func, R.Mode, vc::verdictName(R.Report.V),
             std::to_string(R.Report.Obligations.size()),
             std::to_string(Tiered),
             std::to_string(R.Report.Pipeline.CacheHits),
             std::to_string(R.Report.Solver.Conflicts),
             std::to_string(R.Iters), bench::fixed(R.rate(), 1)});
  }
  Tab.print();
  std::printf("\nfirmware staged vs cold: %.2fx (gate >= %.1fx, %s)\n",
              Speedup, GateMin,
              Quick ? "not enforced under --quick"
                    : (GatePass ? "pass" : "FAIL"));

  support::JsonWriter J;
  J.beginObject();
  J.key("bench").value("vc_throughput");
  J.key("quick").value(Quick);
  J.key("funcs").beginArray();
  for (const Row &R : Rows) {
    J.beginObject();
    J.key("func").value(R.Func);
    J.key("program").value(R.Program);
    J.key("mode").value(R.Mode);
    J.key("verdict").value(vc::verdictName(R.Report.V));
    J.key("obligations").value(uint64_t(R.Report.Obligations.size()));
    J.key("proved").value(uint64_t(R.Report.Proved));
    J.key("conflicts").value(R.Report.Solver.Conflicts);
    J.key("dag_nodes").value(R.Report.DagNodes);
    J.key("tiers").beginObject();
    for (size_t T = 0; T < size_t(vc::DischargeTier::NumTiers); ++T)
      J.key(vc::tierName(vc::DischargeTier(T)))
          .value(R.Report.Pipeline.TierKills[T]);
    J.endObject();
    J.key("cache_hits").value(R.Report.Pipeline.CacheHits);
    J.key("cache_misses").value(R.Report.Pipeline.CacheMisses);
    J.key("slice_dropped_assumes")
        .value(R.Report.Pipeline.SliceDroppedAssumes);
    J.key("iters").value(uint64_t(R.Iters));
    J.key("seconds").value(R.Seconds);
    J.key("vcs_per_sec").value(R.rate());
    J.endObject();
  }
  J.endArray();
  J.key("firmware_staged_speedup").value(Speedup);
  J.key("speedup_gate_min").value(GateMin);
  J.key("speedup_gate_enforced").value(!Quick);
  J.key("speedup_gate_pass").value(GatePass);
  J.key("all_ok").value(AllOk);
  J.endObject();
  const char *OutPath = "BENCH_vc.json";
  if (!support::writeFile(OutPath, J.str()))
    std::fprintf(stderr, "failed to write %s\n", OutPath);
  else
    std::printf("wrote %s\n", OutPath);

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

  return AllOk ? 0 : 1;
}
