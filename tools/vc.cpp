//===- tools/vc.cpp - Symbolic VC engine CLI --------------------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Runs the symbolic VC engine (src/vc) over the contracted firmware
// functions and the annotated example corpus, and emits VC.json (schema
// b2stack-vc-v2) plus METRICS_vc.json. Exit status:
//
//   0  every function Valid or honestly Unknown (budget/coverage residue)
//   1  a confirmed counterexample, an unconfirmed symbolic model outside
//      a havocked loop head, a Differential-mode mismatch, or a
//      VC-generation error
//   2  bad usage / unknown --func or --program name
//
//   vc [--program firmware|examples|all] [--func NAME] [--budget N]
//      [--unroll N] [--probes N] [--threads N] [--no-cache] [--no-slice]
//      [--sat-only] [--differential] [--json PATH] [--metrics PATH]
//      [--list-funcs]
//
// One solved-obligation cache is shared across all targets of the run, so
// functions that discharge the same callee contracts hit each other's
// proofs. Verdicts, counterexample args, and every deterministic metric
// are bit-identical at any --threads value.
//
//===----------------------------------------------------------------------===//

#include "app/Firmware.h"
#include "support/Args.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "vc/Corpus.h"
#include "vc/Vc.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace b2;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--program firmware|examples|all] [--func NAME]\n"
      "          [--budget N] [--unroll N] [--probes N] [--threads N]\n"
      "          [--no-cache] [--no-slice] [--sat-only] [--differential]\n"
      "          [--json PATH] [--metrics PATH] [--list-funcs]\n"
      "\n"
      "  --program WHICH  contract set to verify (default: all)\n"
      "  --func NAME      verify one function only (see --list-funcs)\n"
      "  --budget N       solver conflict budget per obligation\n"
      "                   (default: 200000)\n"
      "  --unroll N       bound for annotation-free loops (default: 8)\n"
      "  --probes N       concrete runs stress-testing each Valid verdict\n"
      "                   (default: 16)\n"
      "  --threads N      worker threads for the obligation fleet\n"
      "                   (default: 1; verdicts and metrics are\n"
      "                   bit-identical at any value)\n"
      "  --no-cache       disable the solved-obligation cache\n"
      "  --no-slice       disable cone-of-influence slicing\n"
      "  --sat-only       disable the whole staged pipeline (cold solver\n"
      "                   per obligation, the pre-PR-10 behavior)\n"
      "  --differential   audit every fast-tier proof and slice partition\n"
      "                   against the cold path; mismatches fail the run\n"
      "  --json PATH      where to write the report (default: VC.json)\n"
      "  --metrics PATH   where to write the metrics report\n"
      "                   (default: METRICS_vc.json)\n"
      "  --list-funcs     print the verifiable function names and exit\n",
      Argv0);
  return 2;
}

/// One verification target: a program (shared), its label, and the entry.
struct Target {
  std::string Program; ///< "firmware" or the corpus example name.
  std::string Func;
  const bedrock2::Program *Prog;
};

} // namespace

int main(int Argc, char **Argv) {
  std::string Which = "all";
  std::string OnlyFunc;
  std::string JsonPath = "VC.json";
  std::string MetricsPath = "METRICS_vc.json";
  vc::VcOptions Opts;
  bool ListFuncs = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    uint64_t N = 0;
    if (Arg == "--program" && I + 1 < Argc) {
      Which = Argv[++I];
      if (Which != "firmware" && Which != "examples" && Which != "all") {
        std::fprintf(stderr,
                     "vc: unknown program set '%s'; valid names are: "
                     "firmware, examples, all\n",
                     Which.c_str());
        return 2;
      }
    } else if (Arg == "--func" && I + 1 < Argc) {
      OnlyFunc = Argv[++I];
    } else if (Arg == "--budget" && I + 1 < Argc) {
      if (!support::parseNumericFlag("vc", "--budget", Argv[++I], 1,
                                     UINT64_MAX, N))
        return 2;
      Opts.Solve.ConflictBudget = N;
    } else if (Arg == "--unroll" && I + 1 < Argc) {
      if (!support::parseNumericFlag("vc", "--unroll", Argv[++I], 1, 1024, N))
        return 2;
      Opts.Wp.UnrollBound = unsigned(N);
    } else if (Arg == "--probes" && I + 1 < Argc) {
      if (!support::parseNumericFlag("vc", "--probes", Argv[++I], 0,
                                     1'000'000, N))
        return 2;
      Opts.Probes = unsigned(N);
    } else if (Arg == "--threads" && I + 1 < Argc) {
      if (!support::parseNumericFlag("vc", "--threads", Argv[++I], 1, 256, N))
        return 2;
      Opts.Discharge.Threads = unsigned(N);
    } else if (Arg == "--no-cache") {
      Opts.Discharge.Cache = false;
    } else if (Arg == "--no-slice") {
      Opts.Discharge.Slice = false;
    } else if (Arg == "--sat-only") {
      Opts.Discharge.Tiers = false;
      Opts.Discharge.Slice = false;
      Opts.Discharge.Cache = false;
      Opts.Discharge.Incremental = false;
    } else if (Arg == "--differential") {
      Opts.Discharge.Differential = true;
    } else if (Arg == "--json" && I + 1 < Argc) {
      JsonPath = Argv[++I];
    } else if (Arg == "--metrics" && I + 1 < Argc) {
      MetricsPath = Argv[++I];
    } else if (Arg == "--list-funcs") {
      ListFuncs = true;
    } else {
      return usage(Argv[0]);
    }
  }

  // Assemble the target list. The firmware set is its *contracted*
  // functions: the helpers (spi_xchg, lan9250_*) carry no contracts of
  // their own and are verified inline at their call sites.
  app::FirmwareOptions Fw;
  Fw.Timeouts = true;
  bedrock2::Program Firmware = app::buildFirmware(Fw);
  std::vector<vc::VcExample> Examples = vc::vcExamples();

  std::vector<Target> Targets;
  if (Which == "firmware" || Which == "all")
    for (const char *Fn : {"spi_write", "spi_read", "lightbulb_loop"})
      Targets.push_back({"firmware", Fn, &Firmware});
  if (Which == "examples" || Which == "all")
    for (const vc::VcExample &E : Examples)
      Targets.push_back({E.Name, E.Func, &E.Prog});

  if (ListFuncs) {
    std::printf("%-16s %s\n", "PROGRAM", "FUNC");
    for (const Target &T : Targets)
      std::printf("%-16s %s\n", T.Program.c_str(), T.Func.c_str());
    return 0;
  }

  if (!OnlyFunc.empty()) {
    std::vector<Target> Filtered;
    std::string Valid;
    for (const Target &T : Targets) {
      if (T.Func == OnlyFunc)
        Filtered.push_back(T);
      if (!Valid.empty())
        Valid += ", ";
      Valid += T.Func;
    }
    if (Filtered.empty()) {
      // Allow any function of the firmware by name (e.g. spi_xchg), so
      // uncontracted helpers can be probed standalone.
      if ((Which == "firmware" || Which == "all") &&
          Firmware.find(OnlyFunc)) {
        Filtered.push_back({"firmware", OnlyFunc, &Firmware});
      } else {
        std::string All = Valid;
        for (const auto &[Name, F] : Firmware.Functions) {
          (void)F;
          All += ", ";
          All += Name;
        }
        std::fprintf(stderr, "vc: unknown function '%s'; valid names are: %s\n",
                     OnlyFunc.c_str(), All.c_str());
        return 2;
      }
    }
    Targets = std::move(Filtered);
  }

  // The metrics report describes the verification run alone.
  metrics::resetAll();

  // One solved-obligation cache for the whole run: identical queries
  // discharged by an earlier target (shared callee contracts, repeated
  // loop footprints) are free for every later one.
  vc::DischargeCache SharedCache;
  Opts.SharedCache = &SharedCache;

  std::vector<vc::FuncReport> Reports;
  bool Bad = false;
  std::printf("%-16s %-16s %-15s %7s %7s %9s %7s %7s\n", "PROGRAM", "FUNC",
              "VERDICT", "OBS", "PROVED", "CONFLICTS", "TIERED", "CACHED");
  for (const Target &T : Targets) {
    vc::FuncReport R = vc::verifyFunction(*T.Prog, T.Func, T.Program, Opts);
    uint64_t Tiered =
        R.Pipeline.TierKills[size_t(vc::DischargeTier::Interval)] +
        R.Pipeline.TierKills[size_t(vc::DischargeTier::Rewrite)];
    std::printf("%-16s %-16s %-15s %7zu %7u %9llu %7llu %7llu\n",
                T.Program.c_str(), T.Func.c_str(), vc::verdictName(R.V),
                R.Obligations.size(), R.Proved,
                (unsigned long long)R.Solver.Conflicts,
                (unsigned long long)Tiered,
                (unsigned long long)R.Pipeline.CacheHits);
    if (!R.Error.empty()) {
      std::fprintf(stderr, "vc: %s: %s\n", T.Func.c_str(), R.Error.c_str());
      Bad = true;
    }
    if (R.V == vc::Verdict::Counterexample) {
      std::printf("  counterexample at %s (%s), args:", R.CexWhere.c_str(),
                  bedrock2::faultName(R.CexFault));
      for (Word A : R.CexArgs)
        std::printf(" 0x%08X", unsigned(A));
      std::printf("\n  replay: %s\n", R.CexDetail.c_str());
      Bad = true;
    }
    if (R.Unconfirmed != 0) {
      std::fprintf(stderr,
                   "vc: %s: %u unconfirmed symbolic counterexample(s) — "
                   "solver or encoding bug\n",
                   T.Func.c_str(), R.Unconfirmed);
      Bad = true;
    }
    if (R.ProbeViolations != 0) {
      std::fprintf(stderr,
                   "vc: %s: Valid verdict contradicted by %u concrete "
                   "probe(s): %s\n",
                   T.Func.c_str(), R.ProbeViolations, R.CexDetail.c_str());
      Bad = true;
    }
    if (R.Pipeline.DiffMismatches != 0) {
      std::fprintf(stderr,
                   "vc: %s: %llu differential mismatch(es) — a staged "
                   "fast-tier claim disagrees with the cold path: %s\n",
                   T.Func.c_str(),
                   (unsigned long long)R.Pipeline.DiffMismatches,
                   R.DiffDetail.c_str());
      Bad = true;
    }
    Reports.push_back(std::move(R));
  }

  if (!support::writeFile(JsonPath, vc::vcJson(Reports))) {
    std::fprintf(stderr, "vc: cannot write %s\n", JsonPath.c_str());
    return 2;
  }
  std::printf("vc: wrote %s\n", JsonPath.c_str());
  if (!metrics::writeMetricsFile(MetricsPath, "vc"))
    std::fprintf(stderr, "vc: cannot write %s\n", MetricsPath.c_str());
  else
    std::printf("vc: wrote %s\n", MetricsPath.c_str());

  if (Bad) {
    std::fprintf(stderr, "vc: FAILED\n");
    return 1;
  }
  std::printf("vc: PASS\n");
  return 0;
}
