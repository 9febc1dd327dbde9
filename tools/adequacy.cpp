//===- tools/adequacy.cpp - Adequacy-campaign CLI ---------------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Runs the fault-injection adequacy campaign (verify/Adequacy.h) and emits
// ADEQUACY.json. Exit status is nonzero iff an adequacy property is
// violated: a checker failing with no fault armed (false positive), or a
// fault surviving its owning checker.
//
//   adequacy [--quick] [--threads N] [--out PATH] [--only-fault NAME]
//            [--list]
//
//===----------------------------------------------------------------------===//

#include "support/Args.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "verify/Adequacy.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace b2;
using namespace b2::verify;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--threads N] [--out PATH]\n"
               "          [--only-fault NAME] [--list]\n"
               "\n"
               "  --quick       CI gate: representative fault subset, owner\n"
               "                columns only (plus the full baseline row)\n"
               "  --threads N   shard cells over N threads (default: hardware\n"
               "                concurrency; output is identical for every N)\n"
               "  --out PATH    where to write the JSON report\n"
               "                (default: ADEQUACY.json)\n"
               "  --metrics PATH  where to write the fleet metrics report\n"
               "                (default: METRICS.json; schema\n"
               "                b2stack-metrics-v1)\n"
               "  --only-fault NAME  run one fault's full row (debugging;\n"
               "                the owner-kill gate applies to it alone)\n"
               "  --list        print the fault registry and exit\n",
               Argv0);
  return 2;
}

int listFaults() {
  std::printf("%-28s %-9s %-18s %s\n", "NAME", "LAYER", "OWNER", "SUMMARY");
  for (const fi::FaultInfo &F : fi::faultRegistry())
    std::printf("%-28s %-9s %-18s %s\n", F.Name, F.Layer, F.Owner, F.Summary);
  std::printf("%zu faults; quick set:", fi::faultRegistry().size());
  for (fi::Fault F : quickFaultSet())
    for (const fi::FaultInfo &I : fi::faultRegistry())
      if (I.Id == F)
        std::printf(" %s", I.Name);
  std::printf("\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  AdequacyOptions Options;
  Options.Threads = std::max(1u, std::thread::hardware_concurrency());
  std::string OutPath = "ADEQUACY.json";
  std::string MetricsPath = "METRICS.json";

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--quick") {
      Options.Quick = true;
    } else if (Arg == "--threads" && I + 1 < Argc) {
      uint64_t N = 0;
      if (!support::parseNumericFlag("adequacy", "--threads", Argv[++I], 1,
                                     256, N))
        return 2;
      Options.Threads = unsigned(N);
    } else if (Arg == "--out" && I + 1 < Argc) {
      OutPath = Argv[++I];
    } else if (Arg == "--metrics" && I + 1 < Argc) {
      MetricsPath = Argv[++I];
    } else if (Arg == "--only-fault" && I + 1 < Argc) {
      Options.OnlyFault = Argv[++I];
      if (!fi::findFault(Options.OnlyFault)) {
        std::fprintf(stderr,
                     "adequacy: unknown fault '%s'; valid names are: %s\n",
                     Options.OnlyFault.c_str(), fi::faultNameList().c_str());
        return 2;
      }
    } else if (Arg == "--list") {
      return listFaults();
    } else {
      return usage(Argv[0]);
    }
  }

  std::printf("adequacy: %s campaign, %u threads\n",
              Options.Quick ? "quick" : "full", Options.Threads);
  // The metrics report describes the campaign alone.
  metrics::resetAll();
  AdequacyReport Report = runAdequacy(Options);

  // Human-readable kill matrix.
  uint64_t Owned = 0, Kills = 0;
  std::printf("%-28s %-18s %-6s %s\n", "FAULT", "OWNER", "KILLED",
              "TIME-TO-KILL");
  fi::Fault Last = fi::Fault::NumFaults;
  for (const CellResult &C : Report.Cells) {
    Kills += C.Killed ? 1 : 0;
    if (C.FaultId == Last)
      continue;
    Last = C.FaultId;
    const fi::FaultInfo *Info = nullptr;
    for (const fi::FaultInfo &F : fi::faultRegistry())
      if (F.Id == C.FaultId)
        Info = &F;
    const CellResult *Owner = Report.ownerCell(C.FaultId);
    bool Killed = Owner && Owner->Killed;
    Owned += Killed ? 1 : 0;
    std::printf("%-28s %-18s %-6s %llu\n", Info ? Info->Name : "?",
                Info ? Info->Owner : "?", Killed ? "yes" : "NO",
                Killed ? (unsigned long long)Owner->TimeToKill : 0ull);
  }
  std::printf("baseline clean: %s; owner kills: %llu; total kills: %llu\n",
              Report.noFalsePositives() ? "yes" : "NO",
              (unsigned long long)Owned, (unsigned long long)Kills);

  if (!support::writeFile(OutPath, adequacyJson(Report))) {
    std::fprintf(stderr, "adequacy: cannot write %s\n", OutPath.c_str());
    return 2;
  }
  std::printf("adequacy: wrote %s\n", OutPath.c_str());
  if (!metrics::writeMetricsFile(MetricsPath, "adequacy"))
    std::fprintf(stderr, "adequacy: cannot write %s\n", MetricsPath.c_str());
  else
    std::printf("adequacy: wrote %s\n", MetricsPath.c_str());

  std::string Violation = Report.firstViolation();
  if (!Violation.empty()) {
    std::fprintf(stderr, "adequacy: FAILED: %s\n", Violation.c_str());
    return 1;
  }
  std::printf("adequacy: PASS\n");
  return 0;
}
