//===- tools/soak.cpp - Pcap-driven soak-harness CLI ------------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Drives frame streams (generated scenarios or replayed pcap corpora)
// through compiled firmware on a processor model while the streaming
// goodHlTrace monitor checks every event, then writes SOAK.json. On a
// spec violation the failing shard's frame sequence is delta-debugged to
// a 1-minimal counterexample and written out as a replayable pcap file;
// exit status is nonzero.
//
//   soak [--frames N] [--threads K] [--seed S] [--scenario NAME]
//        [--core pipelined|isa|spec] [--engine reference|block|diff]
//        [--shards N] [--cross-check] [--pcap-in PATH] [--pcap-out PATH]
//        [--report PATH] [--fault NAME] [--list-scenarios]
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Metrics.h"
#include "traffic/Pcap.h"
#include "traffic/Scenario.h"
#include "traffic/Shrink.h"
#include "traffic/Soak.h"
#include "verify/FaultInjection.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

using namespace b2;
using namespace b2::traffic;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--frames N] [--threads K] [--seed S] [--scenario NAME]\n"
      "          [--core pipelined|isa|spec] [--engine reference|block|diff]\n"
      "          [--shards N] [--cross-check] [--honor-schedule]\n"
      "          [--no-checkpoint] [--pcap-in PATH] [--pcap-out PATH]\n"
      "          [--report PATH] [--fault NAME] [--list-scenarios]\n"
      "\n"
      "  --frames N        frames to generate (default 10000)\n"
      "  --threads K       worker threads (default: hardware concurrency;\n"
      "                    SOAK.json is bit-identical for every K)\n"
      "  --seed S          scenario seed (default 1)\n"
      "  --scenario NAME   workload family (default valid-mix;\n"
      "                    see --list-scenarios)\n"
      "  --core KIND       execution substrate (default pipelined)\n"
      "  --engine MODE     ISA-simulator engine (--core isa only):\n"
      "                    reference runs the uncached spec stepper,\n"
      "                    block runs the superblock trace engine, diff\n"
      "                    runs both in lockstep and fails on the first\n"
      "                    divergence; SOAK.json is bit-identical across\n"
      "                    all three (default block)\n"
      "  --shards N        override the derived shard count\n"
      "  --cross-check     rerun every shard on a second substrate\n"
      "  --honor-schedule  deliver at recorded AtOp instead of\n"
      "                    backpressure injection (pcap replay fidelity)\n"
      "  --no-checkpoint   disable the warm-boot/checkpoint layer: boot\n"
      "                    every shard cold and shrink with cold replays\n"
      "                    (results are bit-identical; this is the\n"
      "                    differential-debugging and baseline mode)\n"
      "  --pcap-in PATH    replay a recorded corpus instead of generating\n"
      "  --pcap-out PATH   record the stream (or, on a violation, the\n"
      "                    shrunk counterexample) as a pcap file\n"
      "  --report PATH     where to write the JSON report\n"
      "                    (default SOAK.json)\n"
      "  --metrics PATH    where to write the fleet metrics report\n"
      "                    (default METRICS.json; schema\n"
      "                    b2stack-metrics-v1)\n"
      "  --fault NAME      arm one seeded fault for the whole run\n"
      "  --list-scenarios  print the scenario catalog and exit\n",
      Argv0);
  return 2;
}

int listScenarios() {
  std::printf("%-12s %s\n", "NAME", "SUMMARY");
  for (const ScenarioInfo &S : scenarioCatalog())
    std::printf("%-12s %s\n", S.Name, S.Summary);
  return 0;
}

SoakCore parseCore(const std::string &Name, bool &Ok) {
  Ok = true;
  if (Name == "pipelined")
    return SoakCore::Pipelined;
  if (Name == "isa")
    return SoakCore::IsaSim;
  if (Name == "spec")
    return SoakCore::SpecCore;
  Ok = false;
  return SoakCore::Pipelined;
}

} // namespace

int main(int Argc, char **Argv) {
  SoakOptions Options;
  Options.Threads = std::max(1u, std::thread::hardware_concurrency());
  ScenarioOptions Gen;
  Gen.Frames = 10000;
  std::string Scenario = "valid-mix";
  std::string PcapIn, PcapOut, FaultName;
  std::string ReportPath = "SOAK.json";
  std::string MetricsPath = "METRICS.json";

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--frames" && I + 1 < Argc) {
      Gen.Frames = std::strtoull(Argv[++I], nullptr, 10);
    } else if (Arg == "--threads" && I + 1 < Argc) {
      Options.Threads = unsigned(std::max(1, std::atoi(Argv[++I])));
    } else if (Arg == "--seed" && I + 1 < Argc) {
      Gen.Seed = std::strtoull(Argv[++I], nullptr, 10);
    } else if (Arg == "--scenario" && I + 1 < Argc) {
      Scenario = Argv[++I];
      if (!isScenario(Scenario)) {
        std::string Valid;
        for (const ScenarioInfo &S : scenarioCatalog()) {
          if (!Valid.empty())
            Valid += ", ";
          Valid += S.Name;
        }
        std::fprintf(stderr,
                     "soak: unknown scenario '%s'; valid names are: %s\n",
                     Scenario.c_str(), Valid.c_str());
        return 2;
      }
    } else if (Arg == "--core" && I + 1 < Argc) {
      bool Ok;
      Options.Core = parseCore(Argv[++I], Ok);
      if (!Ok) {
        std::fprintf(stderr,
                     "soak: unknown core '%s' (pipelined|isa|spec)\n", Argv[I]);
        return 2;
      }
    } else if (Arg == "--engine" && I + 1 < Argc) {
      if (!riscv::execModeByName(Argv[++I], Options.SimExec)) {
        std::fprintf(stderr,
                     "soak: unknown engine '%s' (reference|block|diff)\n",
                     Argv[I]);
        return 2;
      }
    } else if (Arg == "--shards" && I + 1 < Argc) {
      Options.Shards = unsigned(std::max(1, std::atoi(Argv[++I])));
    } else if (Arg == "--cross-check") {
      Options.CrossCheck = true;
    } else if (Arg == "--honor-schedule") {
      Options.HonorSchedule = true;
    } else if (Arg == "--no-checkpoint") {
      Options.Checkpoint = false;
    } else if (Arg == "--pcap-in" && I + 1 < Argc) {
      PcapIn = Argv[++I];
    } else if (Arg == "--pcap-out" && I + 1 < Argc) {
      PcapOut = Argv[++I];
    } else if (Arg == "--report" && I + 1 < Argc) {
      ReportPath = Argv[++I];
    } else if (Arg == "--metrics" && I + 1 < Argc) {
      MetricsPath = Argv[++I];
    } else if (Arg == "--fault" && I + 1 < Argc) {
      FaultName = Argv[++I];
      if (!fi::findFault(FaultName)) {
        std::fprintf(stderr,
                     "soak: unknown fault '%s'; valid names are: %s\n",
                     FaultName.c_str(), fi::faultNameList().c_str());
        return 2;
      }
    } else if (Arg == "--list-scenarios") {
      return listScenarios();
    } else {
      return usage(Argv[0]);
    }
  }

  // Arm the requested fault for the whole run: generation, pcap I/O,
  // and (via Options.Plan, which reaches worker threads) every shard.
  fi::FaultPlan Plan;
  std::optional<fi::FaultScope> MainScope;
  if (!FaultName.empty()) {
    Plan = fi::FaultPlan::single(fi::findFault(FaultName)->Id);
    Options.Plan = &Plan;
    MainScope.emplace(Plan);
  }

  TrafficStream Stream;
  if (!PcapIn.empty()) {
    std::string Error;
    if (!readPcap(PcapIn, Stream.Frames, Error)) {
      std::fprintf(stderr, "soak: %s\n", Error.c_str());
      return 2;
    }
    Scenario = "pcap";
    std::printf("soak: replaying %zu frames from %s\n", Stream.Frames.size(),
                PcapIn.c_str());
  } else {
    Stream = generateScenario(Scenario, Gen);
    std::printf("soak: scenario %s, %llu frames, seed %llu\n",
                Scenario.c_str(), (unsigned long long)Gen.Frames,
                (unsigned long long)Gen.Seed);
  }

  if (!PcapOut.empty()) {
    std::string Error;
    if (!writePcap(PcapOut, Stream.Frames, Error)) {
      std::fprintf(stderr, "soak: %s\n", Error.c_str());
      return 2;
    }
    std::printf("soak: recorded stream to %s\n", PcapOut.c_str());
  }

  compiler::CompileResult Compiled = compileSoakFirmware(Options.RamBytes);
  if (!Compiled.ok()) {
    std::fprintf(stderr, "soak: firmware compilation failed: %s\n",
                 Compiled.Error.c_str());
    return 2;
  }

  // The metrics report should describe the measured soak run alone, not
  // firmware compilation or pcap parsing.
  metrics::resetAll();

  auto Start = std::chrono::steady_clock::now();
  SoakReport Report =
      runSoak(*Compiled.Prog, Stream, Options, Scenario, Gen.Seed);
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();

  if (!support::writeFile(ReportPath, soakJson(Report))) {
    std::fprintf(stderr, "soak: cannot write %s\n", ReportPath.c_str());
    return 2;
  }
  if (!metrics::writeMetricsFile(MetricsPath, "soak"))
    std::fprintf(stderr, "soak: cannot write %s\n", MetricsPath.c_str());
  else
    std::printf("soak: wrote %s\n", MetricsPath.c_str());

  uint64_t Delivered = 0, Cycles = 0;
  for (const ShardStats &S : Report.Shards) {
    Delivered += S.FramesDelivered;
    Cycles += S.Cycles;
  }
  // Wall-clock throughput goes to stdout only; SOAK.json stays
  // deterministic.
  std::string CoreDesc = soakCoreName(Options.Core);
  if (Options.Core == SoakCore::IsaSim)
    CoreDesc += std::string("/") + riscv::execModeName(Options.SimExec);
  std::printf("soak: core %s, %zu shards, %u threads: %llu frames, "
              "%llu Mcycles, %.1f s (%.0f frames/s)\n",
              CoreDesc.c_str(), Report.Shards.size(),
              Options.Threads, (unsigned long long)Delivered,
              (unsigned long long)(Cycles / 1'000'000), Secs,
              Secs > 0 ? double(Delivered) / Secs : 0.0);
  std::printf("soak: wrote %s\n", ReportPath.c_str());

  if (Report.Ok) {
    std::printf("soak: PASS\n");
    return 0;
  }

  const ShardStats *Fail = Report.firstFailure();
  std::fprintf(stderr, "soak: FAILED: %s\n",
               Fail ? Fail->Error.c_str() : "unknown failure");

  // Frame-attributable failures come with the delivered frames; shrink
  // them to a 1-minimal, replayable counterexample.
  if (Fail && !Fail->DeliveredFrames.empty()) {
    std::printf("soak: shrinking %zu delivered frames...\n",
                Fail->DeliveredFrames.size());
    ShrunkCounterexample Shrunk =
        shrinkSoakFailure(*Compiled.Prog, Fail->DeliveredFrames, Options);
    if (Shrunk.Work.Checkpointed)
      std::printf("soak: checkpointed oracle: %llu cycles simulated, "
                  "%llu resumed from %llu checkpoints (+%llu handoff)\n",
                  (unsigned long long)Shrunk.Work.SimulatedCycles,
                  (unsigned long long)Shrunk.Work.SkippedCycles,
                  (unsigned long long)Shrunk.Work.Checkpoints,
                  (unsigned long long)Shrunk.Work.PrimeCycles);
    if (Shrunk.Result.Reproduced) {
      std::string CexPath = PcapOut.empty() ? "counterexample.pcap" : PcapOut;
      std::string Error;
      if (!writePcap(CexPath, Shrunk.Result.Frames, Error)) {
        std::fprintf(stderr, "soak: %s\n", Error.c_str());
      } else {
        std::string At = Shrunk.ViolationIndex
                             ? " (violation at event " +
                                   std::to_string(Shrunk.ViolationIndex) + ")"
                             : "";
        std::printf(
            "soak: %zu-frame counterexample%s after %llu oracle runs, "
            "written to %s\n"
            "soak: replay with: soak --pcap-in %s%s%s\n",
            Shrunk.Result.Frames.size(), At.c_str(),
            (unsigned long long)Shrunk.Result.OracleRuns, CexPath.c_str(),
            CexPath.c_str(), FaultName.empty() ? "" : " --fault ",
            FaultName.c_str());
      }
    } else {
      std::fprintf(stderr,
                   "soak: violation did not reproduce under the shrink "
                   "oracle (options differ from the failing shard?)\n");
    }
    // Refresh the metrics report so the shrink's oracle counters land too.
    metrics::writeMetricsFile(MetricsPath, "soak");
  }
  return 1;
}
