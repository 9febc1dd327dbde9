//===- bench/verification_perf.cpp - Section 7.2.2 ------------------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// Section 7.2.2, "Verification Performance": the paper's Coq build takes
// "less than 7.5 GB of RAM and 80 minutes per build", plus ~2 hours for
// the Kami refinement proofs. The executable reproduction's analogue is
// the cost of re-running the checking suites; this google-benchmark
// binary times each of them, so the repository can make the same kind of
// claim ("how expensive is it to re-establish confidence after a
// change").
//
// Two additions over the plain benchmark harness:
//  * the EndToEnd fuzz suite also runs as a sharded fleet
//    (verify::ParallelDriver) at 1..N threads, with the aggregated
//    verdicts checked bit-identical across thread counts before any
//    timing is reported;
//  * every result is emitted to machine-readable
//    BENCH_verification_perf.json so the perf trajectory is tracked from
//    PR to PR.
//
//===----------------------------------------------------------------------===//

#include "app/Firmware.h"
#include "app/LightbulbSpec.h"
#include "compiler/Compile.h"
#include "devices/Net.h"
#include "devices/MemoryMap.h"
#include "devices/Platform.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "tracespec/Matcher.h"
#include "verify/CompilerDiff.h"
#include "verify/DecodeConsistency.h"
#include "verify/EndToEnd.h"
#include "verify/Lockstep.h"
#include "verify/ParallelDriver.h"
#include "verify/Refinement.h"

#include "../tests/RandomProgram.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

using namespace b2;

namespace {

const compiler::CompiledProgram &firmwareBinary() {
  static compiler::CompiledProgram Prog = [] {
    compiler::CompileResult C = compiler::compileProgram(
        app::buildFirmware(), compiler::CompilerOptions::o0(),
        compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
        64 * 1024);
    return *C.Prog;
  }();
  return Prog;
}

/// Fleet configuration shared by the benchmark and the explicit scaling
/// sweep: fuzz scenarios on the ISA simulator (the fastest substrate, so
/// the sharding overhead is the thing being measured, not the core).
verify::E2EOptions fleetOptions() {
  verify::E2EOptions O;
  O.Core = traffic::SoakCore::IsaSim;
  O.MaxCycles = 60'000'000;
  return O;
}

constexpr uint64_t FleetBaseSeed = 42;
constexpr unsigned FleetShards = 4;
constexpr unsigned FleetFrames = 3;

void BM_CompileFirmware(benchmark::State &State) {
  bedrock2::Program P = app::buildFirmware();
  for (auto _ : State) {
    compiler::CompileResult C = compiler::compileProgram(
        P, compiler::CompilerOptions::o0(),
        compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
        64 * 1024);
    benchmark::DoNotOptimize(C.Prog->CodeBytes);
  }
}
BENCHMARK(BM_CompileFirmware);

void BM_DecodeConsistencySweep(benchmark::State &State) {
  for (auto _ : State) {
    std::string Report;
    uint64_t Bad = verify::sweepDecodeConsistency(
        uint64_t(State.range(0)), 7, Report);
    if (Bad)
      State.SkipWithError("decoder disagreement");
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_DecodeConsistencySweep)->Arg(10000);

void BM_LockstepFirmware(benchmark::State &State) {
  const compiler::CompiledProgram &Prog = firmwareBinary();
  for (auto _ : State) {
    verify::LockstepOptions O;
    O.MaxRetired = uint64_t(State.range(0));
    O.MemoryCheckEvery = 8192;
    verify::LockstepResult R = verify::lockstep(
        Prog.image(), ~Word(0),
        [] { return std::make_unique<devices::Platform>(); }, O);
    if (!R.Ok)
      State.SkipWithError("lockstep mismatch");
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_LockstepFirmware)->Arg(20000);

/// A check-fleet-shaped corpus: short cold random programs (one helper,
/// no nested loops), each with two interesting arguments and its o0
/// binary. perfbench's check-fleet runs CompilerDiff and Lockstep on 512
/// such programs; 64 keep a row's iteration short.
struct ShortProgram {
  bedrock2::Program Prog;
  std::vector<Word> Args;
  compiler::CompiledProgram Bin;
};

const std::vector<ShortProgram> &shortPrograms() {
  static const std::vector<ShortProgram> Corpus = [] {
    b2::testing::RandomProgramOptions Shape;
    Shape.NumHelpers = 1;
    Shape.MaxDepth = 1;
    std::vector<ShortProgram> Out;
    for (uint64_t Seed : verify::fleetSeeds(1, 64)) {
      ShortProgram SP;
      SP.Prog = b2::testing::RandomProgramGen(Seed, Shape).generate();
      support::Rng Rng(Seed * 31);
      SP.Args = {Rng.interestingWord(), Rng.interestingWord()};
      SP.Bin = *compiler::compileProgram(
                    SP.Prog, compiler::CompilerOptions::o0(),
                    compiler::Entry::singleCall("main", SP.Args),
                    devices::DefaultRamBytes)
                    .Prog;
      Out.push_back(std::move(SP));
    }
    return Out;
  }();
  return Corpus;
}

/// Lockstep on the short corpus; Arg = MemoryCheckEvery (512 is the
/// default, 16 the adequacy campaign's cadence).
void BM_LockstepShortPrograms(benchmark::State &State) {
  const std::vector<ShortProgram> &Corpus = shortPrograms();
  verify::LockstepOptions O;
  O.MemoryCheckEvery = uint64_t(State.range(0));
  for (auto _ : State) {
    for (const ShortProgram &SP : Corpus) {
      verify::LockstepResult R = verify::lockstep(
          SP.Bin.image(), SP.Bin.HaltPc,
          [] { return std::make_unique<riscv::NoDevice>(); }, O);
      if (!R.Ok || R.SimulatorHitUb)
        State.SkipWithError("lockstep mismatch");
      benchmark::DoNotOptimize(R.Cycles);
    }
  }
  State.SetItemsProcessed(State.iterations() * int64_t(Corpus.size()));
}
BENCHMARK(BM_LockstepShortPrograms)->Arg(512)->Arg(16)
    ->Unit(benchmark::kMillisecond);

/// CompilerDiff (three stackalloc salts, Fast source mode) on the short
/// corpus.
void BM_CompilerDiffShortPrograms(benchmark::State &State) {
  const std::vector<ShortProgram> &Corpus = shortPrograms();
  for (auto _ : State) {
    for (const ShortProgram &SP : Corpus) {
      verify::DiffResult R = verify::diffCompilePure(SP.Prog, "main", SP.Args);
      if (!R.Ok || !R.Source.ok())
        State.SkipWithError("compiler diff mismatch");
      benchmark::DoNotOptimize(R.MachineRetired);
    }
  }
  State.SetItemsProcessed(State.iterations() * int64_t(Corpus.size()));
}
BENCHMARK(BM_CompilerDiffShortPrograms)->Unit(benchmark::kMillisecond);

void BM_RefinementFirmware(benchmark::State &State) {
  const compiler::CompiledProgram &Prog = firmwareBinary();
  for (auto _ : State) {
    verify::RefinementOptions O;
    O.Retirements = uint64_t(State.range(0));
    verify::RefinementResult R = verify::checkRefinement(
        Prog.image(),
        [] { return std::make_unique<devices::Platform>(); }, O);
    if (!R.Ok)
      State.SkipWithError("refinement mismatch");
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_RefinementFirmware)->Arg(20000);

void BM_EndToEndOnePacket(benchmark::State &State) {
  const compiler::CompiledProgram &Prog = firmwareBinary();
  for (auto _ : State) {
    verify::E2EScenario S;
    S.Frames.push_back({2000, devices::buildCommandFrame(true), false});
    verify::E2EOptions O;
    verify::E2EResult R = verify::runCompiledEndToEnd(Prog, S, O);
    if (!R.Ok)
      State.SkipWithError("end-to-end violation");
  }
}
BENCHMARK(BM_EndToEndOnePacket);

/// The EndToEnd fuzz suite as a sharded fleet; Arg = worker threads.
void BM_EndToEndFuzzFleet(benchmark::State &State) {
  const compiler::CompiledProgram &Prog = firmwareBinary();
  std::vector<uint64_t> Seeds = verify::fleetSeeds(FleetBaseSeed, FleetShards);
  verify::E2EOptions O = fleetOptions();
  for (auto _ : State) {
    verify::FleetReport R = verify::endToEndFuzzFleet(
        Prog, O, Seeds, FleetFrames, unsigned(State.range(0)));
    if (!R.allOk())
      State.SkipWithError("end-to-end violation in fleet");
  }
  State.SetItemsProcessed(State.iterations() * FleetShards);
}
BENCHMARK(BM_EndToEndFuzzFleet)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_CompilerDiffFirmwareInit(benchmark::State &State) {
  bedrock2::Program P = app::buildFirmware();
  for (auto _ : State) {
    verify::DiffOptions DO;
    verify::DiffResult R = verify::diffCompile(
        P, "lightbulb_init", {},
        [] { return std::make_unique<devices::Platform>(); }, DO);
    if (!R.Ok)
      State.SkipWithError("compiler diff mismatch");
  }
}
BENCHMARK(BM_CompilerDiffFirmwareInit);

void BM_GoodHlTraceMatcherBuild(benchmark::State &State) {
  for (auto _ : State) {
    tracespec::Matcher M(app::goodHlTrace());
    benchmark::DoNotOptimize(M.numPositions());
  }
}
BENCHMARK(BM_GoodHlTraceMatcherBuild);

void BM_GoodHlTracePrefixCheck(benchmark::State &State) {
  // A long real trace from one boot plus a packet, checked repeatedly.
  const compiler::CompiledProgram &Prog = firmwareBinary();
  verify::E2EScenario S;
  S.Frames.push_back({2000, devices::buildCommandFrame(true), false});
  verify::E2EOptions O;
  verify::E2EResult R = verify::runCompiledEndToEnd(Prog, S, O);
  tracespec::Matcher M(app::goodHlTrace());
  for (auto _ : State) {
    bool Ok = M.acceptsPrefix(R.Trace);
    if (!Ok)
      State.SkipWithError("prefix rejected");
  }
  State.SetItemsProcessed(State.iterations() * R.Trace.size());
}
BENCHMARK(BM_GoodHlTracePrefixCheck);

/// Console reporter that also keeps every run for the JSON emission.
class CollectingReporter : public benchmark::ConsoleReporter {
public:
  struct Entry {
    std::string Name;
    double RealSeconds = 0; ///< Adjusted per-iteration real time.
    uint64_t Iterations = 0;
    bool Error = false;
  };
  std::vector<Entry> Entries;

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs) {
      Entry E;
      E.Name = R.benchmark_name();
      // GetAdjustedRealTime is in the run's time unit; normalize to
      // seconds.
      E.RealSeconds = R.GetAdjustedRealTime() /
                      benchmark::GetTimeUnitMultiplier(R.time_unit);
      E.Iterations = uint64_t(R.iterations);
      E.Error = R.error_occurred;
      Entries.push_back(E);
    }
    ConsoleReporter::ReportRuns(Runs);
  }
};

double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  CollectingReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);

  // Explicit thread-scaling sweep of the EndToEnd fuzz fleet, with the
  // determinism contract checked: every thread count must produce
  // bit-identical aggregated verdicts.
  const compiler::CompiledProgram &Prog = firmwareBinary();
  std::vector<uint64_t> Seeds = verify::fleetSeeds(FleetBaseSeed, FleetShards);
  verify::E2EOptions O = fleetOptions();
  unsigned MaxThreads = support::ThreadPool::defaultThreadCount();
  std::vector<std::pair<unsigned, double>> Scaling;
  verify::FleetReport Reference;
  bool VerdictsIdentical = true;
  // Fixed sweep points: oversubscribing a small machine still exercises
  // the pool and the determinism contract, so don't cap at the core count.
  std::vector<unsigned> SweepThreads = {1, 2, 4};
  if (MaxThreads > 4)
    SweepThreads.push_back(MaxThreads);
  for (unsigned T : SweepThreads) {
    double Start = now();
    verify::FleetReport R =
        verify::endToEndFuzzFleet(Prog, O, Seeds, FleetFrames, T);
    Scaling.push_back({T, now() - Start});
    if (T == 1)
      Reference = R;
    else if (!R.sameVerdicts(Reference))
      VerdictsIdentical = false;
    if (!R.allOk())
      std::fprintf(stderr, "fleet failure: %s\n", R.firstError().c_str());
  }
  std::printf("\nEndToEnd fuzz fleet scaling (%u shards, %u hw threads):\n",
              FleetShards, MaxThreads);
  for (auto [T, S] : Scaling)
    std::printf("  threads=%u  %.3fs\n", T, S);
  std::printf("verdicts identical across thread counts: %s\n",
              VerdictsIdentical ? "yes" : "NO");

  support::JsonWriter J;
  J.beginObject();
  J.key("bench").value("verification_perf");
  J.key("hardware_threads").value(uint64_t(MaxThreads));
  J.key("suites").beginArray();
  for (const auto &E : Reporter.Entries) {
    J.beginObject();
    J.key("name").value(E.Name);
    J.key("real_seconds_per_iteration").value(E.RealSeconds);
    J.key("iterations").value(E.Iterations);
    J.key("error").value(E.Error);
    J.endObject();
  }
  J.endArray();
  J.key("endtoend_fuzz_fleet").beginObject();
  J.key("shards").value(uint64_t(FleetShards));
  J.key("frames_per_scenario").value(uint64_t(FleetFrames));
  J.key("verdicts_identical_across_threads").value(VerdictsIdentical);
  J.key("all_ok").value(Reference.allOk());
  J.key("thread_scaling").beginArray();
  for (auto [T, S] : Scaling) {
    J.beginObject();
    J.key("threads").value(uint64_t(T));
    J.key("wall_seconds").value(S);
    J.key("speedup_vs_1thread")
        .value(S > 0 ? Scaling.front().second / S : 0.0);
    J.endObject();
  }
  J.endArray();
  J.endObject();
  J.endObject();
  const char *OutPath = "BENCH_verification_perf.json";
  if (!support::writeFile(OutPath, J.str()))
    std::fprintf(stderr, "failed to write %s\n", OutPath);
  else
    std::printf("wrote %s\n", OutPath);

  // A checker mismatch only skips its row; it must still fail the run.
  bool RowsOk = true;
  for (const auto &E : Reporter.Entries)
    if (E.Error) {
      std::fprintf(stderr, "row %s reported an error\n", E.Name.c_str());
      RowsOk = false;
    }

  benchmark::Shutdown();
  return VerdictsIdentical && RowsOk ? 0 : 1;
}
