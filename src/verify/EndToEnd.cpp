//===- verify/EndToEnd.cpp - end2end_lightbulb, executably -------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/EndToEnd.h"

#include "devices/Net.h"
#include "support/Format.h"
#include "traffic/Monitor.h"

using namespace b2;
using namespace b2::verify;
using namespace b2::devices;

namespace {

/// Cycles (instructions, on the ISA simulator) between drain checks.
constexpr uint64_t DrainChunk = 200'000;

} // namespace

E2EResult b2::verify::runCompiledEndToEnd(const compiler::CompiledProgram &Prog,
                                          const E2EScenario &Scenario,
                                          const E2EOptions &Options) {
  E2EResult R;
  traffic::SoakMachine M(Prog, Options.Core, Options.RamBytes, Options.SimExec,
                         Options.Spi);
  for (const ScheduledFrame &F : Scenario.Frames)
    M.platform().scheduleFrame(F.AtOp, F.Frame, F.Errored);

  // Run in chunks until the scenario is fully delivered and drained, then
  // one settle chunk (so the final frame's iteration completes), or until
  // the budget runs out. The trace is judged as a whole below, so a
  // rejection by the loop's streaming monitor does not end the run: the
  // loop is resumed where it returned.
  traffic::SoakOptions Loop;
  Loop.HonorSchedule = true;
  Loop.ChunkCycles = DrainChunk;
  Loop.MaxCyclesPerShard = Options.MaxCycles;
  const ScheduledFrame *Begin = Scenario.Frames.data();
  const ScheduledFrame *End = Begin + Scenario.Frames.size();
  traffic::ShardExit Exit;
  do
    Exit = traffic::runShardLoop(M, Begin, End, Loop);
  while (Exit == traffic::ShardExit::Violated);

  R.Trace = M.trace();
  if (Exit == traffic::ShardExit::Diverged) {
    R.Error =
        "ISA simulator engine divergence: " + M.engineDivergenceDetail();
    return R;
  }
  if (Exit == traffic::ShardExit::HitUb) {
    R.Error = "ISA simulator hit UB: " + M.simUbDetail();
    return R;
  }
  R.Cycles = M.Elapsed;
  R.Retired = M.retired();
  R.AcceptedFrames = M.platform().acceptedFrames().size();

  // The theorem's conclusion: prefix membership in goodHlTrace.
  R.Diag = traffic::goodHlMatcher().diagnose(R.Trace);
  R.PrefixAccepted = R.Diag.PrefixAccepted;
  if (!R.PrefixAccepted) {
    R.Error = "trace rejected at event " + std::to_string(R.Diag.DeadAt) +
              " (" + R.Diag.FailingEvent + "); expected one of: " +
              support::join(R.Diag.ExpectedHere, " | ");
  }

  // Ground truth: the lightbulb tracked exactly the valid commands.
  R.LightHistory = M.platform().gpio().lightHistory();
  R.ExpectedLights =
      traffic::expectedLightSequence(M.platform().acceptedFrames());
  R.GroundTruthOk = R.LightHistory == R.ExpectedLights;
  if (!R.GroundTruthOk && R.Error.empty())
    R.Error = "lightbulb state history does not match the accepted valid "
              "commands (observed " +
              std::to_string(R.LightHistory.size()) + " changes, expected " +
              std::to_string(R.ExpectedLights.size()) + ")";

  R.Ok = R.PrefixAccepted && R.GroundTruthOk;
  return R;
}

E2EResult b2::verify::runLightbulbEndToEnd(const E2EScenario &Scenario,
                                           const E2EOptions &Options) {
  bedrock2::Program P = app::buildFirmware(Options.Firmware);
  compiler::CompileResult C = compiler::compileProgram(
      P, Options.Compiler,
      compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
      Options.RamBytes);
  if (!C.ok()) {
    E2EResult R;
    R.Error = "firmware compilation failed: " + C.Error;
    return R;
  }
  return runCompiledEndToEnd(*C.Prog, Scenario, Options);
}

E2EScenario b2::verify::fuzzScenario(uint64_t Seed, unsigned NumFrames,
                                     uint64_t FirstAtOp, uint64_t OpSpacing) {
  E2EScenario S;
  PacketFuzzer Fuzzer(Seed);
  uint64_t At = FirstAtOp;
  for (unsigned I = 0; I != NumFrames; ++I) {
    PacketFuzzer::Generated G = Fuzzer.next();
    S.Frames.push_back(ScheduledFrame{At, std::move(G.Frame), G.MarkErrored});
    At += OpSpacing;
  }
  return S;
}
