//===- tests/test_endtoend.cpp - end2end_lightbulb checks --------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// The executable counterpart of the paper's headline theorem: running the
// compiled lightbulb firmware on the pipelined processor produces only
// MMIO traces that are prefixes of goodHlTrace, for benign and adversarial
// packet scenarios alike, and the physical lightbulb follows exactly the
// valid commands.
//
//===----------------------------------------------------------------------===//

#include "verify/EndToEnd.h"

#include "devices/Net.h"

#include <gtest/gtest.h>

using namespace b2;
using namespace b2::verify;
using namespace b2::devices;

namespace {

E2EScenario commandScenario(std::initializer_list<bool> Commands,
                            uint64_t FirstAtOp = 2000,
                            uint64_t Spacing = 2500) {
  E2EScenario S;
  uint64_t At = FirstAtOp;
  for (bool On : Commands) {
    S.Frames.push_back(ScheduledFrame{At, buildCommandFrame(On), false});
    At += Spacing;
  }
  return S;
}

} // namespace

TEST(EndToEnd, BootOnlyTraceIsPrefixOfGoodHlTrace) {
  E2EScenario Empty;
  E2EOptions O;
  O.MaxCycles = 30'000'000;
  E2EResult R = runLightbulbEndToEnd(Empty, O);
  EXPECT_TRUE(R.PrefixAccepted) << R.Error;
  EXPECT_TRUE(R.GroundTruthOk) << R.Error;
  EXPECT_TRUE(R.LightHistory.empty());
  EXPECT_GT(R.Trace.size(), 0u);
}

TEST(EndToEnd, SingleOnCommandTurnsLightOn) {
  E2EOptions O;
  O.MaxCycles = 60'000'000;
  E2EResult R = runLightbulbEndToEnd(commandScenario({true}), O);
  EXPECT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.LightHistory.size(), 1u);
  EXPECT_TRUE(R.LightHistory[0]);
  EXPECT_EQ(R.AcceptedFrames, 1u);
}

TEST(EndToEnd, OnOffSequenceIsTracked) {
  E2EOptions O;
  O.MaxCycles = 120'000'000;
  E2EResult R = runLightbulbEndToEnd(commandScenario({true, false, true}), O);
  EXPECT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.LightHistory.size(), 3u);
  EXPECT_TRUE(R.LightHistory[0]);
  EXPECT_FALSE(R.LightHistory[1]);
  EXPECT_TRUE(R.LightHistory[2]);
}

TEST(EndToEnd, MalformedPacketIsIgnored) {
  // A frame with the wrong ethertype must be drained but not actuated.
  std::vector<uint8_t> Bad = buildCommandFrame(true);
  Bad[12] = 0x86; // Not IPv4.
  E2EScenario S;
  S.Frames.push_back(ScheduledFrame{2000, Bad, false});
  E2EOptions O;
  O.MaxCycles = 60'000'000;
  E2EResult R = runLightbulbEndToEnd(S, O);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.LightHistory.empty());
}

TEST(EndToEnd, FuzzedScenarioSatisfiesSpecOnPipelinedCore) {
  E2EOptions O;
  O.MaxCycles = 400'000'000;
  E2EScenario S = fuzzScenario(/*Seed=*/1, /*NumFrames=*/6);
  E2EResult R = runLightbulbEndToEnd(S, O);
  EXPECT_TRUE(R.Ok) << R.Error;
}

// -- Pinned verdicts ------------------------------------------------------------
//
// Every observable of an end-to-end run — verdict, error text, matcher
// diagnosis, MMIO trace, light histories, accepted-frame count, cycle and
// retirement counts — folded into one FNV-1a digest per run and pinned, so
// any change to how the whole system is driven (chunking, drain-and-settle,
// budget handling, early exits) shows up as a digest mismatch.

namespace {

struct Digest {
  uint64_t H = 0xcbf29ce484222325ull;
  void byte(uint8_t B) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  void num(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      byte(uint8_t(V >> (I * 8)));
  }
  void str(const std::string &S) {
    num(S.size());
    for (char C : S)
      byte(uint8_t(C));
  }
  void bits(const std::vector<bool> &V) {
    num(V.size());
    for (bool B : V)
      byte(B);
  }
};

uint64_t resultDigest(const E2EResult &R) {
  Digest D;
  D.num(R.Ok);
  D.num(R.PrefixAccepted);
  D.num(R.GroundTruthOk);
  D.str(R.Error);
  D.num(R.Diag.Accepted);
  D.num(R.Diag.PrefixAccepted);
  D.num(R.Diag.DeadAt);
  D.num(R.Diag.ExpectedHere.size());
  for (const std::string &S : R.Diag.ExpectedHere)
    D.str(S);
  D.str(R.Diag.FailingEvent);
  D.num(R.Trace.size());
  for (const riscv::MmioEvent &E : R.Trace) {
    D.num(E.IsStore);
    D.num(E.Addr);
    D.num(E.Value);
    D.num(E.Size);
  }
  D.bits(R.LightHistory);
  D.bits(R.ExpectedLights);
  D.num(R.AcceptedFrames);
  D.num(R.Cycles);
  D.num(R.Retired);
  return D.H;
}

struct PinnedRun {
  const char *Name;
  bool Ok;
  uint64_t Cycles;
  size_t Events;
  uint64_t Digest;
};

void expectPinned(const PinnedRun &P, const E2EResult &R) {
  SCOPED_TRACE(P.Name);
  EXPECT_EQ(R.Ok, P.Ok) << R.Error;
  EXPECT_EQ(R.Cycles, P.Cycles);
  EXPECT_EQ(R.Trace.size(), P.Events);
  EXPECT_EQ(resultDigest(R), P.Digest);
}

} // namespace

TEST(EndToEnd, FuzzedVerdictsArePinnedOnEveryCore) {
  static const compiler::CompileResult C = compiler::compileProgram(
      app::buildFirmware(), compiler::CompilerOptions::o0(),
      compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
      64 * 1024);
  ASSERT_TRUE(C.ok()) << C.Error;

  struct Case {
    PinnedRun Pin;
    uint64_t Seed;
    traffic::SoakCore Core;
    riscv::ExecMode Exec;
    uint64_t MaxCycles;
  };
  const Case Cases[] = {
      {{"pipelined_seed1", true, 3800000, 72448, 0x372f2be899fbd009ull}, 1, traffic::SoakCore::Pipelined,
       riscv::ExecMode::Reference, 400'000'000},
      {{"pipelined_seed2", true, 1400000, 18966, 0x7aecbce8739556dbull}, 2, traffic::SoakCore::Pipelined,
       riscv::ExecMode::Reference, 400'000'000},
      // A budget far below the drain point: the run stops on the budget.
      {{"pipelined_seed3_budget", true, 1000000, 13576, 0xe1b1374f5b7eda54ull}, 3, traffic::SoakCore::Pipelined,
       riscv::ExecMode::Reference, 1'000'000},
      {{"spec_seed4", true, 1000000, 20144, 0x3c926a974d50f819ull}, 4, traffic::SoakCore::SpecCore,
       riscv::ExecMode::Reference, 400'000'000},
      {{"spec_seed5", true, 1000000, 20548, 0x8abbf3eb37f39345ull}, 5, traffic::SoakCore::SpecCore,
       riscv::ExecMode::Reference, 400'000'000},
      {{"isa_seed6", true, 1000000, 20954, 0x8117cdb4e494d94cull}, 6, traffic::SoakCore::IsaSim,
       riscv::ExecMode::Reference, 400'000'000},
      {{"isa_seed7", true, 1000000, 20192, 0x97586c3ba6697fdfull}, 7, traffic::SoakCore::IsaSim,
       riscv::ExecMode::Reference, 400'000'000},
      {{"isa_block_seed6", true, 1000000, 20954, 0x8117cdb4e494d94cull}, 6, traffic::SoakCore::IsaSim,
       riscv::ExecMode::Block, 400'000'000},
      {{"isa_diff_seed7", true, 1000000, 20192, 0x97586c3ba6697fdfull}, 7, traffic::SoakCore::IsaSim,
       riscv::ExecMode::Differential, 400'000'000},
  };
  for (const Case &K : Cases) {
    E2EOptions O;
    O.Core = K.Core;
    O.SimExec = K.Exec;
    O.MaxCycles = K.MaxCycles;
    expectPinned(K.Pin,
                 runCompiledEndToEnd(*C.Prog, fuzzScenario(K.Seed, 5), O));
  }
}

TEST(EndToEnd, RejectedPrefixVerdictIsPinned) {
  // The FIFO-pipelined SPI driver leaves goodHlTrace (section 7.2.1); the
  // run must still go on to drain so the light history is complete.
  E2EOptions O;
  O.Core = traffic::SoakCore::IsaSim;
  O.Firmware.SpiPipelining = true;
  O.Spi.FifoDepth = 8;
  O.MaxCycles = 60'000'000;
  E2EResult R = runLightbulbEndToEnd(commandScenario({true, false}), O);
  EXPECT_FALSE(R.PrefixAccepted);
  EXPECT_TRUE(R.GroundTruthOk) << R.Error;
  expectPinned({"isa_spi_pipelined_rejected", false, 600000, 10815, 0xf44706c254fd96f5ull}, R);
}
