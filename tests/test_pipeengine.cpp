//===- tests/test_pipeengine.cpp - Pipelined-core fast engine tests --------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The instruction-stepped engine (kami/PipeEngine.h) must reproduce the
// reference tick()'s exact cycle schedule. Its Differential mode is the
// witness: after every run() chunk a shadow core replays the same cycles
// through tick() and the whole core state and BRAM must match. These
// tests drive it on the soak firmware under live frame traffic, on random
// compiled programs, and under the PipeConfig variants, with chunk sizes
// from one cycle (latch rebuilds at every boundary) to 100 k cycles.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"

#include "compiler/Compile.h"
#include "devices/Platform.h"
#include "isa/Build.h"
#include "isa/Encoding.h"
#include "kami/PipeEngine.h"
#include "support/Rng.h"
#include "traffic/Scenario.h"
#include "traffic/Soak.h"
#include "verify/FaultInjection.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace b2;
using namespace b2::kami;
using riscv::ExecMode;

namespace {

struct DiffRun {
  uint64_t Divergences = 0;
  std::string Detail;
  PipeStats Stats;
  size_t Labels = 0;
  size_t Injected = 0;
};

/// Runs \p Image on a pipelined core with \p Cfg, driven by a PipeEngine
/// in \p Mode for \p TotalCycles in random chunks of 1..MaxChunk cycles.
/// Frames are injected backpressure-style (rx enabled, under four
/// buffered) before every chunk, as the soak harness does.
DiffRun runEngine(const std::vector<uint8_t> &Image, const PipeConfig &Cfg,
                  const std::vector<devices::ScheduledFrame> &Frames,
                  uint64_t TotalCycles, uint64_t MaxChunk, uint64_t Seed,
                  ExecMode Mode = ExecMode::Differential) {
  Bram Mem(64 * 1024);
  Mem.loadImage(Image);
  devices::Platform Plat;
  PipelinedCore Core(Mem, Plat, Cfg);
  PipeEngine E(Core, Mode);
  support::Rng Rng(Seed);
  DiffRun R;
  while (Core.cycles() < TotalCycles && E.divergences() == 0) {
    while (R.Injected < Frames.size() && Plat.nic().rxEnabled() &&
           Plat.nic().bufferedFrames() < 4) {
      Plat.injectNow(Frames[R.Injected].Frame, Frames[R.Injected].Errored);
      ++R.Injected;
    }
    E.run(std::min<uint64_t>(1 + Rng.below(MaxChunk),
                             TotalCycles - Core.cycles()));
  }
  R.Divergences = E.divergences();
  R.Detail = E.divergenceDetail();
  R.Stats = Core.stats();
  R.Labels = Core.labels().size();
  return R;
}

const std::vector<uint8_t> &firmwareImage() {
  static const std::vector<uint8_t> Image = [] {
    compiler::CompileResult C = traffic::compileSoakFirmware();
    EXPECT_TRUE(C.ok()) << C.Error;
    return C.ok() ? C.Prog->image() : std::vector<uint8_t>();
  }();
  return Image;
}

std::vector<devices::ScheduledFrame> frames(const char *Scenario,
                                            uint64_t N) {
  traffic::ScenarioOptions O;
  O.Seed = 7;
  O.Frames = N;
  return traffic::generateScenario(Scenario, O).Frames;
}

/// The coverage every firmware run must reach for its zero-divergence
/// verdict to mean something: frames went in, MMIO traffic and
/// mispredictions, RAW and MMIO stalls all happened.
void expectCovered(const DiffRun &R, const std::string &What) {
  EXPECT_EQ(R.Divergences, 0u) << What << ": " << R.Detail;
  EXPECT_GT(R.Injected, 0u) << What;
  EXPECT_GT(R.Labels, 1000u) << What;
  EXPECT_GT(R.Stats.Mispredicts, 0u) << What;
  EXPECT_GT(R.Stats.RawStalls, 0u) << What;
}

} // namespace

TEST(PipeEngine, DifferentialOnFirmwareSmallChunks) {
  // One- to fifty-cycle chunks put a chunk boundary inside every kind of
  // stall, so each latch rebuild is compared against tick().
  for (const char *Scenario : {"valid-mix", "adversarial"}) {
    DiffRun R = runEngine(firmwareImage(), PipeConfig(), frames(Scenario, 40),
                          400'000, 50, 11);
    expectCovered(R, Scenario);
    EXPECT_GT(R.Stats.MmioStalls, 0u) << Scenario;
  }
}

TEST(PipeEngine, DifferentialOnFirmwareLargeChunks) {
  for (const char *Scenario : {"valid-mix", "adversarial"}) {
    DiffRun R = runEngine(firmwareImage(), PipeConfig(),
                          frames(Scenario, 40), 3'000'000, 100'000, 12);
    expectCovered(R, Scenario);
  }
}

TEST(PipeEngine, DifferentialAtEveryCycleBoundary) {
  // One-cycle chunks compare the rebuilt latches after every cycle. The
  // kernel packs the cases a chunk boundary can split: an instruction
  // decoded the cycle before its predecessor's write lands, RAW stalls
  // behind RAM and MMIO loads, MMIO handshakes, and branches that
  // mispredict until the BTB learns them.
  using namespace isa;
  std::vector<Instr> P;
  P.push_back(lui(A0, SWord(0x10000000)));    // External, past the BRAM.
  P.push_back(addi(A2, Zero, 12));            // Loop bound.
  P.push_back(addi(S0, Zero, 0x100));         // Outer loop (address 8).
  P.push_back(addi(A1, Zero, 0));
  P.push_back(addi(S0, S0, 4));               // Inner loop (address 16).
  P.push_back(lw(S1, Zero, 8));               // Decoded before s0 lands.
  P.push_back(sw(S0, S1, 0));
  P.push_back(lw(A3, A0, 0));
  P.push_back(mkR(Opcode::Add, A4, A3, S1));
  P.push_back(sw(A0, A4, 4));
  P.push_back(addi(A1, A1, 1));
  P.push_back(mkB(Opcode::Bne, A1, A2, -28));
  P.push_back(jal(Zero, -40));                // Back to the outer loop.
  Bram Mem(4096);
  Mem.loadImage(isa::instrencode(P));
  riscv::NoDevice Dev;
  PipelinedCore Core(Mem, Dev);
  PipeEngine E(Core, ExecMode::Differential);
  support::Rng Rng(3);
  while (Core.cycles() < 12'000 && E.divergences() == 0)
    E.run(Core.cycles() < 6'000 ? 1 : 1 + Rng.below(7));
  EXPECT_EQ(E.divergences(), 0u) << E.divergenceDetail();
  EXPECT_GT(Core.stats().Mispredicts, 2u);
  EXPECT_GT(Core.stats().RawStalls, 0u);
  EXPECT_GT(Core.stats().MmioStalls, 0u);
  EXPECT_GT(Core.labels().size(), 100u);
}

TEST(PipeEngine, DifferentialUnderPipeConfigVariants) {
  struct Variant {
    const char *Name;
    PipeConfig Cfg;
  };
  std::vector<Variant> Variants;
  Variants.push_back({"btb-off", PipeConfig()});
  Variants.back().Cfg.UseBtb = false;
  Variants.push_back({"btb-2-entries", PipeConfig()});
  Variants.back().Cfg.BtbIndexBits = 1;
  Variants.push_back({"mmio-latency-0", PipeConfig()});
  Variants.back().Cfg.MmioLatency = 0;
  Variants.push_back({"mmio-latency-5", PipeConfig()});
  Variants.back().Cfg.MmioLatency = 5;
  Variants.push_back({"instant-fill", PipeConfig()});
  Variants.back().Cfg.ICacheFillWordsPerCycle = 0;
  uint64_t Seed = 20;
  for (const Variant &V : Variants) {
    DiffRun R = runEngine(firmwareImage(), V.Cfg,
                          frames(Seed % 2 ? "adversarial" : "valid-mix", 20),
                          600'000, 3'000, Seed);
    expectCovered(R, V.Name);
    ++Seed;
  }
}

TEST(PipeEngine, DifferentialOnRandomCompiledPrograms) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    b2::testing::RandomProgramOptions O;
    O.UseMmio = Seed % 2 == 0;
    bedrock2::Program P = b2::testing::RandomProgramGen(Seed, O).generate();
    compiler::CompileResult C = compiler::compileProgram(
        P, Seed % 3 ? compiler::CompilerOptions::o0()
                    : compiler::CompilerOptions::o3(),
        compiler::Entry::singleCall("main", {Word(Seed * 17), Word(Seed)}),
        64 * 1024);
    ASSERT_TRUE(C.ok()) << "seed " << Seed << ": " << C.Error;
    PipeConfig Cfg;
    Cfg.UseBtb = Seed != 3;
    Cfg.MmioLatency = unsigned(Seed % 4);
    DiffRun R = runEngine(C.Prog->image(), Cfg, {}, 150'000, 1 + Seed * 37,
                          Seed);
    EXPECT_EQ(R.Divergences, 0u) << "seed " << Seed << ": " << R.Detail;
    EXPECT_GT(R.Stats.Retired, 1000u) << "seed " << Seed;
  }
}

TEST(PipeEngine, FastMatchesReferenceStats) {
  // Block mode without the shadow: the same PipeStats and labels as a
  // reference run, the fill skipped in bulk yet counted exactly.
  const auto F = frames("valid-mix", 10);
  DiffRun Ref = runEngine(firmwareImage(), PipeConfig(), F, 500'000, 777, 5,
                          ExecMode::Reference);
  DiffRun Fast = runEngine(firmwareImage(), PipeConfig(), F, 500'000, 777, 5,
                           ExecMode::Block);
  EXPECT_TRUE(Fast.Stats == Ref.Stats);
  EXPECT_EQ(Fast.Stats.FillCycles, 64u * 1024 / 4 / 4);
  EXPECT_EQ(Fast.Labels, Ref.Labels);
  EXPECT_EQ(Fast.Injected, Ref.Injected);
}

TEST(PipeEngine, ForwardingRunsTheReference) {
  // The recurrence describes the forwarding-free core, so a forwarding
  // core is pinned to tick() — with or without the forwarding path's
  // own seeded fault armed — and Differential then compares tick() with
  // tick() and stays clean.
  PipeConfig Fwd;
  Fwd.EnableForwarding = true;
  DiffRun R = runEngine(firmwareImage(), Fwd, frames("valid-mix", 10),
                        300'000, 500, 3);
  EXPECT_EQ(R.Divergences, 0u) << R.Detail;
  EXPECT_GT(R.Stats.Forwards, 0u);
  fi::FaultPlan Plan = fi::FaultPlan::single(fi::Fault::KamiForwardLoadStale);
  fi::FaultScope Scope(Plan);
  DiffRun RF = runEngine(firmwareImage(), Fwd, frames("valid-mix", 10),
                         200'000, 500, 4);
  EXPECT_EQ(RF.Divergences, 0u) << RF.Detail;
  EXPECT_GT(RF.Stats.Forwards, 0u);
}

TEST(PipeEngine, DifferentialKillsDroppedMmioLatencyFault) {
  fi::FaultPlan Plan =
      fi::FaultPlan::single(fi::Fault::KamiFastMmioLatencyDropped);
  fi::FaultScope Scope(Plan);
  DiffRun R = runEngine(firmwareImage(), PipeConfig(), frames("valid-mix", 4),
                        300'000, 5'000, 9);
  EXPECT_GE(R.Divergences, 1u);
  EXPECT_FALSE(R.Detail.empty());
}
