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

#include <set>
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

/// Answers every external load with a fresh value whose byte and
/// halfword lanes all have their sign bit set, so narrow MMIO loads
/// exercise the sign extension.
class SignedReplies final : public riscv::MmioDevice {
public:
  bool isMmio(Word, unsigned) const override { return true; }
  Word load(Word, unsigned) override { return 0x80F080F0u + ++Loads; }
  void store(Word, unsigned, Word) override {}

private:
  Word Loads = 0;
};

constexpr Word KernelRamBytes = 8192;
constexpr Word IllegalWord = 0xFFFFFFFFu;

/// A loop that executes every RV32IM opcode and the edge cases of each
/// class: sub-word loads and stores on every lane, to RAM and to MMIO,
/// division by zero and INT_MIN / -1, arithmetic shifts of negative
/// values, a jalr to an odd target, fence, ecall, ebreak and an illegal
/// word, branches both taken and not. Address 0 holds `jal zero, 8` when
/// \p JumpAtZero, else an addi: a BTB trained on the first image is
/// stale for the second, where it redirects a non-control instruction.
std::vector<Word> allOpcodeKernel(bool JumpAtZero) {
  using namespace isa;
  constexpr Reg S3 = S2 + 1, S4 = S2 + 2, S5 = S2 + 3, S6 = S2 + 4,
                S7 = S2 + 5, S8 = S2 + 6, S9 = S2 + 7, S10 = S2 + 8;
  std::vector<Word> K;
  auto I = [&](const Instr &X) { K.push_back(encode(X)); };
  auto R = [&](Opcode Op, Reg Rd, Reg Rs1, Reg Rs2) {
    I(mkR(Op, Rd, Rs1, Rs2));
  };
  auto Im = [&](Opcode Op, Reg Rd, Reg Rs1, SWord Imm) {
    I(mkI(Op, Rd, Rs1, Imm));
  };
  auto St = [&](Opcode Op, Reg Base, Reg Src, SWord Off) {
    I(mkS(Op, Base, Src, Off));
  };
  // A taken or untaken branch over one instruction.
  auto Skip = [&](Opcode Op, Reg A, Reg B) {
    I(mkB(Op, A, B, 8));
    I(addi(T3, T3, 1));
  };

  I(JumpAtZero ? jal(Zero, 8) : addi(T3, Zero, 1));
  I(nop());
  I(lui(A0, SWord(0x10000000)));   // External: past the BRAM.
  I(lui(S0, 0x1000));              // RAM data.
  I(lui(T0, SWord(0x80000000)));   // INT_MIN.
  I(addi(T1, Zero, -1));
  I(addi(T2, Zero, -100));
  I(lui(S1, SWord(0x8081F000)));
  I(addi(S1, S1, 0xFF));
  I(addi(A2, Zero, 6));            // Loop bound.
  const size_t Outer = K.size();
  I(addi(A1, Zero, 0));
  const size_t Loop = K.size();
  // Register-register ALU, negative operands and shift counts.
  R(Opcode::Add, A3, T2, S1);
  R(Opcode::Sub, A4, T2, S1);
  R(Opcode::Sll, A5, S1, A1);
  R(Opcode::Slt, A6, T2, A1);
  R(Opcode::Add, TP, TP, A6); // Keeps the comparisons' results.
  R(Opcode::Sltu, A7, T2, A1);
  R(Opcode::Xor, S2, S1, T2);
  R(Opcode::Srl, S3, S1, A1);
  R(Opcode::Sra, S4, T2, A1);
  R(Opcode::Sra, S5, T0, T1); // Shift by 31 (-1 & 31).
  R(Opcode::Or, S6, S1, A1);
  R(Opcode::And, S7, S1, T2);
  // Register-immediate ALU.
  Im(Opcode::Addi, S8, T2, -2048);
  Im(Opcode::Slti, S9, T2, 5);
  R(Opcode::Add, TP, TP, S9);
  Im(Opcode::Sltiu, S10, T2, 5);
  Im(Opcode::Xori, S11, S1, -1);
  Im(Opcode::Ori, T3, A1, 0x555);
  Im(Opcode::Andi, T4, S1, 0x7F0);
  Im(Opcode::Slli, T5, S1, 31);
  Im(Opcode::Srli, T6, S1, 4);
  Im(Opcode::Srai, A3, T2, 3);
  Im(Opcode::Srai, A4, T0, 31);
  // RV32M, with division by zero and the one overflowing quotient.
  R(Opcode::Mul, A5, T2, S1);
  R(Opcode::Mulh, A6, T2, S1);
  R(Opcode::Mulhsu, A7, T2, S1);
  R(Opcode::Mulhu, S2, T2, S1);
  R(Opcode::Div, S3, T2, A2);
  R(Opcode::Div, S4, S1, Zero);
  R(Opcode::Div, S5, T0, T1);
  R(Opcode::Divu, S6, S1, Zero);
  R(Opcode::Divu, S7, S1, A2);
  R(Opcode::Rem, S8, T2, A2);
  R(Opcode::Rem, S9, S1, Zero);
  R(Opcode::Rem, S10, T0, T1);
  R(Opcode::Remu, S11, S1, Zero);
  R(Opcode::Remu, T3, S1, A2);
  I(lui(T4, SWord(0xABCDE000)));
  I(auipc(T5, 0x1000));
  // Sub-word stores and loads on every lane, to RAM (S0) and to MMIO
  // (A0); each load feeds the next instruction, a RAW stall.
  for (Reg Base : {S0, A0}) {
    St(Opcode::Sw, Base, S1, 0);
    for (SWord Lane = 0; Lane != 4; ++Lane)
      St(Opcode::Sb, Base, Lane % 2 ? T2 : A3, 4 + Lane);
    St(Opcode::Sh, Base, T2, 8);
    St(Opcode::Sh, Base, S1, 10);
    for (SWord Lane = 0; Lane != 4; ++Lane) {
      Im(Opcode::Lb, A5, Base, Lane);
      R(Opcode::Add, T6, T6, A5);
      Im(Opcode::Lbu, A6, Base, 4 + Lane);
      R(Opcode::Add, T6, T6, A6);
    }
    for (SWord Lane : {0, 2}) {
      Im(Opcode::Lh, A7, Base, Lane);
      R(Opcode::Xor, T6, T6, A7);
      Im(Opcode::Lhu, S2, Base, 8 + Lane);
      R(Opcode::Xor, T6, T6, S2);
    }
    I(lw(S3, Base, 4));
    I(sw(Base, T6, 12));
  }
  // Branches, taken (T2 < A1) and not.
  Skip(Opcode::Beq, A1, A1);
  Skip(Opcode::Beq, T2, A1);
  Skip(Opcode::Bne, T2, A1);
  Skip(Opcode::Bne, A1, A1);
  Skip(Opcode::Blt, T2, A1);
  Skip(Opcode::Blt, A1, T2);
  Skip(Opcode::Bge, A1, T2);
  Skip(Opcode::Bge, T2, A1);
  Skip(Opcode::Bltu, A1, T2);
  Skip(Opcode::Bltu, T2, A1);
  Skip(Opcode::Bgeu, T2, A1);
  Skip(Opcode::Bgeu, A1, T2);
  // jal over one instruction; jalr to an odd target (bit 0 is dropped).
  I(jal(RA, 8));
  I(addi(T3, T3, 1));
  I(auipc(T4, 0));
  I(jalr(RA, T4, 13));
  I(addi(T3, T3, 1));
  // No-ops to the hardware.
  Im(Opcode::Fence, Zero, Zero, 0);
  I(Instr{Opcode::Ecall});
  I(Instr{Opcode::Ebreak});
  K.push_back(IllegalWord);
  I(addi(A1, A1, 1));
  I(mkB(Opcode::Bne, A1, A2, -4 * SWord(K.size() - Loop)));
  I(jal(Zero, -4 * SWord(K.size() - Outer)));
  return K;
}

std::vector<uint8_t> bytesOf(const std::vector<Word> &Words) {
  std::vector<uint8_t> B;
  for (Word W : Words)
    for (unsigned Byte = 0; Byte != 4; ++Byte)
      B.push_back(uint8_t(W >> (8 * Byte)));
  return B;
}

struct KernelRun {
  uint64_t Divergences = 0;
  std::string Detail;
  PipeStats Stats;
  size_t Labels = 0;
  Word Regs[32] = {};
  std::vector<uint8_t> Ram;
};

/// Runs the all-opcode kernel under ExecMode::Differential in one-cycle
/// chunks up to \p OneCycleUntil, then in random 1-7-cycle chunks up to
/// \p TotalCycles. With \p StaleBtb the core starts with the BTB of a
/// core that ran the `jal` variant past its first instruction.
KernelRun runKernel(uint64_t OneCycleUntil, uint64_t TotalCycles,
                    bool StaleBtb) {
  Bram Mem(KernelRamBytes);
  Mem.loadImage(bytesOf(allOpcodeKernel(false)));
  SignedReplies Dev;
  PipelinedCore Core(Mem, Dev);
  if (StaleBtb) {
    Bram Trained(KernelRamBytes);
    Trained.loadImage(bytesOf(allOpcodeKernel(true)));
    riscv::NoDevice None;
    PipelinedCore Trainer(Trained, None);
    Trainer.runUntilRetired(1, 10'000);
    PipelinedCore::Snapshot S = Core.snapshot();
    S.Btb = Trainer.snapshot().Btb;
    Core.restore(S);
  }
  PipeEngine E(Core, ExecMode::Differential);
  support::Rng Rng(5);
  while (Core.cycles() < TotalCycles && E.divergences() == 0)
    E.run(Core.cycles() < OneCycleUntil ? 1 : 1 + Rng.below(7));
  KernelRun R;
  R.Divergences = E.divergences();
  R.Detail = E.divergenceDetail();
  R.Stats = Core.stats();
  R.Labels = Core.labels().size();
  for (unsigned X = 0; X != 32; ++X)
    R.Regs[X] = Core.getReg(X);
  for (Word A = 0; A != KernelRamBytes; ++A)
    R.Ram.push_back(Mem.readByte(A));
  return R;
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

TEST(PipeEngine, AllOpcodeKernelCoversEveryOpcode) {
  std::set<isa::Opcode> Seen;
  for (Word W : allOpcodeKernel(false))
    Seen.insert(isa::decode(W).Op);
  for (int Op = 1; Op <= int(isa::Opcode::Remu); ++Op)
    EXPECT_TRUE(Seen.count(isa::Opcode(Op)))
        << isa::opcodeName(isa::Opcode(Op));
  EXPECT_TRUE(Seen.count(isa::Opcode::Invalid)) << "the illegal word";
  EXPECT_EQ(decodeInst(IllegalWord).Cls, InstClass::Illegal);
}

TEST(PipeEngine, DifferentialOnAllOpcodesReachesEveryPath) {
  // One-cycle chunks first (every instruction crosses a chunk edge),
  // then random 1-7-cycle chunks, where most retire in one step.
  Bram Mem(KernelRamBytes);
  Mem.loadImage(bytesOf(allOpcodeKernel(false)));
  SignedReplies Dev;
  PipelinedCore Core(Mem, Dev);
  PipeEngine E(Core, ExecMode::Differential);
  support::Rng Rng(5);
  while (Core.cycles() < 30'000 && E.divergences() == 0)
    E.run(Core.cycles() < 10'000 ? 1 : 1 + Rng.below(7));
  EXPECT_EQ(E.divergences(), 0u) << E.divergenceDetail();
  EXPECT_GT(Core.stats().Retired, 3'000u);
  EXPECT_GT(Core.stats().Mispredicts, 10u);
  EXPECT_GT(Core.stats().RawStalls, 0u);
  EXPECT_GT(Core.stats().MmioStalls, 0u);
  EXPECT_GT(Core.labels().size(), 500u);
  const PipeEngine::Paths &P = E.paths();
  EXPECT_GT(P.RetireNow, 1'000u);
  EXPECT_GT(P.LiftedE2W, 0u);
  EXPECT_GT(P.LiftedD2E, 0u);
  EXPECT_GT(P.External, 0u);
  EXPECT_GT(P.PastChunk, 0u);
}

TEST(PipeEngine, DifferentialOnStaleBtbEntry) {
  // The trained BTB predicts address 0 -> 8, but address 0 now holds an
  // addi: EX must catch the redirect of a non-control instruction. The
  // prologue is straight-line, so its one mispredict is that redirect.
  KernelRun Early = runKernel(600, 600, /*StaleBtb=*/true);
  EXPECT_EQ(Early.Divergences, 0u) << Early.Detail;
  EXPECT_EQ(Early.Stats.Mispredicts, 1u);
  EXPECT_EQ(runKernel(600, 600, /*StaleBtb=*/false).Stats.Mispredicts, 0u);
  KernelRun R = runKernel(2'000, 12'000, /*StaleBtb=*/true);
  EXPECT_EQ(R.Divergences, 0u) << R.Detail;
  EXPECT_GT(R.Stats.Retired, 1'000u);
}

TEST(PipeEngine, SeededKamiFaultsMatchTheReference) {
  // The fast engine computes with tick()'s helpers, so an armed fault in
  // them must change both engines alike: zero divergences, yet a state
  // that differs from the clean run wherever the fault is architectural.
  const KernelRun Clean = runKernel(3'000, 12'000, false);
  ASSERT_EQ(Clean.Divergences, 0u) << Clean.Detail;
  for (fi::Fault F : {fi::Fault::KamiSltAsUnsigned,
                      fi::Fault::KamiLoadNoSignExtend,
                      fi::Fault::KamiMemWrongByteEnable,
                      fi::Fault::KamiDecodeShamtWide}) {
    const char *Name = fi::faultRegistry()[size_t(F)].Name;
    fi::FaultPlan Plan = fi::FaultPlan::single(F);
    fi::FaultScope Scope(Plan);
    const KernelRun R = runKernel(3'000, 12'000, false);
    EXPECT_EQ(R.Divergences, 0u) << Name << ": " << R.Detail;
    EXPECT_EQ(R.Stats.Retired, Clean.Stats.Retired) << Name;
    const bool Changed =
        !std::equal(std::begin(R.Regs), std::end(R.Regs),
                    std::begin(Clean.Regs)) ||
        R.Ram != Clean.Ram;
    if (F == fi::Fault::KamiDecodeShamtWide) {
      // The wide shamt reaches the latched immediate, not the result:
      // the shifter uses the low five bits.
      EXPECT_NE(decodeInst(isa::encode(isa::mkI(isa::Opcode::Srai, isa::A3,
                                                isa::T2, 3)))
                    .Imm,
                Word(3));
    } else {
      EXPECT_TRUE(Changed) << Name;
    }
  }
}
