//===- tests/test_stress.cpp - Stress and negative tests -----------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// Edge-path stress: large stack frames (sp-relative offsets beyond the
// 12-bit immediate), spill pressure with calls, branch-relaxation chains,
// and *negative* specification tests showing goodHlTrace is not
// vacuously lax.
//
//===----------------------------------------------------------------------===//

#include "app/Firmware.h"
#include "app/LightbulbSpec.h"
#include "bedrock2/Parser.h"
#include "bedrock2/Semantics.h"
#include "compiler/Asm.h"
#include "devices/Net.h"
#include "devices/Platform.h"
#include "isa/Build.h"
#include "isa/Encoding.h"
#include "riscv/BlockEngine.h"
#include "riscv/Machine.h"
#include "riscv/Mmio.h"
#include "riscv/Step.h"
#include "support/Rng.h"
#include "tracespec/Matcher.h"
#include "verify/CompilerDiff.h"
#include "verify/EndToEnd.h"
#include "verify/FaultInjection.h"

#include <gtest/gtest.h>

using namespace b2;
using namespace b2::verify;

namespace {

bedrock2::Program parseOrDie(const std::string &Src) {
  bedrock2::ParseResult R = bedrock2::parseProgram(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(*R.Prog);
}

} // namespace

// -- Large frames: sp-relative offsets beyond +/-2047 ---------------------------

TEST(Stress, HugeStackallocFrameOffsets) {
  // An 8000-byte buffer forces frame offsets beyond the 12-bit immediate
  // range, exercising the emitSpPlus / emitFrameLoad large-offset paths.
  bedrock2::Program P = parseOrDie(R"(
    fn f(a) -> (r) {
      stackalloc buf[8000] {
        store4(buf + 7996, a * 3);
        store4(buf, a);
        r = load4(buf + 7996) + load4(buf);
      }
    }
  )");
  DiffOptions DO;
  DO.RamBytes = 64 * 1024;
  DiffResult R = diffCompilePure(P, "f", {11}, DO);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.Source.ok());
  EXPECT_EQ(R.MachineRets[0], 44u);
}

TEST(Stress, SpillSlotsBeyondImmediateRange) {
  // Dozens of live variables on top of a big buffer: spill slots land at
  // offsets > 2047 from sp.
  std::string Src = "fn f(a) -> (r) {\n  r = 0;\n  stackalloc buf[4096] {\n";
  for (int I = 0; I != 24; ++I)
    Src += "  v" + std::to_string(I) + " = a + " + std::to_string(I) + ";\n";
  Src += "  i = 0;\n  while (i < 8) {\n";
  for (int I = 0; I != 24; ++I)
    Src += "    r = r + v" + std::to_string(I) + ";\n";
  Src += "    store4(buf + i * 4, r);\n    i = i + 1;\n  }\n";
  Src += "  r = r + load4(buf + 28);\n  }\n}\n";
  bedrock2::Program P = parseOrDie(Src);
  DiffResult R = diffCompilePure(P, "f", {5});
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.Source.ok());
}

TEST(Stress, ManyArgumentsAndResults) {
  bedrock2::Program P = parseOrDie(R"(
    fn g(a, b, c, d, e, f, gg, h) -> (r0, r1, r2, r3, r4, r5, r6, r7) {
      r0 = h; r1 = gg; r2 = f; r3 = e; r4 = d; r5 = c; r6 = b; r7 = a;
    }
    fn f(a, b) -> (r) {
      x0, x1, x2, x3, x4, x5, x6, x7 = g(a, b, a + b, a - b, a * b,
                                         a ^ b, a & b, a | b);
      r = x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7;
    }
  )");
  DiffResult R = diffCompilePure(P, "f", {100, 7});
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.Source.ok());
}

TEST(Stress, NinthArgumentIsRejected) {
  bedrock2::Program P = parseOrDie(R"(
    fn g(a1, a2, a3, a4, a5, a6, a7, a8, a9) -> (r) { r = a9; }
    fn f() -> (r) { r = g(1, 2, 3, 4, 5, 6, 7, 8, 9); }
  )");
  compiler::CompileResult C = compiler::compileProgram(
      P, compiler::CompilerOptions::o0(), compiler::Entry::singleCall("f"),
      64 * 1024);
  EXPECT_FALSE(C.ok());
}

TEST(Stress, DeepCallChainsAccumulateStack) {
  // A 10-deep call chain, each with its own buffer: the static stack
  // bound must cover the sum.
  std::string Src;
  for (int I = 9; I >= 0; --I) {
    Src += "fn f" + std::to_string(I) + "(a) -> (r) {\n";
    Src += "  stackalloc buf[256] { store4(buf, a); ";
    if (I == 9)
      Src += "r = load4(buf) + 1; }\n}\n";
    else
      Src += "t = f" + std::to_string(I + 1) +
             "(load4(buf)); r = t + 1; }\n}\n";
  }
  bedrock2::Program P = parseOrDie(Src);
  compiler::CompileResult C = compiler::compileProgram(
      P, compiler::CompilerOptions::o0(),
      compiler::Entry::singleCall("f0", {5}), 64 * 1024);
  ASSERT_TRUE(C.ok()) << C.Error;
  EXPECT_GE(C.Prog->MaxStackBytes, 10u * 256);
  DiffResult R = diffCompilePure(P, "f0", {5});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.MachineRets[0], 15u);
}

// -- Branch relaxation chains -----------------------------------------------------

TEST(Stress, RelaxationCascades) {
  // Branch A's target is barely in range until branch B (between A and
  // its target) is relaxed, forcing a second relaxation round.
  compiler::Asm A;
  compiler::Label FarA = A.newLabel();
  compiler::Label FarB = A.newLabel();
  // Branch A: needs ~4094 bytes of reach.
  A.emitBranch(isa::Opcode::Beq, isa::A0, isa::Zero, FarA);
  // Branch B sits just after and must itself be relaxed (target ~4 KiB
  // away), growing the code between A and FarA.
  A.emitBranch(isa::Opcode::Bne, isa::A1, isa::Zero, FarB);
  for (int I = 0; I != 1022; ++I)
    A.emit(isa::nop());
  A.bind(FarA); // At instruction 1024 without relaxation: exactly at edge.
  for (int I = 0; I != 2; ++I)
    A.emit(isa::nop());
  A.bind(FarB);
  A.emit(isa::nop());
  std::string Err;
  auto Code = A.finish(Err);
  ASSERT_TRUE(Code.has_value()) << Err;
  // Whatever the relaxation decisions, every branch/jump must be
  // encodable and land on the right instruction; encode() asserts
  // encodability internally.
  std::vector<uint8_t> Image = isa::instrencode(*Code);
  EXPECT_EQ(Image.size(), Code->size() * 4);
}

TEST(Stress, GiantFunctionCompilesAndRuns) {
  // ~6000 statements in one function: long-range branches inside while
  // loops must relax correctly end to end.
  std::string Src = "fn f(a) -> (r) {\n  r = a;\n";
  for (int I = 0; I != 1500; ++I)
    Src += "  if (r & 1) { r = r * 3 + 1; } else { r = r / 2; }\n";
  Src += "}\n";
  bedrock2::Program P = parseOrDie(Src);
  DiffOptions DO;
  DO.RamBytes = 256 * 1024;
  DiffResult R = diffCompilePure(P, "f", {27}, DO);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.Source.ok());
}

// -- Negative specification tests ---------------------------------------------------

TEST(SpecNegative, PipelinedSpiDriverViolatesGoodHlTrace) {
  // Section 7.2.1: "we would have needed to include this optimization in
  // the specification of the system behavior to support it." The
  // FIFO-pipelined driver produces a different MMIO shape, and the
  // unchanged goodHlTrace must *reject* it — evidence the spec is not
  // vacuously lax — while the physical lightbulb behavior stays correct.
  E2EOptions O;
  O.Firmware.SpiPipelining = true;
  O.Spi.FifoDepth = 8;
  E2EScenario S;
  S.Frames.push_back({2000, devices::buildCommandFrame(true), false});
  E2EResult R = runLightbulbEndToEnd(S, O);
  EXPECT_FALSE(R.PrefixAccepted);
  EXPECT_TRUE(R.GroundTruthOk) << R.Error;
  ASSERT_EQ(R.LightHistory.size(), 1u);
  EXPECT_TRUE(R.LightHistory[0]);
}

TEST(SpecNegative, BootSeqOrderMatters) {
  // Swapping two boot writes must be rejected by bootSeqSpec.
  bedrock2::Program P = app::buildFirmware();
  devices::Platform Plat;
  bedrock2::MmioExtSpec Ext(Plat, 64 * 1024);
  bedrock2::Interp I(P, Ext, 50'000'000);
  ASSERT_EQ(I.callFunction("lightbulb_init", {}).Rets[0], 0u);
  riscv::MmioTrace T = Ext.mmioTrace();
  // Find the final GPIO enable store and move it to the front.
  ASSERT_TRUE(T.back().IsStore);
  ASSERT_EQ(T.back().Addr, devices::GpioOutputEn);
  riscv::MmioTrace Swapped;
  Swapped.push_back(T.back());
  Swapped.insert(Swapped.end(), T.begin(), T.end() - 1);
  tracespec::Matcher M(app::bootSeqSpec());
  EXPECT_TRUE(M.matches(T));
  EXPECT_FALSE(M.matches(Swapped));
  EXPECT_FALSE(M.acceptsPrefix(Swapped));
}

TEST(SpecNegative, TamperedByteValueRejected) {
  // Corrupting the byte value of a boot-sequence store (the WRITE command
  // byte of a lan9250_writeword) must be rejected.
  bedrock2::Program P = app::buildFirmware();
  devices::Platform Plat;
  bedrock2::MmioExtSpec Ext(Plat, 64 * 1024);
  bedrock2::Interp I(P, Ext, 50'000'000);
  ASSERT_EQ(I.callFunction("lightbulb_init", {}).Rets[0], 0u);
  riscv::MmioTrace T = Ext.mmioTrace();
  // Flip one transmitted byte (an spi txdata store that carries 0x02).
  bool Flipped = false;
  for (riscv::MmioEvent &E : T) {
    if (E.IsStore && E.Addr == devices::SpiTxData && E.Value == 0x02) {
      E.Value = 0x03;
      Flipped = true;
      break;
    }
  }
  ASSERT_TRUE(Flipped);
  tracespec::Matcher M(app::bootSeqSpec());
  EXPECT_FALSE(M.matches(T));
}

TEST(SpecNegative, DroppedEventRejected) {
  // Deleting a single event from a matching boot trace must break it.
  bedrock2::Program P = app::buildFirmware();
  devices::Platform Plat;
  bedrock2::MmioExtSpec Ext(Plat, 64 * 1024);
  bedrock2::Interp I(P, Ext, 50'000'000);
  ASSERT_EQ(I.callFunction("lightbulb_init", {}).Rets[0], 0u);
  riscv::MmioTrace T = Ext.mmioTrace();
  riscv::MmioTrace Dropped(T.begin(), T.end() - 1);
  tracespec::Matcher M(app::bootSeqSpec());
  EXPECT_FALSE(M.matches(Dropped));
  // But it IS still a prefix (the paper's prefix-closure point).
  EXPECT_TRUE(M.acceptsPrefix(Dropped));
}

// -- Event-loop totality (section 5.2's invariant, executably) ---------------------

TEST(EventLoop, EveryIterationTerminates) {
  // The paper proves total correctness per iteration; here: across many
  // mixed iterations, each lightbulb_loop call returns within its fuel.
  bedrock2::Program P = app::buildFirmware();
  devices::Platform Plat;
  bedrock2::MmioExtSpec Ext(Plat, 64 * 1024);
  bedrock2::Interp I(P, Ext, 200'000'000);
  ASSERT_EQ(I.callFunction("lightbulb_init", {}).Rets[0], 0u);
  devices::PacketFuzzer Fuzz(99);
  for (int K = 0; K != 40; ++K) {
    if (K % 3 == 0) {
      auto G = Fuzz.next();
      Plat.injectNow(G.Frame, G.MarkErrored);
    }
    bedrock2::ExecResult R = I.callFunction("lightbulb_loop", {});
    ASSERT_TRUE(R.ok()) << "iteration " << K << ": "
                        << bedrock2::faultName(R.F) << " " << R.Detail;
  }
  tracespec::Matcher M(app::goodHlTrace());
  EXPECT_TRUE(M.acceptsPrefix(Ext.mmioTrace()));
}

// -- Whole-firmware print/parse round trip -------------------------------------

TEST(RoundTrip, FirmwarePrintsParsesAndRecompilesIdentically) {
  // The DSL-built firmware, pretty-printed to the concrete syntax,
  // reparsed, and recompiled, must produce the identical memory image —
  // printer, parser, and annotation handling all agree.
  bedrock2::Program P1 = app::buildFirmware();
  std::string Printed = bedrock2::toString(P1);
  bedrock2::ParseResult R = bedrock2::parseProgram(Printed);
  ASSERT_TRUE(R.ok()) << R.Error;
  compiler::CompileResult C1 = compiler::compileProgram(
      P1, compiler::CompilerOptions::o0(),
      compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
      64 * 1024);
  compiler::CompileResult C2 = compiler::compileProgram(
      *R.Prog, compiler::CompilerOptions::o0(),
      compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
      64 * 1024);
  ASSERT_TRUE(C1.ok() && C2.ok()) << C1.Error << C2.Error;
  EXPECT_EQ(C1.Prog->image(), C2.Prog->image());
  // And the reparsed firmware still satisfies its contracts end to end.
  devices::Platform Plat;
  bedrock2::MmioExtSpec Ext(Plat, 64 * 1024);
  bedrock2::Interp I(*R.Prog, Ext, 50'000'000);
  EXPECT_EQ(I.callFunction("lightbulb_init", {}).Rets[0], 0u);
  Plat.injectNow(devices::buildCommandFrame(true));
  EXPECT_EQ(I.callFunction("lightbulb_loop", {}).Rets[0], 0u);
  EXPECT_TRUE(Plat.gpio().lightbulbOn());
}

// -- Superblock engine: randomized differential fuzz ---------------------------
//
// The stress-tier counterpart of the BlockDiff adequacy column: seeded
// loopy machine-code kernels driven through ExecMode::Differential with
// randomized chunk boundaries. With no fault armed — or with plain
// simulator faults, which live in the shared semantic kernels
// (riscv/Exec.h) and so perturb the trace and the reference stepper
// identically — the lockstep must never diverge, and the final
// architectural state must match a pure reference run step for step.
// With the engine's own seeded discipline faults armed, it must diverge
// on every seed.

namespace {

struct LockstepOutcome {
  uint64_t Divergences = 0;
  std::string Detail;
  uint64_t Retired = 0;
  Word Pc = 0;
  std::vector<Word> Regs;
};

/// Runs \p P for exactly \p MaxSteps retirements (the programs park in a
/// jal spin, so the budget is always consumed unless the lockstep breaks)
/// under the Differential engine, in chunks of \p Chunk.
LockstepOutcome runLockstep(const std::vector<isa::Instr> &P,
                            uint64_t MaxSteps, uint64_t Chunk) {
  LockstepOutcome Out;
  std::vector<uint8_t> Image = isa::instrencode(P);
  riscv::Machine M(64 * 1024);
  M.loadImage(0, Image);
  riscv::NoDevice Dev;
  riscv::BlockEngine E(M, Dev, riscv::ExecMode::Differential);
  uint64_t Done = 0;
  while (Done < MaxSteps && !M.hasUb() && E.divergences() == 0) {
    uint64_t R = E.run(std::min<uint64_t>(Chunk, MaxSteps - Done));
    Done += R;
    if (R == 0)
      break;
  }
  Out.Divergences = E.divergences();
  Out.Detail = E.divergenceDetail();
  Out.Retired = M.retiredInstructions();
  Out.Pc = M.getPc();
  for (unsigned R = 0; R != 32; ++R)
    Out.Regs.push_back(M.getReg(R));
  return Out;
}

/// The same program under the plain reference stepper, same step budget.
LockstepOutcome runReference(const std::vector<isa::Instr> &P,
                             uint64_t MaxSteps) {
  LockstepOutcome Out;
  std::vector<uint8_t> Image = isa::instrencode(P);
  riscv::Machine M(64 * 1024);
  M.loadImage(0, Image);
  riscv::NoDevice Dev;
  riscv::run(M, Dev, MaxSteps);
  Out.Retired = M.retiredInstructions();
  Out.Pc = M.getPc();
  for (unsigned R = 0; R != 32; ++R)
    Out.Regs.push_back(M.getReg(R));
  return Out;
}

/// A seeded counted loop whose body is a random ALU/memory chain: every
/// program goes hot, translates, fuses its trailing addi/bne counter,
/// and links blocks; memory traffic stays inside an aligned RAM buffer.
std::vector<isa::Instr> loopyProgram(support::Rng &R) {
  using namespace b2::isa;
  std::vector<Instr> P;
  const SWord Trip = SWord(R.range(60, 300));
  P.push_back(addi(A0, Zero, 0));                      // Induction var.
  P.push_back(addi(A1, Zero, Trip));                   // Bound.
  P.push_back(addi(A2, Zero, 0x400));                  // Buffer base.
  P.push_back(addi(A3, Zero, SWord(R.range(1, 99)))); // Accumulator.
  const size_t Head = P.size();
  const unsigned Body = unsigned(R.range(2, 6));
  for (unsigned I = 0; I != Body; ++I) {
    switch (R.below(6)) {
    case 0:
      P.push_back(mkR(Opcode::Add, A3, A3, A0));
      break;
    case 1:
      P.push_back(mkR(Opcode::Xor, A3, A3, A1));
      break;
    case 2:
      P.push_back(mkI(Opcode::Srai, A3, A3, SWord(R.range(1, 7))));
      break;
    case 3:
      P.push_back(sw(A2, A3, SWord(4 * R.below(4))));
      break;
    case 4:
      P.push_back(lw(A4, A2, SWord(4 * R.below(4))));
      break;
    default:
      P.push_back(mkR(Opcode::Sltu, A4, A1, A3));
      break;
    }
  }
  P.push_back(addi(A0, A0, 1));
  P.push_back(mkB(Opcode::Bne, A0, A1,
                  -SWord(4 * (P.size() - Head)))); // Back to the head.
  P.push_back(jal(Zero, 0));                       // Park.
  return P;
}

} // namespace

TEST(BlockEngineFuzz, RandomLoopKernelsStayInLockstep) {
  support::Rng R(0x5EED5);
  for (unsigned Trial = 0; Trial != 12; ++Trial) {
    std::vector<isa::Instr> P = loopyProgram(R);
    const uint64_t Chunk = R.range(13, 257);
    LockstepOutcome D = runLockstep(P, 8000, Chunk);
    EXPECT_EQ(D.Divergences, 0u)
        << "trial " << Trial << " chunk " << Chunk << ": " << D.Detail;
    LockstepOutcome Ref = runReference(P, 8000);
    EXPECT_EQ(D.Retired, Ref.Retired) << "trial " << Trial;
    EXPECT_EQ(D.Pc, Ref.Pc) << "trial " << Trial;
    EXPECT_EQ(D.Regs, Ref.Regs) << "trial " << Trial;
  }
}

TEST(BlockEngineFuzz, LockstepHoldsUnderSimulatorFaultPlans) {
  // Simulator faults are seeded into the shared kernels, so an armed
  // plan bends both engines the same way: consistent wrongness, never a
  // divergence. (The engine's own faults are the designed exception,
  // covered below.)
  const fi::Fault Plans[] = {
      fi::Fault::SimSraLogicalShift,
      fi::Fault::SimBranchLtAsGe,
      fi::Fault::SimStoreKeepsXAddrs,
  };
  support::Rng R(0xFA0175);
  for (unsigned Trial = 0; Trial != 8; ++Trial) {
    std::vector<isa::Instr> P = loopyProgram(R);
    const uint64_t Chunk = R.range(13, 257);
    const fi::Fault F = Plans[Trial % (sizeof(Plans) / sizeof(Plans[0]))];
    fi::FaultPlan Plan = fi::FaultPlan::single(F);
    fi::FaultScope Scope(Plan);
    LockstepOutcome D = runLockstep(P, 8000, Chunk);
    EXPECT_EQ(D.Divergences, 0u)
        << "trial " << Trial << " fault " << unsigned(F) << ": " << D.Detail;
  }
}

TEST(BlockEngineFuzz, FusedClobberFaultDivergesOnEverySeed) {
  // Randomized trip counts around the adequacy stimulus shape: a hot
  // counter loop whose fused addi/bne pair the fault perturbs. Every
  // seed must diverge once the block goes hot.
  using namespace b2::isa;
  fi::FaultPlan Plan = fi::FaultPlan::single(fi::Fault::SimBlockFusedClobber);
  support::Rng R(0xC10BBE4);
  for (unsigned Trial = 0; Trial != 6; ++Trial) {
    std::vector<Instr> P;
    P.push_back(addi(A0, Zero, 0));
    P.push_back(addi(A1, Zero, SWord(R.range(100, 500))));
    P.push_back(addi(A0, A0, 1));
    P.push_back(mkB(Opcode::Bne, A0, A1, -4));
    P.push_back(jal(Zero, 0));
    fi::FaultScope Scope(Plan);
    // A trace only runs when its full-pass retirement count fits the
    // remaining step budget; chunks of 72 to 256 steps leave room for
    // many passes of the two-instruction loop, so the seeded trace fault
    // fires once the block goes hot.
    LockstepOutcome D = runLockstep(P, 20'000, R.range(72, 257));
    EXPECT_GT(D.Divergences, 0u) << "trial " << Trial;
    EXPECT_FALSE(D.Detail.empty());
  }
}

TEST(BlockEngineFuzz, StaleSuperblockFaultDivergesOnEverySeed) {
  // Randomized pass counts on the patch-refetch shape: heat the loop,
  // patch its victim word, re-enter. The reference stepper faults at
  // the revoked word; the stale superblock sails past it.
  using namespace b2::isa;
  fi::FaultPlan Plan =
      fi::FaultPlan::single(fi::Fault::SimBlockStaleSuperblock);
  support::Rng R(0x57A1E);
  for (unsigned Trial = 0; Trial != 6; ++Trial) {
    std::vector<Instr> P;
    Word NewWord = encode(addi(A0, A0, 2));
    materialize(NewWord, A4, P); // 2 instructions.
    P.push_back(addi(A5, Zero, 0));
    P.push_back(addi(A5, A5, 1)); // Loop head (address 12).
    P.push_back(addi(A0, A0, 1)); // The victim (address 16).
    P.push_back(addi(A6, Zero, SWord(R.range(20, 60))));
    P.push_back(mkB(Opcode::Blt, A5, A6, -12));
    P.push_back(sw(Zero, A4, 16)); // Patch the victim.
    P.push_back(jal(Zero, -24));   // Re-enter at the reset.
    fi::FaultScope Scope(Plan);
    // Chunks above the 64-instruction superblock weight, as above.
    LockstepOutcome D = runLockstep(P, 20'000, R.range(72, 257));
    EXPECT_GT(D.Divergences, 0u) << "trial " << Trial;
    EXPECT_FALSE(D.Detail.empty());
  }
}
