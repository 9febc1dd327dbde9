//===- tests/test_verify.cpp - Verification-harness tests ----------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/DecodeConsistency.h"
#include "verify/Lockstep.h"
#include "verify/Refinement.h"

#include "bedrock2/Parser.h"
#include "compiler/Compile.h"
#include "devices/Platform.h"
#include "isa/Build.h"
#include "isa/Encoding.h"
#include "support/Rng.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

using namespace b2;
using namespace b2::verify;

namespace {

DeviceFactory noDevice() {
  return [] { return std::make_unique<riscv::NoDevice>(); };
}

DeviceFactory platformDevice() {
  return [] { return std::make_unique<devices::Platform>(); };
}

std::vector<uint8_t> compileImage(const char *Src, const std::string &Fn,
                                  std::vector<Word> Args, Word &HaltPc) {
  bedrock2::ParseResult R = bedrock2::parseProgram(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  compiler::CompileResult C = compiler::compileProgram(
      *R.Prog, compiler::CompilerOptions::o0(),
      compiler::Entry::singleCall(Fn, std::move(Args)), 64 * 1024);
  EXPECT_TRUE(C.ok()) << C.Error;
  HaltPc = C.Prog->HaltPc;
  return C.Prog->image();
}

} // namespace

TEST(DecodeConsistency, AgreesOnCanonicalInstructions) {
  std::string Error;
  EXPECT_TRUE(decodeAgrees(0x00000013, Error)) << Error; // nop
  EXPECT_TRUE(decodeAgrees(0x00C58533, Error)) << Error; // add
  EXPECT_TRUE(decodeAgrees(0xFFC50513, Error)) << Error; // addi -4
  EXPECT_TRUE(decodeAgrees(0x00000073, Error)) << Error; // ecall
  EXPECT_TRUE(decodeAgrees(0xFFFFFFFF, Error)) << Error; // illegal both
}

TEST(DecodeConsistency, SweepFindsNoDisagreement) {
  // The paper found real specification bugs this way (section 5.5); this
  // repository's two decoders must agree everywhere.
  std::string Report;
  uint64_t Bad = sweepDecodeConsistency(/*Samples=*/100000, /*Seed=*/7,
                                        Report);
  EXPECT_EQ(Bad, 0u) << Report;
}

TEST(DecodeConsistency, ExecAgreesOnEdgeOperands) {
  std::string Error;
  // sra with sign bit, div overflow, shifts by >= 32.
  Word Sra = isa::encode(isa::mkR(isa::Opcode::Sra, isa::A0, isa::A1,
                                  isa::A2));
  EXPECT_TRUE(execAgrees(Sra, 0x80000000, 31, Error)) << Error;
  EXPECT_TRUE(execAgrees(Sra, 0x80000000, 0, Error)) << Error;
  EXPECT_TRUE(execAgrees(Sra, 0x80000000, 32, Error)) << Error;
  Word Div = isa::encode(isa::mkR(isa::Opcode::Div, isa::A0, isa::A1,
                                  isa::A2));
  EXPECT_TRUE(execAgrees(Div, 0x80000000, Word(-1), Error)) << Error;
  EXPECT_TRUE(execAgrees(Div, 5, 0, Error)) << Error;
}

TEST(Lockstep, StraightLineProgram) {
  Word HaltPc;
  std::vector<uint8_t> Image = compileImage(
      "fn f(a) -> (r) { r = a * 3 + 7; }", "f", {5}, HaltPc);
  LockstepOptions O;
  LockstepResult R = lockstep(Image, HaltPc, noDevice(), O);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.SimulatorHitUb);
  EXPECT_GT(R.Retired, 5u);
}

TEST(Lockstep, LoopsAndMemory) {
  Word HaltPc;
  std::vector<uint8_t> Image = compileImage(R"(
    fn f() -> (r) {
      stackalloc buf[64] {
        i = 0;
        while (i < 16) { store4(buf + i * 4, i * i); i = i + 1; }
        r = load4(buf + 60);
      }
    }
  )", "f", {}, HaltPc);
  LockstepOptions O;
  O.MemoryCheckEvery = 64;
  LockstepResult R = lockstep(Image, HaltPc, noDevice(), O);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(Lockstep, MmioProgramKeepsTracesEqual) {
  Word HaltPc;
  std::vector<uint8_t> Image = compileImage(R"(
    fn f() -> (r) {
      extern MMIOWRITE(0x10012008, 0x800000);
      extern MMIOWRITE(0x1001200C, 0x800000);
      r = extern MMIOREAD(0x1001200C);
    }
  )", "f", {}, HaltPc);
  LockstepOptions O;
  LockstepResult R = lockstep(Image, HaltPc, platformDevice(), O);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(Lockstep, RandomProgramsStayRelated) {
  for (uint64_t Seed = 300; Seed <= 320; ++Seed) {
    b2::testing::RandomProgramGen Gen(Seed);
    bedrock2::Program P = Gen.generate();
    compiler::CompileResult C = compiler::compileProgram(
        P, compiler::CompilerOptions::o0(),
        compiler::Entry::singleCall("main", {Word(Seed & 0xFF), 3}),
        64 * 1024);
    ASSERT_TRUE(C.ok()) << C.Error;
    LockstepOptions O;
    O.MemoryCheckEvery = 4096;
    LockstepResult R = lockstep(C.Prog->image(), C.Prog->HaltPc,
                                noDevice(), O);
    ASSERT_TRUE(R.Ok) << "seed " << Seed << ": " << R.Error;
  }
}

TEST(Lockstep, StopsCleanlyAtSimulatorUb) {
  // A program that executes an illegal instruction: the simulator flags
  // UB and the lockstep check is vacuous beyond that point.
  std::vector<isa::Instr> P = {isa::addi(isa::A0, isa::Zero, 1)};
  std::vector<uint8_t> Image = isa::instrencode(P);
  Image.push_back(0xFF); // Garbage word next.
  Image.push_back(0xFF);
  Image.push_back(0xFF);
  Image.push_back(0xFF);
  LockstepOptions O;
  LockstepResult R = lockstep(Image, /*HaltPc=*/~Word(0), noDevice(), O);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.SimulatorHitUb);
  EXPECT_EQ(R.Ub, riscv::UbKind::InvalidInstruction);
}

// Lockstep's mismatch reports: each seeded fault below must be reported
// with the first differing address and the exact text.

namespace {

LockstepResult lockstepArmed(fi::Fault F, const std::vector<isa::Instr> &P,
                             Word HaltPc, LockstepOptions O = {}) {
  fi::FaultPlan Plan = fi::FaultPlan::single(F);
  fi::FaultScope Scope(Plan);
  return lockstep(isa::instrencode(P), HaltPc, noDevice(), O);
}

/// Stores 0x11223344 to 0xFFF0, in the last XAddrs block of a 64 KiB
/// RAM, then the byte 0x5A over its low byte.
std::vector<isa::Instr> subwordStoreProgram() {
  using namespace isa;
  std::vector<Instr> P;
  materialize(0x11223344, A1, P);
  materialize(0xFFF0, A3, P);
  P.push_back(sw(A3, A1, 0));
  P.push_back(addi(A2, Zero, 0x5A));
  P.push_back(mkS(Opcode::Sb, A3, A2, 0));
  return P;
}

/// One instruction at 0, halting at 4, with an instruction word at
/// \p Addr (never reached) and nops in between.
std::vector<isa::Instr> codeAt(Word Addr) {
  std::vector<isa::Instr> P = {isa::addi(isa::A0, isa::Zero, 1)};
  P.resize(Addr / 4, isa::nop());
  P.push_back(isa::addi(isa::A0, isa::A0, 1));
  return P;
}

} // namespace

TEST(Lockstep, WrongByteEnableNamesTheFirstDifferingWord) {
  std::vector<isa::Instr> P = subwordStoreProgram();
  Word Halt = Word(P.size() * 4);
  LockstepResult R =
      lockstepArmed(fi::Fault::KamiMemWrongByteEnable, P, Halt);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "memory word at 0x0000fff0 differs: sim 0x1122335a vs "
                     "core 0x0000005a");
  // The periodic check reports the same word, after the sb retires.
  LockstepOptions O;
  O.MemoryCheckEvery = 1;
  R = lockstepArmed(fi::Fault::KamiMemWrongByteEnable, P, Halt, O);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "after 7 retirements: memory word at 0x0000fff0 "
                     "differs: sim 0x1122335a vs core 0x0000005a");
}

TEST(Lockstep, TruncatedIcacheFillNamesTheFirstStaleAddress) {
  // The fill stops at the middle of the 64 KiB RAM.
  LockstepResult R =
      lockstepArmed(fi::Fault::KamiIcacheFillTruncated, codeAt(0x8000), 4);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "icache stale at executable address 0x00008000");
  // A 32-byte RAM is half an XAddrs block; its fill stops at 16.
  LockstepOptions O;
  O.RamBytes = 32;
  R = lockstepArmed(fi::Fault::KamiIcacheFillTruncated, codeAt(16), 4, O);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "icache stale at executable address 0x00000010");
  // The same with a store making bytes 28..31 data: a mixed block.
  std::vector<isa::Instr> P = codeAt(16);
  P.front() = isa::sw(isa::Zero, isa::Zero, 28);
  R = lockstepArmed(fi::Fault::KamiIcacheFillTruncated, P, 4, O);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "icache stale at executable address 0x00000010");
}

TEST(Lockstep, StoreKeepingXAddrsIsCaught) {
  // The stored word stays executable, but the I$ still holds the reset
  // copy of it.
  std::vector<isa::Instr> P = subwordStoreProgram();
  LockstepResult R = lockstepArmed(fi::Fault::SimStoreKeepsXAddrs, P,
                                   Word(P.size() * 4));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "icache stale at executable address 0x0000fff0");
}

TEST(Lockstep, RamSmallerThanOneXAddrsBlock) {
  using namespace isa;
  LockstepOptions O;
  O.RamBytes = 32;
  O.MemoryCheckEvery = 1;
  // Code only: the block's RAM part stays wholly executable.
  std::vector<Instr> P = {addi(A0, Zero, 5), addi(A1, A0, 3)};
  LockstepResult R = lockstep(instrencode(P), 8, noDevice(), O);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.SimulatorHitUb);
  EXPECT_EQ(R.Retired, 2u);
  // A store into the tail leaves a block of mixed code and data.
  P.push_back(sw(Zero, A1, 28));
  P.push_back(mkS(Opcode::Sb, Zero, A0, 21));
  R = lockstep(instrencode(P), 16, noDevice(), O);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.SimulatorHitUb);
  EXPECT_EQ(R.Retired, 4u);
}

// CompilerDiff compiles the source's bytecode once and shares it across
// the stackalloc salts; every result must equal that of separate
// interpreters, each compiling its own bytecode.
TEST(CompilerDiff, SharedBytecodeMatchesPerSaltCompiles) {
  for (bedrock2::ExecMode Mode :
       {bedrock2::ExecMode::Fast, bedrock2::ExecMode::Differential}) {
    for (uint64_t Seed = 300; Seed <= 330; ++Seed) {
      b2::testing::RandomProgramGen Gen(Seed);
      bedrock2::Program P = Gen.generate();
      std::vector<Word> Args = {Word(Seed & 0xFF), 3};
      DiffOptions O;
      O.SourceMode = Mode;
      DiffResult D = diffCompilePure(P, "main", Args, O);
      ASSERT_TRUE(D.Ok) << "seed " << Seed << ": " << D.Error;

      for (size_t S = 0; S != O.StackallocSalts.size(); ++S) {
        riscv::NoDevice Dev;
        bedrock2::MmioExtSpec Ext(Dev, O.RamBytes);
        bedrock2::StackallocPolicy Policy;
        Policy.Salt = O.StackallocSalts[S];
        bedrock2::Interp I(P, Ext, O.SourceFuel, Policy, Mode);
        bedrock2::ExecResult Src = I.callFunction("main", Args);
        EXPECT_EQ(I.divergenceCount(), 0u) << I.divergence();
        EXPECT_EQ(Src.Rets, D.Source.Rets) << "seed " << Seed;
        EXPECT_EQ(Ext.mmioTrace(), D.SourceTrace) << "seed " << Seed;
        if (S + 1 == O.StackallocSalts.size()) {
          EXPECT_EQ(Src.F, D.Source.F) << "seed " << Seed;
          EXPECT_EQ(Src.Detail, D.Source.Detail) << "seed " << Seed;
          EXPECT_EQ(Src.StepsUsed, D.Source.StepsUsed) << "seed " << Seed;
          EXPECT_EQ(Src.DivByZeroCount, D.Source.DivByZeroCount)
              << "seed " << Seed;
          EXPECT_TRUE(Src.Trace == D.Source.Trace) << "seed " << Seed;
        }
      }
    }
  }
}

TEST(Refinement, RandomInstructionSoup) {
  // Refinement holds for arbitrary programs — the Kami level has no UB.
  support::Rng Rng(0xFEED);
  for (int Trial = 0; Trial != 15; ++Trial) {
    std::vector<uint8_t> Image;
    for (int I = 0; I != 256; ++I) {
      Word W = Rng.flip() ? Rng.next32()
                          : isa::encode(isa::addi(
                                isa::Reg(8 + Rng.below(16)),
                                isa::Reg(8 + Rng.below(16)),
                                SWord(Rng.below(1024))));
      for (int B = 0; B != 4; ++B)
        Image.push_back(uint8_t(W >> (8 * B)));
    }
    RefinementOptions O;
    O.Retirements = 2000;
    RefinementResult R = checkRefinement(Image, platformDevice(), O);
    ASSERT_TRUE(R.Ok) << "trial " << Trial << ": " << R.Error;
  }
}

TEST(Refinement, SelfModifyingCodeStillRefines) {
  // Both models fetch from the reset snapshot, so self-modifying code
  // behaves identically (stale) on both.
  std::vector<isa::Instr> P = {
      isa::addi(isa::A0, isa::Zero, 0x55),
      isa::sw(isa::Zero, isa::A0, 12),
      isa::nop(),
      isa::addi(isa::A1, isa::Zero, 7), // Overwritten in memory, stale in I$.
      isa::jal(isa::Zero, 0),
  };
  RefinementOptions O;
  O.Retirements = 100;
  RefinementResult R =
      checkRefinement(isa::instrencode(P), noDevice(), O);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(Refinement, PipelineConfigurationsAllRefine) {
  Word HaltPc;
  std::vector<uint8_t> Image = compileImage(R"(
    fn f() -> (r) {
      r = 0; i = 0;
      while (i < 50) { r = r + i * i; i = i + 1; }
    }
  )", "f", {}, HaltPc);
  for (bool Btb : {false, true}) {
    for (unsigned Fill : {0u, 4u}) {
      RefinementOptions O;
      O.Pipe.UseBtb = Btb;
      O.Pipe.ICacheFillWordsPerCycle = Fill;
      O.Retirements = 3000;
      RefinementResult R = checkRefinement(Image, noDevice(), O);
      EXPECT_TRUE(R.Ok) << "btb=" << Btb << " fill=" << Fill << ": "
                        << R.Error;
    }
  }
}

TEST(Refinement, PipelineIsSlowerThanSpecInCycles) {
  Word HaltPc;
  std::vector<uint8_t> Image = compileImage(
      "fn f() -> (r) { r = 0; i = 0; while (i < 100) { r = r + i; i = i + 1; } }",
      "f", {}, HaltPc);
  RefinementOptions O;
  O.Retirements = 2000;
  RefinementResult R = checkRefinement(Image, noDevice(), O);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.PipelineCycles, R.SpecCycles);
}
