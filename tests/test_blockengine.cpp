//===- tests/test_blockengine.cpp - Superblock trace engine tests ----------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The superblock engine is a second execution semantics for the RISC-V
// machine; these tests pin it to the reference stepper: identical
// architectural outcomes on hot loops, fused idioms, MMIO polling,
// self-modifying code, arbitrary step budgets, and snapshot/restore —
// plus the lockstep mode's ability to notice when the two tiers are
// *deliberately* driven apart by the seeded sim-block faults.
//
//===----------------------------------------------------------------------===//

#include "riscv/BlockEngine.h"
#include "riscv/Machine.h"
#include "riscv/Step.h"

#include "compiler/Compile.h"
#include "isa/Build.h"
#include "isa/Encoding.h"
#include "support/Word.h"
#include "verify/FaultInjection.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

#include <cassert>

using namespace b2;
using namespace b2::isa;
using namespace b2::riscv;

namespace {

Machine machineWith(const std::vector<Instr> &Program, Word Ram = 4096) {
  Machine M(Ram);
  M.loadImage(0, instrencode(Program));
  return M;
}

/// MMIO device for polling loops: returns 0 for the first \p ZeroLoads
/// word loads, then \p Ready forever. Stores are recorded by count.
class PollDevice final : public MmioDevice {
public:
  Word Base = 0x10000000;
  unsigned ZeroLoads = 100;
  Word Ready = 7;
  unsigned Loads = 0;
  unsigned Stores = 0;

  bool isMmio(Word Addr, unsigned) const override {
    return Addr >= Base && Addr < Base + 0x1000;
  }
  Word load(Word, unsigned) override {
    return Loads++ < ZeroLoads ? 0 : Ready;
  }
  void store(Word, unsigned, Word) override { ++Stores; }
};

void expectSameArchState(const Machine &A, const Machine &B) {
  EXPECT_EQ(A.getPc(), B.getPc());
  EXPECT_EQ(A.ubKind(), B.ubKind());
  EXPECT_EQ(A.ubDetail(), B.ubDetail());
  EXPECT_EQ(A.retiredInstructions(), B.retiredInstructions());
  for (unsigned R = 0; R != 32; ++R)
    EXPECT_EQ(A.getReg(R), B.getReg(R)) << "register x" << R;
  EXPECT_TRUE(A.trace() == B.trace()) << "MMIO traces differ";
  ASSERT_EQ(A.ramSize(), B.ramSize());
  for (Word Addr = 0; Addr != A.ramSize(); ++Addr)
    ASSERT_EQ(A.readByte(Addr), B.readByte(Addr)) << "RAM byte " << Addr;
}

/// i = 0; do { i++; } while (i != N); then spin. The loop body is the
/// addi/bne counter idiom the engine fuses.
std::vector<Instr> counterLoop(SWord N) {
  // One instruction sets the bound, so the loop head stays at pc 8: addi
  // when N fits its 12-bit immediate, else lui (N a multiple of 4096).
  assert(support::fitsSigned(N, 12) || N % 4096 == 0);
  return {
      addi(A0, Zero, 0),
      support::fitsSigned(N, 12) ? addi(A1, Zero, N) : lui(A1, N),
      addi(A0, A0, 1),             // pc 8: loop head.
      mkB(Opcode::Bne, A0, A1, -4),
      jal(Zero, 0),                // pc 16: halt spin.
  };
}

/// Copies 64 words from 0x400 to 0x600 with an lw/sw pair, then spins.
/// The pointer bumps fuse as addi/addi, the counter as addi/bne.
std::vector<Instr> copyLoop() {
  return {
      addi(A0, Zero, 0x400),
      addi(A1, Zero, 0x600),
      addi(A2, Zero, 64),
      lw(A3, A0, 0),               // pc 12: loop head.
      sw(A1, A3, 0),
      addi(A0, A0, 4),
      addi(A1, A1, 4),
      addi(A2, A2, -1),            // Fuses with the bne.
      mkB(Opcode::Bne, A2, Zero, -20),
      jal(Zero, 0),                // pc 36: halt spin.
  };
}

/// A decrementing store sweep that eventually overwrites its own loop
/// body: sw hits 0x200, 0x1FC, ... and finally the code itself, so the
/// run ends in FetchNotExecutable — stale-trace handling on the very
/// block that is executing.
std::vector<Instr> selfOverwritingSweep() {
  return {
      addi(A0, Zero, 0x200),
      sw(A0, Zero, 0),             // pc 4: loop head.
      addi(A1, Zero, 7),
      addi(A0, A0, -4),
      jal(Zero, -12),              // pc 16: back to pc 4.
  };
}

/// Runs \p Program on a fresh machine under \p Mode for \p Steps.
struct EngineRun {
  Machine M;
  BlockEngineStats Stats;
  uint64_t Divergences = 0;
  std::string Detail;
};

EngineRun runWith(const std::vector<Instr> &Program, ExecMode Mode,
                  uint64_t Steps, MmioDevice &Dev, Word Ram = 4096,
                  uint64_t Chunk = 0) {
  EngineRun R{machineWith(Program, Ram), {}, 0, {}};
  BlockEngine E(R.M, Dev, Mode);
  if (Chunk == 0)
    Chunk = Steps;
  for (uint64_t Done = 0; Done < Steps;) {
    uint64_t N = E.run(std::min(Chunk, Steps - Done));
    Done += N;
    if (N == 0)
      break;
  }
  R.Stats = E.stats();
  R.Divergences = E.divergences();
  R.Detail = E.divergenceDetail();
  return R;
}

} // namespace

TEST(BlockEngine, HotCounterLoopMatchesReference) {
  NoDevice D1, D2;
  EngineRun Ref = runWith(counterLoop(400), ExecMode::Reference, 900, D1);
  EngineRun Blk = runWith(counterLoop(400), ExecMode::Block, 900, D2);
  EXPECT_FALSE(Blk.M.hasUb());
  expectSameArchState(Blk.M, Ref.M);
  // The loop must actually run hot, through the fused addi/bne micro-op.
  EXPECT_GE(Blk.Stats.BlocksTranslated, 1u);
  EXPECT_GT(Blk.Stats.FusedRetired, 0u);
  EXPECT_GT(Blk.Stats.TraceInstrs, Blk.Stats.ColdInstrs);
}

TEST(BlockEngine, CopyLoopMatchesReferenceThroughFusedPairs) {
  NoDevice D1, D2;
  auto Seed = [](Machine &M) {
    for (Word I = 0; I != 64; ++I)
      M.writeRam(0x400 + 4 * I, 4, 0xBEEF0000 + I);
  };
  Machine Ref = machineWith(copyLoop());
  Machine Blk = machineWith(copyLoop());
  Seed(Ref);
  Seed(Blk);
  riscv::run(Ref, D1, 500);
  BlockEngine E(Blk, D2, ExecMode::Block);
  E.run(500);
  expectSameArchState(Blk, Ref);
  EXPECT_EQ(Blk.readRam(0x600 + 4 * 63, 4), 0xBEEF0000u + 63u);
  // The addi/addi pointer bumps and the addi/bne counter fuse in this
  // loop; the lw/sw pair runs as LoadW/StoreW.
  EXPECT_GT(E.stats().FusedRetired, 64u);
}

TEST(BlockEngine, MmioPollingLoopRunsInTrace) {
  std::vector<Instr> Poll = {
      lui(A0, SWord(0x10000000)),
      lw(A1, A0, 0),               // pc 4: loop head, MMIO load.
      mkB(Opcode::Beq, A1, Zero, -4),
      sw(A0, A1, 4),               // MMIO store of the ready value.
      jal(Zero, 0),
  };
  PollDevice D1, D2;
  EngineRun Ref = runWith(Poll, ExecMode::Reference, 250, D1);
  EngineRun Blk = runWith(Poll, ExecMode::Block, 250, D2);
  EXPECT_FALSE(Blk.M.hasUb());
  expectSameArchState(Blk.M, Ref.M);
  EXPECT_EQ(D2.Loads, D1.Loads);
  EXPECT_EQ(D2.Stores, 1u);
  // The guarded word-MMIO fast path must have handled polls in-trace.
  EXPECT_GT(Blk.Stats.MmioInline, 0u);
}

TEST(BlockEngine, BudgetExactnessAcrossChunkSizes) {
  // The engine's retirement schedule must be indistinguishable from
  // riscv::run for every budget — blocks may only be entered when they
  // fit, with the stepper finishing ragged chunk tails.
  for (uint64_t Budget : {1u, 2u, 7u, 16u, 17u, 63u, 100u, 333u, 500u}) {
    NoDevice D1, D2;
    EngineRun Ref = runWith(counterLoop(200), ExecMode::Reference, Budget, D1);
    EngineRun Blk = runWith(counterLoop(200), ExecMode::Block, Budget, D2);
    EXPECT_EQ(Blk.M.retiredInstructions(), Budget) << "budget " << Budget;
    expectSameArchState(Blk.M, Ref.M);
  }
  // Chunked delivery of the same total must also land bit-identically.
  NoDevice D3, D4;
  EngineRun Whole = runWith(counterLoop(200), ExecMode::Block, 450, D3);
  EngineRun Chunked =
      runWith(counterLoop(200), ExecMode::Block, 450, D4, 4096, 13);
  expectSameArchState(Chunked.M, Whole.M);
}

TEST(BlockEngine, HostPokeStraddlingWordBoundaryKillsBlocks) {
  // A host-level write straddling a word boundary must invalidate every
  // superblock covering *either* word. The poke rewrites the bne's low
  // half and the halt word's low half; XAddrs stays intact, so the
  // engine must refetch and see the same (invalid) bytes the stepper
  // sees — a stale trace would instead keep looping.
  NoDevice D1, D2;
  Machine Ref = machineWith(counterLoop(4096));
  Machine Blk = machineWith(counterLoop(4096));
  BlockEngine E(Blk, D2, ExecMode::Block);
  riscv::run(Ref, D1, 500);
  E.run(500); // Loop is hot and mid-flight (i < 4096).
  EXPECT_GE(E.stats().BlocksTranslated, 1u);
  Ref.writeRam(14, 4, 0xFFFFFFFF); // Straddles words at pc 12 and pc 16.
  Blk.writeRam(14, 4, 0xFFFFFFFF);
  riscv::run(Ref, D1, 500);
  E.run(500);
  EXPECT_EQ(Blk.ubKind(), UbKind::InvalidInstruction);
  expectSameArchState(Blk, Ref);
}

TEST(BlockEngine, XAddrsRemovalSpanKillsBlocks) {
  // Same shape through the ISA-visible path: a removal span over the
  // loop body must kill the covering superblock and surface the
  // FetchNotExecutable verdict, exactly like the stepper.
  NoDevice D1, D2;
  Machine Ref = machineWith(counterLoop(4096));
  Machine Blk = machineWith(counterLoop(4096));
  BlockEngine E(Blk, D2, ExecMode::Block);
  riscv::run(Ref, D1, 500);
  E.run(500);
  Ref.removeXAddrs(10, 4); // Straddles the loop-head and bne words.
  Blk.removeXAddrs(10, 4);
  riscv::run(Ref, D1, 500);
  E.run(500);
  EXPECT_EQ(Blk.ubKind(), UbKind::FetchNotExecutable);
  expectSameArchState(Blk, Ref);
}

TEST(BlockEngine, MidTraceInvalidationDuringLinkedExecution) {
  // The sweeping store eventually lands inside the very trace being
  // executed: the store must commit, the trace must stop before running
  // any stale tail op, and the stepper must deliver the final verdict.
  NoDevice D1, D2;
  EngineRun Ref = runWith(selfOverwritingSweep(), ExecMode::Reference,
                          100'000, D1);
  EngineRun Blk = runWith(selfOverwritingSweep(), ExecMode::Block,
                          100'000, D2);
  EXPECT_EQ(Blk.M.ubKind(), UbKind::FetchNotExecutable);
  expectSameArchState(Blk.M, Ref.M);
  EXPECT_GE(Blk.Stats.BlocksKilled, 1u);
}

TEST(BlockEngine, CallReturnChainsThroughJalrCache) {
  // call/return pairs: jal terminators link directly; the jalr return
  // goes through the monomorphic indirect-target cache.
  std::vector<Instr> P = {
      addi(A0, Zero, 0),
      addi(A1, Zero, 300),
      jal(RA, 12),                 // pc 8: call f (pc 20).
      mkB(Opcode::Bne, A0, A1, -4),
      jal(Zero, 0),                // pc 16: halt spin.
      addi(A0, A0, 1),             // pc 20: f.
      jalr(Zero, RA, 0),           // pc 24: return.
  };
  NoDevice D1, D2;
  EngineRun Ref = runWith(P, ExecMode::Reference, 1100, D1);
  EngineRun Blk = runWith(P, ExecMode::Block, 1100, D2);
  expectSameArchState(Blk.M, Ref.M);
  EXPECT_GE(Blk.Stats.BlocksTranslated, 2u);
  EXPECT_GT(Blk.Stats.TraceInstrs, 0u);
}

TEST(BlockEngine, SnapshotRestoreFlushesTranslationsAndStaysDeterministic) {
  // Restore must flush derived trace state and re-warm without changing
  // one architectural bit versus a straight-through run.
  NoDevice D1, D2;
  Machine Ref = machineWith(counterLoop(2000));
  Machine Blk = machineWith(counterLoop(2000));
  BlockEngine E(Blk, D2, ExecMode::Block);
  riscv::run(Ref, D1, 300);
  E.run(300);
  Machine::Snapshot S = Blk.snapshot();
  E.run(500); // Run ahead, then rewind.
  uint64_t FlushesBefore = E.stats().Flushes;
  Blk.restore(S);
  EXPECT_GT(E.stats().Flushes, FlushesBefore);
  E.run(300);
  riscv::run(Ref, D1, 300);
  expectSameArchState(Blk, Ref);
}

TEST(BlockEngine, DifferentialZeroDivergencesOnHandWrittenLoops) {
  struct Case {
    const char *Name;
    std::vector<Instr> Program;
    uint64_t Steps;
  };
  std::vector<Case> Cases = {
      {"counter", counterLoop(400), 900},
      {"copy", copyLoop(), 500},
      {"sweep", selfOverwritingSweep(), 100'000},
  };
  for (const Case &C : Cases) {
    NoDevice D;
    EngineRun R = runWith(C.Program, ExecMode::Differential, C.Steps, D,
                          4096, 97);
    EXPECT_EQ(R.Divergences, 0u) << C.Name << ": " << R.Detail;
    EXPECT_GE(R.Stats.BlocksTranslated, 1u) << C.Name;
  }
  PollDevice PD;
  std::vector<Instr> Poll = {
      lui(A0, SWord(0x10000000)),
      lw(A1, A0, 0),
      mkB(Opcode::Beq, A1, Zero, -4),
      jal(Zero, 0),
  };
  EngineRun R = runWith(Poll, ExecMode::Differential, 230, PD, 4096, 31);
  EXPECT_EQ(R.Divergences, 0u) << "poll: " << R.Detail;
}

TEST(BlockEngine, DifferentialZeroDivergencesOnRandomCompiledPrograms) {
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    b2::testing::RandomProgramGen Gen(Seed);
    bedrock2::Program P = Gen.generate();
    compiler::CompileResult C = compiler::compileProgram(
        P, compiler::CompilerOptions::o0(),
        compiler::Entry::singleCall("main", {Word(Seed * 17), Word(Seed)}),
        64 * 1024);
    ASSERT_TRUE(C.ok()) << "seed " << Seed << ": " << C.Error;

    auto RunMode = [&](ExecMode Mode) {
      EngineRun R{Machine(64 * 1024), {}, 0, {}};
      R.M.loadImage(0, C.Prog->image());
      NoDevice D;
      BlockEngine E(R.M, D, Mode);
      uint64_t Steps = 0;
      while (Steps < 2'000'000 && R.M.getPc() != C.Prog->HaltPc) {
        uint64_t N = E.run(10'000);
        Steps += N;
        if (N < 10'000)
          break;
      }
      R.Stats = E.stats();
      R.Divergences = E.divergences();
      R.Detail = E.divergenceDetail();
      return R;
    };
    EngineRun Ref = RunMode(ExecMode::Reference);
    EngineRun Blk = RunMode(ExecMode::Block);
    EngineRun Diff = RunMode(ExecMode::Differential);
    EXPECT_EQ(Blk.M.getPc(), C.Prog->HaltPc) << "seed " << Seed;
    expectSameArchState(Blk.M, Ref.M);
    expectSameArchState(Diff.M, Ref.M);
    EXPECT_EQ(Diff.Divergences, 0u) << "seed " << Seed << ": " << Diff.Detail;
  }
}

TEST(BlockEngine, DifferentialKillsFusedClobberFault) {
  // With the fused-op bug armed, the trace engine compares the branch
  // against the stale pre-increment counter while the reference stepper
  // does not — lockstep must notice.
  fi::FaultPlan Plan = fi::FaultPlan::single(fi::Fault::SimBlockFusedClobber);
  fi::FaultScope Scope(Plan);
  NoDevice D;
  EngineRun R = runWith(counterLoop(400), ExecMode::Differential, 900, D);
  EXPECT_GE(R.Divergences, 1u);
  EXPECT_FALSE(R.Detail.empty());
}

TEST(BlockEngine, DifferentialKillsStaleSuperblockFault) {
  // With invalidation decoupled from the trace cache, the sweep keeps
  // executing its stale trace while the reference stepper faults on the
  // clobbered fetch.
  fi::FaultPlan Plan =
      fi::FaultPlan::single(fi::Fault::SimBlockStaleSuperblock);
  fi::FaultScope Scope(Plan);
  NoDevice D;
  EngineRun R = runWith(selfOverwritingSweep(), ExecMode::Differential,
                        100'000, D, 4096, 1000);
  EXPECT_GE(R.Divergences, 1u);
  EXPECT_FALSE(R.Detail.empty());
}

TEST(BlockEngine, DormantFaultHooksAreBitIdentical) {
  // No plan armed: the two new hook sites must not perturb anything —
  // the differential run is the strongest observer we have.
  NoDevice D;
  EngineRun R = runWith(selfOverwritingSweep(), ExecMode::Differential,
                        100'000, D, 4096, 777);
  EXPECT_EQ(R.Divergences, 0u) << R.Detail;
}
