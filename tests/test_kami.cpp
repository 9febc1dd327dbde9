//===- tests/test_kami.cpp - Hardware-level model tests -----------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "kami/Bram.h"
#include "kami/Decode.h"
#include "kami/MemSystem.h"
#include "kami/PipelinedCore.h"
#include "kami/SpecCore.h"

#include "isa/Build.h"
#include "isa/Encoding.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace b2;
using namespace b2::isa;
using namespace b2::kami;

namespace {

Bram bramWith(const std::vector<Instr> &Program, Word Size = 4096) {
  Bram B(Size);
  B.loadImage(instrencode(Program));
  return B;
}

} // namespace

TEST(Bram, ByteEnableWrites) {
  Bram B(64);
  B.writeWord(0, 0xF, 0xDDCCBBAA);
  EXPECT_EQ(B.readWord(0), 0xDDCCBBAAu);
  B.writeWord(0, 0x2, 0x0000EE00); // Only lane 1.
  EXPECT_EQ(B.readWord(0), 0xDDCCEEAAu);
  B.writeWord(0, 0xC, 0x12340000); // Lanes 2, 3.
  EXPECT_EQ(B.readWord(0), 0x1234EEAAu);
}

TEST(Bram, AddressWrapsHighBits) {
  Bram B(64);
  B.writeWord(0, 0xF, 0x11111111);
  // 64 + 0 wraps to word 0.
  EXPECT_EQ(B.readWord(64), 0x11111111u);
  EXPECT_EQ(B.readWord(0x10000040), 0x11111111u);
}

TEST(Bram, HighAddressWrapMasksTheIndex) {
  // Section 5.8: too-large addresses drop their high bits. On a 64-byte
  // BRAM every address aliases word (Addr / 4) mod 16, for reads, writes
  // and the I$ alike — including the top of the address space.
  Bram B(64);
  B.writeWord(0xFFFFFFFC, 0xF, 0xCAFEF00D); // Word 15.
  EXPECT_EQ(B.readWord(60), 0xCAFEF00Du);
  B.writeWord(0x80000004, 0x1, 0x000000AB); // Word 1, lane 0.
  EXPECT_EQ(B.readWord(4), 0x000000ABu);
  EXPECT_EQ(B.readByte(0x12345604), 0xAB);
  ICache I(B);
  EXPECT_EQ(I.fetch(0xFFFFFFFC), 0xCAFEF00Du);
  EXPECT_EQ(I.fetch(0x40 + 4), 0x000000ABu);
}

TEST(Bram, SizeMustBeAPowerOfTwo) {
  // Checked in every build type, not only by assert.
  for (Word Bytes : {Word(0), Word(2), Word(12), Word(48), Word(96 * 1024)})
    EXPECT_THROW(Bram{Bytes}, std::invalid_argument) << Bytes;
  for (Word Bytes : {Word(4), Word(64), Word(256 * 1024)})
    EXPECT_NO_THROW(Bram{Bytes}) << Bytes;
}

TEST(Bram, ByteViewMatchesLanes) {
  Bram B(64);
  B.writeWord(4, 0xF, 0x44332211);
  EXPECT_EQ(B.readByte(4), 0x11);
  EXPECT_EQ(B.readByte(5), 0x22);
  EXPECT_EQ(B.readByte(6), 0x33);
  EXPECT_EQ(B.readByte(7), 0x44);
}

TEST(Bram, LaneHelpers) {
  EXPECT_EQ(byteEnableFor(0, 4), 0xF);
  EXPECT_EQ(byteEnableFor(1, 1), 0x2);
  EXPECT_EQ(byteEnableFor(2, 2), 0xC);
  EXPECT_EQ(laneAlign(1, 1, 0xAB), 0xAB00u);
  EXPECT_EQ(laneAlign(2, 2, 0xABCD), 0xABCD0000u);
  EXPECT_EQ(laneExtract(1, 1, 0x44332211), 0x22u);
  EXPECT_EQ(laneExtract(2, 2, 0x44332211), 0x4433u);
}

TEST(KamiDecode, ClassesAndOperands) {
  DecodedInst D = decodeInst(0x00C58533); // add a0, a1, a2
  EXPECT_EQ(D.Cls, InstClass::Alu);
  EXPECT_EQ(D.Rd, 10);
  EXPECT_EQ(D.Rs1, 11);
  EXPECT_EQ(D.Rs2, 12);
  EXPECT_TRUE(D.writesRd());
  EXPECT_TRUE(D.readsRs1());
  EXPECT_TRUE(D.readsRs2());

  D = decodeInst(0x00000013); // nop
  EXPECT_EQ(D.Cls, InstClass::AluImm);
  EXPECT_FALSE(D.writesRd()); // rd = x0.

  D = decodeInst(0xFFFFFFFF);
  EXPECT_EQ(D.Cls, InstClass::Illegal);
}

TEST(KamiDecode, ControlFlowClassification) {
  EXPECT_TRUE(decodeInst(encode(jal(RA, 16))).isControl());
  EXPECT_TRUE(decodeInst(encode(jalr(RA, A0, 0))).isControl());
  EXPECT_TRUE(decodeInst(encode(mkB(Opcode::Beq, A0, A1, 8))).isControl());
  EXPECT_FALSE(decodeInst(encode(addi(A0, A0, 1))).isControl());
}

TEST(SpecCore, ExecutesStraightLine) {
  Bram B = bramWith({addi(A0, Zero, 7), addi(A1, A0, 8)});
  riscv::NoDevice D;
  SpecCore C(B, D);
  C.run(2);
  EXPECT_EQ(C.getReg(A0), 7u);
  EXPECT_EQ(C.getReg(A1), 15u);
  EXPECT_EQ(C.retired(), 2u);
}

TEST(SpecCore, IllegalInstructionIsNop) {
  Bram B(64);
  B.writeWord(0, 0xF, 0xFFFFFFFF);
  riscv::NoDevice D;
  SpecCore C(B, D);
  C.tick();
  EXPECT_EQ(C.getPc(), 4u); // Proceeds "in some arbitrary way": nop.
}

TEST(SpecCore, FetchesFromResetSnapshot) {
  // Overwriting code in memory does not change what executes: the spec
  // core fetches from the reset-time instruction snapshot (same staleness
  // as the pipelined core, so refinement holds for self-modifying code).
  Bram B = bramWith({
      addi(A0, Zero, 1),   // pc 0
      sw(Zero, Zero, 4),   // pc 4: overwrite pc4 word itself (harmless)...
      addi(A1, Zero, 2),   // pc 8
  });
  riscv::NoDevice D;
  SpecCore C(B, D);
  C.run(3);
  EXPECT_EQ(C.getReg(A1), 2u);
  EXPECT_EQ(B.readWord(4), 0u); // Memory did change.
}

TEST(PipelinedCore, MatchesSpecOnArithmetic) {
  std::vector<Instr> P = {
      addi(A0, Zero, 40), addi(A1, Zero, 2),
      mkR(Opcode::Add, A2, A0, A1),
      mkR(Opcode::Mul, A3, A2, A1),
      mkI(Opcode::Slli, A4, A3, 2),
  };
  Bram BA = bramWith(P), BB = bramWith(P);
  riscv::NoDevice DA, DB;
  SpecCore S(BA, DA);
  PipelinedCore C(BB, DB);
  S.run(5);
  ASSERT_TRUE(C.runUntilRetired(5, 100000));
  for (unsigned R = 0; R != 32; ++R)
    EXPECT_EQ(S.getReg(R), C.getReg(R)) << "x" << R;
  EXPECT_EQ(C.architecturalPc(), S.getPc());
}

TEST(PipelinedCore, RawHazardStalls) {
  // a1 depends on a0 immediately: the scoreboard must stall, and the
  // result must still be correct.
  std::vector<Instr> P = {addi(A0, Zero, 5), addi(A1, A0, 1)};
  Bram B = bramWith(P);
  riscv::NoDevice D;
  PipelinedCore C(B, D);
  ASSERT_TRUE(C.runUntilRetired(2, 100000));
  EXPECT_EQ(C.getReg(A1), 6u);
  EXPECT_GT(C.stats().RawStalls, 0u);
}

TEST(PipelinedCore, BranchMispredictSquashesWrongPath) {
  std::vector<Instr> P = {
      addi(A0, Zero, 1),
      mkB(Opcode::Bne, A0, Zero, 8), // Taken: first time mispredicted.
      addi(A1, Zero, 99),            // Wrong path: must not execute.
      addi(A2, Zero, 7),
  };
  Bram B = bramWith(P);
  riscv::NoDevice D;
  PipelinedCore C(B, D);
  ASSERT_TRUE(C.runUntilRetired(3, 100000));
  EXPECT_EQ(C.getReg(A1), 0u);
  EXPECT_EQ(C.getReg(A2), 7u);
  EXPECT_GT(C.stats().Mispredicts, 0u);
}

TEST(PipelinedCore, BtbLearnsLoopBranch) {
  // A tight loop: with the BTB the backward branch should mispredict only
  // O(1) times, without it every taken iteration redirects.
  std::vector<Instr> Loop = {
      addi(A0, Zero, 64),              // counter
      addi(A1, Zero, 0),               // sum
      mkR(Opcode::Add, A1, A1, A0),    // loop: sum += counter
      addi(A0, A0, -1),                //   counter--
      mkB(Opcode::Bne, A0, Zero, -8),  //   backward branch
      nop(),
  };
  uint64_t Retire = 2 + 64 * 3 + 1;

  Bram BA = bramWith(Loop);
  riscv::NoDevice DA;
  PipeConfig WithBtb;
  PipelinedCore CA(BA, DA, WithBtb);
  ASSERT_TRUE(CA.runUntilRetired(Retire, 1000000));

  Bram BB = bramWith(Loop);
  riscv::NoDevice DB;
  PipeConfig NoBtb;
  NoBtb.UseBtb = false;
  PipelinedCore CB(BB, DB, NoBtb);
  ASSERT_TRUE(CB.runUntilRetired(Retire, 1000000));

  EXPECT_EQ(CA.getReg(A1), CB.getReg(A1));
  EXPECT_EQ(CA.getReg(A1), Word(64 * 65 / 2));
  EXPECT_LT(CA.stats().Mispredicts + 32, CB.stats().Mispredicts);
  EXPECT_LT(CA.cycles(), CB.cycles());
}

TEST(PipelinedCore, StoreDoesNotUpdateICache) {
  // Self-modifying code: the store lands in memory but fetch keeps seeing
  // the stale instruction (section 5.6's hazard, reproduced faithfully).
  std::vector<Instr> P = {
      addi(A0, Zero, 0x13),   // nop encoding low bits
      sw(Zero, A0, 16),       // overwrite pc 16 in *memory*
      nop(),
      nop(),
      addi(A1, Zero, 55),     // pc 16: stale in the I$.
  };
  Bram B = bramWith(P);
  riscv::NoDevice D;
  PipelinedCore C(B, D);
  ASSERT_TRUE(C.runUntilRetired(5, 100000));
  // The I$ still served the original instruction.
  EXPECT_EQ(C.getReg(A1), 55u);
  // But the memory now holds the overwritten word.
  EXPECT_EQ(B.readWord(16), 0x13u);
  EXPECT_NE(C.icache().fetch(16), B.readWord(16));
}

TEST(PipelinedCore, ICacheFillDelaysStart) {
  std::vector<Instr> P = {addi(A0, Zero, 3)};
  Bram BA = bramWith(P);
  riscv::NoDevice DA;
  PipeConfig Eager; // default: fill 4 words/cycle
  PipelinedCore CA(BA, DA, Eager);
  ASSERT_TRUE(CA.runUntilRetired(1, 100000));
  EXPECT_GT(CA.stats().FillCycles, 0u);

  Bram BB = bramWith(P);
  riscv::NoDevice DB;
  PipeConfig Instant;
  Instant.ICacheFillWordsPerCycle = 0;
  PipelinedCore CB(BB, DB, Instant);
  ASSERT_TRUE(CB.runUntilRetired(1, 100000));
  EXPECT_EQ(CB.stats().FillCycles, 0u);
  EXPECT_LT(CB.cycles(), CA.cycles());
}

TEST(PipelinedCore, SteadyStateIpcApproachesOne) {
  // Long independent-instruction sequence: IPC should approach 1 after
  // the fill (no hazards, no branches).
  std::vector<Instr> P;
  for (int I = 0; I != 400; ++I)
    P.push_back(addi(Reg(10 + (I % 4)), Zero, SWord(I & 0x7FF)));
  Bram B = bramWith(P, 4096);
  riscv::NoDevice D;
  PipeConfig Cfg;
  Cfg.ICacheFillWordsPerCycle = 0; // Isolate steady-state behavior.
  PipelinedCore C(B, D, Cfg);
  ASSERT_TRUE(C.runUntilRetired(400, 100000));
  double Ipc = double(C.retired()) / double(C.cycles());
  EXPECT_GT(Ipc, 0.9);
}

TEST(PipelinedCore, MmioLatencyStallsAndLabels) {
  class CountingDevice final : public riscv::MmioDevice {
  public:
    unsigned Loads = 0;
    bool isMmio(Word Addr, unsigned) const override {
      return Addr >= 0x10000000;
    }
    Word load(Word, unsigned) override { return ++Loads; }
    void store(Word, unsigned, Word) override {}
  };
  std::vector<Instr> P = {
      lui(A0, SWord(0x10000000)),
      lw(A1, A0, 0),
      lw(A2, A0, 0),
  };
  Bram B = bramWith(P);
  CountingDevice Dev;
  PipeConfig Cfg;
  Cfg.MmioLatency = 5;
  PipelinedCore C(B, Dev, Cfg);
  ASSERT_TRUE(C.runUntilRetired(3, 100000));
  EXPECT_EQ(C.getReg(A1), 1u);
  EXPECT_EQ(C.getReg(A2), 2u);
  ASSERT_EQ(C.labels().size(), 2u);
  EXPECT_EQ(C.labels()[0].Value, 1u);
  EXPECT_GE(C.stats().MmioStalls, 10u); // 2 accesses x 5 cycles.
}

TEST(PipelinedCore, ForwardingRemovesRawStallsAndPreservesResults) {
  // The forwarding network is an intramodule optimization: same results,
  // fewer stalls, fewer cycles (section 2.1's modularity story).
  std::vector<Instr> P = {
      addi(A0, Zero, 1),
      addi(A1, A0, 2),  // RAW on a0.
      addi(A2, A1, 3),  // RAW on a1.
      addi(A3, A2, 4),  // RAW on a2.
      mkR(Opcode::Add, A4, A3, A0),
  };
  Bram BA = bramWith(P), BB = bramWith(P);
  riscv::NoDevice DA, DB;
  PipeConfig Plain;
  PipelinedCore CA(BA, DA, Plain);
  ASSERT_TRUE(CA.runUntilRetired(5, 100000));
  PipeConfig Fwd;
  Fwd.EnableForwarding = true;
  PipelinedCore CB(BB, DB, Fwd);
  ASSERT_TRUE(CB.runUntilRetired(5, 100000));
  for (unsigned R = 0; R != 32; ++R)
    EXPECT_EQ(CA.getReg(R), CB.getReg(R)) << "x" << R;
  EXPECT_GT(CB.stats().Forwards, 0u);
  EXPECT_LT(CB.stats().RawStalls, CA.stats().RawStalls);
  EXPECT_LT(CB.cycles(), CA.cycles());
}

TEST(PipelinedCore, ForwardingNeverBypassesLoads) {
  // A load's value exists only at WB; the consumer must still stall and
  // read the committed value.
  std::vector<Instr> P = {
      addi(A0, Zero, 0x55),
      sw(Zero, A0, 0x100),
      lw(A1, Zero, 0x100),
      addi(A2, A1, 1), // Depends on the load.
  };
  Bram B = bramWith(P);
  riscv::NoDevice D;
  PipeConfig Fwd;
  Fwd.EnableForwarding = true;
  PipelinedCore C(B, D, Fwd);
  ASSERT_TRUE(C.runUntilRetired(4, 100000));
  EXPECT_EQ(C.getReg(A2), 0x56u);
}

TEST(PipelinedCore, RandomProgramsMatchSpecCore) {
  // Differential property test on random (often wild) instruction soup:
  // the Kami level has no UB, so the pipeline must match the spec core on
  // *anything*.
  support::Rng Rng(0xC0FE);
  for (int Trial = 0; Trial != 30; ++Trial) {
    std::vector<Instr> P;
    for (int I = 0; I != 64; ++I) {
      // Mix of ALU ops, small branches, and loads/stores inside RAM.
      switch (Rng.below(5)) {
      case 0:
        P.push_back(addi(Reg(8 + Rng.below(10)), Reg(8 + Rng.below(10)),
                         SWord(support::signExtend(Rng.next32() & 0xFFF, 12))));
        break;
      case 1:
        P.push_back(mkR(Rng.flip() ? Opcode::Add : Opcode::Xor,
                        Reg(8 + Rng.below(10)), Reg(8 + Rng.below(10)),
                        Reg(8 + Rng.below(10))));
        break;
      case 2: { // Forward branch within the program.
        SWord Off = SWord(4 + 4 * Rng.below(4));
        P.push_back(mkB(Opcode::Bltu, Reg(8 + Rng.below(10)),
                        Reg(8 + Rng.below(10)), Off));
        break;
      }
      case 3:
        P.push_back(sw(Zero, Reg(8 + Rng.below(10)),
                       SWord(1024 + 4 * Rng.below(64))));
        break;
      default:
        P.push_back(lw(Reg(8 + Rng.below(10)), Zero,
                       SWord(1024 + 4 * Rng.below(64))));
        break;
      }
    }
    P.push_back(jal(Zero, 0)); // Park.

    Bram BA = bramWith(P), BB = bramWith(P);
    riscv::NoDevice DA, DB;
    SpecCore S(BA, DA);
    PipeConfig Cfg;
    Cfg.EnableForwarding = Trial % 2 == 0; // Both datapaths must refine.
    PipelinedCore C(BB, DB, Cfg);
    uint64_t N = 200;
    S.run(N);
    ASSERT_TRUE(C.runUntilRetired(N, 1000000)) << "trial " << Trial;
    for (unsigned R = 0; R != 32; ++R)
      ASSERT_EQ(S.getReg(R), C.getReg(R))
          << "trial " << Trial << " reg x" << R;
    ASSERT_EQ(S.getPc(), C.architecturalPc()) << "trial " << Trial;
    for (Word A = 0; A != 4096; A += 4)
      ASSERT_EQ(BA.readWord(A), BB.readWord(A))
          << "trial " << Trial << " mem " << A;
  }
}
