//===- kami/SpecCore.cpp - Single-cycle spec processor ---------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "kami/SpecCore.h"

using namespace b2;
using namespace b2::kami;

SpecCore::SpecCore(Bram &Mem, riscv::MmioDevice &Device)
    : Port(Mem, Device), IMem(Mem) {}

void SpecCore::tick() {
  ++Cycles;

  // Fetch from the reset-time instruction snapshot; low address bits are
  // dropped and high bits wrap, as in the implementation. The snapshot is
  // immutable after reset, so the decode is memoized per line.
  const DecodedInst &D = IMem.fetchDecoded(Pc);
  // Execute and write back in the same cycle; memory goes through the
  // shared MemPort, which labels external accesses with this cycle.
  struct Commit {
    SpecCore &C;
    const DecodedInst &D;
    Word NextPc;
    void result(Word V) { C.setReg(D.Rd, V); }
    void jump(Word Target) { NextPc = Target; }
    bool load(Word Addr) {
      Word Raw = C.Port.load(Addr, memAccessSize(D.Funct3), C.Cycles, C.Labels);
      C.setReg(D.Rd, execLoadExtend(D.Funct3, Raw));
      return true;
    }
    bool store(Word Addr, Word Data) {
      C.Port.store(Addr, memAccessSize(D.Funct3), Data, C.Cycles, C.Labels);
      return true;
    }
  };
  Commit K{*this, D, Pc + 4};
  datapath(D, Pc, getReg(D.Rs1), getReg(D.Rs2), K);

  Pc = K.NextPc;
  ++Retired;
}

void SpecCore::run(uint64_t N) {
  for (uint64_t I = 0; I != N; ++I)
    tick();
}

SpecCore::Snapshot SpecCore::snapshot() {
  Snapshot S;
  std::copy(std::begin(Regs), std::end(Regs), std::begin(S.Regs));
  S.Pc = Pc;
  S.Cycles = Cycles;
  S.Retired = Retired;
  S.Labels = LabelChain.snapshot(Labels);
  return S;
}

void SpecCore::restore(const Snapshot &S) {
  std::copy(std::begin(S.Regs), std::end(S.Regs), std::begin(Regs));
  Pc = S.Pc;
  Cycles = S.Cycles;
  Retired = S.Retired;
  LabelChain.restore(Labels, S.Labels);
}
