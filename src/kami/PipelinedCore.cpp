//===- kami/PipelinedCore.cpp - 4-stage pipelined processor ----------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "kami/PipelinedCore.h"

#include "verify/FaultInjection.h"

#include <cassert>

using namespace b2;
using namespace b2::kami;

PipelinedCore::PipelinedCore(Bram &Mem, riscv::MmioDevice &Device,
                             const PipeConfig &Config)
    : Port(Mem, Device), IMem(Mem), Config(Config) {
  Btb.resize(size_t(1) << Config.BtbIndexBits);
  if (Config.ICacheFillWordsPerCycle != 0) {
    // Eager fill occupies the frontend for sizeWords/rate cycles after
    // reset (the copy itself already happened in the ICache constructor;
    // we model its latency here).
    FillCyclesLeft = (IMem.sizeWords() + Config.ICacheFillWordsPerCycle - 1) /
                     Config.ICacheFillWordsPerCycle;
  }
}

void PipelinedCore::trainBtb(Word Pc, Word ActualNext) {
  if (!Config.UseBtb)
    return;
  BtbEntry &E = Btb[btbIndex(Pc)];
  if (ActualNext != Pc + 4) {
    E.Valid = true;
    E.Pc = Pc;
    E.Target = ActualNext;
  } else if (E.Valid && E.Pc == Pc) {
    // Not-taken branch whose entry would keep mispredicting: drop it.
    E.Valid = false;
  }
}

void PipelinedCore::stageWriteback() {
  if (!E2W)
    return;
  ExecOut &W = *E2W;

  bool IsMem = W.D.Cls == InstClass::Load || W.D.Cls == InstClass::Store;
  if (IsMem && Port.isExternal(W.MemAddr) && MmioStallLeft > 0) {
    // Handshake with the external module in progress.
    --MmioStallLeft;
    ++Stats.MmioStalls;
    return;
  }

  retire(W, Stats.Cycles);
  if (W.D.writesRd()) {
    assert(Pending[W.D.Rd] > 0 && "scoreboard underflow");
    --Pending[W.D.Rd];
  }
  E2W.reset();
}

void PipelinedCore::stageExecute() {
  if (!D2E || E2W)
    return;
  DecodeOut &X = *D2E;
  ExecOut Out = execute(X.D, X.Pc, X.A, X.B);

  // Control-flow verification: every instruction (not just branches)
  // checks the frontend's prediction, because a stale BTB entry can
  // redirect a non-control instruction.
  if (Out.NextPc != X.PredictedNext) {
    ++Stats.Mispredicts;
    if (!fi::on(fi::Fault::KamiBtbNoSquash))
      F2D.reset(); // Squash the younger wrong-path instruction.
    FetchPc = Out.NextPc;
  }
  trainBtb(X.Pc, Out.NextPc);

  // External accesses pay the handshake latency when they reach WB.
  if ((X.D.Cls == InstClass::Load || X.D.Cls == InstClass::Store) &&
      Port.isExternal(Out.MemAddr))
    MmioStallLeft = Config.MmioLatency;

  E2W = Out;
  D2E.reset();
}

void PipelinedCore::stageDecode() {
  if (!F2D || D2E)
    return;
  FetchOut &F = *F2D;

  // Predecoded fetch from the immutable reset snapshot; identical to
  // decodeInst(F.Raw) by the ICache invariant.
  const DecodedInst &D = IMem.fetchDecoded(F.Pc);

  // Scoreboard with an optional forwarding path: an operand whose only
  // outstanding writer sits in the WB latch with a ready ALU result can
  // be bypassed; anything else (loads, multiple writers) stalls.
  auto Resolve = [&](uint8_t R, Word &Value, bool &Stall) {
    if (Pending[R] == 0) {
      Value = getReg(R);
      return;
    }
    if (Config.EnableForwarding && Pending[R] == 1 && E2W &&
        E2W->D.writesRd() && E2W->D.Rd == R &&
        (fi::on(fi::Fault::KamiForwardLoadStale) ||
         (E2W->D.Cls != InstClass::Load &&
          E2W->D.Cls != InstClass::Store))) {
      Value = E2W->AluResult;
      ++Stats.Forwards;
      return;
    }
    Stall = true;
  };

  bool Stall = false;
  Word A = 0, B = 0;
  if (D.readsRs1())
    Resolve(D.Rs1, A, Stall);
  if (D.readsRs2())
    Resolve(D.Rs2, B, Stall);
  // WAW on the single write port still serializes.
  if (D.writesRd() && Pending[D.Rd] > 0)
    Stall = true;
  if (Stall) {
    ++Stats.RawStalls;
    return;
  }

  DecodeOut Out;
  Out.Pc = F.Pc;
  Out.PredictedNext = F.PredictedNext;
  Out.D = D;
  Out.A = D.readsRs1() ? A : getReg(D.Rs1);
  Out.B = D.readsRs2() ? B : getReg(D.Rs2);
  if (D.writesRd())
    ++Pending[D.Rd];

  D2E = Out;
  F2D.reset();
}

void PipelinedCore::stageFetch() {
  if (F2D)
    return;
  FetchOut Out;
  Out.Pc = FetchPc;
  Out.Raw = IMem.fetch(FetchPc);
  Out.PredictedNext = predictNext(FetchPc);
  FetchPc = Out.PredictedNext;
  F2D = Out;
}

void PipelinedCore::tick() {
  ++Stats.Cycles;
  if (FillCyclesLeft > 0) {
    --FillCyclesLeft;
    ++Stats.FillCycles;
    return;
  }
  // Stages evaluate oldest-first so that a value travels at most one
  // stage per cycle and an EX redirect squashes before ID issues.
  stageWriteback();
  stageExecute();
  stageDecode();
  stageFetch();
}

bool PipelinedCore::runUntilRetired(uint64_t N, uint64_t MaxCycles) {
  uint64_t Start = Stats.Cycles;
  while (Stats.Retired < N) {
    if (Stats.Cycles - Start >= MaxCycles)
      return false;
    tick();
  }
  return true;
}

void PipelinedCore::run(uint64_t N) {
  for (uint64_t I = 0; I != N; ++I)
    tick();
}

PipelinedCore::Snapshot PipelinedCore::snapshot() {
  Snapshot S;
  S.Stats = Stats;
  std::copy(std::begin(Regs), std::end(Regs), std::begin(S.Regs));
  S.FetchPc = FetchPc;
  S.CommitPc = CommitPc;
  S.F2D = F2D;
  S.D2E = D2E;
  S.E2W = E2W;
  std::copy(std::begin(Pending), std::end(Pending), std::begin(S.Pending));
  S.Btb = Btb;
  S.MmioStallLeft = MmioStallLeft;
  S.FillCyclesLeft = FillCyclesLeft;
  S.Labels = LabelChain.snapshot(Labels);
  return S;
}

void PipelinedCore::restore(const Snapshot &S) {
  Stats = S.Stats;
  std::copy(std::begin(S.Regs), std::end(S.Regs), std::begin(Regs));
  FetchPc = S.FetchPc;
  CommitPc = S.CommitPc;
  F2D = S.F2D;
  D2E = S.D2E;
  E2W = S.E2W;
  std::copy(std::begin(S.Pending), std::end(S.Pending), std::begin(Pending));
  Btb = S.Btb;
  MmioStallLeft = S.MmioStallLeft;
  FillCyclesLeft = S.FillCyclesLeft;
  LabelChain.restore(Labels, S.Labels);
}
