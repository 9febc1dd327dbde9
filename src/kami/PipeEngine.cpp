//===- kami/PipeEngine.cpp - Pipelined-core fast engine --------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "kami/PipeEngine.h"

#include "support/Format.h"
#include "verify/FaultInjection.h"

#include <algorithm>
#include <cstring>
#include <optional>

using namespace b2;
using namespace b2::kami;
using support::hex32;

/// Differential replay: the shadow core's external method calls are
/// answered from the primary's label log (devices are functions of the
/// access sequence they observe, so replaying recorded replies is how
/// both cores see the same external world). Every external address is
/// claimed, so unclaimed addresses replay their recorded zero too;
/// stores are checked against the log instead of reaching a device.
class PipeEngine::ReplayDevice final : public riscv::MmioDevice {
public:
  void reset(const LabelTrace &Log, size_t From) {
    Labels = &Log;
    Cur = From;
    Desynced = false;
  }

  bool isMmio(Word, unsigned) const override { return true; }

  Word load(Word Addr, unsigned Size) override {
    if (Cur < Labels->size()) {
      const Label &L = (*Labels)[Cur];
      if (L.MethodKind == Label::Kind::MmioLoad && L.Addr == Addr &&
          L.Size == Size) {
        ++Cur;
        return L.Value;
      }
    }
    Desynced = true;
    return 0;
  }

  void store(Word Addr, unsigned Size, Word Value) override {
    if (Cur < Labels->size()) {
      const Label &L = (*Labels)[Cur];
      if (L.MethodKind == Label::Kind::MmioStore && L.Addr == Addr &&
          L.Size == Size && L.Value == Value) {
        ++Cur;
        return;
      }
    }
    Desynced = true;
  }

  bool Desynced = false;

private:
  const LabelTrace *Labels = nullptr;
  size_t Cur = 0;
};

PipeEngine::PipeEngine(PipelinedCore &Core, riscv::ExecMode Mode)
    : Core(Core), Mode(Mode) {
  if (Mode == riscv::ExecMode::Differential)
    Replay = std::make_unique<ReplayDevice>();
}

PipeEngine::~PipeEngine() = default;

bool PipeEngine::pinnedToTick() const {
  return Core.Config.EnableForwarding || fi::on(fi::Fault::KamiBtbNoSquash) ||
         fi::on(fi::Fault::KamiForwardLoadStale);
}

void PipeEngine::run(uint64_t Cycles) {
  const bool Fast = Mode != riscv::ExecMode::Reference && !pinnedToTick();
  if (Mode != riscv::ExecMode::Differential) {
    if (Fast)
      runFast(Cycles);
    else
      Core.run(Cycles);
    return;
  }

  // Differential: run the primary, replay the same cycles through tick()
  // on the shadow, and demand an exact match of the whole core state.
  if (ShadowStale)
    syncShadow();
  const size_t LabelStart = Core.Labels.size();
  if (Fast)
    runFast(Cycles);
  else
    Core.run(Cycles);
  if (DiffDead)
    return;
  // The shadow logs only this chunk's labels.
  Replay->reset(Core.Labels, LabelStart);
  Shadow->Labels.clear();
  Shadow->run(Cycles);
  std::string D = compareWithShadow(LabelStart, Replay->Desynced);
  if (!D.empty()) {
    ++DivergenceCount;
    DivergenceMsg = std::move(D);
    DiffDead = true; // Sticky: preserve the first divergence's detail.
  }
}

void PipeEngine::syncShadow() {
  const Bram &Mem = Core.Port.bram();
  if (!Shadow) {
    ShadowMem = std::make_unique<Bram>(Mem);
    Shadow = std::make_unique<PipelinedCore>(*ShadowMem, *Replay, Core.Config);
  } else {
    *ShadowMem = Mem;
  }
  PipelinedCore &S = *Shadow;
  // The reset-time I$ image, not a fill of today's memory: stores since
  // reset never reach the I$.
  S.IMem = Core.IMem;
  S.Stats = Core.Stats;
  std::copy(std::begin(Core.Regs), std::end(Core.Regs), std::begin(S.Regs));
  S.FetchPc = Core.FetchPc;
  S.CommitPc = Core.CommitPc;
  S.F2D = Core.F2D;
  S.D2E = Core.D2E;
  S.E2W = Core.E2W;
  std::copy(std::begin(Core.Pending), std::end(Core.Pending),
            std::begin(S.Pending));
  S.Btb = Core.Btb;
  S.MmioStallLeft = Core.MmioStallLeft;
  S.FillCyclesLeft = Core.FillCyclesLeft;
  ShadowStale = false;
}

namespace {

std::string renderStats(const PipeStats &S) {
  return "cycles " + std::to_string(S.Cycles) + ", retired " +
         std::to_string(S.Retired) + ", mispredicts " +
         std::to_string(S.Mispredicts) + ", raw stalls " +
         std::to_string(S.RawStalls) + ", forwards " +
         std::to_string(S.Forwards) + ", mmio stalls " +
         std::to_string(S.MmioStalls) + ", fill cycles " +
         std::to_string(S.FillCycles);
}

std::string renderLabel(const Label &L) {
  return std::string(L.MethodKind == Label::Kind::MmioStore ? "st" : "ld") +
         " " + hex32(L.Addr) + " " + hex32(L.Value) + " size " +
         std::to_string(L.Size) + " @" + std::to_string(L.Cycle);
}

} // namespace

std::string PipeEngine::compareWithShadow(size_t LabelStart,
                                          bool Desynced) const {
  const PipelinedCore &P = Core, &S = *Shadow;
  if (Desynced)
    return "external accesses diverged: the reference core's loads and "
           "stores do not replay the fast engine's labels";
  if (!(P.Stats == S.Stats))
    return "PipeStats diverged: fast engine " + renderStats(P.Stats) +
           "; reference " + renderStats(S.Stats);
  for (unsigned R = 0; R != 32; ++R)
    if (P.Regs[R] != S.Regs[R])
      return "x" + std::to_string(R) + " diverged: fast engine " +
             hex32(P.Regs[R]) + ", reference " + hex32(S.Regs[R]);
  if (P.CommitPc != S.CommitPc)
    return "commit pc diverged: fast engine " + hex32(P.CommitPc) +
           ", reference " + hex32(S.CommitPc);
  if (P.FetchPc != S.FetchPc)
    return "fetch pc diverged: fast engine " + hex32(P.FetchPc) +
           ", reference " + hex32(S.FetchPc);
  if (!(P.F2D == S.F2D))
    return "F2D latch diverged";
  if (!(P.D2E == S.D2E))
    return "D2E latch diverged";
  if (!(P.E2W == S.E2W))
    return "E2W latch diverged";
  if (std::memcmp(P.Pending, S.Pending, sizeof(P.Pending)) != 0)
    return "scoreboard diverged";
  if (P.Btb != S.Btb)
    return "BTB diverged";
  if (P.MmioStallLeft != S.MmioStallLeft)
    return "MMIO stall counter diverged: fast engine " +
           std::to_string(P.MmioStallLeft) + ", reference " +
           std::to_string(S.MmioStallLeft);
  if (P.FillCyclesLeft != S.FillCyclesLeft)
    return "I$ fill counter diverged";
  if (P.Labels.size() - LabelStart != S.Labels.size())
    return "label counts diverged: fast engine " +
           std::to_string(P.Labels.size() - LabelStart) +
           " this chunk, reference " + std::to_string(S.Labels.size());
  for (size_t I = 0; I != S.Labels.size(); ++I) {
    const Label &A = P.Labels[LabelStart + I], &B = S.Labels[I];
    if (!(A == B) || A.Cycle != B.Cycle)
      return "label " + std::to_string(LabelStart + I) +
             " diverged: fast engine " + renderLabel(A) + ", reference " +
             renderLabel(B);
  }
  if (!(P.Port.bram() == S.Port.bram()))
    return "BRAM contents diverged";
  return {};
}

void PipeEngine::runFast(uint64_t Cycles) {
  using ExecOut = PipelinedCore::ExecOut;
  using DecodeOut = PipelinedCore::DecodeOut;
  using FetchOut = PipelinedCore::FetchOut;
  PipelinedCore &C = Core;
  PipeStats &St = C.Stats;

  // Reset-fill cycles only count: skip them in bulk.
  if (C.FillCyclesLeft != 0) {
    uint64_t K = std::min<uint64_t>(Cycles, C.FillCyclesLeft);
    C.FillCyclesLeft -= K;
    St.FillCycles += K;
    St.Cycles += K;
    Cycles -= K;
  }
  if (Cycles == 0)
    return;
  // The chunk covers cycles T0+1 .. T.
  const uint64_t T0 = St.Cycles, T = T0 + Cycles;
  St.Cycles = T;

  const Word RamBytes = C.Port.bram().sizeBytes();
  const uint64_t Latency = fi::on(fi::Fault::KamiFastMmioLatencyDropped)
                               ? 0 // Seeded bug: w = e + 1 for MMIO too.
                               : C.Config.MmioLatency;
  const ICache &IMem = C.IMem;
  const Word *Regs = C.Regs;

  // The previous instruction P in program order, as the recurrence
  // needs it.
  uint64_t PE = T0 + 1;  // Its EX cycle.
  uint64_t PW = 0;       // Its WB cycle.
  uint64_t PMis = 0;     // 1 iff it mispredicted: the next fetch waited
                         // for its EX.
  unsigned PRd = 0;      // The register it writes; 0 for none.
  uint64_t RetiredNow = 0, RawStalls = 0;

  // The latches as cycle T leaves them.
  std::optional<ExecOut> OutE2W;
  uint64_t OutW = 0; // WB cycle of OutE2W.
  std::optional<DecodeOut> OutD2E;
  FetchOut OutF2D;

  // EX verifies the fetch's prediction for every instruction (a stale BTB
  // entry can redirect a non-control instruction) and trains the BTB; a
  // correctly predicted instruction's training is a no-op.
  auto Verify = [&](Word Pc, Word Pred, Word Next) {
    PMis = Next != Pred;
    if (PMis) {
      ++St.Mispredicts;
      C.trainBtb(Pc, Next);
    }
  };
  // EX in cycle E through execute() and WB through retire() or the E2W
  // latch: the chunk-edge path, for write-backs after T, external
  // accesses and the instruction lifted from D2E. Returns the next pc.
  auto ExecuteAtEdge = [&](const DecodedInst &D, Word Pc, Word Pred, Word A,
                           Word B, uint64_t E) {
    const ExecOut X = PipelinedCore::execute(D, Pc, A, B);
    Verify(Pc, Pred, X.NextPc);
    const bool Ext =
        (D.Cls == InstClass::Load || D.Cls == InstClass::Store) &&
        X.MemAddr >= RamBytes;
    Taken.External += Ext;
    const uint64_t W = E + 1 + (Ext ? Latency : 0);
    // WB in cycle W, unless the chunk ends first.
    if (W > T) {
      OutE2W = X;
      OutW = W;
      St.MmioStalls += T - E;
      ++Taken.PastChunk;
    } else {
      C.retire(X, W);
      St.MmioStalls += W - E - 1;
    }
    PE = E;
    PW = W;
    PRd = D.writesRd() ? D.Rd : 0;
    return X.NextPc;
  };

  // -- Lift the latches into the recurrence ----------------------------------
  if (C.E2W) {
    ++Taken.LiftedE2W;
    const ExecOut &X = *C.E2W;
    const bool Ext =
        (X.D.Cls == InstClass::Load || X.D.Cls == InstClass::Store) &&
        X.MemAddr >= RamBytes;
    PW = T0 + 1 + (Ext ? C.MmioStallLeft : 0);
    PRd = X.D.writesRd() ? X.D.Rd : 0;
    if (PW > T) {
      OutE2W = X;
      OutW = PW;
      St.MmioStalls += T - T0;
    } else {
      C.retire(X, PW);
      St.MmioStalls += PW - T0 - 1;
    }
  }
  // P's successor already sits in F2D, so ID first looks at it in cycle
  // T0 + 1; on an empty pipeline IF fetches in T0 + 1 and ID looks in
  // T0 + 2. (PE = T0 + 1 above.)
  PMis = C.F2D ? 0 : 1;
  Word Pc = C.F2D ? C.F2D->Pc : C.FetchPc; // Next in program order.
  // An instruction in D2E enters at EX with its latched operands, unless
  // the write-back stall holds it there for the whole chunk.
  bool Held = false;
  if (C.D2E) {
    const DecodeOut &L = *C.D2E;
    const uint64_t E = std::max(T0 + 1, PW);
    if (E > T) {
      OutD2E = L;
      OutF2D = *C.F2D;
      Held = true;
    } else {
      ++Taken.LiftedD2E;
      Pc = ExecuteAtEdge(L.D, L.Pc, L.PredictedNext, L.A, L.B, E);
    }
  }

  // -- One instruction per step ----------------------------------------------
  while (!Held) {
    const DecodedInst &D = IMem.fetchDecoded(Pc);
    const Word Pred = C.predictNext(Pc);
    const uint64_t S = PE + PMis;
    uint64_t Dc = S;
    if (PRd != 0 && ((D.readsRs1() && D.Rs1 == PRd) ||
                     (D.readsRs2() && D.Rs2 == PRd) ||
                     (D.writesRd() && D.Rd == PRd)))
      Dc = std::max(S, PW);
    if (Dc > T) {
      // Still in F2D: ID stalled on it from S through T.
      if (S <= T)
        RawStalls += T + 1 - S;
      OutF2D = FetchOut{Pc, Pred, IMem.fetch(Pc)};
      break;
    }
    RawStalls += Dc - S;
    // ID read the operands in cycle Dc; P's write lands in PW. In D2E at
    // T, either P retired by Dc = T or it retires after T: the register
    // file as it stands is what ID read. Past EX, only read operands
    // matter (a read operand stalls ID until PW, and the decoder zeroes
    // a load's unread rs2 field, the one unread operand D2E latches), so
    // the committed file is exact there too.
    const Word A = Regs[D.Rs1];
    const Word B = Regs[D.Rs2];
    const uint64_t E = std::max(Dc + 1, PW);
    if (E > T) {
      // In D2E; IF fetched its predicted successor in cycle Dc.
      OutD2E = DecodeOut{Pc, Pred, D, A, B};
      OutF2D = FetchOut{Pred, C.predictNext(Pred), IMem.fetch(Pred)};
      break;
    }
    // EX in cycle E and, for all but external accesses, WB in E + 1:
    // inside the chunk, retire now.
    Word Next;
    if (E < T && C.retireNow(D, Pc, A, B, Next)) [[likely]] {
      ++RetiredNow;
      Verify(Pc, Pred, Next);
      PE = E;
      PW = E + 1;
      PRd = D.writesRd() ? D.Rd : 0;
      Pc = Next;
    } else {
      Pc = ExecuteAtEdge(D, Pc, Pred, A, B, E);
    }
  }
  Taken.RetireNow += RetiredNow;
  St.RawStalls += RawStalls;

  // -- Rebuild the latches ---------------------------------------------------
  C.E2W = OutE2W;
  C.MmioStallLeft = OutE2W ? unsigned(OutW - 1 - T) : 0;
  C.D2E = OutD2E;
  C.F2D = OutF2D;
  C.FetchPc = OutF2D.PredictedNext;
  std::fill(std::begin(C.Pending), std::end(C.Pending), uint8_t(0));
  if (OutE2W && OutE2W->D.writesRd())
    ++C.Pending[OutE2W->D.Rd];
  if (OutD2E && OutD2E->D.writesRd())
    ++C.Pending[OutD2E->D.Rd];
}
