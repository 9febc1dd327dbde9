//===- kami/PipelinedCore.h - 4-stage pipelined processor ------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cycle-level model of the paper's Kami processor (Figure 4): a 4-stage
/// in-order pipeline IF -> ID -> EX -> WB with single-entry FIFO queues
/// between stages, the eagerly-filled instruction cache, the BTB branch
/// predictor the paper added, byte-enable memory accesses, and MMIO as
/// external method calls issued at write-back (retirement order, so the
/// externally visible label sequence is architectural).
///
/// Hazard handling follows the simple Kami design: register reads happen
/// in ID, guarded by a scoreboard that stalls on outstanding writes; there
/// is no forwarding network. Control flow is predicted in IF (BTB hit ->
/// predicted target, miss -> PC+4) and verified in EX; a misprediction
/// squashes the younger in-flight instruction and redirects fetch.
///
/// Like every Kami-level model, this core has no notion of undefined
/// behavior; see kami/SpecCore.h.
///
/// tick() is the reference semantics, one call per clock cycle.
/// kami/PipeEngine.h is the checked fast engine that reproduces its exact
/// cycle schedule one instruction per step.
///
//===----------------------------------------------------------------------===//

#ifndef B2_KAMI_PIPELINEDCORE_H
#define B2_KAMI_PIPELINEDCORE_H

#include "kami/Bram.h"
#include "kami/Decode.h"
#include "kami/Labels.h"
#include "kami/MemSystem.h"
#include "riscv/Mmio.h"
#include "support/Snapshot.h"
#include "verify/FaultInjection.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

namespace b2 {
namespace kami {

/// Microarchitectural configuration, used by the Figure 4 ablation bench.
struct PipeConfig {
  /// Branch target buffer present (the paper's addition). Without it,
  /// fetch always predicts PC+4.
  bool UseBtb = true;
  /// log2 of the number of BTB entries.
  unsigned BtbIndexBits = 5;
  /// Extra cycles an external (MMIO) access occupies write-back, modeling
  /// the handshake with the external module.
  unsigned MmioLatency = 2;
  /// Words copied into the I$ per cycle during the reset fill; 0 means the
  /// fill is instantaneous (ablation switch).
  unsigned ICacheFillWordsPerCycle = 4;
  /// Result forwarding from the WB-stage latch into ID, removing most
  /// RAW stalls for ALU producers. Off by default — the paper's simple
  /// core has no forwarding network; this is the kind of intramodule
  /// optimization the refinement spec is supposed to absorb (section 2.1:
  /// "optimizations added ... could be verified against the same spec").
  bool EnableForwarding = false;
};

/// Microarchitectural event counters (Figure 4 / section 7.2.1 benches).
struct PipeStats {
  uint64_t Cycles = 0;
  uint64_t Retired = 0;
  uint64_t Mispredicts = 0;
  uint64_t RawStalls = 0;   ///< ID stalls due to scoreboard conflicts.
  uint64_t Forwards = 0;    ///< Operands satisfied by the forwarding path.
  uint64_t MmioStalls = 0;  ///< WB cycles spent waiting on external calls.
  uint64_t FillCycles = 0;  ///< Reset cycles spent filling the I$.
  friend bool operator==(const PipeStats &, const PipeStats &) = default;
};

/// The pipelined RV32IM core.
class PipelinedCore {
public:
  PipelinedCore(Bram &Mem, riscv::MmioDevice &Device,
                const PipeConfig &Config = PipeConfig());

  /// Advances the design by one clock cycle.
  void tick();

  /// Runs until \p N total instructions have retired or \p MaxCycles
  /// cycles have elapsed. Returns true iff the retirement target was
  /// reached.
  bool runUntilRetired(uint64_t N, uint64_t MaxCycles);

  /// Runs exactly \p N cycles.
  void run(uint64_t N);

  // -- Architectural observation (for the `related` relation) --------------

  /// Committed register-file contents.
  Word getReg(unsigned R) const { return R == 0 ? 0 : Regs[R]; }

  /// PC of the next instruction to retire in program order.
  Word architecturalPc() const { return CommitPc; }

  /// The instruction snapshot, for checking the `related` invariant that
  /// the I$ agrees with memory on the executable addresses (section 5.8).
  const ICache &icache() const { return IMem; }

  uint64_t retired() const { return Stats.Retired; }
  uint64_t cycles() const { return Stats.Cycles; }
  const PipeStats &stats() const { return Stats; }
  const LabelTrace &labels() const { return Labels; }
  /// Empties the label log but keeps its capacity, for an owner that has
  /// consumed every label so far and reads only new ones. The next
  /// snapshot starts a new delta chain.
  void clearLabels() {
    Labels.clear();
    LabelChain.reset();
  }

private:
  // -- Pipeline registers ----------------------------------------------------

  // Latch and BTB contents compare memberwise: the fast engine's
  // Differential mode demands they match the reference exactly.

  struct FetchOut {
    Word Pc = 0;
    Word PredictedNext = 0;
    Word Raw = 0;
    friend bool operator==(const FetchOut &, const FetchOut &) = default;
  };

  struct DecodeOut {
    Word Pc = 0;
    Word PredictedNext = 0;
    DecodedInst D;
    Word A = 0; ///< rs1 value read in ID.
    Word B = 0; ///< rs2 value read in ID.
    friend bool operator==(const DecodeOut &, const DecodeOut &) = default;
  };

  struct ExecOut {
    Word Pc = 0;
    Word NextPc = 0;
    DecodedInst D;
    Word AluResult = 0; ///< ALU result or link value.
    Word MemAddr = 0;
    Word StoreData = 0;
    friend bool operator==(const ExecOut &, const ExecOut &) = default;
  };

  struct BtbEntry {
    bool Valid = false;
    Word Pc = 0;
    Word Target = 0;
    friend bool operator==(const BtbEntry &, const BtbEntry &) = default;
  };

  MemPort Port;
  ICache IMem;
  PipeConfig Config;
  PipeStats Stats;

  Word Regs[32] = {};
  Word FetchPc = 0;
  Word CommitPc = 0;
  std::optional<FetchOut> F2D;
  std::optional<DecodeOut> D2E;
  std::optional<ExecOut> E2W;
  uint8_t Pending[32] = {}; ///< Scoreboard: outstanding writes per register.
  std::vector<BtbEntry> Btb;
  unsigned MmioStallLeft = 0;
  uint64_t FillCyclesLeft = 0;
  LabelTrace Labels;
  support::ChainTracker<Label> LabelChain;

public:
  // -- Snapshot/restore ------------------------------------------------------

  /// Whole-core checkpoint: committed architectural state plus every
  /// piece of timing state — pipeline latches, scoreboard, BTB, MMIO
  /// and I$-fill stall counters — so a restored core replays the exact
  /// same cycle-level schedule. The label trace rides along as a delta
  /// chain; the BRAM is checkpointed by its owner.
  struct Snapshot {
    PipeStats Stats;
    Word Regs[32];
    Word FetchPc;
    Word CommitPc;
    std::optional<FetchOut> F2D;
    std::optional<DecodeOut> D2E;
    std::optional<ExecOut> E2W;
    uint8_t Pending[32];
    std::vector<BtbEntry> Btb;
    unsigned MmioStallLeft;
    uint64_t FillCyclesLeft;
    support::ChainTracker<Label>::Snap Labels;
  };

  Snapshot snapshot();
  void restore(const Snapshot &S);

private:
  friend class PipeEngine;

  void setReg(unsigned R, Word V) {
    if (R != 0)
      Regs[R] = V;
  }

  /// The EX stage: kami::datapath into the E2W latch (next pc, ALU/link
  /// result, memory address and store data). Shared by tick() and the
  /// fast engine.
  static ExecOut execute(const DecodedInst &D, Word Pc, Word A, Word B);
  /// The WB stage's state update for a retiring \p W at \p Cycle: the
  /// memory access (external ones label with \p Cycle), the register
  /// write, CommitPc and the retirement count. Shared by tick() and the
  /// fast engine; the scoreboard is the caller's.
  void retire(const ExecOut &W, uint64_t Cycle);
  /// execute() and retire() in one step, with no ExecOut in between, for
  /// the fast engine's instructions whose write-back lands inside the
  /// chunk. Sets \p Next to the next pc. An external access must pay the
  /// MMIO latency instead: for one, this returns false and changes
  /// nothing.
  bool retireNow(const DecodedInst &D, Word Pc, Word A, Word B, Word &Next);

  /// The BTB entry for \p Pc: the low word-address bits.
  size_t btbIndex(Word Pc) const {
    return (Pc / 4) & ((size_t(1) << Config.BtbIndexBits) - 1);
  }
  Word predictNext(Word Pc) const;
  void trainBtb(Word Pc, Word ActualNext);
  void stageWriteback();
  void stageExecute();
  void stageDecode();
  void stageFetch();
};

// -- Datapath shared by tick() and the fast engine -----------------------------

inline Word PipelinedCore::predictNext(Word Pc) const {
  if (Config.UseBtb) {
    const BtbEntry &E = Btb[btbIndex(Pc)];
    if (E.Valid && E.Pc == Pc)
      return E.Target;
  }
  return Pc + 4;
}

inline PipelinedCore::ExecOut
PipelinedCore::execute(const DecodedInst &D, Word Pc, Word A, Word B) {
  struct Latch {
    ExecOut X;
    void result(Word V) { X.AluResult = V; }
    void jump(Word Target) { X.NextPc = Target; }
    bool load(Word Addr) {
      X.MemAddr = Addr;
      return true;
    }
    bool store(Word Addr, Word Data) {
      X.MemAddr = Addr;
      X.StoreData = Data;
      return true;
    }
  };
  Latch L;
  L.X.Pc = Pc;
  L.X.NextPc = Pc + 4;
  L.X.D = D;
  datapath(D, Pc, A, B, L);
  return L.X;
}

inline void PipelinedCore::retire(const ExecOut &W, uint64_t Cycle) {
  if (W.D.Cls == InstClass::Load) {
    Word Raw = Port.load(W.MemAddr, memAccessSize(W.D.Funct3), Cycle, Labels);
    setReg(W.D.Rd, execLoadExtend(W.D.Funct3, Raw));
  } else if (W.D.Cls == InstClass::Store) {
    Port.store(W.MemAddr, memAccessSize(W.D.Funct3), W.StoreData, Cycle,
               Labels);
  } else if (W.D.writesRd()) {
    setReg(W.D.Rd, W.AluResult);
  }

  // An armed kami-btb-no-squash retires the unsquashed wrong-path
  // instruction on purpose; the fault belongs to its owning checker, so
  // the invariant must not abort a Debug build first.
  assert((W.Pc == CommitPc || fi::on(fi::Fault::KamiBtbNoSquash)) &&
         "out-of-order retirement");
  CommitPc = W.NextPc;
  ++Stats.Retired;
}

inline bool PipelinedCore::retireNow(const DecodedInst &D, Word Pc, Word A,
                                     Word B, Word &Next) {
  struct Commit {
    PipelinedCore &C;
    const DecodedInst &D;
    Word &Next;
    void result(Word V) { C.setReg(D.Rd, V); }
    void jump(Word Target) { Next = Target; }
    bool load(Word Addr) {
      if (C.Port.isExternal(Addr))
        return false;
      Word Raw = C.Port.loadRam(Addr, memAccessSize(D.Funct3));
      C.setReg(D.Rd, execLoadExtend(D.Funct3, Raw));
      return true;
    }
    bool store(Word Addr, Word Data) {
      if (C.Port.isExternal(Addr))
        return false;
      C.Port.storeRam(Addr, memAccessSize(D.Funct3), Data);
      return true;
    }
  };
  Next = Pc + 4;
  Commit K{*this, D, Next};
  if (!datapath(D, Pc, A, B, K))
    return false;
  assert(Pc == CommitPc && "out-of-order retirement");
  CommitPc = Next;
  ++Stats.Retired;
  return true;
}

} // namespace kami
} // namespace b2

#endif // B2_KAMI_PIPELINEDCORE_H
