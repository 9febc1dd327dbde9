//===- kami/SpecCore.h - Single-cycle spec processor -----------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-cycle processor model that the pipelined implementation
/// refines (paper section 5.7: "The pipelined processor is proven to
/// implement a single-cycle processor model in the sense of refinement").
/// It shares the combinational decode/execute logic (kami/Decode.h) and
/// the memory/MMIO routing (kami/MemSystem.h) with the pipelined core,
/// exactly as the paper's designs share them so that ISA fixes do not
/// disturb the refinement proof.
///
/// Like the Kami semantics, this model has *no* notion of undefined
/// behavior (section 5.8): illegal instructions retire as no-ops,
/// too-large addresses wrap around, misaligned accesses use the aligned
/// containing word, and ecall/ebreak do nothing. The lockstep checker
/// relies on the software semantics to rule such states out before
/// comparing. Instructions are fetched from the reset-time instruction
/// snapshot (ICache), so the spec core exhibits the same
/// stale-instruction behavior as the implementation — this is what makes
/// the refinement hold even for self-modifying programs.
///
/// The spec core also serves as the repository's stand-in for a
/// commercial ~1-instruction-per-cycle core (the paper approximates the
/// FE310's Rocket core as executing 1 instruction per cycle in section
/// 7.2.1), which is how the processor_factor bench uses it.
///
//===----------------------------------------------------------------------===//

#ifndef B2_KAMI_SPECCORE_H
#define B2_KAMI_SPECCORE_H

#include "kami/Bram.h"
#include "kami/Decode.h"
#include "kami/Labels.h"
#include "kami/MemSystem.h"
#include "riscv/Mmio.h"
#include "support/Snapshot.h"

#include <cstdint>

namespace b2 {
namespace kami {

/// One-instruction-per-cycle RV32IM core.
class SpecCore {
public:
  SpecCore(Bram &Mem, riscv::MmioDevice &Device);

  /// Executes one cycle (= one instruction).
  void tick();

  /// Runs \p N cycles.
  void run(uint64_t N);

  Word getReg(unsigned R) const { return R == 0 ? 0 : Regs[R]; }
  Word getPc() const { return Pc; }
  void setPc(Word V) { Pc = V; }

  uint64_t cycles() const { return Cycles; }
  uint64_t retired() const { return Retired; }

  const LabelTrace &labels() const { return Labels; }
  /// Empties the label log but keeps its capacity, for an owner that has
  /// consumed every label so far and reads only new ones. The next
  /// snapshot starts a new delta chain.
  void clearLabels() {
    Labels.clear();
    LabelChain.reset();
  }

  const ICache &icache() const { return IMem; }

  // -- Snapshot/restore ------------------------------------------------------

  /// Core-private checkpoint: architectural registers plus the label
  /// trace as a delta chain. The ICache is reset-time-immutable (its
  /// decode memos are behavior-neutral) and the BRAM is checkpointed by
  /// its owner, so neither appears here.
  struct Snapshot {
    Word Regs[32];
    Word Pc;
    uint64_t Cycles;
    uint64_t Retired;
    support::ChainTracker<Label>::Snap Labels;
  };

  Snapshot snapshot();
  void restore(const Snapshot &S);

private:
  MemPort Port;
  ICache IMem;
  Word Regs[32] = {};
  Word Pc = 0;
  uint64_t Cycles = 0;
  uint64_t Retired = 0;
  LabelTrace Labels;
  support::ChainTracker<Label> LabelChain;

  void setReg(unsigned R, Word V) {
    if (R != 0)
      Regs[R] = V;
  }
};

} // namespace kami
} // namespace b2

#endif // B2_KAMI_SPECCORE_H
