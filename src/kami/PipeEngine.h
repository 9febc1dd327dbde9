//===- kami/PipeEngine.h - Pipelined-core fast engine -----------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fast engine of the pipelined Kami core. PipelinedCore::tick stays
/// the reference semantics, one call per clock cycle; this engine advances
/// one *instruction* per step and produces tick()'s exact cycle schedule.
///
/// That is possible because the pipeline is in order, its latches hold
/// one entry each and (by default) it has no forwarding network, so the
/// cycles in which IF/ID/EX/WB act on instruction i follow from those of
/// its predecessor P = i-1 alone:
///
///   f_i = e_P if P mispredicted, else d_P      (fetch)
///   S_i = max(f_i + 1, e_P)                    (ID first looks at i)
///   d_i = max(S_i, w_P) if P writes a register i reads or writes,
///         else S_i                             (decode; RawStalls += d-S)
///   e_i = max(d_i + 1, w_P)                    (execute)
///   w_i = e_i + 1 + MmioLatency if i is an external load/store,
///         else e_i + 1                         (write-back; label cycle)
///
/// Only P can still be in flight when ID first looks at i, because the
/// single-entry E2W latch gives w_{i-2} <= e_P; so the scoreboard reduces
/// to P's destination register. The BTB is trained in program order, and
/// a correctly predicted instruction's training is a no-op, so predicting
/// each fetch from the program-order BTB is exact.
///
/// An instruction whose write-back lands inside the chunk and that makes
/// no external access retires in one step (PipelinedCore::retireNow):
/// one dispatch on its class through the shared kami::datapath, writing
/// the register file and RAM directly. The chunk edges (write-back after
/// the chunk, the latches lifted at entry) and external accesses, which
/// pay the MMIO latency, go through tick()'s execute()/retire().
///
/// The engine keeps no state between run() calls. At entry it lifts the
/// E2W (with MmioStallLeft), D2E and F2D latches into the recurrence; at
/// the end of the chunk it rebuilds every latch — including a wrong-path
/// fetch not yet squashed — plus the scoreboard, FetchPc, the stall
/// counters and MmioStallLeft exactly as tick() would have left them.
/// Snapshots, restores and every reader of PipelinedCore therefore see
/// one state whichever engine ran. Reset-fill cycles are skipped in bulk.
///
/// Cores with forwarding enabled, and runs with a seeded fault armed in
/// tick()'s own control logic, always run the reference tick(): the
/// recurrence describes the paper's core, not those variants.
/// runUntilRetired (Lockstep, Refinement) is a tick() loop by definition.
///
/// ExecMode::Differential checks the engine after every run() chunk: a
/// shadow core on a shadow BRAM, restored from the primary, replays the
/// same cycles through tick() with external loads served from the
/// primary's labels, and then the whole core state — PipeStats,
/// registers, latches, scoreboard, BTB, stall counters, labels with
/// their cycles — and the BRAM must match exactly.
///
//===----------------------------------------------------------------------===//

#ifndef B2_KAMI_PIPEENGINE_H
#define B2_KAMI_PIPEENGINE_H

#include "kami/PipelinedCore.h"
#include "riscv/ExecMode.h"

#include <cstdint>
#include <memory>
#include <string>

namespace b2 {
namespace kami {

/// Drives one PipelinedCore for its lifetime in the selected mode.
class PipeEngine {
public:
  PipeEngine(PipelinedCore &Core, riscv::ExecMode Mode);
  ~PipeEngine();

  PipeEngine(const PipeEngine &) = delete;
  PipeEngine &operator=(const PipeEngine &) = delete;

  /// Runs exactly \p Cycles clock cycles: PipelinedCore::run's contract.
  void run(uint64_t Cycles);

  /// The core (or its BRAM) was restored from a snapshot: the
  /// Differential shadow resyncs before the next chunk.
  void onRestore() { ShadowStale = true; }

  /// How runFast took the instructions it executed. Most retire in one
  /// step (PipelinedCore::retireNow); the rest are the chunk-edge cases
  /// that go through execute() and retire() and rebuild latches.
  struct Paths {
    uint64_t RetireNow = 0; ///< Executed and retired in one step.
    uint64_t LiftedE2W = 0; ///< In E2W at chunk entry.
    uint64_t LiftedD2E = 0; ///< Executed from D2E at chunk entry.
    uint64_t External = 0;  ///< External accesses (they pay MmioLatency).
    uint64_t PastChunk = 0; ///< Executed, write-back after the chunk.
  };
  const Paths &paths() const { return Taken; }

  /// Differential mode: divergences seen (sticky: comparison stops after
  /// the first, preserving its detail).
  uint64_t divergences() const { return DivergenceCount; }
  const std::string &divergenceDetail() const { return DivergenceMsg; }

private:
  class ReplayDevice;

  /// True when tick() must drive the core: forwarding is enabled, or a
  /// seeded fault in tick()'s own control logic is armed.
  bool pinnedToTick() const;
  void runFast(uint64_t Cycles);
  void syncShadow();
  std::string compareWithShadow(size_t LabelStart, bool Desynced) const;

  PipelinedCore &Core;
  riscv::ExecMode Mode;

  std::unique_ptr<ReplayDevice> Replay; ///< Differential only.
  std::unique_ptr<Bram> ShadowMem;
  std::unique_ptr<PipelinedCore> Shadow;
  Paths Taken;
  bool ShadowStale = true;
  bool DiffDead = false;
  uint64_t DivergenceCount = 0;
  std::string DivergenceMsg;
};

} // namespace kami
} // namespace b2

#endif // B2_KAMI_PIPEENGINE_H
