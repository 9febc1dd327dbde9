//===- riscv/Step.h - One-instruction ISA semantics ------------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-instruction step function of the software-oriented RISC-V
/// semantics (the paper's `s -> Q`, section 4.3), and a run loop that
/// iterates it (the paper's eventually operator is realized as bounded
/// iteration in the executable setting).
///
/// The paper's CPS formulation exists to quantify over *all* possible next
/// states under nondeterminism; in this executable reproduction the
/// device parameter resolves input nondeterminism, so one step computes
/// one concrete successor or marks the machine as UB.
///
//===----------------------------------------------------------------------===//

#ifndef B2_RISCV_STEP_H
#define B2_RISCV_STEP_H

#include "riscv/Machine.h"
#include "riscv/Mmio.h"

#include <cstdint>

namespace b2 {
namespace riscv {

/// Executes one instruction. If the step triggers undefined behavior, the
/// machine is marked accordingly (`Machine::hasUb()` becomes true) and the
/// architectural state is left at the point just before the offending
/// operation. Returns true iff the step was well-defined.
bool step(Machine &M, MmioDevice &Device);

/// Runs up to \p MaxSteps instructions, stopping early on UB. Returns the
/// number of retired (well-defined) instructions.
uint64_t run(Machine &M, MmioDevice &Device, uint64_t MaxSteps);

/// Like run(), but also stops before executing the instruction at
/// \p StopPc (a compiled single call's HaltPc parking loop).
uint64_t runToPc(Machine &M, MmioDevice &Device, Word StopPc,
                 uint64_t MaxSteps = UINT64_MAX);

} // namespace riscv
} // namespace b2

#endif // B2_RISCV_STEP_H
