//===- riscv/ExecMode.h - Execution-engine selector -------------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine selector shared by every layer that has a reference
/// semantics and one fast engine checked against it: the ISA simulator
/// (riscv/BlockEngine.h) and the pipelined Kami core (kami/PipeEngine.h).
///
//===----------------------------------------------------------------------===//

#ifndef B2_RISCV_EXECMODE_H
#define B2_RISCV_EXECMODE_H

#include <cstdint>
#include <string>

namespace b2 {
namespace riscv {

/// Which execution engine drives a layer.
enum class ExecMode : uint8_t {
  Reference,    ///< The layer's reference semantics: the ISA stepper
                ///< (riscv/Step.h) or PipelinedCore::tick.
  Block,        ///< The layer's fast engine: superblock traces for the
                ///< ISA simulator, the instruction-stepped recurrence
                ///< for the pipelined core.
  Differential, ///< The fast engine checked against Reference after
                ///< every run() chunk.
};

/// Stable lower-case name ("reference", "block", "differential").
const char *execModeName(ExecMode Mode);

/// Parses a mode name (accepts "diff" for Differential). Returns false
/// and leaves \p Out untouched on unknown names.
bool execModeByName(const std::string &Name, ExecMode &Out);

} // namespace riscv
} // namespace b2

#endif // B2_RISCV_EXECMODE_H
