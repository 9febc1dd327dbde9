//===- verify/EndToEnd.h - end2end_lightbulb, executably -------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable counterpart of the paper's end-to-end theorem
/// (section 5.9):
///
/// \code
///   Theorem end2end_lightbulb: forall mem0 t,
///     bytes_at (instrencode lightbulb_insts) 0 mem0  AND
///     Trace (p4mm mem0) t  ->
///     exists t', KamiRiscv.KamiLabelSeqR t t'  AND
///                prefix_of t' goodHlTrace.
/// \endcode
///
/// The harness compiles the firmware, places the encoded instructions at
/// address 0, runs the chosen processor model against a scripted packet
/// scenario, maps the label trace through KamiLabelSeqR, and checks prefix
/// membership in goodHlTrace. It additionally checks a *ground truth* the
/// paper gets for free from the theorem statement: the physical lightbulb
/// state changes exactly according to the valid command frames the NIC
/// accepted, no matter how malformed the other traffic was.
///
/// The system itself is the stack's one whole-system runner,
/// traffic::SoakMachine, driven by traffic::runShardLoop in schedule mode
/// — the same machine and delivery loop that soak shards, the shrinker
/// and the latency benches use. What is specific to this checker is the
/// verdict: the whole trace judged offline by Matcher::diagnose, and the
/// ground truth judged by traffic::expectedLightSequence.
///
//===----------------------------------------------------------------------===//

#ifndef B2_VERIFY_ENDTOEND_H
#define B2_VERIFY_ENDTOEND_H

#include "app/Firmware.h"
#include "compiler/Compile.h"
#include "devices/Platform.h"
#include "riscv/BlockEngine.h"
#include "riscv/Mmio.h"
#include "tracespec/Matcher.h"
#include "traffic/Checkpoint.h"

#include <cstdint>
#include <string>
#include <vector>

namespace b2 {
namespace verify {

struct E2EOptions {
  Word RamBytes = 64 * 1024;
  traffic::SoakCore Core = traffic::SoakCore::Pipelined;
  devices::SpiConfig Spi; ///< Default: the verified system.
  app::FirmwareOptions Firmware;   ///< Default: verified firmware.
  compiler::CompilerOptions Compiler = compiler::CompilerOptions::o0();
  uint64_t MaxCycles = 400'000'000;
  /// Engine of the ISA simulator or the pipelined core (see
  /// traffic::SoakOptions::SimExec). Block runs the fast engine;
  /// Reference runs the reference semantics alone; Differential checks
  /// Block in lockstep against it and fails the run on the first
  /// divergence.
  riscv::ExecMode SimExec = riscv::ExecMode::Block;
};

/// A packet arrival script (op-count scheduled; see devices/Platform.h).
struct E2EScenario {
  std::vector<devices::ScheduledFrame> Frames;
};

struct E2EResult {
  bool Ok = false;            ///< Prefix + ground truth + no UB.
  bool PrefixAccepted = false;
  bool GroundTruthOk = false;
  std::string Error;
  tracespec::MatchDiagnosis Diag; ///< Spec-matcher diagnostics.
  riscv::MmioTrace Trace;         ///< KamiLabelSeqR of the run.
  std::vector<bool> LightHistory; ///< Observed distinct lightbulb states.
  std::vector<bool> ExpectedLights; ///< Ground-truth distinct states.
  size_t AcceptedFrames = 0;
  uint64_t Cycles = 0;
  uint64_t Retired = 0;
};

/// Builds and runs the whole system on \p Scenario.
E2EResult runLightbulbEndToEnd(const E2EScenario &Scenario,
                               const E2EOptions &Options);

/// Same, but with a pre-compiled firmware image (avoids recompiling in
/// loops; the image must be the firmware configured as in \p Options).
E2EResult runCompiledEndToEnd(const compiler::CompiledProgram &Prog,
                              const E2EScenario &Scenario,
                              const E2EOptions &Options);

/// Builds a randomized adversarial scenario: \p NumFrames frames from the
/// packet fuzzer, scheduled \p OpSpacing MMIO-operations apart starting
/// after \p FirstAtOp.
E2EScenario fuzzScenario(uint64_t Seed, unsigned NumFrames,
                         uint64_t FirstAtOp = 2000,
                         uint64_t OpSpacing = 3000);

} // namespace verify
} // namespace b2

#endif // B2_VERIFY_ENDTOEND_H
