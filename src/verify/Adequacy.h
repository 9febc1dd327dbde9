//===- verify/Adequacy.h - Checker-adequacy campaign -----------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-injection adequacy campaign: mutation testing for the
/// verification fleet itself. The paper's argument rests on a stack of
/// proofs; this repository replaces each proof with an executable checker
/// (CompilerDiff, Lockstep, Refinement, EndToEnd, DecodeConsistency, the
/// differential interpreter). The campaign answers the question those
/// checkers cannot answer about themselves: *would they notice if the
/// artifact were wrong?*
///
/// Every fault in verify/FaultInjection.h is a named, seeded bug in one
/// layer of the stack. The campaign arms one fault at a time (runtime
/// FaultPlan, no rebuild) and runs every checker column against its
/// directed stimulus battery, producing a kill matrix:
///
///  * every fault must be killed by its *owning* checker — the executable
///    stand-in for the paper proof that would have ruled the bug out; and
///  * with no fault armed, no checker may report a failure (the
///    no-false-positive row), on the *same binary*.
///
/// Cells are independent, so the campaign shards across threads
/// (support::parallelFor); each cell is a pure function of its (fault,
/// checker) pair, so the report — including the JSON rendering — is
/// bit-identical at every thread count. Time-to-kill is measured in
/// stimuli, never in wall-clock, for the same reason.
///
//===----------------------------------------------------------------------===//

#ifndef B2_VERIFY_ADEQUACY_H
#define B2_VERIFY_ADEQUACY_H

#include "verify/FaultInjection.h"

#include <cstdint>
#include <string>
#include <vector>

namespace b2 {
namespace verify {

/// The checker columns of the kill matrix. Six are the fleet's standing
/// checkers; SoakMonitor covers the traffic layer — scenario determinism,
/// pcap round-trips, and the streaming goodHlTrace monitor's agreement
/// with the offline matcher; SnapDiff is the checkpoint layer's bit-identity
/// differential — a snapshot-resumed soak run must match the
/// straight-through run exactly, so it is the column that owns
/// checkpoint/restore faults; BlockDiff is the superblock trace engine's
/// lockstep differential (riscv/BlockEngine.h, ExecMode::Differential) —
/// the column that owns the engine's translation and invalidation
/// discipline faults.
enum class Checker : uint8_t {
  CompilerDiff,     ///< Source semantics vs. compiled machine code.
  InterpDiff,       ///< Reference AST walker vs. bytecode engine.
  Lockstep,         ///< Pipelined core vs. ISA simulator (kstep_sound).
  Refinement,       ///< Pipelined core vs. single-cycle spec core.
  EndToEnd,         ///< The end2end_lightbulb theorem, executably.
  DecodeConsistency,///< Kami decoder vs. riscv-coq-style decoder.
  SoakMonitor,      ///< Traffic soak harness and streaming monitor.
  SnapDiff,         ///< Snapshot-resume vs. straight-through identity.
  BlockDiff,        ///< Superblock trace engine vs. reference stepper.
  VcCheck,          ///< Symbolic VC engine vs. checking interpreter:
                    ///< counterexamples must replay concretely, Valid
                    ///< verdicts must survive seeded concrete probes.
  NumCheckers,      ///< Count sentinel; not a checker.
};

constexpr unsigned NumCheckers = unsigned(Checker::NumCheckers);

/// Stable column name ("CompilerDiff", ... — matches FaultInfo::Owner).
const char *checkerName(Checker C);

/// Inverse of checkerName; returns false if \p Name is unknown.
bool checkerByName(const std::string &Name, Checker &Out);

/// Outcome of one (fault, checker) cell.
struct CellResult {
  fi::Fault FaultId = fi::Fault::NumFaults; ///< NumFaults == baseline row.
  Checker Col = Checker::NumCheckers;
  bool Killed = false;
  uint64_t StimuliRun = 0;  ///< Stimuli executed in this cell.
  uint64_t TimeToKill = 0;  ///< 1-based index of the killing stimulus
                            ///< (0 when not killed). Deterministic: a
                            ///< count of stimuli, never wall-clock.
  std::string Detail;       ///< First failure description (diagnostic).
};

struct AdequacyOptions {
  unsigned Threads = 1;
  /// Quick gate (CI per-PR): a representative subset of faults, each run
  /// against its owning checker only, plus the full baseline row.
  bool Quick = false;
  /// Restrict the campaign to one fault by stable name (debugging);
  /// empty = all faults in scope.
  std::string OnlyFault;
};

struct AdequacyReport {
  bool Quick = false;
  /// Nonempty iff the campaign could not run as requested (e.g. an
  /// unknown OnlyFault name). A report with an Error is never green.
  std::string Error;
  /// The baseline (no fault armed) cells, one per checker column.
  std::vector<CellResult> Baseline;
  /// Fault cells, fault-major in registry order, checker-minor.
  std::vector<CellResult> Cells;

  /// True iff no checker fails with an empty fault plan.
  bool noFalsePositives() const;
  /// True iff every fault in the campaign was killed by its owner column.
  bool allKilledByOwner() const;
  /// The owner-column cell for \p F, or null if outside the campaign.
  const CellResult *ownerCell(fi::Fault F) const;
  /// One-line human summary of the first violated property ("" if green).
  std::string firstViolation() const;
};

/// Runs the campaign. Deterministic for every Threads value.
AdequacyReport runAdequacy(const AdequacyOptions &Options);

/// The quick-gate fault subset: ~10 faults spanning every layer and every
/// owner column.
std::vector<fi::Fault> quickFaultSet();

/// Renders \p Report as the ADEQUACY.json document (schema
/// "b2stack-adequacy-v1"). Pure function of the report: contains no
/// timestamps, durations, paths, or host details.
std::string adequacyJson(const AdequacyReport &Report);

} // namespace verify
} // namespace b2

#endif // B2_VERIFY_ADEQUACY_H
