//===- vc/Replay.h - Concrete counterexample replay ------------*- C++ -*-===//
//
// Part of the b2stack project: a C++ reproduction of "Integration
// Verification across Software and Hardware for a Simple Embedded System"
// (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trust boundary of the VC engine: symbolic results are never
/// believed un-witnessed. Every satisfying model becomes concrete inputs
/// (entry arguments from the parameter variables, MMIOREAD answers from
/// the guarded event list) and is re-run through bedrock2::Interp in
/// Reference mode; a Counterexample verdict is issued only if the checking
/// interpreter reports the *same* Fault enumerator the obligation
/// predicted. A model that fails to reproduce — a solver bug, an encoding
/// bug, or honest havoc abstraction at annotated loop heads — demotes the
/// obligation to Unknown.
///
/// The dual direction: probeValid() stress-tests Valid verdicts with N
/// seeded concrete executions (random arguments, random MMIO responses).
/// A run that trips any contract fault means the WP generator lost an
/// obligation — which is exactly how the seeded vc-wp-dropped-conjunct
/// fault gets killed in the adequacy matrix. The probes run in Fast mode,
/// on the bytecode engine (bedrock2/Bytecode.h) compiled once per
/// probeValid() call: that engine is the checked second witness of the
/// reference walker, reporting the same faults, details, step counts and
/// traces. Counterexample replay, which confirms a verdict rather than
/// searching for one, stays on the Reference walker.
///
//===----------------------------------------------------------------------===//

#ifndef B2_VC_REPLAY_H
#define B2_VC_REPLAY_H

#include "bedrock2/Semantics.h"
#include "vc/Wp.h"

#include <string>
#include <vector>

namespace b2 {
namespace vc {

struct ReplayOutcome {
  bool Confirmed = false;       ///< Interpreter faulted exactly as predicted.
  bedrock2::Fault Observed = bedrock2::Fault::None;
  std::string Detail;           ///< Interpreter fault detail / mismatch note.
  std::vector<Word> Args;       ///< Concrete entry arguments used.
};

struct ReplayOptions {
  uint64_t Fuel = 2'000'000;
  Word RamBytes = 64 * 1024;
  bedrock2::StackallocPolicy Stack;
};

/// Replays \p Model (one Word per arena var) against the interpreter and
/// reports whether it reproduces \p Expected.
ReplayOutcome replayModel(const bedrock2::Program &P, const std::string &Func,
                          const ExprArena &Arena, const WpResult &Wp,
                          const std::vector<Word> &Model,
                          bedrock2::Fault Expected,
                          const ReplayOptions &Opts = ReplayOptions());

/// Runs \p Probes seeded concrete executions of \p Func with random
/// arguments satisfying nothing in particular and random MMIO responses.
/// Returns the number of runs that violated a contract (top-level
/// precondition rejections and fuel exhaustion do not count); \p Detail
/// describes the first violation.
unsigned probeValid(const bedrock2::Program &P, const std::string &Func,
                    unsigned Probes, uint64_t Seed, std::string &Detail,
                    const ReplayOptions &Opts = ReplayOptions());

} // namespace vc
} // namespace b2

#endif // B2_VC_REPLAY_H
