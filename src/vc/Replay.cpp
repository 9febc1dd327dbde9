//===- vc/Replay.cpp - Concrete counterexample replay ---------------------===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "vc/Replay.h"

#include "bedrock2/Bytecode.h"
#include "devices/MemoryMap.h"
#include "support/Rng.h"

#include <cstring>
#include <deque>
#include <memory>

namespace b2 {
namespace vc {
namespace {

using bedrock2::ExtSpec;
using bedrock2::Fault;
using bedrock2::Footprint;

/// An ExtSpec performing the identical contract checks as MmioExtSpec but
/// answering MMIOREADs from a script (the model's chosen device values)
/// instead of a device model. The checks must match bit for bit: replay
/// confirmation hinges on the interpreter reaching the same fault site.
class ScriptedMmioExtSpec final : public ExtSpec {
public:
  ScriptedMmioExtSpec(std::deque<Word> Script, Word RamBytes)
      : Script(std::move(Script)), RamBytes(RamBytes) {}

  Outcome call(const std::string &Action, const std::vector<Word> &Args,
               Footprint &Mem) override {
    (void)Mem;
    Outcome Out;
    const bool IsRead =
        Action.size() == 8 && std::memcmp(Action.data(), "MMIOREAD", 8) == 0;
    const bool IsWrite = !IsRead && Action.size() == 9 &&
                         std::memcmp(Action.data(), "MMIOWRITE", 9) == 0;
    if (!IsRead && !IsWrite) {
      Out.Ok = false;
      Out.Error = "unknown external procedure '" + Action + "'";
      return Out;
    }
    if (Args.size() != (IsRead ? 1u : 2u)) {
      Out.Ok = false;
      Out.Error = IsRead ? "MMIOREAD expects 1 argument"
                         : "MMIOWRITE expects 2 arguments";
      return Out;
    }
    const Word Addr = Args[0];
    if (!devices::isMmioAddr(Addr)) {
      Out.Ok = false;
      Out.Error = "address is not an MMIO address";
      return Out;
    }
    if (!support::isAligned(Addr, 4)) {
      Out.Ok = false;
      Out.Error = "MMIO address is not word-aligned";
      return Out;
    }
    if (Addr < RamBytes) {
      Out.Ok = false;
      Out.Error = "MMIO address overlaps physical memory";
      return Out;
    }
    if (IsRead) {
      Word V = 0;
      if (!Script.empty()) {
        V = Script.front();
        Script.pop_front();
      }
      Out.Rets.push_back(V);
    }
    return Out;
  }

private:
  std::deque<Word> Script;
  Word RamBytes;
};

/// MMIO responses drawn from a deterministic RNG (probeValid).
class RandomMmioExtSpec final : public ExtSpec {
public:
  RandomMmioExtSpec(uint64_t Seed, Word RamBytes)
      : R(Seed), Checker({}, RamBytes) {}

  Outcome call(const std::string &Action, const std::vector<Word> &Args,
               Footprint &Mem) override {
    // Reuse the scripted checker for the contract logic with an empty
    // script, then substitute a random read value on success.
    Outcome Out = Checker.call(Action, Args, Mem);
    if (Out.Ok && !Out.Rets.empty())
      Out.Rets[0] = R.interestingWord();
    return Out;
  }

private:
  support::Rng R;
  ScriptedMmioExtSpec Checker;
};

} // namespace

ReplayOutcome replayModel(const bedrock2::Program &P, const std::string &Func,
                          const ExprArena &Arena, const WpResult &Wp,
                          const std::vector<Word> &Model, Fault Expected,
                          const ReplayOptions &Opts) {
  ReplayOutcome Out;
  for (unsigned V : Wp.ParamVars)
    Out.Args.push_back(V < Model.size() ? Model[V] : 0);

  // Script the MMIOREAD answers: the events whose guards hold under the
  // model, in program order, are the reads the concrete run will perform.
  std::vector<Word> Vals = Arena.evalAll(Model);
  std::deque<Word> Script;
  for (const SymEvent &E : Wp.Events)
    if (E.IsRead && Vals[E.Guard] != 0)
      Script.push_back(E.ReadVar < Model.size() ? Model[E.ReadVar] : 0);

  ScriptedMmioExtSpec Ext(std::move(Script), Opts.RamBytes);
  bedrock2::Interp I(P, Ext, Opts.Fuel, Opts.Stack,
                     bedrock2::ExecMode::Reference);
  bedrock2::ExecResult R = I.callFunction(Func, Out.Args);
  Out.Observed = R.F;
  Out.Detail = R.Detail;
  Out.Confirmed = R.F == Expected;
  if (!Out.Confirmed && R.F == Fault::None)
    Out.Detail = "run completed without fault";
  return Out;
}

unsigned probeValid(const bedrock2::Program &P, const std::string &Func,
                    unsigned Probes, uint64_t Seed, std::string &Detail,
                    const ReplayOptions &Opts) {
  const bedrock2::Function *F = P.find(Func);
  if (!F) {
    Detail = "unknown function '" + Func + "'";
    return 1;
  }
  if (Probes == 0)
    return 0;
  // The probes run on the bytecode engine (a checked second witness of
  // the reference walker), sharing one compile of the program.
  auto Bc = std::make_shared<const bedrock2::BytecodeProgram>(P);
  unsigned Violations = 0;
  support::Rng ArgRng(Seed);
  for (unsigned N = 0; N < Probes; ++N) {
    std::vector<Word> Args;
    for (size_t I = 0; I < F->Params.size(); ++I)
      Args.push_back(ArgRng.interestingWord());
    RandomMmioExtSpec Ext(Seed ^ (0x9e3779b9ull * (N + 1)), Opts.RamBytes);
    bedrock2::Interp I(P, Ext, Opts.Fuel, Opts.Stack, bedrock2::ExecMode::Fast,
                       Bc);
    bedrock2::ExecResult R = I.callFunction(Func, Args);
    if (R.F == Fault::None || R.F == Fault::OutOfFuel)
      continue;
    // A rejected entry precondition makes the probe vacuous — the
    // contract only promises anything for inputs satisfying it. The entry
    // check runs before any statement executes, so StepsUsed == 0
    // identifies it positively; a callee precondition failing mid-run —
    // including a recursive call back into the entry function — has
    // executed at least the call statement and is a real violation.
    if (R.F == Fault::PreconditionFailed && R.StepsUsed == 0)
      continue;
    ++Violations;
    if (Detail.empty())
      Detail = "probe " + std::to_string(N) + ": " +
               bedrock2::faultName(R.F) + " (" + R.Detail + ")";
  }
  return Violations;
}

} // namespace vc
} // namespace b2
