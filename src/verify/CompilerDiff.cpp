//===- verify/CompilerDiff.cpp - Compiler differential checking --------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/CompilerDiff.h"

#include "bedrock2/Bytecode.h"
#include "riscv/Step.h"
#include "support/Format.h"

using namespace b2;
using namespace b2::bedrock2;
using namespace b2::verify;
using namespace b2::support;

namespace {

/// Compares two MMIO traces; returns a description of the first
/// difference or the empty string.
std::string compareTraces(const riscv::MmioTrace &A,
                          const riscv::MmioTrace &B) {
  size_t N = std::min(A.size(), B.size());
  for (size_t I = 0; I != N; ++I)
    if (!(A[I] == B[I]))
      return "event " + std::to_string(I) + " differs: source " +
             riscv::toString(A[I]) + " vs machine " + riscv::toString(B[I]);
  if (A.size() != B.size())
    return "trace lengths differ: source " + std::to_string(A.size()) +
           " vs machine " + std::to_string(B.size());
  return "";
}

} // namespace

DiffResult b2::verify::diffCompile(const Program &P, const std::string &Fn,
                                   const std::vector<Word> &Args,
                                   DeviceFactory MakeDevice,
                                   const DiffOptions &Options) {
  DiffResult R;

  // -- Source side, once per stackalloc placement policy -------------------
  // The bytecode depends on the program alone, so every salt's run shares
  // one compile.
  std::shared_ptr<const BytecodeProgram> Bc;
  if (Options.SourceMode != ExecMode::Reference)
    Bc = std::make_shared<const BytecodeProgram>(P);
  riscv::MmioTrace FirstTrace;
  std::vector<Word> FirstRets;
  bool First = true;
  for (Word Salt : Options.StackallocSalts) {
    std::unique_ptr<riscv::MmioDevice> Dev = MakeDevice();
    MmioExtSpec Ext(*Dev, Options.RamBytes);
    StackallocPolicy Policy;
    Policy.Salt = Salt;
    Interp I(P, Ext, Options.SourceFuel, Policy, Options.SourceMode, Bc);
    for (const auto &[Addr, Len] : Options.OwnRegions)
      I.ownMemory(Addr, Len);
    ExecResult Src = I.callFunction(Fn, Args);
    if (I.divergenceCount() != 0) {
      // Differential source mode: the two semantics engines disagreed,
      // which is a checker bug regardless of what the machine side does.
      R.Error = "source interpreter divergence: " + I.divergence();
      R.Source = std::move(Src);
      return R;
    }
    if (!Src.ok()) {
      // The compiler promises nothing for UB sources; report and stop.
      R.Source = std::move(Src);
      R.Ok = true;
      return R;
    }
    if (First) {
      FirstTrace = Ext.mmioTrace();
      FirstRets = Src.Rets;
      First = false;
    } else {
      std::string D = compareTraces(FirstTrace, Ext.mmioTrace());
      if (!D.empty() || FirstRets != Src.Rets) {
        R.Error = "source behavior depends on stackalloc placement (salt " +
                  std::to_string(Salt) + "): " +
                  (D.empty() ? "return values differ" : D);
        R.Source = std::move(Src);
        return R;
      }
    }
    R.Source = std::move(Src);
  }
  R.SourceTrace = FirstTrace;

  // -- Compile ---------------------------------------------------------------
  compiler::CompileResult C = compiler::compileProgram(
      P, Options.Compiler, compiler::Entry::singleCall(Fn, Args),
      Options.RamBytes);
  if (!C.ok()) {
    R.Error = "compilation failed: " + C.Error;
    return R;
  }
  const compiler::CompiledProgram &Prog = *C.Prog;

  // -- Machine side -------------------------------------------------------------
  std::unique_ptr<riscv::MmioDevice> Dev = MakeDevice();
  riscv::Machine M(Options.RamBytes);
  M.loadImage(0, Prog.image());
  riscv::runToPc(M, *Dev, Prog.HaltPc, Options.MachineMaxSteps);

  if (M.hasUb()) {
    R.Error = std::string("machine-level UB (") + riscv::ubKindName(
                  M.ubKind()) + "): " + M.ubDetail();
    R.MachineTrace = M.trace();
    return R;
  }
  if (M.getPc() != Prog.HaltPc) {
    R.Error = "machine did not reach the halt PC within " +
              std::to_string(Options.MachineMaxSteps) + " steps";
    return R;
  }

  R.MachineTrace = M.trace();
  R.MachineRetired = M.retiredInstructions();

  // XAddrs preservation: the program image must still be executable.
  if (!M.rangeExecutable(0, Prog.CodeBytes)) {
    R.Error = "program image lost executability (stale-instruction "
              "discipline violated)";
    return R;
  }

  // Compare traces.
  std::string D = compareTraces(R.SourceTrace, R.MachineTrace);
  if (!D.empty()) {
    R.Error = D;
    return R;
  }

  // Compare return values (calling convention: results in a0..).
  const Function *F = P.find(Fn);
  for (size_t I = 0; F && I != F->Rets.size() && I < 8; ++I)
    R.MachineRets.push_back(M.getReg(10 + unsigned(I)));
  if (R.MachineRets != R.Source.Rets) {
    std::vector<std::string> A, B;
    for (Word W : R.Source.Rets)
      A.push_back(hex32(W));
    for (Word W : R.MachineRets)
      B.push_back(hex32(W));
    R.Error = "return values differ: source (" + join(A, ", ") +
              ") vs machine (" + join(B, ", ") + ")";
    return R;
  }

  R.Ok = true;
  return R;
}

DiffResult b2::verify::diffCompilePure(const Program &P, const std::string &Fn,
                                       const std::vector<Word> &Args,
                                       const DiffOptions &Options) {
  return diffCompile(P, Fn, Args,
                     [] { return std::make_unique<riscv::NoDevice>(); },
                     Options);
}
