//===- examples/quickstart.cpp - Tour of the b2stack API ---------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// Quickstart: write a Bedrock2 program, run it in the checking
// interpreter, compile it to RV32IM, and execute the binary on all three
// machine models (ISA simulator, single-cycle spec core, pipelined core),
// confirming they agree.
//
//===----------------------------------------------------------------------===//

#include "bedrock2/CExport.h"
#include "bedrock2/Parser.h"
#include "bedrock2/Semantics.h"
#include "compiler/Compile.h"
#include "isa/Disasm.h"
#include "kami/PipelinedCore.h"
#include "kami/SpecCore.h"
#include "riscv/Step.h"
#include "support/Format.h"

#include <cstdio>

using namespace b2;

namespace {

// GCD, iteratively, in Bedrock2's concrete syntax.
const char *GcdSource = R"(
fn gcd(a, b) -> (r) {
  while (b != 0) {
    t = b;
    b = a % b;
    a = t;
  }
  r = a;
}

fn main() -> (r) {
  r = gcd(1071, 462);
}
)";

} // namespace

int main() {
  std::printf("== b2stack quickstart ==\n\n");

  // 1. Parse.
  bedrock2::ParseResult Parsed = bedrock2::parseProgram(GcdSource);
  if (!Parsed.ok()) {
    std::printf("parse error: %s\n", Parsed.Error.c_str());
    return 1;
  }
  bedrock2::Program P = std::move(*Parsed.Prog);
  std::printf("parsed %zu functions\n", P.Functions.size());

  // 2. Run in the checking interpreter (the program-logic level).
  riscv::NoDevice Dev;
  bedrock2::MmioExtSpec Ext(Dev, 64 * 1024);
  bedrock2::Interp I(P, Ext);
  bedrock2::ExecResult Src = I.callFunction("main", {});
  if (!Src.ok()) {
    std::printf("source-level fault: %s (%s)\n",
                bedrock2::faultName(Src.F), Src.Detail.c_str());
    return 1;
  }
  std::printf("interpreter: gcd(1071, 462) = %u\n", Src.Rets[0]);

  // 3. Compile to RV32IM.
  compiler::CompileResult C = compiler::compileProgram(
      P, compiler::CompilerOptions::o0(),
      compiler::Entry::singleCall("main"), 64 * 1024);
  if (!C.ok()) {
    std::printf("compile error: %s\n", C.Error.c_str());
    return 1;
  }
  const compiler::CompiledProgram &Prog = *C.Prog;
  std::printf("compiled: %u bytes of code, max stack %u bytes\n",
              Prog.CodeBytes, Prog.MaxStackBytes);
  std::printf("\nfirst instructions:\n");
  for (size_t K = 0; K != 8 && K != Prog.Code.size(); ++K)
    std::printf("  %s:  %s\n", support::hex32(Word(K * 4)).c_str(),
                isa::disasm(Prog.Code[K]).c_str());

  // 4. Run the binary on the software-oriented ISA semantics.
  riscv::Machine M(64 * 1024);
  M.loadImage(0, Prog.image());
  riscv::NoDevice Dev2;
  riscv::runToPc(M, Dev2, Prog.HaltPc);
  std::printf("\nISA simulator:  a0 = %u after %llu instructions\n",
              M.getReg(10),
              (unsigned long long)M.retiredInstructions());

  // 5. Run on the single-cycle spec core and the pipelined core.
  riscv::NoDevice Dev3, Dev4;
  kami::Bram MemA(64 * 1024), MemB(64 * 1024);
  MemA.loadImage(Prog.image());
  MemB.loadImage(Prog.image());
  kami::SpecCore Spec(MemA, Dev3);
  Spec.run(M.retiredInstructions());
  kami::PipelinedCore Pipe(MemB, Dev4);
  Pipe.runUntilRetired(M.retiredInstructions(), 100'000'000);
  std::printf("spec core:      a0 = %u after %llu cycles\n", Spec.getReg(10),
              (unsigned long long)Spec.cycles());
  std::printf("pipelined core: a0 = %u after %llu cycles (IPC %.2f)\n",
              Pipe.getReg(10), (unsigned long long)Pipe.cycles(),
              double(Pipe.retired()) / double(Pipe.cycles()));

  bool Agree = M.getReg(10) == Src.Rets[0] &&
               Spec.getReg(10) == Src.Rets[0] &&
               Pipe.getReg(10) == Src.Rets[0];
  std::printf("\nall four layers agree: %s\n", Agree ? "YES" : "NO");

  // 6. Export to C (Figure 1's "Exported C code" arrow).
  std::printf("\nC export of gcd:\n%s",
              bedrock2::exportCFunction(P.Functions.at("gcd")).c_str());
  return Agree ? 0 : 1;
}
