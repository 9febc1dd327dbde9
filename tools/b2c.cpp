//===- tools/b2c.cpp - Bedrock2 compiler driver ---------------------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// A command-line front end to the whole stack: parse a Bedrock2 source
// file, compile it, and inspect or run the result.
//
//   b2c FILE.b2 [options]
//     --emit=asm|hex|c|flat     output form (default: asm listing)
//     -O3                       optimizing mode (gcc -O3 stand-in)
//     --run=FN[,ARG...]         compile with a single-call entry and run
//                               the binary on the ISA simulator
//     --core=sim|spec|pipe      which machine model --run uses
//     --event-loop=INIT,LOOP    event-loop entry (run caps at --max-steps)
//     --ram=BYTES               RAM size, a multiple of 4 (default 65536)
//     --max-steps=N             simulation budget (default 10M)
//     --trace                   print the MMIO trace after --run
//     --check                   also run the source interpreter and diff
//                               the I/O traces (compiler differential)
//
// Exit code: 0 on success, 1 on any error or differential mismatch, 2 on
// bad usage (an unknown option or a numeric flag outside its range).
//
//===----------------------------------------------------------------------===//

#include "bedrock2/CExport.h"
#include "bedrock2/Parser.h"
#include "compiler/Compile.h"
#include "compiler/Flatten.h"
#include "devices/Platform.h"
#include "isa/Disasm.h"
#include "kami/PipelinedCore.h"
#include "kami/SpecCore.h"
#include "riscv/Step.h"
#include "support/Args.h"
#include "support/Format.h"
#include "verify/CompilerDiff.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace b2;

namespace {

struct Options {
  std::string File;
  std::string Emit = "asm";
  bool Optimize = false;
  bool Trace = false;
  bool Check = false;
  std::string RunFn;
  std::vector<Word> RunArgs;
  std::string Core = "sim";
  std::string LoopInit, LoopFn;
  Word RamBytes = 64 * 1024;
  uint64_t MaxSteps = 10'000'000;
};

int usage() {
  std::fprintf(stderr,
               "usage: b2c FILE.b2 [--emit=asm|hex|c|flat] [-O3]\n"
               "           [--run=FN[,ARG...]] [--core=sim|spec|pipe]\n"
               "           [--event-loop=INIT,LOOP] [--ram=N]\n"
               "           [--max-steps=N] [--trace] [--check]\n");
  return 2;
}

bool parseWord(const std::string &S, Word &Out) {
  try {
    Out = Word(std::stoul(S, nullptr, 0));
    return true;
  } catch (...) {
    return false;
  }
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I != Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind("--emit=", 0) == 0) {
      O.Emit = A.substr(7);
    } else if (A == "-O3") {
      O.Optimize = true;
    } else if (A == "--trace") {
      O.Trace = true;
    } else if (A == "--check") {
      O.Check = true;
    } else if (A.rfind("--core=", 0) == 0) {
      O.Core = A.substr(7);
    } else if (A.rfind("--ram=", 0) == 0) {
      // RAM sits at address 0, below the MMIO windows at 0x10012000.
      uint64_t N = 0;
      if (!support::parseNumericFlag("b2c", "--ram", A.c_str() + 6, 4,
                                     0x10000000, N))
        return false;
      if (N % 4 != 0) {
        std::fprintf(stderr, "b2c: --ram wants a multiple of 4, got '%s'\n",
                     A.c_str() + 6);
        return false;
      }
      O.RamBytes = Word(N);
    } else if (A.rfind("--max-steps=", 0) == 0) {
      // The pipelined core's cycle cap is 4x this, so keep it far from
      // overflow.
      if (!support::parseNumericFlag("b2c", "--max-steps", A.c_str() + 12, 1,
                                     1'000'000'000'000, O.MaxSteps))
        return false;
    } else if (A.rfind("--run=", 0) == 0) {
      std::stringstream SS(A.substr(6));
      std::string Part;
      bool First = true;
      while (std::getline(SS, Part, ',')) {
        if (First) {
          O.RunFn = Part;
          First = false;
        } else {
          Word W;
          if (!parseWord(Part, W))
            return false;
          O.RunArgs.push_back(W);
        }
      }
    } else if (A.rfind("--event-loop=", 0) == 0) {
      std::string Rest = A.substr(13);
      size_t Comma = Rest.find(',');
      if (Comma == std::string::npos)
        return false;
      O.LoopInit = Rest.substr(0, Comma);
      O.LoopFn = Rest.substr(Comma + 1);
    } else if (!A.empty() && A[0] != '-' && O.File.empty()) {
      O.File = A;
    } else {
      return false;
    }
  }
  return !O.File.empty();
}

int emitOnly(const bedrock2::Program &P, const Options &O,
             const compiler::CompiledProgram *Compiled) {
  if (O.Emit == "c") {
    std::printf("%s", bedrock2::exportC(P).c_str());
    return 0;
  }
  if (O.Emit == "flat") {
    compiler::FlattenResult F = compiler::flatten(P);
    if (!F.ok()) {
      std::fprintf(stderr, "b2c: %s\n", F.Error.c_str());
      return 1;
    }
    for (const compiler::FlatFunction &FF : F.Prog->Functions)
      std::printf("%s\n", compiler::toString(FF).c_str());
    return 0;
  }
  if (!Compiled) {
    std::fprintf(stderr, "b2c: nothing to emit\n");
    return 1;
  }
  if (O.Emit == "hex") {
    std::vector<uint8_t> Image = Compiled->image();
    for (size_t I = 0; I < Image.size(); I += 4) {
      Word W = 0;
      for (unsigned B = 0; B != 4; ++B)
        W |= Word(Image[I + B]) << (8 * B);
      std::printf("%08x\n", W);
    }
    return 0;
  }
  // asm listing with function markers.
  std::vector<std::pair<Word, std::string>> Marks;
  for (const auto &[Name, Pc] : Compiled->FunctionPc)
    Marks.push_back({Pc, Name});
  std::sort(Marks.begin(), Marks.end());
  size_t NextMark = 0;
  for (size_t I = 0; I != Compiled->Code.size(); ++I) {
    Word Pc = Word(I) * 4;
    while (NextMark < Marks.size() && Marks[NextMark].first == Pc) {
      std::printf("%s:\n", Marks[NextMark].second.c_str());
      ++NextMark;
    }
    std::printf("  %s:  %s\n", support::hex32(Pc).c_str(),
                isa::disasm(Compiled->Code[I]).c_str());
  }
  return 0;
}

int runBinary(const compiler::CompiledProgram &Prog, const Options &O) {
  devices::Platform Plat;
  riscv::MmioTrace Trace;
  std::vector<Word> Rets;
  uint64_t Retired = 0;

  if (O.Core == "sim") {
    riscv::Machine M(O.RamBytes);
    M.loadImage(0, Prog.image());
    riscv::runToPc(M, Plat, Prog.HaltPc, O.MaxSteps);
    if (M.hasUb()) {
      std::fprintf(stderr, "b2c: machine UB: %s (%s)\n",
                   riscv::ubKindName(M.ubKind()), M.ubDetail().c_str());
      return 1;
    }
    for (unsigned R = 10; R != 18; ++R)
      Rets.push_back(M.getReg(R));
    Trace = M.trace();
    Retired = M.retiredInstructions();
  } else if (O.Core == "spec" || O.Core == "pipe") {
    if (!kami::isBramSize(O.RamBytes)) {
      std::fprintf(stderr,
                   "b2c: --ram=%u: the Kami cores' BRAM must be a power of "
                   "two of at least 4 bytes\n",
                   unsigned(O.RamBytes));
      return 1;
    }
    kami::Bram Mem(O.RamBytes);
    Mem.loadImage(Prog.image());
    if (O.Core == "spec") {
      kami::SpecCore C(Mem, Plat);
      while (C.retired() < O.MaxSteps && C.getPc() != Prog.HaltPc)
        C.tick();
      for (unsigned R = 10; R != 18; ++R)
        Rets.push_back(C.getReg(R));
      Trace = kami::kamiLabelSeqR(C.labels());
      Retired = C.retired();
    } else {
      kami::PipelinedCore C(Mem, Plat);
      while (C.cycles() < O.MaxSteps * 4 &&
             C.architecturalPc() != Prog.HaltPc)
        C.tick();
      for (unsigned R = 10; R != 18; ++R)
        Rets.push_back(C.getReg(R));
      Trace = kami::kamiLabelSeqR(C.labels());
      Retired = C.retired();
    }
  } else {
    std::fprintf(stderr, "b2c: unknown core '%s'\n", O.Core.c_str());
    return 1;
  }

  std::printf("retired %llu instructions; a0 = %s (%u)\n",
              (unsigned long long)Retired,
              support::hex32(Rets[0]).c_str(), Rets[0]);
  if (O.Trace) {
    std::printf("MMIO trace (%zu events):\n%s", Trace.size(),
                riscv::toString(Trace).c_str());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return usage();

  std::ifstream In(O.File);
  if (!In) {
    std::fprintf(stderr, "b2c: cannot open %s\n", O.File.c_str());
    return 1;
  }
  std::stringstream SS;
  SS << In.rdbuf();

  bedrock2::ParseResult P = bedrock2::parseProgram(SS.str());
  if (!P.ok()) {
    std::fprintf(stderr, "b2c: %s: %s\n", O.File.c_str(), P.Error.c_str());
    return 1;
  }

  compiler::CompilerOptions CO = O.Optimize ? compiler::CompilerOptions::o3()
                                            : compiler::CompilerOptions::o0();

  // Pick an entry: --run / --event-loop / first function (with zero
  // arguments supplied, for emit-only modes).
  std::string EntryFn =
      O.RunFn.empty() ? P.Prog->Functions.begin()->first : O.RunFn;
  std::vector<Word> EntryArgs = O.RunArgs;
  if (O.RunFn.empty()) {
    const bedrock2::Function *F = P.Prog->find(EntryFn);
    if (F)
      EntryArgs.assign(F->Params.size(), 0);
  }
  compiler::Entry Entry = compiler::Entry::singleCall(EntryFn, EntryArgs);
  if (!O.LoopInit.empty())
    Entry = compiler::Entry::eventLoop(O.LoopInit, O.LoopFn);

  compiler::CompileResult C =
      compiler::compileProgram(*P.Prog, CO, Entry, O.RamBytes);
  if (!C.ok()) {
    std::fprintf(stderr, "b2c: %s\n", C.Error.c_str());
    return 1;
  }

  if (O.Check && !O.RunFn.empty()) {
    verify::DiffOptions DO;
    DO.Compiler = CO;
    DO.RamBytes = O.RamBytes;
    verify::DiffResult R = verify::diffCompile(
        *P.Prog, O.RunFn, O.RunArgs,
        [] { return std::make_unique<devices::Platform>(); }, DO);
    if (!R.Ok) {
      std::fprintf(stderr, "b2c: differential check FAILED: %s\n",
                   R.Error.c_str());
      return 1;
    }
    if (!R.Source.ok())
      std::fprintf(stderr,
                   "b2c: note: source execution has UB (%s); the check is "
                   "vacuous\n",
                   bedrock2::faultName(R.Source.F));
    else
      std::printf("differential check passed (%zu MMIO events)\n",
                  R.SourceTrace.size());
  }

  if (!O.RunFn.empty() || !O.LoopFn.empty())
    return runBinary(*C.Prog, O);
  return emitOnly(*P.Prog, O, &*C.Prog);
}
