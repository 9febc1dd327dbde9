//===- bench/compiler_factor.cpp - The 2.1x compiler factor --------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// Section 7.2.1: "Our compiler does not do constant propagation, function
// inlining, or exploit caller-saved registers, whereas gcc -O3 inlines
// the SPI driver function call in the innermost loop ... Compiling the
// same verified code with our compiler instead of gcc -O3 increases the
// response time by 2.1x."
//
// This bench measures the verified firmware under the baseline compiler
// vs the optimizing mode on the FE310-like core (isolating the compiler),
// then ablates each optimization individually, and reports code size and
// cycle counts for a set of microkernels.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "LatencyHarness.h"

#include "bedrock2/Parser.h"
#include "riscv/Step.h"

#include <cstdio>

using namespace b2;
using namespace b2::bench;
using namespace b2::compiler;

namespace {

/// Cycles (ISA-simulator instructions) to run Fn on the given options.
struct KernelResult {
  uint64_t Instructions = 0;
  Word CodeBytes = 0;
};

KernelResult runKernel(const bedrock2::Program &P, const std::string &Fn,
                       const std::vector<Word> &Args,
                       const CompilerOptions &O) {
  KernelResult R;
  CompileResult C = compileProgram(P, O, Entry::singleCall(Fn, Args),
                                   64 * 1024);
  if (!C.ok()) {
    std::printf("compile failed: %s\n", C.Error.c_str());
    return R;
  }
  riscv::Machine M(64 * 1024);
  M.loadImage(0, C.Prog->image());
  riscv::NoDevice D;
  riscv::runToPc(M, D, C.Prog->HaltPc);
  R.Instructions = M.retiredInstructions();
  R.CodeBytes = C.Prog->CodeBytes;
  return R;
}

const char *Kernels[] = {
    R"(fn gcd(a, b) -> (r) {
         while (b != 0) { t = b; b = a % b; a = t; }
         r = a;
       })",
    R"(fn checksum(n) -> (r) {
         r = 0;
         stackalloc buf[256] {
           i = 0;
           while (i < 64) { store4(buf + i * 4, i * 2654435761); i = i + 1; }
           i = 0;
           while (i < n) { r = r ^ (load4(buf + (i & 63) * 4) >> 3); i = i + 1; }
         }
       })",
    R"(fn shifts(n) -> (r) {
         mask = 1 << 31;
         r = 0;
         i = 0;
         while (i < n) {
           r = (r + ((i & mask) >> 16)) ^ (i << 2);
           i = i + 1;
         }
       })",
};
const char *KernelNames[] = {"gcd(1071,462)", "checksum(500)", "shifts(500)"};
const std::vector<Word> KernelArgs[] = {{1071, 462}, {500}, {500}};
const char *KernelFns[] = {"gcd", "checksum", "shifts"};

} // namespace

int main() {
  std::printf("== section 7.2.1: compiler factor (paper: 2.1x) ==\n\n");

  // Headline: the whole firmware, FE310-like core, o0 vs o3.
  SysConfig Opt;
  Opt.KamiCore = false;
  Opt.OptCompiler = true;
  SysConfig Base = Opt;
  Base.OptCompiler = false;
  LatencyMeasurement MOpt = measureResponse(Opt);
  LatencyMeasurement MBase = measureResponse(Base);
  if (MOpt.Ok && MBase.Ok) {
    Table T({"firmware on FE310-like core", "cycles/packet", "code bytes"});
    T.row({"optimizing mode (gcc -O3 stand-in)",
           fixed(MOpt.MeanCyclesPerPacket, 0), std::to_string(MOpt.CodeBytes)});
    T.row({"baseline (the paper's compiler)",
           fixed(MBase.MeanCyclesPerPacket, 0),
           std::to_string(MBase.CodeBytes)});
    T.print();
    std::printf("compiler factor: %s   (paper: 2.1x)\n\n",
                withTimes(MBase.MeanCyclesPerPacket / MOpt.MeanCyclesPerPacket,
                          2)
                    .c_str());
  }

  // Ablation: enable one optimization at a time on the firmware.
  struct Abl {
    const char *Name;
    CompilerOptions O;
  };
  CompilerOptions Only;
  std::vector<Abl> Abls;
  Abls.push_back({"none (baseline)", CompilerOptions::o0()});
  Only = CompilerOptions::o0();
  Only.ConstantPropagation = true;
  Only.DeadCodeElim = true;
  Abls.push_back({"+ constant propagation (+DCE)", Only});
  Only = CompilerOptions::o0();
  Only.Inlining = true;
  Abls.push_back({"+ inlining", Only});
  Only = CompilerOptions::o0();
  Only.UseCallerSaved = true;
  Abls.push_back({"+ caller-saved registers", Only});
  Abls.push_back({"all (optimizing mode)", CompilerOptions::o3()});

  std::printf("per-optimization ablation on the firmware "
              "(FE310-like core):\n");
  Table A({"optimizations", "cycles/packet", "speedup vs baseline"});
  double BaseCycles = 0;
  for (const Abl &X : Abls) {
    LatencyMeasurement M = measureResponse(Base, X.O, 10);
    if (!M.Ok) {
      std::printf("ablation '%s' failed: %s\n", X.Name, M.Error.c_str());
      continue;
    }
    if (BaseCycles == 0)
      BaseCycles = M.MeanCyclesPerPacket;
    A.row({X.Name, fixed(M.MeanCyclesPerPacket, 0),
           withTimes(BaseCycles / M.MeanCyclesPerPacket, 2)});
  }
  A.print();

  // Microkernels, o0 vs o3.
  std::printf("\nmicrokernels (ISA-simulator instruction counts):\n");
  Table K({"kernel", "o0 instrs", "o3 instrs", "speedup", "o0 bytes",
           "o3 bytes"});
  for (int I = 0; I != 3; ++I) {
    bedrock2::ParseResult P = bedrock2::parseProgram(Kernels[I]);
    if (!P.ok()) {
      std::printf("parse failed: %s\n", P.Error.c_str());
      return 1;
    }
    KernelResult R0 =
        runKernel(*P.Prog, KernelFns[I], KernelArgs[I], CompilerOptions::o0());
    KernelResult R3 =
        runKernel(*P.Prog, KernelFns[I], KernelArgs[I], CompilerOptions::o3());
    K.row({KernelNames[I], std::to_string(R0.Instructions),
           std::to_string(R3.Instructions),
           withTimes(double(R0.Instructions) / double(R3.Instructions), 2),
           std::to_string(R0.CodeBytes), std::to_string(R3.CodeBytes)});
  }
  K.print();
  return 0;
}
