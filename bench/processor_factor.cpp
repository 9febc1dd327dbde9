//===- bench/processor_factor.cpp - The 2.7x processor factor ------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// Section 7.2.1: "Using the Kami processor instead of FE310 is responsible
// for the largest slowdown factor in our system, just above 2.7x. This
// system-level clock-frequency-relative slowdown we observed is actually
// smaller than the 4.8x reported in [10, Fig. 15] ... However, our code is
// I/O-heavy."
//
// The bench runs the same binary on the pipelined Kami model and on the
// FE310-like ~1-IPC core, for the verified firmware (I/O-heavy) and for
// compute kernels, reproducing the observation that the slowdown is
// workload-dependent and smaller for I/O-heavy code.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "LatencyHarness.h"

#include "bedrock2/Parser.h"
#include "kami/PipelinedCore.h"
#include "riscv/Step.h"
#include "kami/SpecCore.h"

#include <cstdio>

using namespace b2;
using namespace b2::bench;

namespace {

/// Runs a compiled compute kernel on both cores; returns {pipe, spec}.
struct CoreCycles {
  uint64_t Pipe = 0;
  uint64_t Spec = 0;
  bool Ok = false;
};

CoreCycles runBothCores(const char *Src, const std::string &Fn,
                        std::vector<Word> Args) {
  CoreCycles Out;
  bedrock2::ParseResult P = bedrock2::parseProgram(Src);
  if (!P.ok())
    return Out;
  compiler::CompileResult C = compiler::compileProgram(
      *P.Prog, compiler::CompilerOptions::o0(),
      compiler::Entry::singleCall(Fn, std::move(Args)), 64 * 1024);
  if (!C.ok())
    return Out;

  // Reference instruction count from the ISA simulator.
  riscv::Machine M(64 * 1024);
  M.loadImage(0, C.Prog->image());
  riscv::NoDevice D0;
  riscv::runToPc(M, D0, C.Prog->HaltPc);
  uint64_t N = M.retiredInstructions();

  riscv::NoDevice D1, D2;
  kami::Bram MemA(64 * 1024), MemB(64 * 1024);
  MemA.loadImage(C.Prog->image());
  MemB.loadImage(C.Prog->image());
  kami::PipeConfig Cfg;
  Cfg.ICacheFillWordsPerCycle = 0; // Isolate steady-state IPC.
  kami::PipelinedCore Pipe(MemA, D1, Cfg);
  if (!Pipe.runUntilRetired(N, 4'000'000'000ull))
    return Out;
  kami::SpecCore Spec(MemB, D2);
  Spec.run(N);

  Out.Pipe = Pipe.cycles();
  Out.Spec = Spec.cycles();
  Out.Ok = true;
  return Out;
}

} // namespace

int main() {
  std::printf("== section 7.2.1: processor factor (paper: 2.7x; Kami paper: "
              "4.8x on compute) ==\n\n");

  // I/O-heavy: the verified firmware's packet handling.
  SysConfig Kami = SysConfig::verified();
  SysConfig Fe310 = Kami;
  Fe310.KamiCore = false;
  LatencyMeasurement MK = measureResponse(Kami);
  LatencyMeasurement MF = measureResponse(Fe310);

  Table T({"workload", "Kami pipelined cycles", "FE310-like cycles",
           "slowdown", "paper"});
  if (MK.Ok && MF.Ok)
    T.row({"firmware packet handling (I/O-heavy)",
           fixed(MK.MeanCyclesPerPacket, 0), fixed(MF.MeanCyclesPerPacket, 0),
           withTimes(MK.MeanCyclesPerPacket / MF.MeanCyclesPerPacket, 2),
           "2.7x"});

  // Compute-heavy kernels (the Kami paper's 4.8x regime).
  struct Kern {
    const char *Name;
    const char *Src;
    const char *Fn;
    std::vector<Word> Args;
  };
  Kern Kerns[] = {
      {"tight dependent loop (compute)",
       R"(fn f(n) -> (r) {
            r = 1;
            i = 0;
            while (i < n) { r = r * 31 + i; i = i + 1; }
          })",
       "f",
       {2000}},
      {"branchy compute",
       R"(fn f(n) -> (r) {
            r = 0; i = 0;
            while (i < n) {
              if (i & 1) { r = r + i; } else { r = r ^ (i << 3); }
              i = i + 1;
            }
          })",
       "f",
       {2000}},
      {"memory streaming",
       R"(fn f(n) -> (r) {
            r = 0;
            stackalloc buf[1024] {
              i = 0;
              while (i < n) {
                store4(buf + (i & 255) * 4, i);
                r = r + load4(buf + ((i * 7) & 255) * 4);
                i = i + 1;
              }
            }
          })",
       "f",
       {2000}},
  };
  for (const Kern &K : Kerns) {
    CoreCycles C = runBothCores(K.Src, K.Fn, K.Args);
    if (!C.Ok) {
      std::printf("kernel '%s' failed to run\n", K.Name);
      continue;
    }
    T.row({K.Name, std::to_string(C.Pipe), std::to_string(C.Spec),
           withTimes(double(C.Pipe) / double(C.Spec), 2), "(4.8x regime)"});
  }
  T.print();

  std::printf("\nshape under reproduction: the processor slowdown exists on "
              "every workload and is\nsmaller for the I/O-heavy firmware than "
              "the Kami paper's compute figure suggests,\nbecause MMIO "
              "latency is shared by both cores while pipeline bubbles are "
              "not.\n");
  return 0;
}
