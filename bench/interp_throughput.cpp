//===- bench/interp_throughput.cpp - Interpreter statements/second ------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// Checking-interpreter throughput per execution engine: the reference AST
// walker, the bytecode fast path, and differential-both (which is also
// the correctness gate — any divergence between the engines fails the
// bench). Two workloads: the lightbulb firmware event loop under deviced
// MMIO traffic, and a corpus of random UB-free programs like the ones the
// compiler differential checkers run. Every row is the median (and IQR)
// of repeated MinSeconds windows (bench/BenchUtil.h). Emits
// BENCH_interp.json (schema b2stack-bench-v1) and METRICS_interp.json.
//
// Usage: interp_throughput [--quick]   (--quick shrinks the measurement
// for CI smoke runs)
//
//===----------------------------------------------------------------------===//

#include "../tests/RandomProgram.h"
#include "BenchUtil.h"
#include "app/Firmware.h"
#include "bedrock2/Semantics.h"
#include "devices/Net.h"
#include "devices/Platform.h"
#include "riscv/Mmio.h"
#include "support/Metrics.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace b2;
using namespace b2::bedrock2;

namespace {

/// One MinSeconds window of the firmware event loop under a fixed,
/// deterministic traffic schedule (a light-toggle command every fourth
/// iteration, identical across modes), in statements per second. One
/// interpreter serves the whole window: compile once, run many — the
/// engine's intended usage (CompilerDiff and the fuzz harnesses all reuse
/// one Interp across calls).
double firmwareSps(const Program &P, ExecMode Mode, double MinSeconds,
                   bool &DiffOk, std::string &Error) {
  devices::Platform Plat;
  MmioExtSpec Ext(Plat, 64 * 1024);
  Interp I(P, Ext, 50'000'000, StackallocPolicy(), Mode);
  ExecResult R = I.callFunction("lightbulb_init", {});
  if (!R.ok()) {
    Error = "lightbulb_init faulted: " + std::string(faultName(R.F));
    return 0;
  }
  bool LightOn = true;
  uint64_t K = 0;
  double Sps = bench::timeWindow(MinSeconds, [&]() -> uint64_t {
                 if (K++ % 4 == 0) {
                   Plat.injectNow(devices::buildCommandFrame(LightOn));
                   LightOn = !LightOn;
                 }
                 R = I.callFunction("lightbulb_loop", {});
                 if (R.ok())
                   return R.StepsUsed;
                 Error = "lightbulb_loop faulted: " +
                         std::string(faultName(R.F));
                 return 0;
               }).rate();
  if (I.divergenceCount() != 0) {
    DiffOk = false;
    Error = I.divergence();
  }
  return Sps;
}

/// One MinSeconds window of a corpus of random UB-free programs (the
/// generator the compiler differential tests fuzz with), run round-robin,
/// in statements per second. One interpreter per program, reused across
/// rounds.
double corpusSps(const std::vector<Program> &Corpus, ExecMode Mode,
                 double MinSeconds, bool &DiffOk, std::string &Error) {
  riscv::NoDevice Dev;
  MmioExtSpec Ext(Dev, 64 * 1024);
  std::vector<std::unique_ptr<Interp>> Interps;
  for (const Program &P : Corpus)
    Interps.push_back(std::make_unique<Interp>(P, Ext, 10'000'000,
                                               StackallocPolicy(), Mode));
  uint64_t Round = 0;
  return bench::timeWindow(MinSeconds, [&]() -> uint64_t {
           uint64_t Statements = 0;
           for (size_t PI = 0; PI != Corpus.size(); ++PI) {
             Interp &I = *Interps[PI];
             ExecResult R =
                 I.callFunction("main", {Word(PI * 7 + Round), Word(~Round)});
             Statements += R.StepsUsed;
             if (!R.ok()) {
               Error = "corpus program " + std::to_string(PI) +
                       " faulted: " + faultName(R.F) + " (" + R.Detail + ")";
               return 0;
             }
             if (I.divergenceCount() != 0) {
               DiffOk = false;
               Error = I.divergence();
               return 0;
             }
           }
           ++Round;
           return Statements;
         })
      .rate();
}

} // namespace

int main(int argc, char **argv) {
  const bool Quick = bench::quickFlag(argc, argv);
  const double MinSeconds = Quick ? 0.05 : 0.2;
  const unsigned Reps = Quick ? 3 : 5;
  bench::Report Rep("interp_throughput", Quick);

  std::printf("== interp_throughput: checking-interpreter statements/second "
              "per engine ==\n\n");

  Program Firmware = app::buildFirmware();
  std::vector<Program> Corpus;
  for (uint64_t Seed = 0; Seed != 12; ++Seed)
    Corpus.push_back(b2::testing::RandomProgramGen(Seed).generate());

  bool DiffOk = true;
  for (ExecMode Mode :
       {ExecMode::Reference, ExecMode::Fast, ExecMode::Differential}) {
    for (const char *Workload : {"firmware_loop", "random_corpus"}) {
      std::string Error;
      std::vector<double> Sps = bench::repeat(Reps, [&] {
        return Workload == std::string("firmware_loop")
                   ? firmwareSps(Firmware, Mode, MinSeconds, DiffOk, Error)
                   : corpusSps(Corpus, Mode, MinSeconds, DiffOk, Error);
      });
      if (!Error.empty()) {
        std::fprintf(stderr, "%s [%s]: %s\n", Workload, execModeName(Mode),
                     Error.c_str());
        DiffOk = false;
      }
      Rep.row("bedrock2", Workload, execModeName(Mode), "stmts_per_sec", "1/s",
              true, bench::summarize(Sps));
    }
  }

  Rep.finish("BENCH_interp.json");
  auto Speedup = [&Rep](const char *Workload) {
    double Ref = Rep.median(Workload, "reference", "stmts_per_sec");
    return bench::withTimes(
        Ref > 0 ? Rep.median(Workload, "fast", "stmts_per_sec") / Ref : 0, 2);
  };
  std::printf("bytecode speedup over reference walker (ratio of medians): "
              "firmware %s, corpus %s\n",
              Speedup("firmware_loop").c_str(),
              Speedup("random_corpus").c_str());
  std::printf("differential (walker vs bytecode): %s\n",
              DiffOk ? "identical" : "DIVERGED");

  const char *MetricsPath = "METRICS_interp.json";
  if (!metrics::writeMetricsFile(MetricsPath, "interp_throughput"))
    std::fprintf(stderr, "failed to write %s\n", MetricsPath);
  else
    std::printf("wrote %s\n", MetricsPath);

  return DiffOk ? 0 : 1;
}
