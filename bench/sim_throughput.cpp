//===- bench/sim_throughput.cpp - Simulator instructions/second ---------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// Raw simulation throughput of each execution substrate (the ROADMAP's
// "fast as the hardware allows" axis). The ISA simulator is measured
// two ways — the reference stepper and the superblock trace engine
// (riscv/BlockEngine.h) — and so is the pipelined Kami core — the
// per-cycle reference tick() (the pipelined_core rows) and the
// instruction-stepped engine (kami/PipeEngine.h, the pipelined_fast
// rows). Each fast engine is checked against its reference through its
// own lockstep Differential mode before any number is reported. Full
// mode gates the block engine at >= 4.0x the stepper and the pipelined
// fast engine at >= 3.5x tick() on the firmware end-to-end rows.
// Measurements use best-of-N windows, like interp_throughput: each
// window is a fresh measurement and the highest throughput is kept,
// rejecting one-sided OS noise identically for every engine. Emits
// machine-readable BENCH_sim.json so the perf trajectory is tracked PR
// over PR.
//
// Usage: sim_throughput [--quick]   (--quick shrinks the measurement for
// CI smoke runs)
//
//===----------------------------------------------------------------------===//

#include "app/Firmware.h"
#include "BenchUtil.h"
#include "compiler/Compile.h"
#include "devices/Net.h"
#include "isa/Build.h"
#include "isa/Encoding.h"
#include "kami/PipeEngine.h"
#include "kami/PipelinedCore.h"
#include "kami/SpecCore.h"
#include "riscv/BlockEngine.h"
#include "riscv/Machine.h"
#include "riscv/Step.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "traffic/Checkpoint.h"
#include "verify/EndToEnd.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace b2;
using namespace b2::isa;

namespace {

double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/// A self-looping ALU-heavy kernel (never halts, never traps).
std::vector<uint8_t> aluLoopImage() {
  std::vector<Instr> P = {
      addi(A0, Zero, 0),
      addi(A1, Zero, 1),
      // loop (pc 8):
      addi(A0, A0, 1),
      mkR(Opcode::Xor, A2, A0, A1),
      mkI(Opcode::Srli, A3, A2, 3),
      mkR(Opcode::Add, A4, A3, A0),
      mkR(Opcode::Sltu, A5, A1, A4),
      jal(Zero, -20),
  };
  return instrencode(P);
}

/// A load/store-heavy kernel over a small data window (all aligned, all
/// within RAM, never touching the code image so XAddrs stays intact).
std::vector<uint8_t> memLoopImage() {
  std::vector<Instr> P = {
      addi(A0, Zero, 0x400), // data base, clear of the code image
      addi(A1, Zero, 0),
      // loop (pc 8):
      mkI(Opcode::Andi, A2, A1, 0xFC),
      mkR(Opcode::Add, A3, A0, A2),
      sw(A3, A1, 0),
      lw(A4, A3, 0),
      addi(A1, A1, 4),
      jal(Zero, -20),
  };
  return instrencode(P);
}

struct Throughput {
  uint64_t Instructions = 0;
  double Seconds = 0;
  double Ips = 0;
};

/// Steps the reference ISA simulator in fixed-size batches until
/// \p MinSeconds of wall time have elapsed.
Throughput measureIsaSim(const std::vector<uint8_t> &Image,
                         double MinSeconds) {
  riscv::Machine M(64 * 1024);
  M.loadImage(0, Image);
  riscv::NoDevice D;
  const uint64_t Batch = 1'000'000;
  Throughput T;
  double Start = now();
  do {
    uint64_t N = riscv::run(M, D, Batch);
    T.Instructions += N;
    if (N != Batch) {
      std::fprintf(stderr, "kernel hit UB: %s\n",
                   riscv::ubKindName(M.ubKind()));
      break;
    }
    T.Seconds = now() - Start;
  } while (T.Seconds < MinSeconds);
  T.Ips = T.Instructions / (T.Seconds > 0 ? T.Seconds : 1e-9);
  return T;
}

/// The superblock trace engine on the same kernel: hot blocks translate
/// to micro-op traces and chain via direct links, so steady state runs
/// almost entirely inside execTraces.
Throughput measureBlockEngine(const std::vector<uint8_t> &Image,
                              double MinSeconds) {
  riscv::Machine M(64 * 1024);
  M.loadImage(0, Image);
  riscv::NoDevice D;
  riscv::BlockEngine E(M, D, riscv::ExecMode::Block);
  const uint64_t Batch = 1'000'000;
  Throughput T;
  double Start = now();
  do {
    uint64_t N = E.run(Batch);
    T.Instructions += N;
    if (N != Batch) {
      std::fprintf(stderr, "kernel hit UB: %s\n",
                   riscv::ubKindName(M.ubKind()));
      break;
    }
    T.Seconds = now() - Start;
  } while (T.Seconds < MinSeconds);
  T.Ips = T.Instructions / (T.Seconds > 0 ? T.Seconds : 1e-9);
  return T;
}

/// Block-vs-reference lockstep on a kernel: the engine's own
/// Differential mode replays every retired chunk through the reference
/// stepper and compares the full architectural state.
bool diffBlockReference(const std::vector<uint8_t> &Image, uint64_t Steps,
                        std::string &Error) {
  riscv::Machine M(64 * 1024);
  M.loadImage(0, Image);
  riscv::NoDevice D;
  riscv::BlockEngine E(M, D, riscv::ExecMode::Differential);
  uint64_t Done = 0;
  while (Done < Steps && !M.hasUb() && E.divergences() == 0) {
    uint64_t N = E.run(std::min<uint64_t>(4096, Steps - Done));
    Done += N;
    if (N == 0)
      break;
  }
  if (E.divergences() != 0) {
    Error = E.divergenceDetail();
    return false;
  }
  return true;
}

/// Same measurement for the Kami-level cores (retired instructions/sec):
/// \p Run advances core \p C by a batch of cycles.
template <typename Core, typename RunFn>
Throughput measureRetired(Core &C, double MinSeconds, RunFn Run) {
  const uint64_t Batch = 1'000'000;
  Throughput T;
  double Start = now();
  do {
    uint64_t Before = C.retired();
    Run(Batch);
    T.Instructions += C.retired() - Before;
    T.Seconds = now() - Start;
  } while (T.Seconds < MinSeconds);
  T.Ips = T.Instructions / (T.Seconds > 0 ? T.Seconds : 1e-9);
  return T;
}

/// A Kami-level core stepped by its own run(): tick() for the pipelined
/// core.
template <typename Core>
Throughput measureKamiCore(const std::vector<uint8_t> &Image,
                           double MinSeconds) {
  kami::Bram Mem(64 * 1024);
  Mem.loadImage(Image);
  riscv::NoDevice D;
  Core C(Mem, D);
  return measureRetired(C, MinSeconds, [&C](uint64_t N) { C.run(N); });
}

/// The pipelined core driven by its instruction-stepped engine.
Throughput measurePipeFast(const std::vector<uint8_t> &Image,
                           double MinSeconds) {
  kami::Bram Mem(64 * 1024);
  Mem.loadImage(Image);
  riscv::NoDevice D;
  kami::PipelinedCore C(Mem, D);
  kami::PipeEngine E(C, riscv::ExecMode::Block);
  return measureRetired(C, MinSeconds, [&E](uint64_t N) { E.run(N); });
}

/// Fast-vs-tick lockstep on a kernel: the engine's Differential mode
/// replays every chunk through tick() on a shadow core and compares the
/// whole core state and BRAM.
bool diffPipeReference(const std::vector<uint8_t> &Image, uint64_t Cycles,
                       std::string &Error) {
  kami::Bram Mem(64 * 1024);
  Mem.loadImage(Image);
  riscv::NoDevice D;
  kami::PipelinedCore C(Mem, D);
  kami::PipeEngine E(C, riscv::ExecMode::Differential);
  for (uint64_t Chunk = 1; C.cycles() < Cycles && E.divergences() == 0;
       Chunk = Chunk * 31 % 4099)
    E.run(Chunk);
  if (E.divergences() != 0) {
    Error = E.divergenceDetail();
    return false;
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;
  const double MinSeconds = Quick ? 0.15 : 0.6;

  std::printf("== sim_throughput: instructions/second per substrate ==\n\n");

  struct Row {
    std::string Kernel;
    std::string Substrate;
    Throughput T;
  };
  std::vector<Row> Rows;
  std::vector<std::pair<std::string, std::vector<uint8_t>>> Kernels = {
      {"alu_loop", aluLoopImage()}, {"mem_loop", memLoopImage()}};

  // Best-of-N windows per substrate (interp_throughput's discipline):
  // each window is a fresh measurement and the highest throughput wins.
  const int Reps = Quick ? 1 : 3;
  auto bestOf = [Reps](auto Measure) {
    Throughput Best;
    for (int K = 0; K != Reps; ++K) {
      Throughput T = Measure();
      if (T.Ips > Best.Ips)
        Best = T;
    }
    return Best;
  };

  std::string DiffError;
  bool DiffOk = true;
  for (const auto &[Name, Image] : Kernels) {
    if (!diffBlockReference(Image, Quick ? 200'000 : 2'000'000, DiffError)) {
      std::fprintf(stderr, "block lockstep FAILED on %s: %s\n", Name.c_str(),
                   DiffError.c_str());
      DiffOk = false;
    }
    if (!diffPipeReference(Image, Quick ? 200'000 : 2'000'000, DiffError)) {
      std::fprintf(stderr, "pipelined fast-engine lockstep FAILED on %s: %s\n",
                   Name.c_str(), DiffError.c_str());
      DiffOk = false;
    }
    Rows.push_back({Name, "isa_sim_uncached", bestOf([&] {
                      return measureIsaSim(Image, MinSeconds);
                    })});
    Rows.push_back({Name, "isa_sim_block", bestOf([&] {
                      return measureBlockEngine(Image, MinSeconds);
                    })});
    Rows.push_back({Name, "spec_core", bestOf([&] {
                      return measureKamiCore<kami::SpecCore>(Image,
                                                             MinSeconds);
                    })});
    Rows.push_back({Name, "pipelined_core", bestOf([&] {
                      return measureKamiCore<kami::PipelinedCore>(
                          Image, MinSeconds);
                    })});
    Rows.push_back({Name, "pipelined_fast", bestOf([&] {
                      return measurePipeFast(Image, MinSeconds);
                    })});
  }

  // Firmware end-to-end — the corpus the fleets actually spend their
  // cycles on — on the ISA simulator (reference stepper vs Block engine)
  // and on the pipelined core (tick() vs its instruction-stepped engine).
  // Per core, verdict, trace, retirement count, cycles, and lightbulb
  // history must be identical across both engines and every repetition;
  // each fast engine is additionally run once in its lockstep
  // Differential mode, which must report zero divergences.
  compiler::CompileResult C = compiler::compileProgram(
      app::buildFirmware(), compiler::CompilerOptions::o0(),
      compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
      64 * 1024);
  bool FirmwareDiffOk = C.ok();
  if (C.ok()) {
    verify::E2EScenario S;
    S.Frames.push_back({2000, devices::buildCommandFrame(true), false});
    // One checked end-to-end run per mode (also the allocator, page, and
    // matcher warmup), then the best of several repetitions of the core
    // alone: a fresh machine runs the checked run's cycle count in one
    // runChunk, so machine construction, monitor polls, and the
    // engine-independent trace-spec verification are not counted as
    // simulator throughput. Every repetition's trace, retirement count,
    // and light history must equal the checked run's — the differential
    // claim covers all of them, not just one pair.
    const int FwReps = Quick ? 3 : 8;
    auto RunMode = [&](verify::E2EOptions O, riscv::ExecMode Exec,
                       verify::E2EResult &Out) {
      O.SimExec = Exec;
      Out = verify::runCompiledEndToEnd(*C.Prog, S, O);
      double Best = 1e99;
      for (int I = 0; I != FwReps; ++I) {
        traffic::SoakMachine M(*C.Prog, O.Core, O.RamBytes, Exec);
        for (const devices::ScheduledFrame &F : S.Frames)
          M.platform().scheduleFrame(F.AtOp, F.Frame, F.Errored);
        bool Ok = true;
        double Start = now();
        M.runChunk(Out.Cycles, Ok);
        Best = std::min(Best, now() - Start);
        if (!Ok || !(M.trace() == Out.Trace) || M.retired() != Out.Retired ||
            M.platform().gpio().lightHistory() != Out.LightHistory)
          return -1.0;
      }
      return Best;
    };
    struct FirmwareCore {
      traffic::SoakCore Core;
      const char *RefSubstrate, *FastSubstrate;
    };
    for (const FirmwareCore &FC :
         {FirmwareCore{traffic::SoakCore::IsaSim, "isa_sim_uncached",
                       "isa_sim_block"},
          FirmwareCore{traffic::SoakCore::Pipelined, "pipelined_core",
                       "pipelined_fast"}}) {
      verify::E2EOptions O;
      O.Core = FC.Core;
      O.MaxCycles = Quick ? 4'000'000 : 20'000'000;
      verify::E2EResult RR, RF, RD;
      double RefSec = RunMode(O, riscv::ExecMode::Reference, RR);
      double FastSec = RunMode(O, riscv::ExecMode::Block, RF);
      O.SimExec = riscv::ExecMode::Differential; // One untimed lockstep pass.
      RD = verify::runCompiledEndToEnd(*C.Prog, S, O);
      bool Ok = RefSec > 0 && FastSec > 0 && RR.Ok && RF.Ok == RR.Ok &&
                RF.Trace == RR.Trace && RF.LightHistory == RR.LightHistory &&
                RF.Retired == RR.Retired && RF.Cycles == RR.Cycles &&
                RD.Ok == RR.Ok && RD.Retired == RR.Retired &&
                RD.Cycles == RR.Cycles;
      if (!Ok) {
        std::fprintf(stderr, "differential FAILED on firmware e2e (%s)%s\n",
                     FC.FastSubstrate,
                     !RD.Ok ? (": " + RD.Error).c_str() : "");
        FirmwareDiffOk = DiffOk = false;
      }
      Rows.push_back({"firmware_e2e", FC.RefSubstrate,
                      {RR.Retired, RefSec > 0 ? RefSec : 0,
                       RefSec > 0 ? RR.Retired / RefSec : 0}});
      Rows.push_back({"firmware_e2e", FC.FastSubstrate,
                      {RF.Retired, FastSec > 0 ? FastSec : 0,
                       FastSec > 0 ? RF.Retired / FastSec : 0}});
    }
  } else {
    std::fprintf(stderr, "firmware compile failed: %s\n", C.Error.c_str());
    DiffOk = false;
  }

  bench::Table Tab({"kernel", "substrate", "instr/sec", "instructions"});
  for (const Row &R : Rows)
    Tab.row({R.Kernel, R.Substrate, bench::fixed(R.T.Ips / 1e6, 2) + " M",
             std::to_string(R.T.Instructions)});
  Tab.print();

  auto ipsOf = [&Rows](const std::string &K, const std::string &S) {
    for (const Row &R : Rows)
      if (R.Kernel == K && R.Substrate == S)
        return R.T.Ips;
    return 0.0;
  };
  auto ratio = [](double Num, double Den) {
    return Den > 0 ? Num / Den : 0.0;
  };

  // Metrics overhead gate: the observability layer must cost under 2% on
  // the Block rows (the hottest path it instruments). The Block rows
  // above ran with metrics compiled in and enabled; re-measure with the
  // runtime kill-switch off and compare best-of windows on both sides.
  // Quick mode records but does not enforce — a 0.15 s window's noise
  // swamps a sub-2% effect.
  struct OverheadRow {
    std::string Kernel;
    double OnIps = 0, OffIps = 0, Pct = 0;
  };
  std::vector<OverheadRow> Overhead;
  bool OverheadOk = true;
  for (const auto &[Name, Image] : Kernels) {
    OverheadRow O;
    O.Kernel = Name;
    O.OnIps = ipsOf(Name, "isa_sim_block");
    metrics::setEnabled(false);
    O.OffIps = bestOf([&] { return measureBlockEngine(Image, MinSeconds); }).Ips;
    metrics::setEnabled(true);
    // Signed: a negative overhead means the enabled run won the noise
    // toss, which shows how wide the noise is.
    O.Pct = O.OffIps > 0 ? (O.OffIps - O.OnIps) / O.OffIps * 100.0 : 0.0;
    if (O.Pct >= 2.0)
      OverheadOk = false;
    Overhead.push_back(O);
  }
  double AluBlockSpeedup = ratio(ipsOf("alu_loop", "isa_sim_block"),
                                 ipsOf("alu_loop", "isa_sim_uncached"));
  double MemBlockSpeedup = ratio(ipsOf("mem_loop", "isa_sim_block"),
                                 ipsOf("mem_loop", "isa_sim_uncached"));
  double FwBlockSpeedup = ratio(ipsOf("firmware_e2e", "isa_sim_block"),
                                ipsOf("firmware_e2e", "isa_sim_uncached"));
  double AluPipeSpeedup = ratio(ipsOf("alu_loop", "pipelined_fast"),
                                ipsOf("alu_loop", "pipelined_core"));
  double MemPipeSpeedup = ratio(ipsOf("mem_loop", "pipelined_fast"),
                                ipsOf("mem_loop", "pipelined_core"));
  double FwPipeSpeedup = ratio(ipsOf("firmware_e2e", "pipelined_fast"),
                               ipsOf("firmware_e2e", "pipelined_core"));
  // Speedup gates: the Block engine must run firmware at >= 4.0x the
  // reference stepper, and the pipelined core's fast engine at >= 3.5x
  // tick() (20% under the lowest of three full runs, 4.44x; see
  // EXPERIMENTS.md). Quick mode records but does not enforce, like the
  // overhead gate below.
  const double SpeedupGate = 4.0;
  const bool SpeedupOk = FwBlockSpeedup >= SpeedupGate;
  const double PipeSpeedupGate = 3.5;
  const bool PipeSpeedupOk = FwPipeSpeedup >= PipeSpeedupGate;
  std::printf("\nblock-engine speedup over the reference stepper: alu_loop "
              "%s, mem_loop %s, firmware e2e %s — %s\n",
              bench::withTimes(AluBlockSpeedup, 2).c_str(),
              bench::withTimes(MemBlockSpeedup, 2).c_str(),
              bench::withTimes(FwBlockSpeedup, 2).c_str(),
              SpeedupOk ? "within the 4.0x gate"
              : Quick   ? "under the gate (not enforced in --quick)"
                        : "UNDER THE 4.0x GATE");
  std::printf("pipelined fast-engine speedup over tick(): alu_loop %s, "
              "mem_loop %s, firmware e2e %s — %s\n",
              bench::withTimes(AluPipeSpeedup, 2).c_str(),
              bench::withTimes(MemPipeSpeedup, 2).c_str(),
              bench::withTimes(FwPipeSpeedup, 2).c_str(),
              PipeSpeedupOk ? "within the 3.5x gate"
              : Quick       ? "under the gate (not enforced in --quick)"
                            : "UNDER THE 3.5x GATE");
  std::printf("differential (fast/reference lockstep): %s\n",
              DiffOk ? "identical" : "DIVERGED");
  for (const OverheadRow &O : Overhead)
    std::printf("metrics overhead on %s block row: %.2f%% "
                "(on %.2f M, off %.2f M) — %s\n",
                O.Kernel.c_str(), O.Pct, O.OnIps / 1e6, O.OffIps / 1e6,
                O.Pct < 2.0  ? "within the 2% gate"
                : Quick      ? "over the gate (not enforced in --quick)"
                             : "OVER THE 2% GATE");

  support::JsonWriter J;
  J.beginObject();
  J.key("bench").value("sim_throughput");
  J.key("quick").value(Quick);
  J.key("reps").value(uint64_t(Reps));
  J.key("kernels").beginArray();
  for (const Row &R : Rows) {
    J.beginObject();
    J.key("kernel").value(R.Kernel);
    J.key("substrate").value(R.Substrate);
    J.key("instructions").value(R.T.Instructions);
    J.key("seconds").value(R.T.Seconds);
    J.key("instr_per_sec").value(R.T.Ips);
    J.endObject();
  }
  J.endArray();
  J.key("speedups").beginObject();
  J.key("alu_loop_block_vs_uncached").value(AluBlockSpeedup);
  J.key("mem_loop_block_vs_uncached").value(MemBlockSpeedup);
  J.key("firmware_e2e_block_vs_uncached").value(FwBlockSpeedup);
  J.key("alu_loop_pipelined_fast_vs_core").value(AluPipeSpeedup);
  J.key("mem_loop_pipelined_fast_vs_core").value(MemPipeSpeedup);
  J.key("firmware_e2e_pipelined_fast_vs_core").value(FwPipeSpeedup);
  J.endObject();
  J.key("speedup_gate").beginObject();
  J.key("kernel").value("firmware_e2e");
  J.key("min_block_vs_uncached").value(SpeedupGate);
  J.key("enforced").value(!Quick);
  J.key("ok").value(SpeedupOk);
  J.endObject();
  J.key("pipelined_speedup_gate").beginObject();
  J.key("kernel").value("firmware_e2e");
  J.key("min_fast_vs_core").value(PipeSpeedupGate);
  J.key("enforced").value(!Quick);
  J.key("ok").value(PipeSpeedupOk);
  J.endObject();
  J.key("differential").beginObject();
  J.key("kernels_ok").value(DiffOk);
  J.key("firmware_e2e_ok").value(FirmwareDiffOk);
  J.endObject();
  J.key("metrics_overhead").beginObject();
  J.key("compiled_in").value(B2_METRICS != 0);
  J.key("gate_pct").value(2.0);
  J.key("enforced").value(!Quick);
  J.key("ok").value(OverheadOk);
  J.key("rows").beginArray();
  for (const OverheadRow &O : Overhead) {
    J.beginObject();
    J.key("kernel").value(O.Kernel);
    J.key("substrate").value("isa_sim_block");
    J.key("enabled_instr_per_sec").value(O.OnIps);
    J.key("disabled_instr_per_sec").value(O.OffIps);
    J.key("overhead_pct").value(O.Pct);
    J.endObject();
  }
  J.endArray();
  J.endObject();
  J.endObject();
  const char *OutPath = "BENCH_sim.json";
  if (!support::writeFile(OutPath, J.str()))
    std::fprintf(stderr, "failed to write %s\n", OutPath);
  else
    std::printf("wrote %s\n", OutPath);

  const char *MetricsPath = "METRICS_sim.json";
  if (!metrics::writeMetricsFile(MetricsPath, "sim_throughput"))
    std::fprintf(stderr, "failed to write %s\n", MetricsPath);
  else
    std::printf("wrote %s\n", MetricsPath);

  if (!OverheadOk && !Quick) {
    std::fprintf(stderr, "metrics overhead gate FAILED (>= 2%% on a Block "
                         "row)\n");
    return 1;
  }
  if (!SpeedupOk && !Quick) {
    std::fprintf(stderr, "block-engine speedup gate FAILED (< 4.0x the "
                         "reference stepper on firmware_e2e)\n");
    return 1;
  }
  if (!PipeSpeedupOk && !Quick) {
    std::fprintf(stderr, "pipelined fast-engine speedup gate FAILED (< 3.5x "
                         "tick() on firmware_e2e)\n");
    return 1;
  }
  return DiffOk ? 0 : 1;
}
