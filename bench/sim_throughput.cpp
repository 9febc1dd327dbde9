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
// own lockstep Differential mode before any number is reported.
//
// Every row is the median (and IQR) of repeated MinSeconds windows
// (bench/BenchUtil.h). The rows a gate compares are measured as
// interleaved pairs, the first side alternating, and each gate reads the
// median of the per-pair ratios, so host drift between the two sides
// cancels. Full mode gates the block engine at >= 4.0x the stepper and
// the pipelined fast engine at >= 3.5x tick() on the firmware end-to-end
// rows, and the metrics layer at < 2% on the Block rows. Emits
// BENCH_sim.json (schema b2stack-bench-v1) and METRICS_sim.json.
//
// Usage: sim_throughput [--quick]   (--quick shrinks the measurement for
// CI smoke runs and records the gates without enforcing them)
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
#include "support/Metrics.h"
#include "traffic/Checkpoint.h"
#include "verify/EndToEnd.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

using namespace b2;
using namespace b2::isa;

namespace {

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

/// One MinSeconds window of a kernel on \p Substrate, in instructions
/// retired per second. The ISA simulator runs its reference stepper
/// (isa_sim_uncached) or its superblock trace engine (isa_sim_block); the
/// Kami cores run their own run() (spec_core, pipelined_core: tick()) or
/// the pipelined core's instruction-stepped engine (pipelined_fast). One
/// untimed batch runs first.
double kernelIps(const std::string &Substrate,
                 const std::vector<uint8_t> &Image, double MinSeconds) {
  const uint64_t Batch = 1'000'000;
  riscv::NoDevice D;
  if (Substrate == "isa_sim_uncached" || Substrate == "isa_sim_block") {
    riscv::Machine M(64 * 1024);
    M.loadImage(0, Image);
    std::optional<riscv::BlockEngine> E;
    if (Substrate == "isa_sim_block")
      E.emplace(M, D, riscv::ExecMode::Block);
    auto Step = [&]() -> uint64_t {
      uint64_t N = E ? E->run(Batch) : riscv::run(M, D, Batch);
      if (N == Batch)
        return N;
      std::fprintf(stderr, "kernel hit UB: %s\n",
                   riscv::ubKindName(M.ubKind()));
      return 0;
    };
    Step(); // First touches and translation stay out of the window.
    return bench::timeWindow(MinSeconds, Step).rate();
  }
  kami::Bram Mem(64 * 1024);
  Mem.loadImage(Image);
  auto Retired = [&](auto &C, auto Run) {
    auto Step = [&] {
      uint64_t Before = C.retired();
      Run(Batch);
      return C.retired() - Before;
    };
    Step();
    return bench::timeWindow(MinSeconds, Step).rate();
  };
  if (Substrate == "spec_core") {
    kami::SpecCore C(Mem, D);
    return Retired(C, [&](uint64_t N) { C.run(N); });
  }
  kami::PipelinedCore C(Mem, D);
  if (Substrate == "pipelined_core")
    return Retired(C, [&](uint64_t N) { C.run(N); });
  kami::PipeEngine E(C, riscv::ExecMode::Block);
  return Retired(C, [&](uint64_t N) { E.run(N); });
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

/// One MinSeconds window of firmware end-to-end runs, in instructions
/// retired per second. Each step runs a fresh machine (built untimed) for
/// the checked run's cycle count in one runChunk, so machine
/// construction, monitor polls and the trace-spec verification are not
/// counted as simulator throughput. Every run's trace, retirement count
/// and light history must equal the checked run's; \p Ok becomes false
/// otherwise. Metrics are paused, so the ratios derived from
/// METRICS_sim.json do not depend on how many runs fit in a window.
double firmwareIps(const compiler::CompiledProgram &Prog,
                   const verify::E2EScenario &S, const verify::E2EOptions &O,
                   riscv::ExecMode Exec, const verify::E2EResult &Checked,
                   double MinSeconds, bool &Ok) {
  metrics::PauseScope Pause;
  std::optional<traffic::SoakMachine> M;
  auto CheckLast = [&] {
    if (M && !(M->trace() == Checked.Trace && M->retired() == Checked.Retired &&
               M->platform().gpio().lightHistory() == Checked.LightHistory))
      Ok = false;
  };
  bench::Window W = bench::timeWindow(
      MinSeconds,
      [&]() -> uint64_t {
        bool RunOk = true;
        M->runChunk(Checked.Cycles, RunOk);
        Ok &= RunOk;
        return RunOk ? M->retired() : 0;
      },
      [&] {
        CheckLast();
        M.emplace(Prog, O.Core, O.RamBytes, Exec);
        for (const devices::ScheduledFrame &F : S.Frames)
          M->platform().scheduleFrame(F.AtOp, F.Frame, F.Errored);
      });
  CheckLast();
  return W.rate();
}

} // namespace

int main(int argc, char **argv) {
  const bool Quick = bench::quickFlag(argc, argv);
  // Many short pairs rather than a few long ones: the two windows of a
  // short pair see the same host, so the per-pair ratios scatter less
  // (IQR ~3% at 20 ms against ~6% at 100 ms), and the median of 205 of
  // them moves far less than the 2% metrics-overhead bound.
  const double MinSeconds = Quick ? 0.01 : 0.02;
  const unsigned Reps = Quick ? 3 : 25;
  const unsigned NPairs = Quick ? 15 : 205;
  bench::Report Rep("sim_throughput", Quick);
  auto AddRow = [&Rep](const std::string &Workload, const std::string &Variant,
                       const std::vector<double> &Ips) {
    Rep.row(Variant.rfind("isa_sim", 0) == 0 ? "riscv" : "kami", Workload,
            Variant, "instr_per_sec", "1/s", true, bench::summarize(Ips));
  };

  std::printf("== sim_throughput: instructions/second per substrate ==\n\n");

  std::string DiffError;
  bool DiffOk = true;
  for (const auto &[Name, Image] :
       {std::pair<std::string, std::vector<uint8_t>>{"alu_loop",
                                                      aluLoopImage()},
        {"mem_loop", memLoopImage()}}) {
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
    for (const char *Sub : {"isa_sim_uncached", "spec_core", "pipelined_core",
                            "pipelined_fast"})
      AddRow(Name, Sub, bench::repeat(Reps, [&] {
               return kernelIps(Sub, Image, MinSeconds);
             }));
    // Metrics overhead: the observability layer must cost under 2% on the
    // Block rows (the hottest path it instruments). Each pair measures
    // the Block engine with metrics enabled and with the runtime
    // kill-switch off. Signed: a negative overhead means the enabled side
    // won the noise toss, which shows how wide the noise is.
    bench::Pairs P = bench::pairs(
        NPairs, [&] { return kernelIps("isa_sim_block", Image, MinSeconds); },
        [&] {
          metrics::setEnabled(false);
          double Ips = kernelIps("isa_sim_block", Image, MinSeconds);
          metrics::setEnabled(true);
          return Ips;
        });
    AddRow(Name, "isa_sim_block", P.A);
    bench::Summary OnOff = bench::summarize(P.Ratio);
    Rep.row("riscv", Name, "isa_sim_block", "metrics_on_off_ratio", "x", true,
            OnOff);
    Rep.gate("metrics_overhead_" + Name + "_pct", (1 - OnOff.Median) * 100,
             "<", 2.0);
  }

  // Firmware end-to-end — the corpus the fleets actually spend their
  // cycles on — on the ISA simulator (reference stepper vs Block engine)
  // and on the pipelined core (tick() vs its instruction-stepped engine).
  // One checked end-to-end run per engine (also the allocator, page, and
  // matcher warmup) fixes the trace, retirement count, cycles and light
  // history every timed run must reproduce; each fast engine is also run
  // once in its lockstep Differential mode, which must report zero
  // divergences. METRICS_sim.json reports these checked runs alone: the
  // kernel windows above record as many batches as fit in their time,
  // so their counts are dropped here and the timed firmware runs below
  // are paused.
  metrics::resetAll();
  compiler::CompileResult C = compiler::compileProgram(
      app::buildFirmware(), compiler::CompilerOptions::o0(),
      compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
      64 * 1024);
  if (C.ok()) {
    verify::E2EScenario S;
    S.Frames.push_back({2000, devices::buildCommandFrame(true), false});
    struct FirmwareCore {
      traffic::SoakCore Core;
      const char *RefSubstrate, *FastSubstrate, *Gate;
      double Bound;
    };
    for (const FirmwareCore &FC :
         {FirmwareCore{traffic::SoakCore::IsaSim, "isa_sim_uncached",
                       "isa_sim_block", "block_vs_reference_firmware_e2e",
                       4.0},
          FirmwareCore{traffic::SoakCore::Pipelined, "pipelined_core",
                       "pipelined_fast", "pipelined_fast_vs_tick_firmware_e2e",
                       3.5}}) {
      verify::E2EOptions O;
      O.Core = FC.Core;
      O.MaxCycles = Quick ? 4'000'000 : 20'000'000;
      verify::E2EResult Checked[3];
      const riscv::ExecMode Modes[] = {riscv::ExecMode::Reference,
                                       riscv::ExecMode::Block,
                                       riscv::ExecMode::Differential};
      for (int I = 0; I != 3; ++I) {
        O.SimExec = Modes[I];
        Checked[I] = verify::runCompiledEndToEnd(*C.Prog, S, O);
      }
      const verify::E2EResult &RR = Checked[0], &RF = Checked[1],
                              &RD = Checked[2];
      bool Ok = RR.Ok && RF.Ok && RF.Trace == RR.Trace &&
                RF.LightHistory == RR.LightHistory &&
                RF.Retired == RR.Retired && RF.Cycles == RR.Cycles &&
                RD.Ok && RD.Retired == RR.Retired && RD.Cycles == RR.Cycles;
      auto Window = [&](riscv::ExecMode Exec, const verify::E2EResult &R) {
        return [&, Exec] {
          return firmwareIps(*C.Prog, S, O, Exec, R, MinSeconds, Ok);
        };
      };
      bench::Pairs P =
          bench::pairs(NPairs, Window(riscv::ExecMode::Block, RF),
                       Window(riscv::ExecMode::Reference, RR));
      if (!Ok) {
        std::fprintf(stderr, "differential FAILED on firmware e2e (%s)%s\n",
                     FC.FastSubstrate,
                     !RD.Ok ? (": " + RD.Error).c_str() : "");
        DiffOk = false;
      }
      AddRow("firmware_e2e", FC.RefSubstrate, P.B);
      AddRow("firmware_e2e", FC.FastSubstrate, P.A);
      bench::Summary Speedup = bench::summarize(P.Ratio);
      Rep.row(FC.Core == traffic::SoakCore::IsaSim ? "riscv" : "kami",
              "firmware_e2e", FC.FastSubstrate, "speedup_vs_reference", "x",
              true, Speedup);
      Rep.gate(FC.Gate, Speedup.Median, ">=", FC.Bound);
    }
  } else {
    std::fprintf(stderr, "firmware compile failed: %s\n", C.Error.c_str());
    DiffOk = false;
  }

  Rep.finish("BENCH_sim.json");
  std::printf("differential (fast/reference lockstep): %s\n",
              DiffOk ? "identical" : "DIVERGED");
  const char *MetricsPath = "METRICS_sim.json";
  if (!metrics::writeMetricsFile(MetricsPath, "sim_throughput"))
    std::fprintf(stderr, "failed to write %s\n", MetricsPath);
  else
    std::printf("wrote %s\n", MetricsPath);
  return DiffOk && Rep.gatesOk() ? 0 : 1;
}
