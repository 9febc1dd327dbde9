//===- bench/soak_throughput.cpp - Soak-harness frames/second ----------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// End-to-end throughput of the traffic soak harness: frames driven through
// compiled firmware per second of wall time, for every scenario in the
// catalog on both the ISA simulator and the pipelined Kami core, with the
// streaming goodHlTrace monitor checking every MMIO event. Every measured
// run must also PASS — a number from a failing soak is meaningless, so a
// failure here is a bench failure. Rows are medians over repeated soaks
// (bench/BenchUtil.h); each also has a deterministic frames/Mcycle row.
// Emits BENCH_soak.json (schema b2stack-bench-v1) and METRICS_soak.json.
//
// A scaling gate soaks one pipelined valid-mix shard at N and 8N frames in
// interleaved pairs and gates the median per-frame host-cost ratio at
// <= 1.25 (cost linear in stream length); --quick records the ratio
// without enforcing it.
//
// Usage: soak_throughput [--quick]   (--quick shrinks the measurement for
// CI smoke runs)
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/Metrics.h"
#include "traffic/Scenario.h"
#include "traffic/Soak.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace b2;
using namespace b2::traffic;

int main(int argc, char **argv) {
  const bool Quick = bench::quickFlag(argc, argv);
  const unsigned Reps = Quick ? 1 : 3;
  bench::Report Rep("soak_throughput", Quick);

  std::printf("== soak_throughput: frames/second per scenario x core ==\n\n");

  compiler::CompileResult C = compileSoakFirmware();
  if (!C.ok()) {
    std::fprintf(stderr, "firmware compile failed: %s\n", C.Error.c_str());
    return 1;
  }

  // One soak of Stream, timed: delivered frames per second. The
  // deterministic frames per simulated Mcycle lands in \p PerMcycle.
  bool AllOk = true;
  auto Soak = [&](const TrafficStream &Stream, const SoakOptions &O,
                  const char *Scenario, uint64_t Seed, double &PerMcycle) {
    return bench::timeWindow(0, [&]() -> uint64_t {
             SoakReport R = runSoak(*C.Prog, Stream, O, Scenario, Seed);
             uint64_t Frames = 0, Cycles = 0;
             for (const ShardStats &Sh : R.Shards) {
               Frames += Sh.FramesDelivered;
               Cycles += Sh.Cycles;
             }
             PerMcycle = Cycles ? double(Frames) / (double(Cycles) / 1e6) : 0;
             if (!R.Ok) {
               const ShardStats *F = R.firstFailure();
               std::fprintf(stderr, "soak FAILED (%s on %s, %llu frames): %s\n",
                            Scenario, soakCoreName(O.Core),
                            (unsigned long long)Stream.Frames.size(),
                            F ? F->Error.c_str() : "unknown");
               AllOk = false;
             }
             return Frames;
           })
        .rate();
  };

  // The pipelined core retires ~4x fewer instructions per wall-clock
  // second than the ISA simulator, so it gets a smaller stream; the
  // per-Mcycle row stays comparable regardless.
  const uint64_t IsaFrames = Quick ? 120 : 2000;
  const uint64_t PipeFrames = Quick ? 40 : 500;
  SoakOptions Base;
  Base.Threads = std::max(1u, std::thread::hardware_concurrency());
  Base.FramesPerShard = Quick ? 32 : 256;
  for (const ScenarioInfo &S : scenarioCatalog()) {
    for (SoakCore Core : {SoakCore::IsaSim, SoakCore::Pipelined}) {
      ScenarioOptions G;
      G.Seed = 7;
      G.Frames = Core == SoakCore::IsaSim ? IsaFrames : PipeFrames;
      TrafficStream Stream = generateScenario(S.Name, G);
      SoakOptions O = Base;
      O.Core = Core;
      double PerMcycle = 0;
      std::vector<double> Fps = bench::repeat(
          Reps, [&] { return Soak(Stream, O, S.Name, G.Seed, PerMcycle); });
      Rep.row("traffic", S.Name, soakCoreName(Core), "frames_per_sec", "1/s",
              true, bench::summarize(Fps));
      Rep.row("traffic", S.Name, soakCoreName(Core), "frames_per_mcycle",
              "1/Mcycle", true, bench::summarize({PerMcycle}),
              /*Deterministic=*/true);
    }
  }

  // Scaling: one pipelined valid-mix shard at N and 8N frames. The shard's
  // trace, label log and delivery log all grow with its length, so any
  // per-poll work proportional to their size shows up as a per-frame host
  // cost that rises with N. The warm-boot cache is primed first so neither
  // length pays for the boot.
  const uint64_t ScaleFrames = Quick ? 25 : 250;
  SoakOptions Scale;
  Scale.Core = SoakCore::Pipelined;
  Scale.Shards = 1;
  auto SecondsPerFrame = [&](uint64_t Frames) {
    ScenarioOptions G;
    G.Seed = 7;
    G.Frames = Frames;
    TrafficStream Stream = generateScenario("valid-mix", G);
    return [&Soak, &Scale, Stream, G] {
      double PerMcycle = 0;
      double Fps = Soak(Stream, Scale, "valid-mix", G.Seed, PerMcycle);
      return Fps > 0 ? 1 / Fps : 0;
    };
  };
  (void)SecondsPerFrame(1)();
  bench::Pairs P = bench::pairs(Quick ? 3 : 7, SecondsPerFrame(8 * ScaleFrames),
                                SecondsPerFrame(ScaleFrames));
  const std::string Small = "pipelined_" + std::to_string(ScaleFrames);
  const std::string Large = "pipelined_" + std::to_string(8 * ScaleFrames);
  Rep.row("traffic", "valid-mix-one-shard", Small, "sec_per_frame", "s",
          false, bench::summarize(P.B));
  Rep.row("traffic", "valid-mix-one-shard", Large, "sec_per_frame", "s",
          false, bench::summarize(P.A));
  Rep.gate("scaling_per_frame_cost_ratio", bench::summarize(P.Ratio).Median,
           "<=", 1.25);

  Rep.finish("BENCH_soak.json");
  const char *MetricsPath = "METRICS_soak.json";
  if (!metrics::writeMetricsFile(MetricsPath, "soak_throughput"))
    std::fprintf(stderr, "failed to write %s\n", MetricsPath);
  else
    std::printf("wrote %s\n", MetricsPath);

  return AllOk && Rep.gatesOk() ? 0 : 1;
}
