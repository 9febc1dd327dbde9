//===- bench/soak_throughput.cpp - Soak-harness frames/second ----------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// End-to-end throughput of the traffic soak harness: frames driven through
// compiled firmware per second of wall time, for every scenario in the
// catalog on both the ISA simulator and the pipelined Kami core, with the
// streaming goodHlTrace monitor checking every MMIO event. Every measured
// run must also PASS — a number from a failing soak is meaningless, so a
// failure here is a bench failure. Emits machine-readable BENCH_soak.json
// so the perf trajectory is tracked PR over PR.
//
// A scaling row soaks one pipelined valid-mix shard at N and 8N frames and
// gates the per-frame host-cost ratio at <= 1.25 (cost linear in stream
// length); --quick prints the ratio without gating it.
//
// Usage: soak_throughput [--quick]   (--quick shrinks the measurement for
// CI smoke runs)
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "traffic/Scenario.h"
#include "traffic/Soak.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace b2;
using namespace b2::traffic;

namespace {

double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

struct Row {
  std::string Scenario;
  std::string Core;
  bool Ok = false;
  uint64_t Frames = 0;
  uint64_t Cycles = 0;
  double Seconds = 0;
  double Fps = 0;            ///< Delivered frames per wall-clock second.
  double FramesPerMcycle = 0; ///< Deterministic cousin of Fps.
};

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;

  std::printf("== soak_throughput: frames/second per scenario x core ==\n\n");

  compiler::CompileResult C = compileSoakFirmware();
  if (!C.ok()) {
    std::fprintf(stderr, "firmware compile failed: %s\n", C.Error.c_str());
    return 1;
  }

  // The pipelined core retires ~4x fewer instructions per wall-clock
  // second than the ISA simulator, so it gets a smaller stream; the
  // per-Mcycle column stays comparable regardless.
  const uint64_t IsaFrames = Quick ? 120 : 2000;
  const uint64_t PipeFrames = Quick ? 40 : 500;
  SoakOptions Base;
  Base.Threads = std::max(1u, std::thread::hardware_concurrency());
  Base.FramesPerShard = Quick ? 32 : 256;

  std::vector<Row> Rows;
  bool AllOk = true;
  for (const ScenarioInfo &S : scenarioCatalog()) {
    for (SoakCore Core : {SoakCore::IsaSim, SoakCore::Pipelined}) {
      ScenarioOptions G;
      G.Seed = 7;
      G.Frames = Core == SoakCore::IsaSim ? IsaFrames : PipeFrames;
      TrafficStream Stream = generateScenario(S.Name, G);
      SoakOptions O = Base;
      O.Core = Core;
      double T0 = now();
      SoakReport Rep = runSoak(*C.Prog, Stream, O, S.Name, G.Seed);
      Row R;
      R.Scenario = S.Name;
      R.Core = soakCoreName(Core);
      R.Ok = Rep.Ok;
      R.Seconds = now() - T0;
      for (const ShardStats &Sh : Rep.Shards) {
        R.Frames += Sh.FramesDelivered;
        R.Cycles += Sh.Cycles;
      }
      R.Fps = R.Seconds > 0 ? R.Frames / R.Seconds : 0;
      R.FramesPerMcycle =
          R.Cycles ? double(R.Frames) / (double(R.Cycles) / 1e6) : 0;
      if (!Rep.Ok) {
        const ShardStats *F = Rep.firstFailure();
        std::fprintf(stderr, "soak FAILED (%s on %s): %s\n", S.Name,
                     R.Core.c_str(), F ? F->Error.c_str() : "unknown");
        AllOk = false;
      }
      Rows.push_back(R);
    }
  }

  bench::Table Tab(
      {"scenario", "core", "ok", "frames", "frames/sec", "frames/Mcycle"});
  for (const Row &R : Rows)
    Tab.row({R.Scenario, R.Core, R.Ok ? "yes" : "NO",
             std::to_string(R.Frames), bench::fixed(R.Fps, 0),
             bench::fixed(R.FramesPerMcycle, 3)});
  Tab.print();

  // Scaling: one pipelined valid-mix shard at N and 8N frames. The shard's
  // trace, label log and delivery log all grow with its length, so any
  // per-poll work proportional to their size shows up as a per-frame host
  // cost that rises with N. Best of three runs each; the warm-boot cache
  // is primed first so neither length pays for the boot.
  const uint64_t ScaleFrames = Quick ? 25 : 250;
  const double MaxScaleRatio = 1.25;
  SoakOptions Scale;
  Scale.Core = SoakCore::Pipelined;
  Scale.Shards = 1;
  auto PerFrameSeconds = [&](uint64_t Frames) {
    ScenarioOptions G;
    G.Seed = 7;
    G.Frames = Frames;
    TrafficStream Stream = generateScenario("valid-mix", G);
    double Best = 1e99;
    for (int Rep = 0; Rep != 3; ++Rep) {
      double T0 = now();
      SoakReport R = runSoak(*C.Prog, Stream, Scale, "valid-mix", G.Seed);
      Best = std::min(Best, now() - T0);
      if (!R.Ok) {
        std::fprintf(stderr, "scaling soak FAILED at %llu frames\n",
                     (unsigned long long)Frames);
        AllOk = false;
      }
    }
    return Best / double(Frames);
  };
  (void)PerFrameSeconds(1);
  const double SmallCost = PerFrameSeconds(ScaleFrames);
  const double LargeCost = PerFrameSeconds(8 * ScaleFrames);
  const double ScaleRatio = SmallCost > 0 ? LargeCost / SmallCost : 0;
  const bool ScaleOk = Quick || ScaleRatio <= MaxScaleRatio;
  std::printf("\nscaling (pipelined valid-mix, one shard): %.1f us/frame at "
              "%llu frames, %.1f us/frame at %llu frames: ratio %.2f (gate "
              "<= %.2f%s)\n",
              SmallCost * 1e6, (unsigned long long)ScaleFrames,
              LargeCost * 1e6, (unsigned long long)(8 * ScaleFrames),
              ScaleRatio, MaxScaleRatio, Quick ? ", not enforced in --quick" : "");
  if (!ScaleOk) {
    std::fprintf(stderr, "scaling gate FAILED: per-frame cost ratio %.2f > "
                         "%.2f\n",
                 ScaleRatio, MaxScaleRatio);
    AllOk = false;
  }

  support::JsonWriter J;
  J.beginObject();
  J.key("bench").value("soak_throughput");
  J.key("quick").value(Quick);
  J.key("threads").value(uint64_t(Base.Threads));
  J.key("scenarios").beginArray();
  for (const Row &R : Rows) {
    J.beginObject();
    J.key("scenario").value(R.Scenario);
    J.key("core").value(R.Core);
    J.key("ok").value(R.Ok);
    J.key("frames").value(R.Frames);
    J.key("cycles").value(R.Cycles);
    J.key("seconds").value(R.Seconds);
    J.key("frames_per_sec").value(R.Fps);
    J.key("frames_per_mcycle").value(R.FramesPerMcycle);
    J.endObject();
  }
  J.endArray();
  J.key("scaling").beginObject();
  J.key("scenario").value("valid-mix");
  J.key("core").value(soakCoreName(SoakCore::Pipelined));
  J.key("frames_small").value(ScaleFrames);
  J.key("frames_large").value(8 * ScaleFrames);
  J.key("sec_per_frame_small").value(SmallCost);
  J.key("sec_per_frame_large").value(LargeCost);
  J.key("per_frame_cost_ratio").value(ScaleRatio);
  J.key("max_ratio").value(MaxScaleRatio);
  J.key("enforced").value(!Quick);
  J.endObject();
  J.key("all_ok").value(AllOk);
  J.endObject();
  const char *OutPath = "BENCH_soak.json";
  if (!support::writeFile(OutPath, J.str()))
    std::fprintf(stderr, "failed to write %s\n", OutPath);
  else
    std::printf("wrote %s\n", OutPath);

  const char *MetricsPath = "METRICS_soak.json";
  if (!metrics::writeMetricsFile(MetricsPath, "soak_throughput"))
    std::fprintf(stderr, "failed to write %s\n", MetricsPath);
  else
    std::printf("wrote %s\n", MetricsPath);

  return AllOk ? 0 : 1;
}
