//===- bench/shrink_throughput.cpp - Checkpointed vs cold-replay shrink ------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// Measures ddmin counterexample shrinking two ways over the same seeded
// failing scenario: the cold-replay oracle (every candidate re-simulated
// from reset) and the checkpoint-tree oracle (every candidate resumed
// from the deepest checkpoint of its shared delivered prefix).
//
// Scenario: a 200+-frame stream of UDP chaff with one valid ON command
// early and one valid OFF command late, run under the seeded
// dev-lan-rx-cross-frame-latch fault — the LAN9250 RX engine leaks a
// marker latch across frames, so the ON corrupts the later OFF and the
// drained run misses a lightbulb toggle. The minimal counterexample is
// the {ON, OFF} pair; ddmin has to strip ~218 chaff frames to find it.
//
// Accounting: both shrinkers receive the failing scenario from a soak
// shard whose own simulation is sunk cost. The checkpointed oracle
// replays it once to build its tree (the "prime" handoff — in the
// deployed pipeline the failing shard runs under the checkpoint layer,
// so the tree is a byproduct of discovery); after that, probe_cycles
// counts the cycles each shrinker's ddmin loop actually simulates. The
// bench gates the checkpointed probe loop at >= 3x fewer simulated
// cycles than cold replay (>= 2x for the smaller --quick scenario; a
// simulated count, so --quick enforces it too) and asserts that the two
// paths are bit-identical: same shrunk frame bytes, same oracle verdict
// trajectory, same violation index. A speedup bought by diverging
// verdicts would be a correctness bug, so identity failures fail the
// bench. Emits BENCH_shrink.json (schema b2stack-bench-v1): each
// oracle's median shrink time and its deterministic probe cycles and
// oracle runs.
//
// Usage: shrink_throughput [--quick]   (--quick shrinks the scenario for
// CI smoke runs)
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "devices/Net.h"
#include "support/Rng.h"
#include "traffic/Shrink.h"
#include "traffic/Soak.h"
#include "verify/FaultInjection.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace b2;
using namespace b2::traffic;

namespace {

/// The seeded failing stream: deterministic UDP chaff (first payload
/// byte forced even so no chaff frame is ever a valid command) with one
/// ON command at \p OnAt and one OFF command at \p OffAt.
std::vector<devices::ScheduledFrame> pairScenario(uint64_t Seed, size_t Frames,
                                                  size_t OnAt, size_t OffAt) {
  support::Rng R(Seed);
  std::vector<devices::ScheduledFrame> Out;
  Out.reserve(Frames);
  for (size_t I = 0; I != Frames; ++I) {
    devices::ScheduledFrame S;
    S.AtOp = 2000 * (I + 1);
    if (I == OnAt) {
      S.Frame = devices::buildCommandFrame(true);
    } else if (I == OffAt) {
      S.Frame = devices::buildCommandFrame(false);
    } else {
      std::vector<uint8_t> Payload(1 + R.below(48));
      Payload[0] = uint8_t(R.next32() & 0xFE);
      for (size_t J = 1; J != Payload.size(); ++J)
        Payload[J] = uint8_t(R.next32());
      S.Frame = devices::buildUdpFrame(Payload);
    }
    Out.push_back(std::move(S));
  }
  return Out;
}

/// FNV-1a over the shrunk frames' bytes — one number that changes if the
/// two shrinkers disagree on anything the counterexample contains.
uint64_t framesHash(const std::vector<devices::ScheduledFrame> &Frames) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  for (const devices::ScheduledFrame &F : Frames) {
    Mix(F.Frame.size());
    for (uint8_t B : F.Frame)
      Mix(B);
    Mix(F.Errored ? 1 : 0);
  }
  return H;
}

struct Leg {
  std::string Oracle;
  ShrunkCounterexample Shrunk;
  std::vector<double> Seconds; ///< One entry per repetition.
};

} // namespace

int main(int argc, char **argv) {
  const bool Quick = bench::quickFlag(argc, argv);
  bench::Report Rep("shrink_throughput", Quick);

  std::printf("== shrink_throughput: checkpointed vs cold-replay ddmin ==\n\n");

  compiler::CompileResult C = compileSoakFirmware();
  if (!C.ok()) {
    std::fprintf(stderr, "firmware compile failed: %s\n", C.Error.c_str());
    return 1;
  }

  const size_t Frames = Quick ? 60 : 220;
  const size_t OnAt = Quick ? 5 : 15;
  const size_t OffAt = Quick ? 50 : 205;
  const double MinSpeedup = Quick ? 2.0 : 3.0;
  std::vector<devices::ScheduledFrame> Stream =
      pairScenario(7, Frames, OnAt, OffAt);

  SoakOptions Warm;
  Warm.Core = SoakCore::IsaSim;
  fi::FaultPlan Plan = fi::FaultPlan::single(fi::Fault::DevLanRxCrossFrameLatch);
  Warm.Plan = &Plan;
  SoakOptions Cold = Warm;
  Cold.Checkpoint = false;

  // Discovery: one cold soak shard must fail frame-attributably. Its
  // cycles are sunk cost for both shrinkers.
  ShardStats Seeded = runSoakShard(*C.Prog, Stream, Cold);
  if (Seeded.Ok || Seeded.DeliveredFrames.empty()) {
    std::fprintf(stderr, "seeded scenario did not fail: %s\n",
                 Seeded.Error.c_str());
    return 1;
  }

  std::vector<Leg> Legs(2);
  Legs[0].Oracle = "cold";
  Legs[1].Oracle = "checkpointed";
  for (Leg &L : Legs)
    L.Seconds = bench::repeat(Quick ? 1 : 5, [&] {
      return bench::timeWindow(0, [&]() -> uint64_t {
               L.Shrunk = shrinkSoakFailure(*C.Prog, Seeded.DeliveredFrames,
                                            L.Oracle == "cold" ? Cold : Warm);
               return 1;
             })
          .Seconds;
    });

  const Leg &LC = Legs[0], &LW = Legs[1];
  bool AllOk = true;
  auto Check = [&AllOk](bool Cond, const char *What) {
    if (!Cond) {
      std::fprintf(stderr, "FAIL: %s\n", What);
      AllOk = false;
    }
  };
  Check(LC.Shrunk.Result.Reproduced && LW.Shrunk.Result.Reproduced,
        "both shrinkers reproduce the seeded failure");
  Check(framesHash(LC.Shrunk.Result.Frames) ==
            framesHash(LW.Shrunk.Result.Frames),
        "shrunk counterexamples bit-identical");
  Check(LC.Shrunk.Result.OracleRuns == LW.Shrunk.Result.OracleRuns,
        "oracle verdict trajectories identical (same ddmin path)");
  Check(LC.Shrunk.ViolationIndex == LW.Shrunk.ViolationIndex,
        "violation index identical");
  Check(LW.Shrunk.Result.Frames.size() == 2,
        "minimal counterexample is the {ON, OFF} pair");

  const double Speedup =
      LW.Shrunk.Work.SimulatedCycles
          ? double(LC.Shrunk.Work.SimulatedCycles) /
                double(LW.Shrunk.Work.SimulatedCycles)
          : 0;
  const uint64_t WarmTotal =
      LW.Shrunk.Work.SimulatedCycles + LW.Shrunk.Work.PrimeCycles;
  const double EndToEnd =
      WarmTotal ? double(LC.Shrunk.Work.SimulatedCycles) / double(WarmTotal)
                : 0;
  Rep.gate("probe_speedup_checkpointed_vs_cold", Speedup, ">=", MinSpeedup,
           /*Exact=*/true);
  for (const Leg &L : Legs) {
    const std::string W = "cross-frame-latch-pair";
    Rep.row("traffic", W, L.Oracle, "shrink_seconds", "s", false,
            bench::summarize(L.Seconds));
    Rep.row("traffic", W, L.Oracle, "probe_cycles", "cycles", false,
            bench::summarize({double(L.Shrunk.Work.SimulatedCycles)}),
            /*Deterministic=*/true);
    Rep.row("traffic", W, L.Oracle, "oracle_runs", "count", false,
            bench::summarize({double(L.Shrunk.Result.OracleRuns)}),
            /*Deterministic=*/true);
  }
  Rep.finish("BENCH_shrink.json");
  std::printf("end-to-end probe speedup incl. handoff replay: %.2fx\n",
              EndToEnd);
  return AllOk && Rep.gatesOk() ? 0 : 1;
}
