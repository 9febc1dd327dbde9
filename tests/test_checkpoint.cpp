//===- tests/test_checkpoint.cpp - Checkpoint/restore layer tests ------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Tier-1 coverage for the whole-machine checkpoint/restore layer: the
// copy-on-write and delta-chain snapshot primitives, SoakMachine
// snapshot round trips, the randomized snapshot-resume-vs-straight-
// through bit-identity fuzz on every execution substrate — including
// the superblock Block/Differential engines, whose translation caches
// are flushed on restore — (clean and under seeded fault plans),
// warm-boot vs. cold-boot shard identity across engine modes,
// and the checkpointed shrink oracle's agreement with the cold oracle.
// The one seeded checkpoint bug (snap-state-stale-latch) must make the
// differential fail — proof the identity check has teeth.
//
//===----------------------------------------------------------------------===//

#include "support/Rng.h"
#include "support/Snapshot.h"
#include "traffic/Checkpoint.h"
#include "traffic/Scenario.h"
#include "traffic/Shrink.h"
#include "traffic/Soak.h"
#include "verify/FaultInjection.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace b2;
using namespace b2::traffic;

namespace {

/// Compiles the soak firmware once for the whole suite.
const compiler::CompiledProgram &soakFirmware() {
  static compiler::CompileResult C = compileSoakFirmware();
  EXPECT_TRUE(C.ok()) << C.Error;
  return *C.Prog;
}

std::vector<devices::ScheduledFrame> scenarioFrames(uint64_t Seed,
                                                    uint64_t Frames) {
  ScenarioOptions G;
  G.Seed = Seed;
  G.Frames = Frames;
  return generateScenario("valid-mix", G).Frames;
}

} // namespace

// -- CowTracker --------------------------------------------------------------

TEST(CowTracker, RestoreRewindsOnlyDirtyPages) {
  using Tracker = support::CowTracker<uint32_t>;
  std::vector<uint32_t> Data(Tracker::PageElems * 3 + 17, 7);
  Tracker T;
  Tracker::Snap S0 = T.snapshot(Data);

  // Dirty exactly one page, snapshot again: the other pages must be
  // shared by pointer with the previous snapshot.
  Data[Tracker::PageElems + 5] = 99;
  T.markDirty(Tracker::PageElems + 5);
  Tracker::Snap S1 = T.snapshot(Data);
  ASSERT_EQ(S0.Pages.size(), S1.Pages.size());
  EXPECT_EQ(S0.Pages[0].get(), S1.Pages[0].get());
  EXPECT_NE(S0.Pages[1].get(), S1.Pages[1].get());
  EXPECT_EQ(S0.Pages[2].get(), S1.Pages[2].get());

  // Rewind to S0: only the diverged page is touched.
  std::vector<size_t> Touched;
  T.restore(Data, S0, &Touched);
  EXPECT_EQ(Touched, std::vector<size_t>{1});
  EXPECT_EQ(Data[Tracker::PageElems + 5], 7u);

  // Replay to S1 and verify contents, including the short tail page.
  T.restore(Data, S1);
  EXPECT_EQ(Data[Tracker::PageElems + 5], 99u);
  EXPECT_EQ(Data.back(), 7u);
}

TEST(CowTracker, CrossTrackerRestoreCopiesEverything) {
  using Tracker = support::CowTracker<uint32_t>;
  std::vector<uint32_t> Data(Tracker::PageElems * 2);
  for (size_t I = 0; I != Data.size(); ++I)
    Data[I] = uint32_t(I);
  Tracker A;
  Tracker::Snap S = A.snapshot(Data);

  // A fresh machine (fresh tracker, different contents) restoring a
  // foreign snapshot must end up with the snapshot's exact contents.
  std::vector<uint32_t> Other(Data.size(), 0xFFFF);
  Tracker B;
  std::vector<size_t> Touched;
  B.restore(Other, S, &Touched);
  EXPECT_EQ(Other, Data);
  EXPECT_EQ(Touched.size(), 2u);
}

TEST(CowTracker, UnreportedWritesWouldSurviveButReportedOnesRewind) {
  // The contract: mutations must be reported. This pins the mechanism —
  // a dirty mark forces the page copy-back even when the base pointer
  // still matches.
  using Tracker = support::CowTracker<uint64_t>;
  std::vector<uint64_t> Data(Tracker::PageElems, 1);
  Tracker T;
  Tracker::Snap S = T.snapshot(Data);
  Data[3] = 42;
  T.markDirty(3);
  T.restore(Data, S);
  EXPECT_EQ(Data[3], 1u);
}

// -- ChainTracker ------------------------------------------------------------

TEST(ChainTracker, BranchRestoreReplaysFromCommonAncestor) {
  support::ChainTracker<int> T;
  std::vector<int> Log = {1, 2};
  auto S0 = T.snapshot(Log);
  Log.push_back(3);
  Log.push_back(4);
  auto S1 = T.snapshot(Log);
  // Snapshots store only the appended suffix.
  EXPECT_EQ(S0->Delta.size(), 2u);
  EXPECT_EQ(S1->Delta.size(), 2u);

  // Rewind to S0, take a divergent branch, then jump across branches.
  T.restore(Log, S0);
  EXPECT_EQ(Log, (std::vector<int>{1, 2}));
  Log.push_back(30);
  auto S2 = T.snapshot(Log);
  T.restore(Log, S1);
  EXPECT_EQ(Log, (std::vector<int>{1, 2, 3, 4}));
  T.restore(Log, S2);
  EXPECT_EQ(Log, (std::vector<int>{1, 2, 30}));
}

TEST(ChainTracker, SurvivesTrackedVectorBeingMovedOut) {
  // collectShardStats legitimately std::moves the delivered-frame log
  // out of the machine; the tracker must notice the truncation instead
  // of slicing past the end or resurrecting a garbage prefix.
  support::ChainTracker<int> T;
  std::vector<int> Log = {1, 2, 3};
  auto S = T.snapshot(Log);
  std::vector<int> Stolen = std::move(Log);
  Log.clear(); // Moved-from: make the state explicit.

  auto SEmpty = T.snapshot(Log); // Shorter than the chain position.
  EXPECT_EQ(SEmpty->Len, 0u);
  T.restore(Log, S);
  EXPECT_EQ(Log, Stolen);

  // And the restore-side guard: move out again, then restore directly.
  std::vector<int> Stolen2 = std::move(Log);
  Log.clear();
  T.restore(Log, S);
  EXPECT_EQ(Log, Stolen2);
}

// -- SoakMachine snapshot round trip -----------------------------------------

TEST(Checkpoint, SoakMachineRestoreReplaysIdentically) {
  // Run a prefix, checkpoint, run the suffix twice — once straight, once
  // after restore — and demand the same retirement count and trace.
  SoakMachine M(soakFirmware(), SoakCore::IsaSim, 1u << 20);
  bool Ok = true;
  M.Elapsed += M.runChunk(20000, Ok);
  ASSERT_TRUE(Ok);
  SoakMachine::Snapshot S = M.snapshot();
  const uint64_t ElapsedAtSnap = M.Elapsed;

  M.Elapsed += M.runChunk(20000, Ok);
  ASSERT_TRUE(Ok);
  const uint64_t RetiredStraight = M.retired();
  const uint64_t HashStraight = soakTraceHash(M.trace());

  M.restore(S);
  EXPECT_EQ(M.Elapsed, ElapsedAtSnap);
  M.Elapsed += M.runChunk(20000, Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(M.retired(), RetiredStraight);
  EXPECT_EQ(soakTraceHash(M.trace()), HashStraight);
}

// -- Trace growth ------------------------------------------------------------

TEST(Checkpoint, ConvertedTraceGrowsGeometricallyAcrossPolls) {
  // The converted MMIO trace is polled after every chunk. Growing it by
  // an exact reserve per poll reallocates and copies the whole trace each
  // time, so a shard's cost grows quadratically with its length; with
  // geometric growth the capacity changes only logarithmically often.
  // runShardLoop is driven one chunk per call (the budget is raised by one
  // chunk each time) so the capacity is sampled after every poll.
  const std::vector<devices::ScheduledFrame> Frames = scenarioFrames(5, 200);
  SoakOptions O;
  O.Core = SoakCore::Pipelined;
  SoakMachine M(soakFirmware(), O.Core, O.RamBytes);
  size_t Capacity = M.trace().capacity();
  unsigned Changes = 0, Polls = 0;
  ShardExit E;
  do {
    O.MaxCyclesPerShard = M.Elapsed + O.ChunkCycles;
    E = runShardLoop(M, Frames.data(), Frames.data() + Frames.size(), O);
    ++Polls;
    Changes += M.trace().capacity() != Capacity;
    Capacity = M.trace().capacity();
  } while (E == ShardExit::BudgetExhausted);
  ASSERT_EQ(E, ShardExit::Completed);
  ASSERT_EQ(M.NextFrame, Frames.size());
  const size_t Events = M.trace().size();
  ASSERT_GT(Events, 0u);
  EXPECT_LE(Changes, 2 * std::log2(double(Events)) + 8)
      << Polls << " polls, " << Events << " events";
}

// -- Snapshot-resume vs. straight-through bit-identity -----------------------

TEST(Checkpoint, DifferentialFuzzOnIsaSim) {
  // Random depths, random frame counts, a rotating set of seeded fault
  // plans (device and traffic bugs — all deterministic, so they apply to
  // both runs equally and must never break identity). Runs the reference
  // stepper; the next test covers the Block engine.
  const fi::Fault Plans[] = {
      fi::Fault::NumFaults, // No fault armed.
      fi::Fault::DevLanRxByteOrder,
      fi::Fault::TrafficMonitorDropEvent,
      fi::Fault::DevSpiStaleRead,
  };
  support::Rng R(0xC0FFEE);
  for (unsigned Trial = 0; Trial != 10; ++Trial) {
    const uint64_t NumFrames = R.range(2, 10);
    std::vector<devices::ScheduledFrame> Frames =
        scenarioFrames(R.next64(), NumFrames);
    const size_t Depth = size_t(R.range(1, NumFrames + 1));
    const fi::Fault F = Plans[Trial % (sizeof(Plans) / sizeof(Plans[0]))];

    SoakOptions O;
    O.Core = SoakCore::IsaSim;
    O.SimExec = riscv::ExecMode::Reference;
    fi::FaultPlan Plan;
    if (F != fi::Fault::NumFaults) {
      Plan = fi::FaultPlan::single(F);
      O.Plan = &Plan;
    }
    SnapshotDifferential D =
        runSnapshotDifferential(soakFirmware(), Frames, O, Depth);
    EXPECT_TRUE(D.Identical)
        << "trial " << Trial << " depth " << Depth << ": " << D.Detail;
  }
}

TEST(Checkpoint, DifferentialFuzzWithBlockEngine) {
  // The superblock trace engine keeps derived state (hot counters,
  // translated traces, block links) that is never snapshotted: restore
  // flushes it and execution re-warms. Identity must still hold —
  // trace state is architecturally invisible — for the Block engine and
  // for the full lockstep Differential, clean and under seeded fault
  // plans that perturb both runs equally. (Block-engine faults like
  // sim-stale-superblock-after-invalidate are deliberately absent: they
  // make trace state visible, which is exactly what the BlockDiff
  // adequacy column exists to catch.)
  const fi::Fault Plans[] = {
      fi::Fault::NumFaults, // No fault armed.
      fi::Fault::DevLanRxByteOrder,
  };
  support::Rng R(0xB10C);
  unsigned Trial = 0;
  for (riscv::ExecMode Mode :
       {riscv::ExecMode::Block, riscv::ExecMode::Differential}) {
    for (unsigned I = 0; I != 3; ++I, ++Trial) {
      const uint64_t NumFrames = R.range(2, 8);
      std::vector<devices::ScheduledFrame> Frames =
          scenarioFrames(R.next64(), NumFrames);
      const size_t Depth = size_t(R.range(1, NumFrames + 1));
      const fi::Fault F = Plans[Trial % (sizeof(Plans) / sizeof(Plans[0]))];

      SoakOptions O;
      O.Core = SoakCore::IsaSim;
      O.SimExec = Mode;
      fi::FaultPlan Plan;
      if (F != fi::Fault::NumFaults) {
        Plan = fi::FaultPlan::single(F);
        O.Plan = &Plan;
      }
      SnapshotDifferential D =
          runSnapshotDifferential(soakFirmware(), Frames, O, Depth);
      EXPECT_TRUE(D.Identical) << riscv::execModeName(Mode) << " trial "
                               << Trial << " depth " << Depth << ": "
                               << D.Detail;
    }
  }
}

TEST(Checkpoint, DifferentialFuzzOnKamiCores) {
  support::Rng R(0xB007);
  for (SoakCore Core : {SoakCore::SpecCore, SoakCore::Pipelined}) {
    for (unsigned Trial = 0; Trial != 2; ++Trial) {
      const uint64_t NumFrames = R.range(2, 6);
      std::vector<devices::ScheduledFrame> Frames =
          scenarioFrames(R.next64(), NumFrames);
      const size_t Depth = size_t(R.range(1, NumFrames + 1));
      SoakOptions O;
      O.Core = Core;
      SnapshotDifferential D =
          runSnapshotDifferential(soakFirmware(), Frames, O, Depth);
      EXPECT_TRUE(D.Identical) << soakCoreName(Core) << " trial " << Trial
                               << " depth " << Depth << ": " << D.Detail;
    }
  }
}

TEST(Checkpoint, SeededRestoreBugBreaksTheDifferential) {
  // snap-state-stale-latch corrupts one restored SPI latch; the
  // differential is the checker that owns it, so it must fire whenever a
  // restore actually happens (depth >= 1)...
  fi::FaultPlan Plan = fi::FaultPlan::single(fi::Fault::SnapStateStaleLatch);
  SoakOptions O;
  O.Core = SoakCore::IsaSim;
  O.Plan = &Plan;
  std::vector<devices::ScheduledFrame> Frames = scenarioFrames(11, 6);
  SnapshotDifferential Broken =
      runSnapshotDifferential(soakFirmware(), Frames, O, 1);
  EXPECT_FALSE(Broken.Identical);
  EXPECT_FALSE(Broken.Detail.empty());

  // ...and stay quiet on the same input when nothing is restored
  // (depth 0 runs both machines cold).
  SnapshotDifferential Cold =
      runSnapshotDifferential(soakFirmware(), Frames, O, 0);
  EXPECT_TRUE(Cold.Identical) << Cold.Detail;
}

// -- Warm boot vs. cold boot -------------------------------------------------

TEST(Checkpoint, WarmBootShardIsBitIdenticalToCold) {
  std::vector<devices::ScheduledFrame> Frames = scenarioFrames(17, 12);
  SoakOptions Warm, Cold;
  Warm.Core = Cold.Core = SoakCore::IsaSim;
  Warm.Checkpoint = true;
  Cold.Checkpoint = false;

  // Twice warm: the first call boots and seeds the per-thread cache, the
  // second forks from the cached snapshot — both must match cold.
  ShardStats W1 = runSoakShard(soakFirmware(), Frames, Warm);
  ShardStats W2 = runSoakShard(soakFirmware(), Frames, Warm);
  ShardStats C = runSoakShard(soakFirmware(), Frames, Cold);
  for (const ShardStats *S : {&W1, &W2}) {
    EXPECT_EQ(S->Ok, C.Ok);
    EXPECT_EQ(S->Error, C.Error);
    EXPECT_EQ(S->TraceHash, C.TraceHash);
    EXPECT_EQ(S->Cycles, C.Cycles);
    EXPECT_EQ(S->Retired, C.Retired);
    EXPECT_EQ(S->FramesDelivered, C.FramesDelivered);
    EXPECT_EQ(S->FramesAccepted, C.FramesAccepted);
    EXPECT_EQ(S->ValidCommands, C.ValidCommands);
    EXPECT_EQ(S->MmioEvents, C.MmioEvents);
    EXPECT_EQ(S->MonitorEventsSeen, C.MonitorEventsSeen);
    EXPECT_EQ(S->LightTransitions, C.LightTransitions);
  }
  EXPECT_TRUE(C.Ok) << C.Error;
}

TEST(Checkpoint, WarmBootWithBlockEngineMatchesColdAndReference) {
  // Warm-boot fleets under the Block engine: the boot cache keys on the
  // engine mode, the restored machine flushes its translation cache and
  // re-warms, and the result must be bit-identical to a cold Block boot
  // — which in turn must match the Reference engine field for field,
  // because the engine retires the exact same instruction schedule.
  std::vector<devices::ScheduledFrame> Frames = scenarioFrames(23, 10);
  SoakOptions Warm, Cold, Ref;
  Warm.Core = Cold.Core = Ref.Core = SoakCore::IsaSim;
  Warm.SimExec = Cold.SimExec = riscv::ExecMode::Block;
  Ref.SimExec = riscv::ExecMode::Reference;
  Warm.Checkpoint = true;
  Cold.Checkpoint = Ref.Checkpoint = false;

  ShardStats W1 = runSoakShard(soakFirmware(), Frames, Warm);
  ShardStats W2 = runSoakShard(soakFirmware(), Frames, Warm);
  ShardStats C = runSoakShard(soakFirmware(), Frames, Cold);
  ShardStats R = runSoakShard(soakFirmware(), Frames, Ref);
  for (const ShardStats *S : {&W1, &W2, &R}) {
    EXPECT_EQ(S->Ok, C.Ok);
    EXPECT_EQ(S->Error, C.Error);
    EXPECT_EQ(S->TraceHash, C.TraceHash);
    EXPECT_EQ(S->Cycles, C.Cycles);
    EXPECT_EQ(S->Retired, C.Retired);
    EXPECT_EQ(S->FramesDelivered, C.FramesDelivered);
    EXPECT_EQ(S->FramesAccepted, C.FramesAccepted);
    EXPECT_EQ(S->ValidCommands, C.ValidCommands);
    EXPECT_EQ(S->MmioEvents, C.MmioEvents);
    EXPECT_EQ(S->MonitorEventsSeen, C.MonitorEventsSeen);
    EXPECT_EQ(S->LightTransitions, C.LightTransitions);
    EXPECT_EQ(S->Diverged, C.Diverged);
  }
  EXPECT_TRUE(C.Ok) << C.Error;
}

TEST(Checkpoint, WarmBootIsBitIdenticalUnderAFaultPlan) {
  // The warm-boot cache keys on the armed plan: a faulted run must fork
  // from a snapshot booted under the same fault, and still match cold.
  fi::FaultPlan Plan = fi::FaultPlan::single(fi::Fault::DevLanRxByteOrder);
  std::vector<devices::ScheduledFrame> Frames = scenarioFrames(5, 8);
  SoakOptions Warm, Cold;
  Warm.Core = Cold.Core = SoakCore::IsaSim;
  Warm.Plan = Cold.Plan = &Plan;
  Warm.Checkpoint = true;
  Cold.Checkpoint = false;
  ShardStats W = runSoakShard(soakFirmware(), Frames, Warm);
  ShardStats C = runSoakShard(soakFirmware(), Frames, Cold);
  EXPECT_EQ(W.Ok, C.Ok);
  EXPECT_EQ(W.Error, C.Error);
  EXPECT_EQ(W.TraceHash, C.TraceHash);
  EXPECT_EQ(W.Cycles, C.Cycles);
  EXPECT_FALSE(C.Ok); // The byte-order fault corrupts every frame.
}

// -- Checkpointed shrink oracle ----------------------------------------------

TEST(Checkpoint, OracleAgreesWithColdOracleAndSkipsCycles) {
  // Seed a failure, then shrink it twice — cold replays vs. the
  // checkpoint tree. Verdict-identical oracles give identical ddmin
  // trajectories, so the shrunk counterexamples must match exactly; the
  // checkpointed run must also demonstrably reuse prefixes.
  fi::FaultPlan Plan = fi::FaultPlan::single(fi::Fault::DevLanRxByteOrder);
  SoakOptions O;
  O.Core = SoakCore::IsaSim;
  O.Plan = &Plan;
  std::vector<devices::ScheduledFrame> Frames = scenarioFrames(5, 24);
  ShardStats Broken = runSoakShard(soakFirmware(), Frames, O);
  ASSERT_FALSE(Broken.Ok);
  ASSERT_FALSE(Broken.DeliveredFrames.empty());

  ShrinkResult ColdResult =
      shrinkFrames(Broken.DeliveredFrames, soakOracle(soakFirmware(), O));

  CheckpointedOracle Oracle(soakFirmware(), O);
  ShrinkResult WarmResult = shrinkFrames(
      Broken.DeliveredFrames,
      [&Oracle](const std::vector<devices::ScheduledFrame> &F) {
        return Oracle.failing(F);
      });

  ASSERT_TRUE(ColdResult.Reproduced);
  ASSERT_TRUE(WarmResult.Reproduced);
  EXPECT_EQ(WarmResult.OracleRuns, ColdResult.OracleRuns);
  ASSERT_EQ(WarmResult.Frames.size(), ColdResult.Frames.size());
  for (size_t I = 0; I != WarmResult.Frames.size(); ++I) {
    EXPECT_EQ(WarmResult.Frames[I].Frame, ColdResult.Frames[I].Frame) << I;
    EXPECT_EQ(WarmResult.Frames[I].Errored, ColdResult.Frames[I].Errored) << I;
  }

  const CheckpointedOracle::RunStats &RS = Oracle.stats();
  EXPECT_EQ(RS.OracleRuns, WarmResult.OracleRuns);
  // Every oracle run forks from (at least) the root boot checkpoint.
  EXPECT_GT(RS.SkippedCycles, 0u);
  EXPECT_GT(RS.Checkpoints, 0u);

  // Re-asking about a sequence the tree has seen must resume past the
  // root, whatever trajectory ddmin happened to take.
  const uint64_t ResumedBefore = Oracle.stats().ResumedRuns;
  EXPECT_TRUE(Oracle.failing(WarmResult.Frames));
  EXPECT_GT(Oracle.stats().ResumedRuns, ResumedBefore);
}

TEST(Checkpoint, ShrinkSoakFailureUsesCheckpointsTransparently) {
  // The public entry point: with Checkpoint on (the default) and off,
  // the shrunk counterexample and violation index are identical.
  fi::FaultPlan Plan = fi::FaultPlan::single(fi::Fault::DevLanRxByteOrder);
  SoakOptions Warm;
  Warm.Core = SoakCore::IsaSim;
  Warm.Plan = &Plan;
  SoakOptions Cold = Warm;
  Cold.Checkpoint = false;
  std::vector<devices::ScheduledFrame> Frames = scenarioFrames(9, 20);
  ShardStats Broken = runSoakShard(soakFirmware(), Frames, Cold);
  ASSERT_FALSE(Broken.Ok);

  ShrunkCounterexample A =
      shrinkSoakFailure(soakFirmware(), Broken.DeliveredFrames, Warm);
  ShrunkCounterexample B =
      shrinkSoakFailure(soakFirmware(), Broken.DeliveredFrames, Cold);
  ASSERT_TRUE(A.Result.Reproduced);
  ASSERT_TRUE(B.Result.Reproduced);
  EXPECT_EQ(A.ViolationIndex, B.ViolationIndex);
  ASSERT_EQ(A.Result.Frames.size(), B.Result.Frames.size());
  for (size_t I = 0; I != A.Result.Frames.size(); ++I)
    EXPECT_EQ(A.Result.Frames[I].Frame, B.Result.Frames[I].Frame) << I;
  // Work accounting: the warm path reports its checkpoint reuse, the
  // cold path reports replayed cycles only.
  EXPECT_TRUE(A.Work.Checkpointed);
  EXPECT_GT(A.Work.SkippedCycles, 0u);
  EXPECT_GT(A.Work.PrimeCycles, 0u);
  EXPECT_FALSE(B.Work.Checkpointed);
  EXPECT_GT(B.Work.SimulatedCycles, 0u);
  EXPECT_EQ(B.Work.SkippedCycles, 0u);
}

TEST(Checkpoint, PrimeBooksHandoffSeparatelyAndSeedsTheTree) {
  // prime() replays the failing scenario once, building the tree and
  // booking the cycles under PrimeCycles; a subsequent failing() call
  // on the same sequence resumes from the tree's deepest node and
  // simulates only the drain tail.
  fi::FaultPlan Plan = fi::FaultPlan::single(fi::Fault::DevLanRxByteOrder);
  SoakOptions O;
  O.Core = SoakCore::IsaSim;
  O.Plan = &Plan;
  std::vector<devices::ScheduledFrame> Frames = scenarioFrames(5, 12);
  ShardStats Broken = runSoakShard(soakFirmware(), Frames, O);
  ASSERT_FALSE(Broken.Ok);
  ASSERT_FALSE(Broken.DeliveredFrames.empty());

  CheckpointedOracle Oracle(soakFirmware(), O);
  EXPECT_TRUE(Oracle.prime(Broken.DeliveredFrames));
  const CheckpointedOracle::RunStats &RS = Oracle.stats();
  EXPECT_EQ(RS.PrimeRuns, 1u);
  EXPECT_GT(RS.PrimeCycles, 0u);
  EXPECT_EQ(RS.OracleRuns, 0u);
  EXPECT_EQ(RS.SimulatedCycles, 0u);
  EXPECT_GT(RS.Checkpoints, 0u);

  EXPECT_TRUE(Oracle.failing(Broken.DeliveredFrames));
  EXPECT_EQ(RS.OracleRuns, 1u);
  EXPECT_EQ(RS.ResumedRuns, 1u);
  // The resume costs only the drain tail — strictly less than the
  // primed replay of the full scenario.
  EXPECT_LT(RS.SimulatedCycles, RS.PrimeCycles);
}
