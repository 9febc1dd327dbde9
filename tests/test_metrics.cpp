//===- tests/test_metrics.cpp - Fleet metrics registry tests ---------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The metrics registry (support/Metrics.h) backs the observability layer
// and two CI gates: the thread-count bit-identity check on the
// deterministic subtree and the bench overhead gate. These tests pin the
// registry mechanics (bucketing, merge, pause, kill-switch) and the
// determinism contract under the real verify::runShards fleet at several
// thread counts.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "isa/Build.h"
#include "isa/Encoding.h"
#include "riscv/BlockEngine.h"
#include "riscv/Machine.h"
#include "riscv/Step.h"
#include "verify/ParallelDriver.h"

#include <gtest/gtest.h>

using namespace b2;
using namespace b2::isa;
using namespace b2::metrics;

// The registry compiles to no-ops under -DMETRICS=OFF; the mechanics
// below can only be observed when it is compiled in.
#if B2_METRICS
#define REQUIRE_METRICS()
#else
#define REQUIRE_METRICS() GTEST_SKIP() << "built with METRICS=OFF"
#endif

namespace {

TEST(MetricsHist, Log2Bucketing) {
  EXPECT_EQ(HistData::bucketOf(0), 0u);
  EXPECT_EQ(HistData::bucketOf(1), 0u);
  EXPECT_EQ(HistData::bucketOf(2), 1u);
  EXPECT_EQ(HistData::bucketOf(3), 1u);
  EXPECT_EQ(HistData::bucketOf(4), 2u);
  EXPECT_EQ(HistData::bucketOf(1023), 9u);
  EXPECT_EQ(HistData::bucketOf(1024), 10u);
  EXPECT_EQ(HistData::bucketOf(uint64_t(1) << 31), 31u);
  EXPECT_EQ(HistData::bucketOf(~uint64_t(0)), 31u);

  HistData H;
  H.record(0);
  H.record(5);
  H.record(5);
  EXPECT_EQ(H.Count, 3u);
  EXPECT_EQ(H.Sum, 10u);
  EXPECT_EQ(H.Buckets[0], 1u);
  EXPECT_EQ(H.Buckets[2], 2u);
}

TEST(MetricsSnapshot, MergeIsAdditionAndOrderIndependent) {
  Snapshot A, B;
  A.Counters[detail::Slots[size_t(Id::SimBlockTranslations)]] = 3;
  A.Hists[detail::Slots[size_t(Id::SimBlockWeight)]].record(8);
  B.Counters[detail::Slots[size_t(Id::SimBlockTranslations)]] = 4;
  B.Hists[detail::Slots[size_t(Id::SimBlockWeight)]].record(16);

  Snapshot AB = A, BA = B;
  AB.merge(B);
  BA.merge(A);
  EXPECT_EQ(AB, BA);
  EXPECT_EQ(AB.counter(Id::SimBlockTranslations), 7u);
  EXPECT_EQ(AB.hist(Id::SimBlockWeight).Count, 2u);
  EXPECT_EQ(AB.hist(Id::SimBlockWeight).Sum, 24u);
}

TEST(MetricsRegistry, CounterAndHistRoundTrip) {
  REQUIRE_METRICS();
  resetAll();
  add(Id::VerifyShards);
  add(Id::SoakFramesDelivered, 41);
  record(Id::SoakMonitorFrontier, 6);
  record(Id::SoakMonitorFrontier, 2);
  Snapshot S = snapshot();
  EXPECT_EQ(S.counter(Id::VerifyShards), 1u);
  EXPECT_EQ(S.counter(Id::SoakFramesDelivered), 41u);
  EXPECT_EQ(S.hist(Id::SoakMonitorFrontier).Count, 2u);
  EXPECT_EQ(S.hist(Id::SoakMonitorFrontier).Sum, 8u);

  resetAll();
  EXPECT_EQ(snapshot(), Snapshot{});
}

TEST(MetricsRegistry, PauseScopeSuppressesRecording) {
  REQUIRE_METRICS();
  resetAll();
  {
    PauseScope Pause;
    add(Id::VerifyShards, 100);
    record(Id::SoakMonitorFrontier, 9);
    {
      PauseScope Nested;
      add(Id::VerifyShards, 100);
    }
    add(Id::VerifyShards, 100);
  }
  add(Id::VerifyShards); // Back on once the scope closes.
  Snapshot S = snapshot();
  EXPECT_EQ(S.counter(Id::VerifyShards), 1u);
  EXPECT_EQ(S.hist(Id::SoakMonitorFrontier).Count, 0u);
}

TEST(MetricsRegistry, KillSwitchSuppressesRecording) {
  REQUIRE_METRICS();
  resetAll();
  ASSERT_TRUE(enabledSlow());
  setEnabled(false);
  add(Id::VerifyShards, 5);
  setEnabled(true);
  add(Id::VerifyShards, 2);
  EXPECT_EQ(snapshot().counter(Id::VerifyShards), 2u);
}

TEST(MetricsSnapshot, DeterministicEqualsIgnoresNondetScope) {
  Snapshot A;
  A.Counters[detail::Slots[size_t(Id::SimBlockTraceInstrs)]] = 1000;
  Snapshot B = A;

  // Nondet counters and wall timers may differ freely.
  B.Counters[detail::Slots[size_t(Id::CkptBootHits)]] = 99;
  B.Hists[detail::Slots[size_t(Id::VerifyShardWall)]].record(123456);
  EXPECT_TRUE(A.deterministicEquals(B));
  EXPECT_FALSE(A == B);

  // A Det counter differing is a contract violation.
  Snapshot C = A;
  C.Counters[detail::Slots[size_t(Id::SimBlockTraceInstrs)]] = 1001;
  EXPECT_FALSE(A.deterministicEquals(C));

  // So is a Det histogram differing.
  Snapshot D = A;
  D.Hists[detail::Slots[size_t(Id::SimBlockWeight)]].record(4);
  EXPECT_FALSE(A.deterministicEquals(D));
}

/// Det subtree of the merged totals after running \p Work over \p Seeds
/// on \p Threads workers, from a clean registry.
Snapshot fleetMetrics(const std::vector<uint64_t> &Seeds, unsigned Threads,
                      const verify::ShardWork &Work) {
  resetAll();
  verify::FleetReport R = verify::runShards(Seeds, Threads, Work);
  EXPECT_TRUE(R.allOk()) << R.firstError();
  return snapshot();
}

TEST(MetricsDeterminism, FleetTotalsInvariantAcrossThreadCounts) {
  REQUIRE_METRICS();
  // Seed-derived recording from every shard: totals must depend only on
  // the work set, never on which worker ran which shard.
  verify::ShardWork Work = [](size_t Index, uint64_t Seed) {
    add(Id::SoakFramesDelivered, Seed % 97);
    add(Id::SoakMmioEvents, Index * 3 + 1);
    record(Id::SoakMonitorFrontier, Seed % 31);
    verify::ShardResult R;
    R.Index = Index;
    R.Seed = Seed;
    R.Ok = true;
    return R;
  };
  std::vector<uint64_t> Seeds = verify::fleetSeeds(0xb2, 64);
  Snapshot S1 = fleetMetrics(Seeds, 1, Work);
  Snapshot S4 = fleetMetrics(Seeds, 4, Work);
  Snapshot S8 = fleetMetrics(Seeds, 8, Work);
  EXPECT_TRUE(S1.deterministicEquals(S4));
  EXPECT_TRUE(S1.deterministicEquals(S8));
  // The driver's own instrumentation counts shards, not threads.
  EXPECT_EQ(S1.counter(Id::VerifyShards), Seeds.size());
  EXPECT_EQ(S4.counter(Id::VerifyShards), Seeds.size());
}

TEST(MetricsDeterminism, BlockEngineFleetInvariantAcrossThreadCounts) {
  REQUIRE_METRICS();
  // Each shard runs the superblock engine on its own machine; the
  // engine's published Det counters (translations, trace/cold split,
  // link behavior) must merge to the same totals at any thread count.
  verify::ShardWork Work = [](size_t Index, uint64_t Seed) {
    std::vector<Instr> Loop = {
        addi(A0, Zero, 0),
        addi(A1, Zero, SWord(16 + Seed % 16)),
        addi(A0, A0, 1),
        mkB(Opcode::Bne, A0, A1, -4),
        jal(Zero, 0),
    };
    riscv::Machine M(4096);
    M.loadImage(0, instrencode(Loop));
    riscv::NoDevice D;
    riscv::BlockEngine E(M, D, riscv::ExecMode::Block);
    E.run(2000 + Seed % 512);
    E.publishMetrics();
    verify::ShardResult R;
    R.Index = Index;
    R.Seed = Seed;
    R.Ok = !M.hasUb();
    return R;
  };
  std::vector<uint64_t> Seeds = verify::fleetSeeds(7, 24);
  Snapshot S1 = fleetMetrics(Seeds, 1, Work);
  Snapshot S4 = fleetMetrics(Seeds, 4, Work);
  Snapshot S8 = fleetMetrics(Seeds, 8, Work);
  EXPECT_TRUE(S1.deterministicEquals(S4));
  EXPECT_TRUE(S1.deterministicEquals(S8));
  EXPECT_GT(S1.counter(Id::SimBlockTraceInstrs), 0u);
  // Each shard translates its loop block and its halt spin.
  EXPECT_EQ(S1.counter(Id::SimBlockTranslations), 2 * Seeds.size());
}

TEST(MetricsJsonReport, SchemaAndScopeSplit) {
  Snapshot S;
  S.Counters[detail::Slots[size_t(Id::SimBlockTraceInstrs)]] = 7;
  std::string J = metricsJson(S, "unit_test");
  EXPECT_NE(J.find("\"schema\":\"b2stack-metrics-v1\""), std::string::npos);
  EXPECT_NE(J.find("\"tool\":\"unit_test\""), std::string::npos);
  EXPECT_NE(J.find("\"deterministic\""), std::string::npos);
  EXPECT_NE(J.find("\"nondeterministic\""), std::string::npos);
  EXPECT_NE(J.find("\"sim.block.trace_instrs\":7"), std::string::npos);
  // Zero-valued metrics still appear, so any two reports share keys.
  EXPECT_NE(J.find("\"soak.frames.dropped\":0"), std::string::npos);
  // Timers live under the nondeterministic scope only.
  EXPECT_NE(J.find("\"verify.shard.wall_ns\""), std::string::npos);
}

} // namespace
