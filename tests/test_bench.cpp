//===- tests/test_bench.cpp - The throughput benches' harness --------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace b2::bench;

TEST(BenchHarness, PairsAlternateWhichSideRunsFirst) {
  std::string Order;
  double A = 0, B = 0;
  Pairs P = pairs(
      4, [&] { Order += 'A'; return A += 2; },
      [&] { Order += 'B'; return B += 1; });
  EXPECT_EQ(Order, "ABBAABBA");
  EXPECT_EQ(P.A, (std::vector<double>{2, 4, 6, 8}));
  EXPECT_EQ(P.B, (std::vector<double>{1, 2, 3, 4}));
  EXPECT_EQ(P.Ratio, (std::vector<double>{2, 2, 2, 2}));
}

TEST(BenchHarness, MedianAndIqrOfScriptedSamples) {
  // Python: statistics.quantiles([1..8], n=4) == [2.25, 4.5, 6.75].
  Summary S = summarize({8, 1, 7, 2, 6, 3, 5, 4});
  EXPECT_DOUBLE_EQ(S.Median, 4.5);
  EXPECT_DOUBLE_EQ(S.Iqr, 6.75 - 2.25);
  EXPECT_EQ(S.Reps, 8u);
  // statistics.quantiles([1, 2, 10], n=4) == [1.0, 2.0, 10.0].
  S = summarize({10, 1, 2});
  EXPECT_DOUBLE_EQ(S.Median, 2);
  EXPECT_DOUBLE_EQ(S.Iqr, 9);
  // One sample has no spread.
  S = summarize({3.5});
  EXPECT_DOUBLE_EQ(S.Median, 3.5);
  EXPECT_DOUBLE_EQ(S.Iqr, 0);
  EXPECT_EQ(S.Reps, 1u);
}

TEST(BenchHarness, GateOkFollowsOpAndBound) {
  Report R("test", /*Quick=*/false);
  EXPECT_TRUE(R.gate("lt", 1.9, "<", 2.0).Ok);
  EXPECT_FALSE(R.gate("lt-edge", 2.0, "<", 2.0).Ok);
  EXPECT_TRUE(R.gate("le-edge", 1.25, "<=", 1.25).Ok);
  EXPECT_FALSE(R.gate("le", 1.3, "<=", 1.25).Ok);
  EXPECT_TRUE(R.gate("ge-edge", 3.5, ">=", 3.5).Ok);
  EXPECT_FALSE(R.gate("ge", 3.49, ">=", 3.5).Ok);
  EXPECT_TRUE(R.gate("gt", 4.1, ">", 4.0).Ok);
  EXPECT_FALSE(R.gate("gt-edge", 4.0, ">", 4.0).Ok);
  EXPECT_FALSE(R.gate("unknown-op", 1, "==", 1).Ok);
  EXPECT_FALSE(R.gatesOk());
}

TEST(BenchHarness, QuickRecordsAGateButDoesNotEnforceIt) {
  Report Quick("test", /*Quick=*/true);
  Gate G = Quick.gate("speedup", 2.9, ">=", 3.5);
  EXPECT_FALSE(G.Ok);
  EXPECT_FALSE(G.Enforced);
  EXPECT_TRUE(Quick.gatesOk());
  // A gate on a simulated count is exact, so --quick enforces it.
  EXPECT_TRUE(Quick.gate("cycles", 1.5, ">=", 2.0, /*Exact=*/true).Enforced);
  EXPECT_FALSE(Quick.gatesOk());

  Report Full("test", /*Quick=*/false);
  EXPECT_TRUE(Full.gate("speedup", 2.9, ">=", 3.5).Enforced);
  EXPECT_FALSE(Full.gatesOk());
  // Both modes record the gate in the document.
  EXPECT_NE(Quick.json().find("\"name\":\"speedup\""), std::string::npos);
  EXPECT_NE(Quick.json().find("\"enforced\":false"), std::string::npos);
}

TEST(BenchHarness, DocumentCarriesTheV1Schema) {
  Report R("sim_throughput", /*Quick=*/false);
  R.row("riscv", "alu_loop", "isa_sim_block", "instr_per_sec", "1/s", true,
        summarize({1, 2, 3}));
  R.row("traffic", "valid-mix", "pipelined", "frames_per_mcycle", "1/Mcycle",
        false, summarize({7}), /*Deterministic=*/true);
  R.gate("g", 1, "<", 2);
  const std::string J = R.json();
  for (const char *Field :
       {"\"schema\":\"b2stack-bench-v1\"", "\"bench\":\"sim_throughput\"",
        "\"quick\":false", "\"layer\":\"riscv\"", "\"workload\":\"alu_loop\"",
        "\"variant\":\"isa_sim_block\"", "\"metric\":\"instr_per_sec\"",
        "\"unit\":\"1/s\"", "\"better\":\"higher\"", "\"better\":\"lower\"",
        "\"median\":2", "\"iqr\":", "\"reps\":3", "\"deterministic\":true",
        "\"op\":\"<\"", "\"bound\":2", "\"ok\":true"})
    EXPECT_NE(J.find(Field), std::string::npos) << Field << " in " << J;
  EXPECT_DOUBLE_EQ(R.median("alu_loop", "isa_sim_block", "instr_per_sec"), 2);
  EXPECT_DOUBLE_EQ(R.median("alu_loop", "missing", "instr_per_sec"), 0);
}

TEST(BenchHarness, WindowRunsAtLeastOnceAndStopsOnNoProgress) {
  unsigned Calls = 0;
  Window W = timeWindow(0, [&]() -> uint64_t { return ++Calls * 10; });
  EXPECT_EQ(Calls, 1u);
  EXPECT_EQ(W.Units, 10u);
  // A step that completes nothing ends the window, however long it is.
  Calls = 0;
  W = timeWindow(1e9, [&]() -> uint64_t { return ++Calls < 3 ? 5 : 0; });
  EXPECT_EQ(Calls, 3u);
  EXPECT_EQ(W.Units, 10u);
  // Setup runs before every step.
  unsigned Setups = 0;
  Calls = 0;
  timeWindow(
      1e9, [&]() -> uint64_t { return ++Calls < 2 ? 1 : 0; },
      [&] { ++Setups; });
  EXPECT_EQ(Setups, 2u);
}
