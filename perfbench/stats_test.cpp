//===- perfbench/stats_test.cpp - Tests of the benchmark's statistics -----===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <gtest/gtest.h>

using namespace b2::perfbench;

TEST(PerfbenchStats, MedianOddEvenEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({7}), 7);
  EXPECT_EQ(median({}), 0);
}

TEST(PerfbenchStats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  auto Q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  ASSERT_TRUE(Q);
  EXPECT_DOUBLE_EQ((*Q)[0], 2.75);
  EXPECT_DOUBLE_EQ((*Q)[1], 5.5);
  EXPECT_DOUBLE_EQ((*Q)[2], 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  auto Q2 = quartiles({2, 1});
  ASSERT_TRUE(Q2);
  EXPECT_DOUBLE_EQ((*Q2)[0], 0.75);
  EXPECT_DOUBLE_EQ((*Q2)[1], 1.5);
  EXPECT_DOUBLE_EQ((*Q2)[2], 2.25);
  // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
  auto Q5 = quartiles({5, 1, 4, 2, 3});
  ASSERT_TRUE(Q5);
  EXPECT_DOUBLE_EQ((*Q5)[0], 1.5);
  EXPECT_DOUBLE_EQ((*Q5)[2], 4.5);
  EXPECT_FALSE(quartiles({1}));
}

TEST(PerfbenchStats, RelativeSpreadIsIqrOverMedian) {
  EXPECT_DOUBLE_EQ(relativeSpread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                   (8.25 - 2.75) / 5.5);
  EXPECT_EQ(relativeSpread({4, 4, 4}), 0);
}

TEST(PerfbenchStats, P99RefusesFewerThanThousandSamples) {
  std::vector<uint64_t> V(999);
  for (size_t I = 0; I != V.size(); ++I)
    V[I] = I + 1;
  EXPECT_FALSE(percentile(V, 0.99));
  V.push_back(1000);
  std::optional<uint64_t> P = percentile(V, 0.99);
  ASSERT_TRUE(P);
  EXPECT_EQ(*P, 990u); // Nearest rank: ceil(0.99 * 1000) = 990.
  // p50 needs only 20 samples.
  EXPECT_TRUE(percentile(std::vector<uint64_t>(20, 3), 0.5));
  EXPECT_FALSE(percentile(std::vector<uint64_t>(19, 3), 0.5));
  EXPECT_FALSE(percentile(V, 1.0));
}

TEST(PerfbenchStats, MetricNameValidation) {
  EXPECT_TRUE(validMetricName("throughput"));
  EXPECT_TRUE(validMetricName("kami.mcycles_per_s"));
  EXPECT_TRUE(validMetricName("actuation_cycles_p99"));
  EXPECT_TRUE(validMetricName("0-first.ok"));
  EXPECT_FALSE(validMetricName(""));
  EXPECT_FALSE(validMetricName(".hidden"));
  EXPECT_FALSE(validMetricName("_under"));
  EXPECT_FALSE(validMetricName("has space"));
  EXPECT_FALSE(validMetricName("quote\""));
  EXPECT_FALSE(validMetricName("slash/name"));
  EXPECT_TRUE(validMetricName(std::string(64, 'a')));
  EXPECT_FALSE(validMetricName(std::string(65, 'a')));
}

TEST(PerfbenchStats, SetupTimeNeverEntersThroughput) {
  RunTiming T;
  T.SetupS = {5.0, 0.5, 0.7}; // A slow generation step stays in set-up.
  T.addRep(2.0, 100);
  T.addRep(1.0, 100);
  T.addRep(4.0, 100);
  EXPECT_DOUBLE_EQ(T.setupMedian(), 0.7);
  EXPECT_DOUBLE_EQ(T.throughputMedian(), 50.0); // Rates 50, 100, 25.
  EXPECT_DOUBLE_EQ(T.loopTotal(), 7.0);
  T.SetupS.push_back(100.0);
  EXPECT_DOUBLE_EQ(T.throughputMedian(), 50.0);
}
