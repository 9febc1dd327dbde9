//===- tests/test_latency.cpp - Section 7.2.1 headline pins ------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// Pins the exact packet-to-actuation latency of the five configurations on
// the paper's path from the unverified prototype to the verified system
// (bench/perf_decomposition). Latency is measured in simulated cycles, so it
// is deterministic: any drift is a behaviour change of the firmware, the
// compiler, a core, a device model or the harness that drives them.
//
//===----------------------------------------------------------------------===//

#include "LatencyHarness.h"

#include <gtest/gtest.h>

using namespace b2;
using namespace b2::bench;

TEST(LatencyHeadline, PerfDecompositionCyclesPerPacketArePinned) {
  SysConfig S0 = SysConfig::unverifiedPrototype();
  SysConfig S1 = S0;
  S1.SpiPipelining = false;
  SysConfig S2 = S1;
  S2.Timeouts = true;
  SysConfig S3 = S2;
  S3.OptCompiler = false;
  SysConfig S4 = S3;
  S4.KamiCore = true;

  struct Pin {
    const char *Name;
    SysConfig Config;
    double MeanCyclesPerPacket;
  };
  const Pin Pins[] = {
      {"unverified prototype", S0, 10224},
      {"+ interleaved one-byte SPI", S1, 13292.9},
      {"+ polling timeouts", S2, 16145.6},
      {"+ unoptimizing compiler", S3, 27592.599999999999},
      {"+ Kami pipelined core (verified system)", S4, 41991.900000000001},
  };
  for (const Pin &P : Pins) {
    SCOPED_TRACE(P.Name);
    LatencyMeasurement M = measureResponse(P.Config);
    ASSERT_TRUE(M.Ok) << M.Error;
    EXPECT_EQ(M.Packets, 10u);
    EXPECT_EQ(M.MeanCyclesPerPacket, P.MeanCyclesPerPacket);
  }
}
