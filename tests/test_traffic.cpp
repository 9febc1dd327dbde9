//===- tests/test_traffic.cpp - Traffic subsystem tests ----------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Tier-1 coverage for the traffic subsystem: the pcap codec, the seeded
// scenario generators, the streaming goodHlTrace monitor, the sharded
// soak harness on every execution substrate, and the fault -> violation
// -> shrink -> replay loop the harness exists for. Everything here is
// deterministic; the long randomized soaks live in the stress tier.
//
//===----------------------------------------------------------------------===//

#include "devices/Net.h"
#include "traffic/Monitor.h"
#include "traffic/Pcap.h"
#include "traffic/Scenario.h"
#include "traffic/Shrink.h"
#include "traffic/Soak.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

using namespace b2;
using namespace b2::traffic;

namespace {

std::vector<devices::ScheduledFrame> sampleFrames() {
  std::vector<devices::ScheduledFrame> F;
  F.push_back({2000, devices::buildCommandFrame(true), false});
  // > 1 second of ops, so ts_sec is exercised alongside ts_usec.
  F.push_back({1'234'567, devices::buildUdpFrame(std::vector<uint8_t>(40, 0x5a)),
               false});
  F.push_back({1'300'000, devices::buildCommandFrame(false), true});
  return F;
}

/// Compiles the soak firmware once for the whole suite.
const compiler::CompiledProgram &soakFirmware() {
  static compiler::CompileResult C = compileSoakFirmware();
  EXPECT_TRUE(C.ok()) << C.Error;
  return *C.Prog;
}

} // namespace

// -- Pcap codec --------------------------------------------------------------

TEST(Pcap, RoundTripPreservesFramesScheduleAndErrorFlag) {
  std::vector<devices::ScheduledFrame> In = sampleFrames();
  std::vector<devices::ScheduledFrame> Out;
  std::string Error;
  ASSERT_TRUE(decodePcap(encodePcap(In), Out, Error)) << Error;
  ASSERT_EQ(Out.size(), In.size());
  for (size_t I = 0; I != In.size(); ++I) {
    EXPECT_EQ(Out[I].AtOp, In[I].AtOp) << I;
    EXPECT_EQ(Out[I].Errored, In[I].Errored) << I;
    EXPECT_EQ(Out[I].Frame, In[I].Frame) << I;
  }
}

TEST(Pcap, RejectsBadMagic) {
  std::vector<uint8_t> Bytes = encodePcap(sampleFrames());
  Bytes[0] ^= 0xFF;
  std::vector<devices::ScheduledFrame> Out;
  std::string Error;
  EXPECT_FALSE(decodePcap(Bytes, Out, Error));
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;
}

TEST(Pcap, RejectsTruncatedFile) {
  std::vector<uint8_t> Bytes = encodePcap(sampleFrames());
  // Chop mid-record: a decoder that ignores the declared lengths would
  // silently return a short frame instead.
  Bytes.resize(Bytes.size() - 3);
  std::vector<devices::ScheduledFrame> Out;
  std::string Error;
  EXPECT_FALSE(decodePcap(Bytes, Out, Error));
  // Also shorter than the global header.
  Bytes.resize(10);
  EXPECT_FALSE(decodePcap(Bytes, Out, Error));
}

TEST(Pcap, ReadsSwappedByteOrder) {
  // A capture written on a big-endian machine: every header field is
  // byte-swapped; the packet bytes are not.
  auto Put32Be = [](std::vector<uint8_t> &O, uint32_t V) {
    O.push_back(uint8_t(V >> 24));
    O.push_back(uint8_t(V >> 16));
    O.push_back(uint8_t(V >> 8));
    O.push_back(uint8_t(V));
  };
  auto Put16Be = [](std::vector<uint8_t> &O, uint16_t V) {
    O.push_back(uint8_t(V >> 8));
    O.push_back(uint8_t(V));
  };
  std::vector<uint8_t> Frame = devices::buildCommandFrame(true);
  std::vector<uint8_t> Bytes;
  Put32Be(Bytes, pcap::MagicUsec); // Reads back as the swapped magic.
  Put16Be(Bytes, pcap::VersionMajor);
  Put16Be(Bytes, pcap::VersionMinor);
  Put32Be(Bytes, 0);
  Put32Be(Bytes, 0);
  Put32Be(Bytes, pcap::SnapLen);
  Put32Be(Bytes, pcap::LinkTypeEthernet);
  Put32Be(Bytes, 3);       // ts_sec
  Put32Be(Bytes, 250'000); // ts_usec
  Put32Be(Bytes, uint32_t(Frame.size()));
  Put32Be(Bytes, uint32_t(Frame.size()));
  Bytes.insert(Bytes.end(), Frame.begin(), Frame.end());

  std::vector<devices::ScheduledFrame> Out;
  std::string Error;
  ASSERT_TRUE(decodePcap(Bytes, Out, Error)) << Error;
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].AtOp, 3'250'000u);
  EXPECT_EQ(Out[0].Frame, Frame);
}

TEST(Pcap, FileRoundTrip) {
  const char *Path = "test_traffic_roundtrip.pcap";
  std::vector<devices::ScheduledFrame> In = sampleFrames();
  std::string Error;
  ASSERT_TRUE(writePcap(Path, In, Error)) << Error;
  std::vector<devices::ScheduledFrame> Out;
  ASSERT_TRUE(readPcap(Path, Out, Error)) << Error;
  std::remove(Path);
  ASSERT_EQ(Out.size(), In.size());
  EXPECT_EQ(Out[1].Frame, In[1].Frame);
  EXPECT_TRUE(Out[2].Errored);
}

// -- Scenario generators -----------------------------------------------------

TEST(Scenario, CatalogIsComplete) {
  std::set<std::string> Names;
  for (const ScenarioInfo &S : scenarioCatalog()) {
    EXPECT_TRUE(isScenario(S.Name));
    Names.insert(S.Name);
  }
  EXPECT_EQ(Names, (std::set<std::string>{"valid-mix", "adversarial", "burst",
                                          "multi-user"}));
  EXPECT_FALSE(isScenario("no-such-scenario"));
}

TEST(Scenario, SameSeedRegeneratesBitIdentically) {
  ScenarioOptions O;
  O.Seed = 42;
  O.Frames = 32;
  for (const ScenarioInfo &S : scenarioCatalog()) {
    TrafficStream A = generateScenario(S.Name, O);
    TrafficStream B = generateScenario(S.Name, O);
    EXPECT_EQ(A.Frames.size(), size_t(O.Frames)) << S.Name;
    EXPECT_EQ(streamDigest(A), streamDigest(B)) << S.Name;
  }
}

TEST(Scenario, DifferentSeedsDiverge) {
  ScenarioOptions A, B;
  A.Seed = 1;
  B.Seed = 2;
  A.Frames = B.Frames = 16;
  EXPECT_NE(streamDigest(generateScenario("valid-mix", A)),
            streamDigest(generateScenario("valid-mix", B)));
}

TEST(Scenario, ArrivalsAreNondecreasing) {
  ScenarioOptions O;
  O.Seed = 9;
  O.Frames = 48;
  for (const ScenarioInfo &S : scenarioCatalog()) {
    TrafficStream T = generateScenario(S.Name, O);
    for (size_t I = 1; I < T.Frames.size(); ++I)
      ASSERT_GE(T.Frames[I].AtOp, T.Frames[I - 1].AtOp)
          << S.Name << " frame " << I;
  }
}

TEST(Scenario, MultiUserFramesCarryDistinctSources) {
  ScenarioOptions O;
  O.Seed = 3;
  O.Frames = 16;
  O.Users = 4;
  TrafficStream T = generateScenario("multi-user", O);
  // UDP source port lives at Ethernet(14) + IPv4(20) + 0.
  std::set<unsigned> Ports;
  for (const devices::ScheduledFrame &F : T.Frames) {
    ASSERT_GE(F.Frame.size(), 36u);
    Ports.insert((unsigned(F.Frame[34]) << 8) | F.Frame[35]);
  }
  EXPECT_EQ(Ports.size(), 4u);
}

// -- Streaming monitor -------------------------------------------------------

TEST(Monitor, RejectsBogusEventImmediately) {
  TraceMonitor M;
  tracespec::Event Bogus{/*IsStore=*/true, 0x1234'5678, 0, 4};
  EXPECT_FALSE(M.feed(Bogus));
  EXPECT_TRUE(M.violated());
  EXPECT_EQ(M.violationIndex(), 0u);
  EXPECT_FALSE(M.expectedAtViolation().empty());
}

TEST(Monitor, PollTracePinsViolationToFirstOffender) {
  TraceMonitor M;
  riscv::MmioTrace T;
  T.push_back({/*IsStore=*/true, 0xDEAD'0000, 1, 4});
  T.push_back({/*IsStore=*/true, 0xDEAD'0004, 2, 4});
  EXPECT_FALSE(M.pollTrace(T));
  EXPECT_TRUE(M.violated());
  EXPECT_EQ(M.violationIndex(), 0u);
  // Re-polling the same (or a longer) trace must not move the index.
  T.push_back({/*IsStore=*/true, 0xDEAD'0008, 3, 4});
  EXPECT_FALSE(M.pollTrace(T));
  EXPECT_EQ(M.violationIndex(), 0u);
  M.reset();
  EXPECT_FALSE(M.violated());
  EXPECT_EQ(M.eventsSeen(), 0u);
}

// -- Soak harness ------------------------------------------------------------

TEST(Soak, ValidMixPassesOnIsaSim) {
  ScenarioOptions G;
  G.Seed = 5;
  G.Frames = 16;
  TrafficStream S = generateScenario("valid-mix", G);
  SoakOptions O;
  O.Core = SoakCore::IsaSim;
  ShardStats R = runSoakShard(soakFirmware(), S.Frames, O);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.Drained);
  EXPECT_EQ(R.FramesDelivered, 16u);
  EXPECT_GT(R.ValidCommands, 0u);
  EXPECT_GT(R.LightTransitions, 0u);
  // The streaming monitor saw exactly the trace the machine produced.
  EXPECT_EQ(R.MonitorEventsSeen, R.MmioEvents);
}

TEST(Soak, ValidMixPassesOnKamiCores) {
  ScenarioOptions G;
  G.Seed = 5;
  G.Frames = 6;
  TrafficStream S = generateScenario("valid-mix", G);
  for (SoakCore Core : {SoakCore::Pipelined, SoakCore::SpecCore}) {
    SoakOptions O;
    O.Core = Core;
    ShardStats R = runSoakShard(soakFirmware(), S.Frames, O);
    EXPECT_TRUE(R.Ok) << soakCoreName(Core) << ": " << R.Error;
    EXPECT_EQ(R.FramesDelivered, 6u) << soakCoreName(Core);
  }
}

TEST(Soak, CrossCheckAgreesAcrossSubstrates) {
  ScenarioOptions G;
  G.Seed = 8;
  G.Frames = 8;
  TrafficStream S = generateScenario("valid-mix", G);
  SoakOptions O;
  O.Core = SoakCore::IsaSim;
  O.CrossCheck = true;
  ShardStats R = runSoakShard(soakFirmware(), S.Frames, O);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.CrossCheckOk);
}

TEST(Soak, ReportBitIdenticalAcrossThreadCounts) {
  ScenarioOptions G;
  G.Seed = 13;
  G.Frames = 40;
  TrafficStream S = generateScenario("valid-mix", G);
  SoakOptions O;
  O.Core = SoakCore::IsaSim;
  O.FramesPerShard = 8; // 5 shards, so parallelism has something to race.
  O.Threads = 1;
  std::string OneThread =
      soakJson(runSoak(soakFirmware(), S, O, "valid-mix", G.Seed));
  O.Threads = 4;
  std::string FourThreads =
      soakJson(runSoak(soakFirmware(), S, O, "valid-mix", G.Seed));
  EXPECT_EQ(OneThread, FourThreads);
  EXPECT_NE(OneThread.find("\"schema\":\"b2stack-soak-v2\""),
            std::string::npos);
  EXPECT_NE(OneThread.find("\"shard_count\":5"), std::string::npos);
}

TEST(Soak, EmptyStreamYieldsOneCleanShard) {
  TrafficStream S;
  SoakOptions O;
  O.Core = SoakCore::IsaSim;
  SoakReport R = runSoak(soakFirmware(), S, O, "valid-mix", 0);
  ASSERT_EQ(R.Shards.size(), 1u);
  EXPECT_TRUE(R.Ok) << R.Shards[0].Error;
  EXPECT_EQ(R.Shards[0].FramesDelivered, 0u);
}

// -- Fault -> violation -> shrink -> replay ----------------------------------

TEST(Shrink, DdminIsOneMinimalOnSyntheticOracle) {
  // The failure needs the interaction of the frames scheduled at ops 7
  // and 13 — ddmin must isolate exactly that pair.
  std::vector<devices::ScheduledFrame> Frames;
  for (uint64_t I = 0; I != 20; ++I)
    Frames.push_back({I, devices::buildCommandFrame(I & 1), false});
  ShrinkOracle Oracle = [](const std::vector<devices::ScheduledFrame> &F) {
    bool Seven = false, Thirteen = false;
    for (const devices::ScheduledFrame &S : F) {
      Seven |= S.AtOp == 7;
      Thirteen |= S.AtOp == 13;
    }
    return Seven && Thirteen;
  };
  ShrinkResult R = shrinkFrames(Frames, Oracle);
  EXPECT_TRUE(R.Reproduced);
  ASSERT_EQ(R.Frames.size(), 2u);
  EXPECT_EQ(R.Frames[0].AtOp, 7u);
  EXPECT_EQ(R.Frames[1].AtOp, 13u);
  EXPECT_GT(R.OracleRuns, 1u);
}

TEST(Shrink, NonReproducingFailureIsReported) {
  std::vector<devices::ScheduledFrame> Frames;
  Frames.push_back({0, devices::buildCommandFrame(true), false});
  ShrinkResult R = shrinkFrames(
      Frames, [](const std::vector<devices::ScheduledFrame> &) {
        return false;
      });
  EXPECT_FALSE(R.Reproduced);
  EXPECT_EQ(R.OracleRuns, 1u);
}

TEST(Soak, SeededFaultShrinksToReplayableCounterexample) {
  // The acceptance loop end to end: a seeded device fault makes a soak
  // fail, the failing shard shrinks to a tiny counterexample, a pcap
  // round trip preserves it, and replaying it re-triggers the failure
  // deterministically — while a clean replay passes.
  ScenarioOptions G;
  G.Seed = 5;
  G.Frames = 24;
  TrafficStream S = generateScenario("valid-mix", G);

  fi::FaultPlan Plan = fi::FaultPlan::single(fi::Fault::DevLanRxByteOrder);
  SoakOptions Faulted;
  Faulted.Core = SoakCore::IsaSim;
  Faulted.Plan = &Plan;

  ShardStats Broken = runSoakShard(soakFirmware(), S.Frames, Faulted);
  ASSERT_FALSE(Broken.Ok);
  ASSERT_FALSE(Broken.DeliveredFrames.empty());

  ShrunkCounterexample Cex =
      shrinkSoakFailure(soakFirmware(), Broken.DeliveredFrames, Faulted);
  ASSERT_TRUE(Cex.Result.Reproduced);
  // dev-lan-rx-byte-order corrupts every frame, so one survives ddmin.
  EXPECT_EQ(Cex.Result.Frames.size(), 1u);

  // Ship it through the pcap codec, as the CLI does.
  std::vector<devices::ScheduledFrame> Replayed;
  std::string Error;
  ASSERT_TRUE(decodePcap(encodePcap(Cex.Result.Frames), Replayed, Error))
      << Error;

  ShardStats Again = runSoakShard(soakFirmware(), Replayed, Faulted);
  ShardStats Thrice = runSoakShard(soakFirmware(), Replayed, Faulted);
  EXPECT_FALSE(Again.Ok);
  EXPECT_FALSE(Thrice.Ok);
  EXPECT_EQ(Again.Error, Thrice.Error);
  EXPECT_EQ(Again.TraceHash, Thrice.TraceHash);

  SoakOptions Clean = Faulted;
  Clean.Plan = nullptr;
  ShardStats Fixed = runSoakShard(soakFirmware(), Replayed, Clean);
  EXPECT_TRUE(Fixed.Ok) << Fixed.Error;
}
