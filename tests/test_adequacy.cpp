//===- tests/test_adequacy.cpp - Adequacy-campaign tests --------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Tier-1 coverage for the fault-injection adequacy campaign itself: the
// injection kernel, the no-false-positive baseline, one representative
// seeded fault per stack layer killed by its owning checker, and
// bit-identical reports at every thread count. The full 35-fault matrix
// runs as the `adequacy` CI tier (tools/adequacy).
//
//===----------------------------------------------------------------------===//

#include "verify/Adequacy.h"

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

using namespace b2;
using namespace b2::verify;

// -- The injection kernel ----------------------------------------------------

TEST(FaultInjection, DormantByDefault) {
  for (const fi::FaultInfo &F : fi::faultRegistry())
    EXPECT_FALSE(fi::on(F.Id)) << F.Name;
}

TEST(FaultInjection, ScopeArmsAndNests) {
  fi::FaultPlan Outer = fi::FaultPlan::single(fi::Fault::SimSraLogicalShift);
  fi::FaultPlan Inner = fi::FaultPlan::single(fi::Fault::BcAllocSkew);
  {
    fi::FaultScope S1(Outer);
    EXPECT_TRUE(fi::on(fi::Fault::SimSraLogicalShift));
    EXPECT_FALSE(fi::on(fi::Fault::BcAllocSkew));
    {
      fi::FaultScope S2(Inner);
      EXPECT_FALSE(fi::on(fi::Fault::SimSraLogicalShift));
      EXPECT_TRUE(fi::on(fi::Fault::BcAllocSkew));
    }
    EXPECT_TRUE(fi::on(fi::Fault::SimSraLogicalShift));
  }
  EXPECT_FALSE(fi::on(fi::Fault::SimSraLogicalShift));
}

TEST(FaultInjection, RegistryCompleteAndNamed) {
  const auto &Reg = fi::faultRegistry();
  ASSERT_EQ(Reg.size(), size_t(fi::Fault::NumFaults));
  std::set<std::string> Names;
  for (unsigned I = 0; I != Reg.size(); ++I) {
    EXPECT_EQ(unsigned(Reg[I].Id), I) << "registry out of enum order";
    EXPECT_TRUE(Names.insert(Reg[I].Name).second)
        << "duplicate fault name " << Reg[I].Name;
    Checker Owner;
    EXPECT_TRUE(checkerByName(Reg[I].Owner, Owner))
        << Reg[I].Name << " has unknown owner " << Reg[I].Owner;
    EXPECT_EQ(fi::findFault(Reg[I].Name), &Reg[I]);
  }
}

// -- The campaign ------------------------------------------------------------

TEST(Adequacy, QuickCampaignCleanBaselineAndOwnerKills) {
  AdequacyOptions O;
  O.Quick = true;
  O.Threads = 2;
  AdequacyReport R = runAdequacy(O);
  EXPECT_EQ(R.Baseline.size(), size_t(NumCheckers));
  EXPECT_TRUE(R.noFalsePositives()) << R.firstViolation();
  EXPECT_TRUE(R.allKilledByOwner()) << R.firstViolation();
  EXPECT_EQ(R.firstViolation(), "");
}

TEST(Adequacy, QuickFaultSetSpansEveryLayer) {
  std::set<std::string> Layers, Owners;
  for (fi::Fault F : quickFaultSet()) {
    const fi::FaultInfo *Info = nullptr;
    for (const fi::FaultInfo &I : fi::faultRegistry())
      if (I.Id == F)
        Info = &I;
    ASSERT_NE(Info, nullptr);
    Layers.insert(Info->Layer);
    Owners.insert(Info->Owner);
  }
  EXPECT_EQ(Layers, (std::set<std::string>{"compiler", "sim", "kami",
                                           "devices", "interp", "traffic",
                                           "vc"}));
  EXPECT_EQ(Owners.size(), size_t(NumCheckers))
      << "every checker column should own at least one quick-set fault";
}

namespace {

// One representative per layer, disjoint from quickFaultSet() where
// possible so tier-1 plus the CI quick gate together cover more of the
// matrix. Runs the fault's full row (all checker columns).
void expectOwnerKills(const char *Name) {
  AdequacyOptions O;
  O.OnlyFault = Name;
  O.Threads = 2;
  AdequacyReport R = runAdequacy(O);
  EXPECT_TRUE(R.noFalsePositives()) << R.firstViolation();
  const fi::FaultInfo *Info = fi::findFault(Name);
  ASSERT_NE(Info, nullptr);
  const CellResult *Owner = R.ownerCell(Info->Id);
  ASSERT_NE(Owner, nullptr);
  EXPECT_TRUE(Owner->Killed)
      << Name << " survived its owner " << Info->Owner;
  EXPECT_GT(Owner->TimeToKill, 0u);
  EXPECT_FALSE(Owner->Detail.empty());
}

} // namespace

TEST(Adequacy, CompilerLayerFaultKilled) {
  expectOwnerKills("compiler-regalloc-wrong-reg");
}

TEST(Adequacy, SimLayerFaultKilled) {
  expectOwnerKills("sim-store-keeps-xaddrs");
}

TEST(Adequacy, KamiLayerFaultKilled) {
  expectOwnerKills("kami-slt-as-unsigned");
}

TEST(Adequacy, DeviceLayerFaultKilled) {
  expectOwnerKills("dev-spi-stale-read");
}

TEST(Adequacy, InterpLayerFaultKilled) {
  expectOwnerKills("bc-div-count-skip");
}

TEST(Adequacy, TrafficLayerFaultKilled) {
  expectOwnerKills("traffic-pcap-truncate-write");
}

// The superblock engine's own faults: both must fall to the BlockDiff
// lockstep column (sim-stale-superblock-after-invalidate also rides in
// quickFaultSet; the fused-op clobber is only covered here and in the
// full matrix).
TEST(Adequacy, BlockEngineStaleSuperblockFaultKilled) {
  expectOwnerKills("sim-stale-superblock-after-invalidate");
}

TEST(Adequacy, BlockEngineFusedClobberFaultKilled) {
  expectOwnerKills("sim-fused-op-flag-clobber");
}

// The pipelined core's fast engine: a recurrence that drops the MMIO
// handshake latency must fall to the same lockstep column.
TEST(Adequacy, PipeEngineMmioLatencyFaultKilled) {
  expectOwnerKills("kami-fast-mmio-latency-dropped");
}

// The VC engine's own faults: both must fall to the VcCheck column. A
// dropped WP conjunct turns a buggy contract Valid (caught by the concrete
// probes behind Valid verdicts); a corrupted solver model turns a real
// counterexample unconfirmed (caught by the replay discipline).
TEST(Adequacy, VcDroppedConjunctFaultKilled) {
  expectOwnerKills("vc-wp-dropped-conjunct");
}

TEST(Adequacy, VcSolverBadModelFaultKilled) {
  expectOwnerKills("vc-solver-bad-model");
}

// -- Error handling ----------------------------------------------------------

TEST(Adequacy, UnknownOnlyFaultIsAnError) {
  AdequacyOptions O;
  O.OnlyFault = "no-such-fault";
  AdequacyReport R = runAdequacy(O);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_NE(R.Error.find("no-such-fault"), std::string::npos);
  // The error must list the valid names, not leave the user guessing.
  EXPECT_NE(R.Error.find("traffic-monitor-drop-event"), std::string::npos);
  // An errored report is never green: no cells ran, firstViolation leads
  // with the error, and the JSON carries it.
  EXPECT_TRUE(R.Baseline.empty());
  EXPECT_TRUE(R.Cells.empty());
  EXPECT_FALSE(R.noFalsePositives());
  EXPECT_EQ(R.firstViolation(), R.Error);
  EXPECT_NE(adequacyJson(R).find("\"error\""), std::string::npos);
}

TEST(Adequacy, FaultNameListCoversTheRegistry) {
  std::string Names = fi::faultNameList();
  for (const fi::FaultInfo &F : fi::faultRegistry())
    EXPECT_NE(Names.find(F.Name), std::string::npos) << F.Name;
}

TEST(Adequacy, DocumentedFaultNamesAreRegistered) {
  // Every backticked fault-like name in the user-facing docs must be a
  // registered fault, so `--fault NAME` / `--only-fault NAME` copied from
  // the docs works. Fault-like: at least three hyphenated lowercase
  // segments, the first of which is a registered fault's layer prefix
  // (`vc-smoke`, `valid-mix` and `b2stack-soak-v2` are not).
  std::set<std::string> Names, Prefixes;
  for (const fi::FaultInfo &F : fi::faultRegistry()) {
    const std::string Name = F.Name;
    Names.insert(Name);
    Prefixes.insert(Name.substr(0, Name.find('-')));
  }
  const std::regex Token("`([a-z0-9]+)((-[a-z0-9]+){2,})`");
  unsigned Checked = 0;
  for (const char *Doc : {"DESIGN.md", "README.md", "EXPERIMENTS.md"}) {
    std::ifstream In(std::string(B2_SOURCE_DIR) + "/" + Doc);
    ASSERT_TRUE(In) << Doc;
    std::stringstream Text;
    Text << In.rdbuf();
    const std::string S = Text.str();
    for (std::sregex_iterator I(S.begin(), S.end(), Token), E; I != E; ++I) {
      if (!Prefixes.count((*I)[1].str()))
        continue;
      ++Checked;
      EXPECT_TRUE(Names.count((*I)[1].str() + (*I)[2].str()))
          << Doc << " names `" << (*I)[1] << (*I)[2]
          << "`, which is not a registered fault; registered: "
          << fi::faultNameList();
    }
  }
  EXPECT_GT(Checked, 0u);
}

// -- Determinism -------------------------------------------------------------

TEST(Adequacy, ReportIdenticalAcrossThreadCounts) {
  AdequacyOptions O;
  O.Quick = true;
  O.Threads = 1;
  std::string OneThread = adequacyJson(runAdequacy(O));
  O.Threads = 3;
  std::string ThreeThreads = adequacyJson(runAdequacy(O));
  EXPECT_EQ(OneThread, ThreeThreads);
  // The document embeds no wall-clock, so byte equality is the spec,
  // not a lucky accident; spot-check the schema tag while we're here.
  EXPECT_NE(OneThread.find("\"schema\":\"b2stack-adequacy-v1\""),
            std::string::npos);
}
