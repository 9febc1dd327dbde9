//===- tests/test_bytecode.cpp - Bytecode engine parity tests ----------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// The bytecode fast path (bedrock2/Bytecode.h) claims *exact* behavioral
// equality with the reference AST walker: same fault kinds, same detail
// strings, same StepsUsed, same traces, same memory. These tests pin that
// claim down — one directed regression per Fault enumerator, differential
// fuzzing over random programs, and unit tests for the paged/interval
// Footprint the engines share.
//
//===----------------------------------------------------------------------===//

#include "app/Firmware.h"
#include "bedrock2/Bytecode.h"
#include "bedrock2/Dsl.h"
#include "bedrock2/Parser.h"
#include "bedrock2/Semantics.h"
#include "devices/Net.h"
#include "devices/Platform.h"
#include "riscv/Mmio.h"
#include "verify/FaultInjection.h"
#include "RandomProgram.h"

#include <gtest/gtest.h>

using namespace b2;
using namespace b2::bedrock2;
using namespace b2::bedrock2::dsl;

namespace {

/// Runs \p Fn on the reference walker and the bytecode engine separately
/// (so each engine's result is inspectable), plus once in differential
/// mode (which additionally compares traces and final footprints), and
/// requires full agreement. Returns the reference result.
ExecResult runParity(const Program &P, const std::string &Fn,
                     const std::vector<Word> &Args,
                     uint64_t Fuel = 1'000'000,
                     const StackallocPolicy &Policy = StackallocPolicy()) {
  riscv::NoDevice DevA, DevB, DevC;
  MmioExtSpec ExtA(DevA, 64 * 1024), ExtB(DevB, 64 * 1024),
      ExtC(DevC, 64 * 1024);

  Interp Ref(P, ExtA, Fuel, Policy, ExecMode::Reference);
  ExecResult R = Ref.callFunction(Fn, Args);

  Interp Fast(P, ExtB, Fuel, Policy, ExecMode::Fast);
  ExecResult F = Fast.callFunction(Fn, Args);

  EXPECT_EQ(R.F, F.F) << faultName(R.F) << " vs " << faultName(F.F);
  EXPECT_EQ(R.Detail, F.Detail);
  EXPECT_EQ(R.Rets, F.Rets);
  EXPECT_EQ(R.StepsUsed, F.StepsUsed);
  EXPECT_EQ(R.DivByZeroCount, F.DivByZeroCount);
  EXPECT_TRUE(R.Trace == F.Trace);

  Interp Diff(P, ExtC, Fuel, Policy, ExecMode::Differential);
  Diff.callFunction(Fn, Args);
  EXPECT_EQ(Diff.divergenceCount(), 0u) << Diff.divergence();
  return R;
}

Program parseOrDie(const char *Src) {
  ParseResult R = parseProgram(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(*R.Prog);
}

Program progWith(Function F) {
  Program P;
  P.add(std::move(F));
  return P;
}

} // namespace

// -- Directed parity regressions: one per Fault enumerator ---------------------

TEST(BytecodeParity, FaultNone) {
  V a("a"), b("b"), r("r");
  Program P = progWith(fn("f", {"a", "b"}, {"r"},
                          block({r = (a + b) * lit(3)})));
  ExecResult R = runParity(P, "f", {5, 2});
  EXPECT_EQ(R.F, Fault::None);
  EXPECT_EQ(R.Rets[0], 21u);
}

TEST(BytecodeParity, FaultUnboundVariable) {
  V r("r"), x("x");
  Program P = progWith(fn("f", {}, {"r"}, block({r = x + lit(1)})));
  ExecResult R = runParity(P, "f", {});
  EXPECT_EQ(R.F, Fault::UnboundVariable);
  EXPECT_EQ(R.Detail, "variable 'x'");
}

TEST(BytecodeParity, FaultUnboundReturnVariable) {
  Program P = progWith(fn("f", {}, {"r"}, block({Stmt::skip()})));
  ExecResult R = runParity(P, "f", {});
  EXPECT_EQ(R.F, Fault::UnboundVariable);
  EXPECT_EQ(R.Detail, "return variable 'r' of 'f'");
}

TEST(BytecodeParity, FaultLoadOutsideFootprint) {
  V r("r");
  Program P = progWith(fn("f", {}, {"r"}, block({r = load4(lit(0x5000))})));
  ExecResult R = runParity(P, "f", {});
  EXPECT_EQ(R.F, Fault::LoadOutsideFootprint);
  EXPECT_EQ(R.Detail, "load4 at 0x00005000");
}

TEST(BytecodeParity, FaultStoreOutsideFootprint) {
  V r("r");
  Program P = progWith(fn("f", {}, {"r"},
                          block({store4(lit(0x5000), lit(7)), r = lit(0)})));
  ExecResult R = runParity(P, "f", {});
  EXPECT_EQ(R.F, Fault::StoreOutsideFootprint);
  EXPECT_EQ(R.Detail, "store4 at 0x00005000");
}

TEST(BytecodeParity, FaultMisalignedAccess) {
  V r("r");
  Program P = progWith(fn("f", {}, {"r"}, block({r = load4(lit(0x5001))})));
  ExecResult R = runParity(P, "f", {});
  EXPECT_EQ(R.F, Fault::MisalignedAccess);
  EXPECT_EQ(R.Detail, "load4 at 0x00005001");
}

TEST(BytecodeParity, FaultUnknownFunction) {
  V r("r");
  Program P = progWith(
      fn("f", {}, {"r"}, block({call({"r"}, "nosuch", {lit(1)})})));
  ExecResult R = runParity(P, "f", {});
  EXPECT_EQ(R.F, Fault::UnknownFunction);
  EXPECT_EQ(R.Detail, "function 'nosuch'");
}

TEST(BytecodeParity, FaultUnknownFunctionAtEntry) {
  Program P;
  ExecResult R = runParity(P, "nosuch", {1, 2});
  EXPECT_EQ(R.F, Fault::UnknownFunction);
  EXPECT_EQ(R.Detail, "function 'nosuch'");
}

TEST(BytecodeParity, FaultArityMismatchArgs) {
  V a("a"), r("r"), x("x");
  Program P;
  P.add(fn("g", {"a"}, {"r"}, block({r = a})));
  P.add(fn("f", {}, {"x"},
           block({call({"x"}, "g", {lit(1), lit(2)})})));
  ExecResult R = runParity(P, "f", {});
  EXPECT_EQ(R.F, Fault::ArityMismatch);
  EXPECT_EQ(R.Detail, "call to 'g' with 2 args, expected 1");
}

TEST(BytecodeParity, FaultArityMismatchAtEntry) {
  V a("a"), r("r");
  Program P = progWith(fn("f", {"a"}, {"r"}, block({r = a})));
  ExecResult R = runParity(P, "f", {1, 2, 3});
  EXPECT_EQ(R.F, Fault::ArityMismatch);
  EXPECT_EQ(R.Detail, "call to 'f' with 3 args, expected 1");
}

TEST(BytecodeParity, FaultArityMismatchResultBinding) {
  V a("a"), r("r"), x("x"), y("y");
  Program P;
  P.add(fn("g", {"a"}, {"r"}, block({r = a})));
  P.add(fn("f", {}, {"x"},
           block({call({"x", "y"}, "g", {lit(1)})})));
  ExecResult R = runParity(P, "f", {});
  EXPECT_EQ(R.F, Fault::ArityMismatch);
  EXPECT_EQ(R.Detail, "call to 'g' binds 2 results, returns 1");
}

TEST(BytecodeParity, FaultArityMismatchExternalBinding) {
  V r("r"), x("x"), y("y");
  Program P = progWith(fn("f", {}, {"r"},
                          block({
                              interact({"x", "y"}, "MMIOREAD",
                                       {lit(devices::SpiRxData)}),
                              r = lit(0),
                          })));
  ExecResult R = runParity(P, "f", {});
  EXPECT_EQ(R.F, Fault::ArityMismatch);
  EXPECT_EQ(R.Detail, "external 'MMIOREAD' binds 2 results");
}

TEST(BytecodeParity, FaultExtContractViolation) {
  V r("r"), x("x");
  Program P = progWith(fn("f", {}, {"r"},
                          block({
                              interact({"x"}, "MMIOREAD", {lit(0x100)}),
                              r = x,
                          })));
  ExecResult R = runParity(P, "f", {});
  EXPECT_EQ(R.F, Fault::ExtContractViolation);
  EXPECT_EQ(R.Detail,
            "'MMIOREAD': address 0x00000100 is not an MMIO address");
}

TEST(BytecodeParity, FaultExtUnknownProcedure) {
  V r("r");
  Program P = progWith(fn("f", {}, {"r"},
                          block({
                              interact({}, "DMAWRITE", {lit(0), lit(0)}),
                              r = lit(0),
                          })));
  ExecResult R = runParity(P, "f", {});
  EXPECT_EQ(R.F, Fault::ExtContractViolation);
  EXPECT_EQ(R.Detail, "'DMAWRITE': unknown external procedure 'DMAWRITE'");
}

TEST(BytecodeParity, FaultOutOfFuelStatements) {
  V r("r");
  Program P = progWith(fn("f", {}, {"r"},
                          block({
                              r = lit(0), r = lit(1), r = lit(2),
                              r = lit(3), r = lit(4), r = lit(5),
                          })));
  ExecResult R = runParity(P, "f", {}, /*Fuel=*/3);
  EXPECT_EQ(R.F, Fault::OutOfFuel);
  EXPECT_EQ(R.Detail, "statement budget exhausted");
  EXPECT_EQ(R.StepsUsed, 3u);
}

TEST(BytecodeParity, FaultOutOfFuelLoop) {
  V r("r");
  Program P = progWith(fn("f", {}, {"r"},
                          block({
                              r = lit(1),
                              whileLoop(lit(1), block({r = r + lit(1)})),
                          })));
  ExecResult R = runParity(P, "f", {}, /*Fuel=*/1000);
  EXPECT_EQ(R.F, Fault::OutOfFuel);
  EXPECT_EQ(R.StepsUsed, 1000u);
}

TEST(BytecodeParity, FaultStackallocMisuse) {
  V r("r"), p("p");
  Program P = progWith(fn("f", {}, {"r"},
                          block({
                              stackalloc(p, 6, block({r = p})),
                          })));
  ExecResult R = runParity(P, "f", {});
  EXPECT_EQ(R.F, Fault::StackallocMisuse);
  EXPECT_EQ(R.Detail, "size 6");
}

TEST(BytecodeParity, FaultPreconditionFailed) {
  Program P = parseOrDie(R"(
    fn half(a) -> (r) requires ((a & 1) == 0) { r = a / 2; }
  )");
  ExecResult R = runParity(P, "half", {7});
  EXPECT_EQ(R.F, Fault::PreconditionFailed);
  EXPECT_EQ(R.Detail, "requires clause of 'half'");
}

TEST(BytecodeParity, FaultPostconditionFailed) {
  Program P = parseOrDie(R"(
    fn inc(a) -> (r) ensures (r == a + 1) { r = a + 2; }
  )");
  ExecResult R = runParity(P, "inc", {5});
  EXPECT_EQ(R.F, Fault::PostconditionFailed);
  EXPECT_EQ(R.Detail, "ensures clause of 'inc'");
}

TEST(BytecodeParity, FaultInvariantViolated) {
  Program P = parseOrDie(R"(
    fn f() -> (r) {
      i = 0;
      while (i < 10) invariant (i < 5) { i = i + 1; }
      r = i;
    }
  )");
  ExecResult R = runParity(P, "f", {});
  EXPECT_EQ(R.F, Fault::InvariantViolated);
  EXPECT_EQ(R.Detail, "loop invariant");
}

TEST(BytecodeParity, FaultMeasureNotDecreasing) {
  Program P = parseOrDie(R"(
    fn f(i) -> (r) {
      while (i) measure (i) { i = i; }
      r = 0;
    }
  )");
  ExecResult R = runParity(P, "f", {3});
  EXPECT_EQ(R.F, Fault::MeasureNotDecreasing);
  EXPECT_EQ(R.Detail, "measure 3 after 3");
}

// -- Other observable corners -------------------------------------------------

TEST(BytecodeParity, DivByZeroCountMatches) {
  V a("a"), r("r");
  Program P = progWith(fn("f", {"a"}, {"r"},
                          block({
                              r = divu(lit(10), a) + remu(lit(7), a),
                          })));
  ExecResult R = runParity(P, "f", {0});
  EXPECT_EQ(R.F, Fault::None);
  EXPECT_EQ(R.DivByZeroCount, 2u);
}

TEST(BytecodeParity, DivCountSkipFaultReachesEveryDivision) {
  // The seeded bc-div-count-skip fault lives in the one Binop handler, so
  // a variable-variable division assigned straight to a local must lose
  // its count too, and Differential must report the difference.
  Program P = parseOrDie(R"(
    fn f(a, b) -> (r) { r = a / b; }
  )");
  riscv::NoDevice Dev;
  MmioExtSpec Ext(Dev, 64 * 1024);
  fi::FaultPlan Plan = fi::FaultPlan::single(fi::Fault::BcDivCountSkip);
  fi::FaultScope Scope(Plan);
  Interp Diff(P, Ext, 1'000'000, StackallocPolicy(), ExecMode::Differential);
  Diff.callFunction("f", {7, 0});
  EXPECT_EQ(Diff.divergenceCount(), 1u);
  EXPECT_NE(Diff.divergence().find("DivByZeroCount: reference 1 vs fast 0"),
            std::string::npos)
      << Diff.divergence();
}

TEST(BytecodeParity, StackallocZeroedAndPlacementMatches) {
  // The returned pointer value itself is policy-derived; both engines must
  // pick the same address and hand out zeroed memory.
  V r("r"), p("p");
  Program P = progWith(fn("f", {}, {"r"},
                          block({
                              stackalloc(p, 16,
                                         block({
                                             store4(p + lit(4), lit(0xAB)),
                                             r = load4(p) + load4(p + lit(4)),
                                         })),
                          })));
  StackallocPolicy Salted;
  Salted.Salt = 4096;
  ExecResult R = runParity(P, "f", {}, 1'000'000, Salted);
  EXPECT_EQ(R.F, Fault::None);
  EXPECT_EQ(R.Rets[0], 0xABu);
}

TEST(BytecodeParity, StackallocUnwindsOnFault) {
  // A fault inside nested stackalloc scopes must still release both
  // regions and restore the stack pointer in both engines; a subsequent
  // call reuses the arena and must behave identically.
  V r("r"), p("p"), q("q"), x("x");
  Program P = progWith(fn("f", {}, {"r"},
                          block({
                              stackalloc(p, 8,
                                         block({
                                             stackalloc(q, 8,
                                                        block({r = x})),
                                         })),
                          })));
  ExecResult R = runParity(P, "f", {});
  EXPECT_EQ(R.F, Fault::UnboundVariable);
}

TEST(BytecodeParity, MmioTraceMatches) {
  // Fast and reference runs against separate-but-identical devices must
  // produce the same IoTrace and device-visible MMIO sequence.
  Program P = app::buildFirmware();
  devices::Platform PlatA, PlatB;
  MmioExtSpec ExtA(PlatA, 64 * 1024), ExtB(PlatB, 64 * 1024);
  Interp Ref(P, ExtA, 50'000'000, StackallocPolicy(), ExecMode::Reference);
  Interp Fast(P, ExtB, 50'000'000, StackallocPolicy(), ExecMode::Fast);

  ExecResult RA = Ref.callFunction("lightbulb_init", {});
  ExecResult RB = Fast.callFunction("lightbulb_init", {});
  ASSERT_TRUE(RA.ok()) << RA.Detail;
  ASSERT_TRUE(RB.ok()) << RB.Detail;
  PlatA.injectNow(devices::buildCommandFrame(true));
  PlatB.injectNow(devices::buildCommandFrame(true));
  RA = Ref.callFunction("lightbulb_loop", {});
  RB = Fast.callFunction("lightbulb_loop", {});
  EXPECT_EQ(RA.Rets, RB.Rets);
  EXPECT_EQ(RA.StepsUsed, RB.StepsUsed);
  EXPECT_TRUE(RA.Trace == RB.Trace);
  EXPECT_EQ(ExtA.mmioTrace().size(), ExtB.mmioTrace().size());
  EXPECT_TRUE(PlatB.gpio().lightbulbOn());
}

TEST(BytecodeParity, FirmwareDifferentialEventLoop) {
  // The whole firmware, in differential mode, across an init + traffic +
  // idle loop iteration: zero divergences allowed.
  Program P = app::buildFirmware();
  devices::Platform Plat;
  MmioExtSpec Ext(Plat, 64 * 1024);
  Interp I(P, Ext, 50'000'000, StackallocPolicy(), ExecMode::Differential);
  ASSERT_EQ(I.callFunction("lightbulb_init", {}).Rets[0], 0u);
  Plat.injectNow(devices::buildCommandFrame(true));
  ASSERT_EQ(I.callFunction("lightbulb_loop", {}).Rets[0], 0u);
  ASSERT_EQ(I.callFunction("lightbulb_loop", {}).Rets[0], 0u);
  EXPECT_EQ(I.divergenceCount(), 0u) << I.divergence();
  EXPECT_TRUE(Plat.gpio().lightbulbOn());
}

TEST(BytecodeParity, CompilationIsReusedAcrossCalls) {
  Program P = app::buildFirmware();
  BytecodeProgram BP(P);
  EXPECT_EQ(BP.numFunctions(), P.Functions.size());
  EXPECT_GT(BP.numInstructions(), 0u);
}

// -- Differential fuzzing -----------------------------------------------------

TEST(BytecodeFuzz, PureRandomPrograms) {
  for (uint64_t Seed = 0; Seed != 40; ++Seed) {
    b2::testing::RandomProgramGen Gen(Seed);
    Program P = Gen.generate();
    riscv::NoDevice Dev;
    MmioExtSpec Ext(Dev, 64 * 1024);
    Interp I(P, Ext, 1'000'000, StackallocPolicy(),
             ExecMode::Differential);
    I.callFunction("main", {Word(Seed * 17), Word(~Seed)});
    I.callFunction("main", {0xFFFFFFFF, 1});
    EXPECT_EQ(I.divergenceCount(), 0u)
        << "seed " << Seed << ": " << I.divergence();
  }
}

TEST(BytecodeFuzz, MmioRandomPrograms) {
  b2::testing::RandomProgramOptions O;
  O.UseMmio = true;
  for (uint64_t Seed = 100; Seed != 125; ++Seed) {
    b2::testing::RandomProgramGen Gen(Seed, O);
    Program P = Gen.generate();
    devices::Platform Plat;
    MmioExtSpec Ext(Plat, 64 * 1024);
    Interp I(P, Ext, 1'000'000, StackallocPolicy(),
             ExecMode::Differential);
    I.callFunction("main", {Word(Seed), Word(Seed ^ 0xDEAD)});
    EXPECT_EQ(I.divergenceCount(), 0u)
        << "seed " << Seed << ": " << I.divergence();
  }
}

TEST(BytecodeFuzz, TinyFuelSeedsFaultsIdentically) {
  // Starving random programs of fuel makes OutOfFuel strike at arbitrary
  // program points — both engines must fault at the same step with the
  // same budget message.
  for (uint64_t Seed = 200; Seed != 230; ++Seed) {
    b2::testing::RandomProgramGen Gen(Seed);
    Program P = Gen.generate();
    for (uint64_t Fuel : {3u, 17u, 101u}) {
      riscv::NoDevice Dev;
      MmioExtSpec Ext(Dev, 64 * 1024);
      Interp I(P, Ext, Fuel, StackallocPolicy(), ExecMode::Differential);
      I.callFunction("main", {Word(Seed), Word(Seed + 1)});
      EXPECT_EQ(I.divergenceCount(), 0u)
          << "seed " << Seed << " fuel " << Fuel << ": " << I.divergence();
    }
  }
}

TEST(BytecodeFuzz, SaltedPlacements) {
  for (uint64_t Seed = 300; Seed != 315; ++Seed) {
    b2::testing::RandomProgramGen Gen(Seed);
    Program P = Gen.generate();
    for (Word Salt : {Word(0), Word(64), Word(65536)}) {
      riscv::NoDevice Dev;
      MmioExtSpec Ext(Dev, 64 * 1024);
      StackallocPolicy Policy;
      Policy.Salt = Salt;
      Interp I(P, Ext, 1'000'000, Policy, ExecMode::Differential);
      I.callFunction("main", {Word(Seed), Salt});
      EXPECT_EQ(I.divergenceCount(), 0u)
          << "seed " << Seed << " salt " << Salt << ": " << I.divergence();
    }
  }
}

// -- Footprint: paged storage + interval ownership ----------------------------

TEST(Footprint, OwnTracksSizeAndIntervals) {
  Footprint F;
  F.own(0x1000, 16);
  EXPECT_EQ(F.size(), 16u);
  EXPECT_TRUE(F.owns(0x1000, 16));
  EXPECT_TRUE(F.owns(0x1008, 8));
  EXPECT_FALSE(F.owns(0x0FFF, 2));
  EXPECT_FALSE(F.owns(0x1008, 9));
  auto Iv = F.intervals();
  ASSERT_EQ(Iv.size(), 1u);
  EXPECT_EQ(Iv[0], std::make_pair(Word(0x1000), Word(16)));
}

TEST(Footprint, AdjacentOwnsCoalesce) {
  Footprint F;
  F.own(0x1000, 16);
  F.own(0x1010, 16);
  F.own(0x0FF0, 16);
  auto Iv = F.intervals();
  ASSERT_EQ(Iv.size(), 1u);
  EXPECT_EQ(Iv[0], std::make_pair(Word(0x0FF0), Word(48)));
  EXPECT_EQ(F.size(), 48u);
  EXPECT_TRUE(F.owns(0x0FF0, 48));
}

TEST(Footprint, PartialDisownSplitsInterval) {
  Footprint F;
  F.own(0x1000, 0x30);
  F.disown(0x1010, 0x10);
  auto Iv = F.intervals();
  ASSERT_EQ(Iv.size(), 2u);
  EXPECT_EQ(Iv[0], std::make_pair(Word(0x1000), Word(0x10)));
  EXPECT_EQ(Iv[1], std::make_pair(Word(0x1020), Word(0x10)));
  EXPECT_EQ(F.size(), 0x20u);
  EXPECT_TRUE(F.owns(0x1000, 0x10));
  EXPECT_FALSE(F.owns(0x1010, 1));
  EXPECT_FALSE(F.owns(0x1000, 0x30));
  EXPECT_TRUE(F.owns(0x1020, 0x10));
}

TEST(Footprint, DisownSpanningSeveralIntervals) {
  Footprint F;
  F.own(0x100, 0x10);
  F.own(0x200, 0x10);
  F.own(0x300, 0x10);
  F.disown(0x108, 0x200);
  auto Iv = F.intervals();
  ASSERT_EQ(Iv.size(), 2u);
  EXPECT_EQ(Iv[0], std::make_pair(Word(0x100), Word(8)));
  EXPECT_EQ(Iv[1], std::make_pair(Word(0x308), Word(8)));
  EXPECT_EQ(F.size(), 16u);
}

TEST(Footprint, DisownOfUnownedIsNoOp) {
  Footprint F;
  F.own(0x1000, 8);
  F.disown(0x2000, 64);
  F.disown(0x900, 0x100); // Ends exactly at the owned range.
  EXPECT_EQ(F.size(), 8u);
  EXPECT_TRUE(F.owns(0x1000, 8));
}

TEST(Footprint, ReOwnZeroesContents) {
  Footprint F;
  F.own(0x1000, 8);
  F.writeLe(0x1000, 4, 0xDEADBEEF);
  EXPECT_EQ(F.readLe(0x1000, 4), 0xDEADBEEFu);
  F.own(0x1000, 8); // stackalloc's fresh-buffer guarantee.
  EXPECT_EQ(F.readLe(0x1000, 4), 0u);
}

TEST(Footprint, WrapAroundOwn) {
  Footprint F;
  F.own(0xFFFFFFF0, 0x20); // 16 bytes at the top, 16 at the bottom.
  EXPECT_EQ(F.size(), 0x20u);
  EXPECT_TRUE(F.owns(0xFFFFFFF0, 16));
  EXPECT_TRUE(F.owns(0, 16));
  EXPECT_TRUE(F.owns(0xFFFFFFF8, 16)); // Spans the wrap itself.
  EXPECT_FALSE(F.owns(16, 1));
  EXPECT_FALSE(F.owns(0xFFFFFFEF, 1));
  auto Iv = F.intervals();
  ASSERT_EQ(Iv.size(), 2u);
  EXPECT_EQ(Iv[0], std::make_pair(Word(0), Word(16)));
  EXPECT_EQ(Iv[1], std::make_pair(Word(0xFFFFFFF0), Word(16)));
}

TEST(Footprint, WrapAroundDisownAndAccess) {
  Footprint F;
  F.own(0xFFFFFFF0, 0x20);
  F.writeLe(0xFFFFFFFE, 4, 0x11223344); // Write across the wrap.
  EXPECT_EQ(F.readLe(0xFFFFFFFE, 4), 0x11223344u);
  EXPECT_EQ(F.read(0xFFFFFFFE), 0x44u);
  EXPECT_EQ(F.read(0xFFFFFFFF), 0x33u);
  EXPECT_EQ(F.read(0), 0x22u);
  EXPECT_EQ(F.read(1), 0x11u);
  F.disown(0xFFFFFFF8, 16); // Carve the middle out of both halves.
  EXPECT_EQ(F.size(), 16u);
  EXPECT_TRUE(F.owns(0xFFFFFFF0, 8));
  EXPECT_TRUE(F.owns(8, 8));
  EXPECT_FALSE(F.owns(0xFFFFFFF8, 1));
  EXPECT_FALSE(F.owns(0, 1));
}

TEST(Footprint, PageBoundaryAccesses) {
  Footprint F;
  F.own(0xFFC, 8); // Crosses the 4 KiB page boundary.
  F.writeLe(0xFFE, 4, 0xA1B2C3D4);
  EXPECT_EQ(F.readLe(0xFFE, 4), 0xA1B2C3D4u);
  EXPECT_EQ(F.read(0xFFF), 0xC3u);
  EXPECT_EQ(F.read(0x1000), 0xB2u);
  F.writeLe(0xFFC, 2, 0x55AA);
  EXPECT_EQ(F.readLe(0xFFC, 2), 0x55AAu);
}

TEST(Footprint, ZeroLengthOperations) {
  Footprint F;
  F.own(0x100, 0);
  EXPECT_EQ(F.size(), 0u);
  EXPECT_TRUE(F.intervals().empty());
  EXPECT_TRUE(F.owns(0x100, 0));
  F.own(0x100, 4);
  F.disown(0x100, 0);
  EXPECT_EQ(F.size(), 4u);
}

TEST(Footprint, IdenticalComparesBytesAndIntervals) {
  Footprint A, B;
  A.own(0x1000, 16);
  B.own(0x1000, 16);
  EXPECT_TRUE(A.identical(B));
  A.writeLe(0x1004, 4, 7);
  EXPECT_FALSE(A.identical(B));
  B.writeLe(0x1004, 4, 7);
  EXPECT_TRUE(A.identical(B));
  B.own(0x2000, 4);
  EXPECT_FALSE(A.identical(B));
}

TEST(Footprint, CopyIsIndependent) {
  Footprint A;
  A.own(0x1000, 16);
  A.writeLe(0x1000, 4, 0x12345678);
  Footprint B = A;
  EXPECT_TRUE(A.identical(B));
  B.writeLe(0x1000, 4, 0x0BADF00D);
  EXPECT_EQ(A.readLe(0x1000, 4), 0x12345678u);
  EXPECT_EQ(B.readLe(0x1000, 4), 0x0BADF00Du);
  B = A;
  EXPECT_EQ(B.readLe(0x1000, 4), 0x12345678u);
  B.own(0x2000, 8);
  B.writeLe(0x2000, 4, 1);
  EXPECT_FALSE(A.owns(0x2000, 1));
}

TEST(Footprint, MutationEpochAdvancesOnWritesOnly) {
  Footprint F;
  uint64_t E0 = F.mutationEpoch();
  F.own(0x1000, 16);
  uint64_t E1 = F.mutationEpoch();
  EXPECT_GT(E1, E0);
  (void)F.readLe(0x1000, 4);
  (void)F.owns(0x1000, 4);
  (void)F.intervals();
  EXPECT_EQ(F.mutationEpoch(), E1);
  F.writeLe(0x1000, 4, 9);
  EXPECT_GT(F.mutationEpoch(), E1);
}
