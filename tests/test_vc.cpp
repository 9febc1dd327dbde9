//===- tests/test_vc.cpp - Symbolic VC engine tests -------------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Tier-1 coverage for src/vc: the expression DAG's rewrites and hash
// consing, the bit-blasting solver fuzzed against brute force and the
// concrete Word semantics, the WP generator's agreement with the checking
// interpreter over the annotated corpus (every counterexample must replay
// to the predicted runtime fault; every Valid verdict must survive seeded
// concrete probes), and bit-for-bit determinism of the whole engine.
//
//===----------------------------------------------------------------------===//

#include "app/Firmware.h"
#include "bedrock2/Parser.h"
#include "support/Rng.h"
#include "vc/Analysis.h"
#include "vc/Corpus.h"
#include "vc/Vc.h"

#include <gtest/gtest.h>

using namespace b2;
using namespace b2::vc;
using bedrock2::BinOp;

// -- Expression DAG ----------------------------------------------------------

TEST(VcExpr, HashConsingSharesStructurallyEqualNodes) {
  ExprArena A;
  ExprRef X = A.var("x", VarOrigin::Param);
  ExprRef Y = A.var("y", VarOrigin::Param);
  EXPECT_NE(X, Y) << "vars are never consed";
  EXPECT_EQ(A.op(BinOp::Add, X, Y), A.op(BinOp::Add, X, Y));
  EXPECT_EQ(A.constant(42), A.constant(42));
  // Commutative canonicalization: both orders intern to one node.
  EXPECT_EQ(A.op(BinOp::Add, X, Y), A.op(BinOp::Add, Y, X));
  EXPECT_EQ(A.op(BinOp::And, X, Y), A.op(BinOp::And, Y, X));
  // Operand order matters for non-commutative ops.
  EXPECT_NE(A.op(BinOp::Sub, X, Y), A.op(BinOp::Sub, Y, X));
}

TEST(VcExpr, ConstantFoldingUsesWordSemantics) {
  ExprArena A;
  Word V = 0;
  ASSERT_TRUE(A.constValue(
      A.op(BinOp::Add, A.constant(0xFFFFFFFF), A.constant(2)), V));
  EXPECT_EQ(V, 1u) << "wraparound addition";
  ASSERT_TRUE(A.constValue(
      A.op(BinOp::Divu, A.constant(7), A.constant(0)), V));
  EXPECT_EQ(V, 0xFFFFFFFFu) << "RISC-V divide-by-zero convention";
  ASSERT_TRUE(A.constValue(
      A.op(BinOp::Sru, A.constant(0x80000000), A.constant(31)), V));
  EXPECT_EQ(V, 1u);
  ASSERT_TRUE(A.constValue(
      A.op(BinOp::Srs, A.constant(0x80000000), A.constant(31)), V));
  EXPECT_EQ(V, 0xFFFFFFFFu) << "arithmetic shift drags the sign";
}

TEST(VcExpr, AlgebraicIdentities) {
  ExprArena A;
  ExprRef X = A.var("x", VarOrigin::Param);
  ExprRef Zero = A.constant(0);
  EXPECT_EQ(A.op(BinOp::Add, X, Zero), X);
  EXPECT_EQ(A.op(BinOp::Xor, X, Zero), X);
  EXPECT_EQ(A.op(BinOp::Mul, X, A.constant(1)), X);
  EXPECT_EQ(A.op(BinOp::And, X, Zero), Zero);
  EXPECT_EQ(A.op(BinOp::Sub, X, X), Zero);
  EXPECT_EQ(A.op(BinOp::Xor, X, X), Zero);
  EXPECT_EQ(A.op(BinOp::Ltu, X, X), Zero);
  EXPECT_EQ(A.op(BinOp::Or, X, X), X);
  EXPECT_EQ(A.op(BinOp::Eq, X, X), A.constant(1));
}

TEST(VcExpr, BooleanNormalization) {
  ExprArena A;
  ExprRef X = A.var("x", VarOrigin::Param);
  ExprRef Y = A.var("y", VarOrigin::Param);
  ExprRef B = A.ltu(X, Y); // Already 0/1-valued.
  EXPECT_TRUE(A.node(B).Is01);
  EXPECT_EQ(A.toBool(B), B) << "toBool is the identity on 0/1 nodes";
  EXPECT_NE(A.toBool(X), X) << "a raw word needs normalization";
  EXPECT_TRUE(A.node(A.toBool(X)).Is01);
  // Double negation on a 0/1 node cancels.
  EXPECT_EQ(A.boolNot(A.boolNot(B)), B);
  // Folding through implies: a true guard reduces to the condition.
  EXPECT_EQ(A.implies(A.trueRef(), B), B);
  EXPECT_EQ(A.implies(A.falseRef(), B), A.trueRef());
}

TEST(VcExpr, IteFolds) {
  ExprArena A;
  ExprRef X = A.var("x", VarOrigin::Param);
  ExprRef Y = A.var("y", VarOrigin::Param);
  ExprRef B = A.ltu(X, Y);
  EXPECT_EQ(A.ite(A.trueRef(), X, Y), X);
  EXPECT_EQ(A.ite(A.falseRef(), X, Y), Y);
  EXPECT_EQ(A.ite(B, X, X), X) << "equal arms fold";
  EXPECT_EQ(A.ite(B, A.constant(1), A.constant(0)), B);
}

TEST(VcExpr, EvalAllMatchesConcreteSemantics) {
  ExprArena A;
  ExprRef X = A.var("x", VarOrigin::Param);
  ExprRef Y = A.var("y", VarOrigin::Param);
  ExprRef E = A.ite(A.ltu(X, Y), A.op(BinOp::Mul, X, Y),
                    A.op(BinOp::Sub, X, Y));
  EXPECT_EQ(A.eval(E, {3, 5}), 15u);
  EXPECT_EQ(A.eval(E, {5, 3}), 2u);
}

// -- Bit-blasting solver -----------------------------------------------------

namespace {

/// Asserts that the constraint set is satisfiable and the model checks out
/// under the arena's own evaluator.
void expectSat(ExprArena &A, const std::vector<ExprRef> &Cs) {
  SolveResult R = solve(A, Cs);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  std::vector<Word> Vals = A.evalAll(R.Model);
  for (ExprRef C : Cs)
    EXPECT_NE(Vals[C], 0u) << "model violates a constraint";
}

} // namespace

TEST(VcSolve, ConcreteOpEquationsAgainstWordSemantics) {
  // For every operator and a battery of operand pairs: x == a && y == b
  // entails op(x, y) == evalBinOp(op, a, b), and contradicts any other
  // value. This pins the bit-level encodings (adders, shifters,
  // multiplier, divider) to the simulator's Word semantics.
  const BinOp Ops[] = {BinOp::Add,    BinOp::Sub,  BinOp::Mul,
                       BinOp::MulHuu, BinOp::Divu, BinOp::Remu,
                       BinOp::And,    BinOp::Or,   BinOp::Xor,
                       BinOp::Sru,    BinOp::Slu,  BinOp::Srs,
                       BinOp::Lts,    BinOp::Ltu,  BinOp::Eq};
  support::Rng R(0xb1a57);
  for (BinOp O : Ops) {
    for (unsigned Trial = 0; Trial != 6; ++Trial) {
      Word WA = R.interestingWord();
      Word WB = Trial == 0 ? 0 : R.interestingWord(); // Divide-by-zero leg.
      Word Want = bedrock2::evalBinOp(O, WA, WB);
      ExprArena A;
      ExprRef X = A.var("x", VarOrigin::Param);
      ExprRef Y = A.var("y", VarOrigin::Param);
      ExprRef App = A.op(O, X, Y);
      std::vector<ExprRef> Pin = {A.eq(X, A.constant(WA)),
                                  A.eq(Y, A.constant(WB))};
      std::vector<ExprRef> Good = Pin;
      Good.push_back(A.eq(App, A.constant(Want)));
      expectSat(A, Good);
      std::vector<ExprRef> Bad = Pin;
      Bad.push_back(A.eq(App, A.constant(Want ^ 1)));
      EXPECT_EQ(solve(A, Bad).Status, SolveStatus::Unsat)
          << "op " << int(O) << " on " << WA << ", " << WB;
    }
  }
}

TEST(VcSolve, FuzzAgainstBruteForceOnSmallFormulas) {
  // Random formulas over four 1-bit variables, checked against exhaustive
  // enumeration of all 16 assignments.
  support::Rng R(0xf0f0);
  for (unsigned Trial = 0; Trial != 60; ++Trial) {
    ExprArena A;
    std::vector<ExprRef> Bits;
    std::vector<unsigned> VarIds;
    for (unsigned I = 0; I != 4; ++I) {
      ExprRef V = A.var("b" + std::to_string(I), VarOrigin::Param);
      VarIds.push_back(A.node(V).Lit);
      Bits.push_back(A.op(BinOp::And, V, A.constant(1)));
    }
    // Grow a random term pool over the bits.
    std::vector<ExprRef> Pool = Bits;
    const BinOp Mix[] = {BinOp::And, BinOp::Or, BinOp::Xor, BinOp::Eq,
                         BinOp::Add, BinOp::Ltu};
    for (unsigned I = 0; I != 8; ++I) {
      ExprRef L = Pool[R.below(uint32_t(Pool.size()))];
      ExprRef Rh = Pool[R.below(uint32_t(Pool.size()))];
      Pool.push_back(A.op(Mix[R.below(6)], L, Rh));
    }
    ExprRef F = A.toBool(Pool.back());
    // The formula reaches each variable only through (v & 1), so
    // enumerating the 16 low-bit assignments is exhaustive.
    bool AnySat = false;
    for (unsigned M = 0; M != 16 && !AnySat; ++M) {
      std::vector<Word> Vals(A.numVars(), 0);
      for (unsigned I = 0; I != 4; ++I)
        Vals[VarIds[I]] = (M >> I) & 1;
      if (A.eval(F, Vals) != 0)
        AnySat = true;
    }
    std::vector<ExprRef> Cs = {F};
    SolveResult S = solve(A, Cs);
    if (AnySat) {
      ASSERT_EQ(S.Status, SolveStatus::Sat) << "trial " << Trial;
      std::vector<Word> Vals = A.evalAll(S.Model);
      for (ExprRef C : Cs)
        EXPECT_NE(Vals[C], 0u);
    } else {
      EXPECT_EQ(S.Status, SolveStatus::Unsat) << "trial " << Trial;
    }
  }
}

TEST(VcSolve, BudgetExhaustionIsUnknownNotWrong) {
  // Refuting multiplier associativity is classically hard for CDCL —
  // far beyond a 16-conflict budget. The instance is UNSAT, so the only
  // honest answer under the budget is Unknown, never Sat.
  ExprArena A;
  ExprRef X = A.var("x", VarOrigin::Param);
  ExprRef Y = A.var("y", VarOrigin::Param);
  ExprRef Z = A.var("z", VarOrigin::Param);
  ExprRef L = A.op(BinOp::Mul, A.op(BinOp::Mul, X, Y), Z);
  ExprRef R2 = A.op(BinOp::Mul, X, A.op(BinOp::Mul, Y, Z));
  std::vector<ExprRef> Cs = {A.boolNot(A.eq(L, R2))};
  SolveOptions O;
  O.ConflictBudget = 16;
  SolveResult R = solve(A, Cs, O);
  EXPECT_EQ(R.Status, SolveStatus::Unknown);
}

// -- WP / interpreter agreement ----------------------------------------------

TEST(VcWp, CorrectCorpusVerifiesValid) {
  for (const VcExample &E : vcExamples()) {
    FuncReport R = verifyFunction(E.Prog, E.Func, E.Name);
    EXPECT_EQ(R.V, Verdict::Valid) << E.Name << ": " << R.CexDetail;
    EXPECT_EQ(R.Unconfirmed, 0u) << E.Name;
    EXPECT_EQ(R.ProbeViolations, 0u) << E.Name;
    EXPECT_TRUE(R.Error.empty()) << E.Name << ": " << R.Error;
  }
}

TEST(VcWp, BuggyCorpusYieldsConfirmedCounterexamples) {
  for (const VcBugExample &E : vcBugExamples()) {
    FuncReport R = verifyFunction(E.Prog, E.Func, E.Name);
    EXPECT_EQ(R.V, Verdict::Counterexample) << E.Name;
    EXPECT_EQ(R.CexFault, E.Expected)
        << E.Name << " replayed to the wrong fault";
    EXPECT_EQ(R.Unconfirmed, 0u)
        << E.Name << ": a counterexample failed to replay";
  }
}

TEST(VcWp, CounterexampleModelsReplayInTheInterpreter) {
  // The replay contract, end to end, on the magic-constant bug: the model
  // must carry the one triggering input.
  for (const VcBugExample &E : vcBugExamples()) {
    if (E.Name != "trig_bug")
      continue;
    FuncReport R = verifyFunction(E.Prog, E.Func, E.Name);
    ASSERT_EQ(R.V, Verdict::Counterexample);
    ASSERT_EQ(R.CexArgs.size(), 1u);
    EXPECT_EQ(R.CexArgs[0], 0x1234ABCDu)
        << "the solver must find the single triggering input";
  }
}

TEST(VcWp, UnknownFunctionIsAnError) {
  std::vector<VcExample> Ex = vcExamples();
  ASSERT_FALSE(Ex.empty());
  FuncReport R = verifyFunction(Ex[0].Prog, "no_such_fn", "test");
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_NE(R.Error.find("no_such_fn"), std::string::npos);
}

TEST(VcWp, RecursionFallbackWithStoringCalleeRaisesNoSolverAlarm) {
  // The recursion fallback skips the callee body; since it may store, the
  // continuation's loads must read havocked memory, and models for
  // post-call obligations (which over-approximate and may fail replay)
  // must demote quietly to Unknown rather than count as a solver or
  // encoding bug. Concretely, recmain is a correct program: without the
  // havoc, load4(buf) would resolve to the single inlined iteration's
  // store and yield a spurious unconfirmed counterexample.
  bedrock2::ParseResult PR = bedrock2::parseProgram(R"(
    fn countdown(p, n) -> (r) {
      if (n) {
        store4(p, n);
        r = countdown(p, n - 1);
      } else {
        r = 0;
      }
    }
    fn recmain() -> (r)
      ensures (r == 1)
    {
      stackalloc buf[4] {
        store4(buf, 7);
        r = countdown(buf, 2);
        r = load4(buf);
      }
    }
  )");
  ASSERT_TRUE(PR.ok()) << PR.Error;
  FuncReport R = verifyFunction(*PR.Prog, "recmain", "recursion-fallback");
  EXPECT_EQ(R.Unconfirmed, 0u)
      << "fallback havoc missing: stale-memory model raised a false alarm";
  EXPECT_EQ(R.V, Verdict::Unknown)
      << "the coverage obligation caps the verdict at Unknown";
}

TEST(VcReplay, MidRunSelfPreconditionCountsAsProbeViolation) {
  // Only the *entry* precondition rejection makes a probe vacuous. A
  // recursive call back into the entry function with arguments violating
  // its own requires clause is a real mid-run contract violation and must
  // be counted, not skipped by matching the function's name.
  bedrock2::ParseResult PR = bedrock2::parseProgram(R"(
    fn selfbad(n) -> (r)
      requires (n < 0x80000000)
    {
      r = selfbad(0xFFFFFFFF);
    }
  )");
  ASSERT_TRUE(PR.ok()) << PR.Error;
  std::string Detail;
  unsigned V =
      probeValid(*PR.Prog, "selfbad", /*Probes=*/32, /*Seed=*/0xabc, Detail);
  EXPECT_GT(V, 0u) << "self-call precondition violations were skipped";
  EXPECT_NE(Detail.find("requires clause"), std::string::npos) << Detail;
}

TEST(VcReplay, EntryPreconditionRejectionHasZeroSteps) {
  // probeValid treats PreconditionFailed with StepsUsed == 0 as a
  // rejected entry precondition (a vacuous probe). Both engines must
  // report the entry check before charging any step.
  bedrock2::ParseResult PR = bedrock2::parseProgram(R"(
    fn seven(n) -> (r)
      requires (n == 7)
    {
      r = n + 1;
    }
  )");
  ASSERT_TRUE(PR.ok()) << PR.Error;
  for (bedrock2::ExecMode M :
       {bedrock2::ExecMode::Reference, bedrock2::ExecMode::Fast}) {
    riscv::NoDevice Dev;
    bedrock2::MmioExtSpec Ext(Dev, 64 * 1024);
    bedrock2::Interp I(*PR.Prog, Ext, 1'000'000,
                       bedrock2::StackallocPolicy(), M);
    bedrock2::ExecResult R = I.callFunction("seven", {8});
    EXPECT_EQ(R.F, bedrock2::Fault::PreconditionFailed)
        << bedrock2::execModeName(M);
    EXPECT_EQ(R.StepsUsed, 0u) << bedrock2::execModeName(M);
    R = I.callFunction("seven", {7});
    EXPECT_EQ(R.F, bedrock2::Fault::None) << bedrock2::execModeName(M);
    EXPECT_GT(R.StepsUsed, 0u) << bedrock2::execModeName(M);
  }
}

namespace {

/// One pinned probeValid outcome: violation count and first Detail. Every
/// target and configuration not listed finds no violation.
struct ProbePin {
  const char *Target;
  unsigned Probes;
  uint64_t Seed;
  unsigned Violations;
  const char *Detail;
};

const ProbePin ProbePins[] = {
    {"bump_bug/bump", 16, 0x5eed0001, 16,
     "probe 0: postcondition-failed (ensures clause of 'bump')"},
    {"bump_bug/bump", 64, 0x1, 64,
     "probe 0: postcondition-failed (ensures clause of 'bump')"},
    {"bump_bug/bump", 64, 0x2, 64,
     "probe 0: postcondition-failed (ensures clause of 'bump')"},
    {"bump_bug/bump", 64, 0x3, 64,
     "probe 0: postcondition-failed (ensures clause of 'bump')"},
    {"oob_bug/oob", 64, 0x1, 2,
     "probe 6: store-outside-footprint (store4 at 0x00f00000)"},
    {"oob_bug/oob", 64, 0x2, 1,
     "probe 21: store-outside-footprint (store4 at 0x00f00000)"},
    {"mmio_bug/mmio_bad", 64, 0x1, 4,
     "probe 6: extcall-contract-violation ('MMIOWRITE': MMIO address is not "
     "word-aligned)"},
    {"mmio_bug/mmio_bad", 64, 0x2, 3,
     "probe 21: extcall-contract-violation ('MMIOWRITE': MMIO address is not "
     "word-aligned)"},
    {"mmio_bug/mmio_bad", 64, 0x3, 4,
     "probe 13: extcall-contract-violation ('MMIOWRITE': MMIO address is not "
     "word-aligned)"},
    {"callpre_bug/caller", 16, 0x5eed0001, 15,
     "probe 1: precondition-failed (requires clause of 'need')"},
    {"callpre_bug/caller", 64, 0x1, 53,
     "probe 0: precondition-failed (requires clause of 'need')"},
    {"callpre_bug/caller", 64, 0x2, 57,
     "probe 0: precondition-failed (requires clause of 'need')"},
    {"callpre_bug/caller", 64, 0x3, 54,
     "probe 0: precondition-failed (requires clause of 'need')"},
};

} // namespace

TEST(VcReplay, ProbeOutcomesArePinned) {
  // The probes' observable outcome over every contracted target, under
  // the default options and under 64 probes on three more seeds. A
  // change of probe engine must leave every count and detail unchanged.
  app::FirmwareOptions Fw;
  Fw.Timeouts = true;
  bedrock2::Program Firmware = app::buildFirmware(Fw);
  std::vector<VcExample> Good = vcExamples();
  std::vector<VcBugExample> Bad = vcBugExamples();
  struct Target {
    std::string Name, Func;
    const bedrock2::Program *Prog;
  };
  std::vector<Target> Targets;
  for (const char *Fn : {"spi_write", "spi_read", "lightbulb_loop"})
    Targets.push_back({std::string("firmware/") + Fn, Fn, &Firmware});
  for (const VcExample &E : Good)
    Targets.push_back({E.Name + "/" + E.Func, E.Func, &E.Prog});
  for (const VcBugExample &E : Bad)
    Targets.push_back({E.Name + "/" + E.Func, E.Func, &E.Prog});
  const VcOptions Defaults;
  const std::pair<unsigned, uint64_t> Configs[] = {
      {Defaults.Probes, Defaults.ProbeSeed}, {64, 1}, {64, 2}, {64, 3}};
  size_t Checked = 0;
  for (const Target &T : Targets) {
    for (const auto &[Probes, Seed] : Configs) {
      std::string Detail;
      unsigned V = probeValid(*T.Prog, T.Func, Probes, Seed, Detail);
      const ProbePin *Pin = nullptr;
      for (const ProbePin &P : ProbePins)
        if (T.Name == P.Target && P.Probes == Probes && P.Seed == Seed)
          Pin = &P;
      Checked += Pin != nullptr;
      EXPECT_EQ(V, Pin ? Pin->Violations : 0u)
          << T.Name << " probes " << Probes << " seed " << Seed;
      EXPECT_EQ(Detail, Pin ? Pin->Detail : "")
          << T.Name << " probes " << Probes << " seed " << Seed;
    }
  }
  EXPECT_EQ(Targets.size(), 16u) << "pin the outcomes of a new target";
  EXPECT_EQ(Checked, std::size(ProbePins)) << "a pin matched no target";
}

TEST(VcWp, FirmwareContractsDischargeStatically) {
  app::FirmwareOptions Fw;
  Fw.Timeouts = true;
  bedrock2::Program P = app::buildFirmware(Fw);
  for (const char *Fn : {"spi_write", "spi_read"}) {
    FuncReport R = verifyFunction(P, Fn, "firmware");
    EXPECT_EQ(R.V, Verdict::Valid) << Fn << ": " << R.CexDetail;
    EXPECT_EQ(R.Unconfirmed, 0u) << Fn;
  }
}

// -- Determinism -------------------------------------------------------------

TEST(VcDeterminism, ReportsAreBitIdenticalAcrossReruns) {
  std::vector<FuncReport> A, B;
  for (const VcExample &E : vcExamples()) {
    A.push_back(verifyFunction(E.Prog, E.Func, E.Name));
    B.push_back(verifyFunction(E.Prog, E.Func, E.Name));
  }
  EXPECT_EQ(vcJson(A), vcJson(B));
  EXPECT_NE(vcJson(A).find("\"schema\":\"b2stack-vc-v2\""),
            std::string::npos);
}

// -- Staged discharge pipeline -----------------------------------------------

namespace {

/// Grows a random term pool over three full-range variables; returns the
/// arena refs plus the variable ids for building valuations.
std::vector<ExprRef> randomPool(ExprArena &A, support::Rng &R,
                                std::vector<unsigned> &VarIds) {
  std::vector<ExprRef> Pool;
  for (const char *N : {"x", "y", "z"}) {
    ExprRef V = A.var(N, VarOrigin::Param);
    VarIds.push_back(A.node(V).Lit);
    Pool.push_back(V);
  }
  Pool.push_back(A.constant(R.interestingWord()));
  const BinOp Mix[] = {BinOp::And, BinOp::Or,  BinOp::Xor, BinOp::Add,
                       BinOp::Sub, BinOp::Mul, BinOp::Sru, BinOp::Slu,
                       BinOp::Ltu, BinOp::Eq};
  for (unsigned I = 0; I != 12; ++I) {
    ExprRef L = Pool[R.below(uint32_t(Pool.size()))];
    ExprRef Rh = Pool[R.below(uint32_t(Pool.size()))];
    Pool.push_back(A.op(Mix[R.below(10)], L, Rh));
  }
  return Pool;
}

std::vector<Word> randomVals(support::Rng &R, size_t NumVars) {
  std::vector<Word> Vals(NumVars, 0);
  for (Word &V : Vals)
    V = R.interestingWord();
  return Vals;
}

} // namespace

TEST(VcDischarge, SimplifyPreservesEvaluationOnRandomDags) {
  // simplify() rebuilds terms with analysis facts substituted in; the
  // rewrite tier trusts it blindly, so it must be value-preserving under
  // every valuation — checked here on random DAGs and random models.
  support::Rng R(0x51392);
  for (unsigned Trial = 0; Trial != 40; ++Trial) {
    ExprArena A;
    std::vector<unsigned> VarIds;
    std::vector<ExprRef> Pool = randomPool(A, R, VarIds);
    ExprRef F = Pool.back();
    AbsDomain Dom(A);
    std::vector<ExprRef> Memo;
    ExprRef S = simplify(A, Dom, F, Memo);
    for (unsigned M = 0; M != 32; ++M) {
      std::vector<Word> Vals = randomVals(R, A.numVars());
      EXPECT_EQ(A.eval(F, Vals), A.eval(S, Vals))
          << "trial " << Trial << ": simplify changed the term's value";
    }
  }
}

TEST(VcDischarge, RefinedEvalIsSoundOnRandomContexts) {
  // The contextual tier asserts random conjuncts and claims condition
  // facts under them. Every claim is checked against sampled models: a
  // valuation satisfying the context must make a proved-nonzero
  // condition nonzero, and a "contradictory" context must reject every
  // sampled valuation.
  support::Rng R(0x8e41ed);
  unsigned Proofs = 0;
  for (unsigned Trial = 0; Trial != 60; ++Trial) {
    ExprArena A;
    std::vector<unsigned> VarIds;
    std::vector<ExprRef> Pool = randomPool(A, R, VarIds);
    ExprRef Ctx = A.toBool(Pool[R.below(uint32_t(Pool.size()))]);
    ExprRef Cond = Pool[R.below(uint32_t(Pool.size()))];
    AbsDomain Dom(A);
    RefinedEval Ref(A, Dom);
    Ref.begin();
    Ref.assertTrue(Ctx);
    bool Contra = Ref.contradiction();
    bool Proved = Ref.provesNonzero(Cond);
    for (unsigned M = 0; M != 64; ++M) {
      std::vector<Word> Vals = randomVals(R, A.numVars());
      if (A.eval(Ctx, Vals) == 0)
        continue;
      EXPECT_FALSE(Contra)
          << "trial " << Trial << ": satisfiable context called impossible";
      if (Proved) {
        ++Proofs;
        EXPECT_NE(A.eval(Cond, Vals), 0u)
            << "trial " << Trial << ": unsound contextual proof";
      }
    }
  }
  (void)Proofs; // Sampled claims; the targeted shapes below pin coverage.
}

TEST(VcDischarge, RefinedEvalProvesLoopMeasureShape) {
  // The shape every annotated poll loop discharges per iteration:
  // t - 1 <u t is unprovable alone (t == 0 wraps) but forced by the
  // in-scope loop condition t != 0 — including through the And-chain
  // and toBool normal forms the WP generator actually emits.
  ExprArena A;
  ExprRef T = A.var("havoc.t", VarOrigin::Havoc);
  ExprRef Busy = A.var("busy", VarOrigin::Param);
  ExprRef Dec = A.op(BinOp::Ltu, A.op(BinOp::Sub, T, A.constant(1)), T);
  AbsDomain Dom(A);
  {
    RefinedEval Ref(A, Dom);
    Ref.begin();
    EXPECT_FALSE(Ref.provesNonzero(Dec))
        << "t == 0 wraps: unprovable without the context";
  }
  {
    RefinedEval Ref(A, Dom);
    Ref.begin();
    // while (busy & (0 < t)) — the condition as toBool sees it.
    Ref.assertTrue(A.toBool(A.op(BinOp::And, A.toBool(Busy),
                                 A.op(BinOp::Ltu, A.constant(0), T))));
    EXPECT_FALSE(Ref.contradiction());
    EXPECT_TRUE(Ref.provesNonzero(Dec));
    EXPECT_TRUE(Ref.provesNonzero(A.toBool(Busy)))
        << "the And-chain asserts both operands";
  }
  {
    // A contradictory context (t == 3 and t < 2) proves anything.
    RefinedEval Ref(A, Dom);
    Ref.begin();
    Ref.assertTrue(A.eq(T, A.constant(3)));
    Ref.assertTrue(A.op(BinOp::Ltu, T, A.constant(2)));
    EXPECT_TRUE(Ref.contradiction());
  }
}

namespace {

/// Everything a discharge mode must reproduce bit for bit.
std::string reportFingerprint(const FuncReport &R) {
  std::string S = verdictName(R.V);
  S += "|" + std::to_string(R.Proved) + "|" + std::to_string(R.Unconfirmed);
  S += "|" + std::string(bedrock2::faultName(R.CexFault));
  for (Word A : R.CexArgs)
    S += "," + std::to_string(A);
  for (const ObReport &O : R.Obligations) {
    S += ";";
    S += obStatusName(O.Status);
    S += ":" + O.Where;
  }
  return S;
}

} // namespace

TEST(VcDischarge, StagedMatchesColdOnFullCorpus) {
  // The trust rule of the whole pipeline: the staged path (and each
  // partial stage) reproduces the exact verdicts, per-obligation
  // statuses, and replayed counterexample args of the cold path — over
  // the valid corpus AND every buggy example.
  VcOptions Cold;
  Cold.Discharge.Tiers = false;
  Cold.Discharge.Slice = false;
  Cold.Discharge.Cache = false;
  Cold.Discharge.Incremental = false;
  VcOptions NoSlice;
  NoSlice.Discharge.Slice = false;
  VcOptions NoCache;
  NoCache.Discharge.Cache = false;
  VcOptions Staged; // tools/vc default

  auto checkAll = [&](const bedrock2::Program &P, const std::string &Fn,
                      const std::string &Name) {
    std::string Want =
        reportFingerprint(verifyFunction(P, Fn, Name, Cold));
    EXPECT_EQ(Want, reportFingerprint(verifyFunction(P, Fn, Name, Staged)))
        << Name << " staged";
    EXPECT_EQ(Want,
              reportFingerprint(verifyFunction(P, Fn, Name, NoSlice)))
        << Name << " no-slice";
    EXPECT_EQ(Want,
              reportFingerprint(verifyFunction(P, Fn, Name, NoCache)))
        << Name << " no-cache";
  };
  for (const VcExample &E : vcExamples())
    checkAll(E.Prog, E.Func, E.Name);
  for (const VcBugExample &E : vcBugExamples())
    checkAll(E.Prog, E.Func, E.Name);
}

TEST(VcDischarge, WarmSharedCacheKeepsReportsIdentical) {
  // A shared solved-obligation cache warmed by an identical earlier run
  // must change nothing observable except the tier column: same verdict,
  // same statuses, and actual hits on the rerun.
  std::vector<VcExample> Ex = vcExamples();
  const VcExample *Abs = nullptr;
  for (const VcExample &E : Ex)
    if (E.Name == "absdiff")
      Abs = &E;
  ASSERT_NE(Abs, nullptr);
  DischargeCache Shared;
  VcOptions O;
  O.SharedCache = &Shared;
  FuncReport First = verifyFunction(Abs->Prog, Abs->Func, Abs->Name, O);
  FuncReport Warm = verifyFunction(Abs->Prog, Abs->Func, Abs->Name, O);
  EXPECT_EQ(First.V, Verdict::Valid);
  EXPECT_GT(Shared.size(), 0u) << "the first run must populate the cache";
  EXPECT_GT(Warm.Pipeline.CacheHits, 0u)
      << "the rerun must hit the warmed cache";
  EXPECT_EQ(reportFingerprint(First), reportFingerprint(Warm));
}

TEST(VcDischarge, ThreadCountDoesNotChangeReports) {
  // The fleet's group partition is a function of the obligation list
  // only, so the full report — verdicts, statuses, tiers, solver stats —
  // is bit-identical at any thread count.
  app::FirmwareOptions Fw;
  Fw.Timeouts = true;
  bedrock2::Program FW = app::buildFirmware(Fw);
  auto runAll = [&](unsigned Threads) {
    VcOptions O;
    O.Discharge.Threads = Threads;
    std::vector<FuncReport> Rs;
    for (const VcExample &E : vcExamples())
      Rs.push_back(verifyFunction(E.Prog, E.Func, E.Name, O));
    Rs.push_back(verifyFunction(FW, "lightbulb_loop", "firmware", O));
    return vcJson(Rs);
  };
  std::string T1 = runAll(1);
  EXPECT_EQ(T1, runAll(4));
  EXPECT_EQ(T1, runAll(8));
}

TEST(VcDischarge, DifferentialAuditCleanOnCorpus) {
  // Differential mode re-checks every fast-tier proof against the cold
  // solver and audits every slice partition from scratch. On a healthy
  // engine it finds nothing, and the verdicts stand.
  app::FirmwareOptions Fw;
  Fw.Timeouts = true;
  bedrock2::Program FW = app::buildFirmware(Fw);
  VcOptions O;
  O.Discharge.Differential = true;
  for (const VcExample &E : vcExamples()) {
    FuncReport R = verifyFunction(E.Prog, E.Func, E.Name, O);
    EXPECT_EQ(R.Pipeline.DiffMismatches, 0u) << E.Name << ": " << R.DiffDetail;
    EXPECT_EQ(R.V, Verdict::Valid) << E.Name;
  }
  FuncReport R = verifyFunction(FW, "spi_write", "firmware", O);
  EXPECT_EQ(R.Pipeline.DiffMismatches, 0u) << R.DiffDetail;
  EXPECT_EQ(R.V, Verdict::Valid);
}

TEST(VcDeterminism, VerdictsStableAcrossBudgets) {
  // A larger conflict budget may only move Unknown toward a definite
  // verdict, never flip Valid <-> Counterexample; on this corpus every
  // verdict is definite at both budgets, so they must be identical.
  for (const VcExample &E : vcExamples()) {
    VcOptions Small, Large;
    Small.Solve.ConflictBudget = 50'000;
    Large.Solve.ConflictBudget = 500'000;
    FuncReport RS = verifyFunction(E.Prog, E.Func, E.Name, Small);
    FuncReport RL = verifyFunction(E.Prog, E.Func, E.Name, Large);
    EXPECT_EQ(RS.V, RL.V) << E.Name;
    EXPECT_EQ(RS.Proved, RL.Proved) << E.Name;
  }
}
