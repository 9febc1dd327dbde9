//===- tests/test_compiler.cpp - Compiler phase and diff tests ----------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// The compiler-correctness "proof" of this reproduction: every phase has
// unit tests, and the whole pipeline is differentially tested against the
// source semantics on hand-written and randomly generated programs, in
// both the baseline and the optimizing configuration.
//
//===----------------------------------------------------------------------===//

#include "compiler/Asm.h"
#include "compiler/Compile.h"
#include "compiler/Flatten.h"
#include "compiler/Passes.h"
#include "compiler/RegAlloc.h"

#include "bedrock2/Dsl.h"
#include "bedrock2/Parser.h"
#include "devices/Platform.h"
#include "riscv/Step.h"
#include "verify/CompilerDiff.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

using namespace b2;
using namespace b2::bedrock2;
using namespace b2::bedrock2::dsl;
using namespace b2::compiler;
using namespace b2::verify;

namespace {

Program parseOrDie(const char *Src) {
  ParseResult R = parseProgram(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(*R.Prog);
}

/// Compiles and runs `Fn(Args)` on the ISA simulator, returning a0.
Word compileAndRun(const Program &P, const std::string &Fn,
                   const std::vector<Word> &Args,
                   const CompilerOptions &O = CompilerOptions::o0()) {
  CompileResult C =
      compileProgram(P, O, Entry::singleCall(Fn, Args), 64 * 1024);
  EXPECT_TRUE(C.ok()) << C.Error;
  if (!C.ok())
    return 0xDEAD;
  riscv::Machine M(64 * 1024);
  M.loadImage(0, C.Prog->image());
  riscv::NoDevice D;
  riscv::runToPc(M, D, C.Prog->HaltPc, 10'000'000);
  EXPECT_FALSE(M.hasUb()) << riscv::ubKindName(M.ubKind()) << " "
                          << M.ubDetail();
  EXPECT_EQ(M.getPc(), C.Prog->HaltPc);
  return M.getReg(10);
}

} // namespace

// -- Flattening ------------------------------------------------------------------

TEST(Flatten, ExpressionsBecomeThreeAddress) {
  Program P = parseOrDie("fn f(a, b) -> (r) { r = (a + b) * (a - b); }");
  FlatFunction F = flattenFunction(P.Functions.at("f"));
  // Only simple operations remain.
  std::function<void(const FStmt &)> Check = [&](const FStmt &S) {
    switch (S.K) {
    case FStmt::Kind::Seq:
      Check(*S.S1);
      Check(*S.S2);
      break;
    case FStmt::Kind::Op:
    case FStmt::Kind::Copy:
    case FStmt::Kind::Const:
    case FStmt::Kind::Skip:
      break;
    default:
      FAIL() << "unexpected FlatImp statement kind";
    }
  };
  Check(*F.Body);
  EXPECT_GE(F.NumVars, 5u); // a, b, r + temps.
}

TEST(Flatten, WhileConditionRecomputedInCondPre) {
  Program P = parseOrDie(
      "fn f() -> (r) { r = 0; while (r < 10) { r = r + 1; } }");
  FlatFunction F = flattenFunction(P.Functions.at("f"));
  // Find the While node and check its CondPre is nontrivial.
  std::function<const FStmt *(const FStmt &)> FindWhile =
      [&](const FStmt &S) -> const FStmt * {
    if (S.K == FStmt::Kind::While)
      return &S;
    if (S.K == FStmt::Kind::Seq) {
      if (const FStmt *W = FindWhile(*S.S1))
        return W;
      return FindWhile(*S.S2);
    }
    return nullptr;
  };
  const FStmt *W = FindWhile(*F.Body);
  ASSERT_NE(W, nullptr);
  EXPECT_NE(W->CondPre->K, FStmt::Kind::Skip);
}

// -- Assembler ---------------------------------------------------------------------

TEST(Asm, ResolvesForwardAndBackwardLabels) {
  Asm A;
  Label Fwd = A.newLabel();
  Label Back = A.newLabel();
  A.bind(Back);
  A.emit(isa::nop());
  A.emitBranch(isa::Opcode::Beq, isa::A0, isa::Zero, Fwd);
  A.emitJal(isa::Zero, Back);
  A.bind(Fwd);
  A.emit(isa::nop());
  std::string Err;
  auto Code = A.finish(Err);
  ASSERT_TRUE(Code.has_value()) << Err;
  EXPECT_EQ((*Code)[1].Imm, 8);  // Branch to Fwd: +2 instructions.
  EXPECT_EQ((*Code)[2].Imm, -8); // Jump to Back.
}

TEST(Asm, UnboundLabelIsError) {
  Asm A;
  Label L = A.newLabel();
  A.emitJal(isa::Zero, L);
  std::string Err;
  EXPECT_FALSE(A.finish(Err).has_value());
  EXPECT_NE(Err.find("unbound"), std::string::npos);
}

TEST(Asm, RelaxesFarBranches) {
  // A conditional branch over > 4 KiB of code must be relaxed into an
  // inverted branch + jal.
  Asm A;
  Label Far = A.newLabel();
  A.emitBranch(isa::Opcode::Beq, isa::A0, isa::Zero, Far);
  for (int I = 0; I != 2000; ++I)
    A.emit(isa::nop());
  A.bind(Far);
  A.emit(isa::nop());
  std::string Err;
  auto Code = A.finish(Err);
  ASSERT_TRUE(Code.has_value()) << Err;
  ASSERT_EQ(Code->size(), 2003u); // branch became 2 instructions.
  EXPECT_EQ((*Code)[0].Op, isa::Opcode::Bne); // Inverted.
  EXPECT_EQ((*Code)[0].Imm, 8);
  EXPECT_EQ((*Code)[1].Op, isa::Opcode::Jal);
}

TEST(Asm, ShortBranchesStayShort) {
  Asm A;
  Label L = A.newLabel();
  A.emitBranch(isa::Opcode::Bne, isa::A0, isa::Zero, L);
  A.emit(isa::nop());
  A.bind(L);
  A.emit(isa::nop());
  std::string Err;
  auto Code = A.finish(Err);
  ASSERT_TRUE(Code.has_value());
  EXPECT_EQ(Code->size(), 3u);
  EXPECT_EQ((*Code)[0].Op, isa::Opcode::Bne);
}

// -- Register allocation ---------------------------------------------------------

TEST(RegAlloc, FewVarsGetRegisters) {
  Program P = parseOrDie("fn f(a, b) -> (r) { r = a + b; }");
  FlatFunction F = flattenFunction(P.Functions.at("f"));
  Allocation A = allocateRegisters(F, RegAllocOptions());
  EXPECT_EQ(A.NumSlots, 0u);
  for (FVar V : F.Params)
    EXPECT_EQ(A.VarLoc[V].K, Location::Kind::Register);
}

TEST(RegAlloc, ManyLiveVarsSpill) {
  // 20 simultaneously live variables exceed the 12 callee-saved pool.
  std::string Src = "fn f() -> (r) {\n";
  for (int I = 0; I != 20; ++I)
    Src += "  v" + std::to_string(I) + " = " + std::to_string(I) + ";\n";
  Src += "  r = 0;\n";
  for (int I = 0; I != 20; ++I)
    Src += "  r = r + v" + std::to_string(I) + ";\n";
  Src += "}\n";
  Program P = parseOrDie(Src.c_str());
  FlatFunction F = flattenFunction(P.Functions.at("f"));
  Allocation A = allocateRegisters(F, RegAllocOptions());
  EXPECT_GT(A.NumSlots, 0u);
  // And the program still computes the right sum.
  EXPECT_EQ(compileAndRun(P, "f", {}), Word(190));
}

TEST(RegAlloc, CallerSavedOnlyInOptimizedMode) {
  Program P = parseOrDie("fn f(a, b) -> (r) { r = a + b; }");
  FlatFunction F = flattenFunction(P.Functions.at("f"));
  Allocation Base = allocateRegisters(F, RegAllocOptions());
  EXPECT_FALSE(Base.UsedCallerSavedPool);
  RegAllocOptions Opt;
  Opt.UseCallerSaved = true;
  Allocation Fast = allocateRegisters(F, Opt);
  EXPECT_TRUE(Fast.UsedCallerSavedPool);
  EXPECT_LT(Fast.UsedCalleeSaved.size(), Base.UsedCalleeSaved.size() + 1);
}

TEST(RegAlloc, CallCrossingVarsAvoidCallerSaved) {
  Program P = parseOrDie(R"(
    fn g() -> (r) { r = 1; }
    fn f(a) -> (r) {
      x = a * 3;
      y = g();
      r = x + y;
    }
  )");
  FlatFunction F = flattenFunction(P.Functions.at("f"));
  RegAllocOptions Opt;
  Opt.UseCallerSaved = true;
  Allocation A = allocateRegisters(F, Opt);
  // Find x (crosses the call): it must not be in t3..t6.
  for (FVar V = 0; V != F.NumVars; ++V) {
    if (V < F.VarNames.size() && F.VarNames[V] == "x") {
      ASSERT_EQ(A.VarLoc[V].K, Location::Kind::Register);
      EXPECT_FALSE(A.VarLoc[V].R >= isa::T3 && A.VarLoc[V].R <= isa::T6);
    }
  }
  EXPECT_EQ(compileAndRun(P, "f", {5},
                          [] {
                            CompilerOptions O;
                            O.UseCallerSaved = true;
                            return O;
                          }()),
            16u);
}

// -- End-to-end compilation --------------------------------------------------------

TEST(Compile, Gcd) {
  Program P = parseOrDie(R"(
    fn gcd(a, b) -> (r) {
      while (b != 0) { t = b; b = a % b; a = t; }
      r = a;
    }
  )");
  EXPECT_EQ(compileAndRun(P, "gcd", {1071, 462}), 21u);
  EXPECT_EQ(compileAndRun(P, "gcd", {0, 5}), 5u);
  EXPECT_EQ(compileAndRun(P, "gcd", {7, 0}), 7u);
}

TEST(Compile, Fibonacci) {
  Program P = parseOrDie(R"(
    fn fib(n) -> (r) {
      a = 0; b = 1;
      while (n != 0) { t = a + b; a = b; b = t; n = n - 1; }
      r = a;
    }
  )");
  EXPECT_EQ(compileAndRun(P, "fib", {10}), 55u);
  EXPECT_EQ(compileAndRun(P, "fib", {0}), 0u);
  EXPECT_EQ(compileAndRun(P, "fib", {47}), 2971215073u);
}

TEST(Compile, SubtractImmediateIncludingIntMin) {
  // Subtracting a constant folds into addi of its negation when that fits
  // 12 bits. 0x80000000 has no signed negation: codegen must negate in
  // Word arithmetic (no signed overflow) and fall back to a register sub.
  Program P = parseOrDie(R"(
    fn small(x) -> (r) { r = x - 5; }
    fn intmin(x) -> (r) { r = x - 0x80000000; }
  )");
  for (const CompilerOptions &O :
       {CompilerOptions::o0(), CompilerOptions::o3()}) {
    EXPECT_EQ(compileAndRun(P, "small", {3}, O), Word(-2));
    EXPECT_EQ(compileAndRun(P, "intmin", {5}, O), 0x80000005u);
    EXPECT_EQ(compileAndRun(P, "intmin", {0x80000000u}, O), 0u);
  }
}

TEST(Compile, MemcpyViaStackalloc) {
  Program P = parseOrDie(R"(
    fn f() -> (r) {
      stackalloc src[32] {
        stackalloc dst[32] {
          i = 0;
          while (i < 32) { store1(src + i, i * 7); i = i + 1; }
          i = 0;
          while (i < 32) { store1(dst + i, load1(src + i)); i = i + 1; }
          r = load1(dst + 31);
        }
      }
    }
  )");
  EXPECT_EQ(compileAndRun(P, "f", {}), Word((31 * 7) & 0xFF));
}

TEST(Compile, RecursionIsRejected) {
  Program P = parseOrDie(R"(
    fn f(n) -> (r) { r = f(n); }
  )");
  CompileResult C = compileProgram(P, CompilerOptions::o0(),
                                   Entry::singleCall("f", {1}), 65536);
  EXPECT_FALSE(C.ok());
  EXPECT_NE(C.Error.find("recursion"), std::string::npos);
}

TEST(Compile, MutualRecursionIsRejected) {
  Program P = parseOrDie(R"(
    fn f(n) -> (r) { r = g(n); }
    fn g(n) -> (r) { r = f(n); }
  )");
  CompileResult C = compileProgram(P, CompilerOptions::o0(),
                                   Entry::singleCall("f", {1}), 65536);
  EXPECT_FALSE(C.ok());
}

TEST(Compile, UndefinedCalleeIsRejected) {
  Program P = parseOrDie("fn f() -> (r) { r = ghost(); }");
  CompileResult C = compileProgram(P, CompilerOptions::o0(),
                                   Entry::singleCall("f"), 65536);
  EXPECT_FALSE(C.ok());
}

TEST(Compile, StackBoundAccountsForCallChain) {
  Program P = parseOrDie(R"(
    fn leaf() -> (r) { stackalloc b[256] { r = load4(b); } }
    fn mid() -> (r) { r = leaf(); }
    fn top() -> (r) { r = mid(); }
  )");
  CompileResult C = compileProgram(P, CompilerOptions::o0(),
                                   Entry::singleCall("top"), 65536);
  ASSERT_TRUE(C.ok()) << C.Error;
  // At least leaf's 256-byte buffer plus three frames.
  EXPECT_GE(C.Prog->MaxStackBytes, 256u + 3 * 16);
}

TEST(Compile, TooSmallRamIsRejected) {
  Program P = parseOrDie(
      "fn f() -> (r) { stackalloc b[2048] { r = load4(b); } }");
  CompileResult C = compileProgram(P, CompilerOptions::o0(),
                                   Entry::singleCall("f"), 2048);
  EXPECT_FALSE(C.ok());
  EXPECT_NE(C.Error.find("does not fit"), std::string::npos);
}

TEST(Compile, EventLoopEntryLoopsForever) {
  Program P = parseOrDie(R"(
    fn init() -> (r) { extern MMIOWRITE(0x10012008, 1); r = 0; }
    fn tick() -> (r) { extern MMIOWRITE(0x1001200C, 1); r = 0; }
  )");
  CompileResult C = compileProgram(P, CompilerOptions::o0(),
                                   Entry::eventLoop("init", "tick"), 65536);
  ASSERT_TRUE(C.ok()) << C.Error;
  devices::Platform Plat;
  riscv::Machine M(65536);
  M.loadImage(0, C.Prog->image());
  riscv::run(M, Plat, 2000);
  EXPECT_FALSE(M.hasUb()) << M.ubDetail();
  // init once, tick many times.
  unsigned InitWrites = 0, TickWrites = 0;
  for (const riscv::MmioEvent &E : M.trace()) {
    if (E.Addr == 0x10012008)
      ++InitWrites;
    if (E.Addr == 0x1001200C)
      ++TickWrites;
  }
  EXPECT_EQ(InitWrites, 1u);
  EXPECT_GT(TickWrites, 10u);
}

// -- Optimization passes -----------------------------------------------------------

TEST(Passes, ConstantPropagationFolds) {
  Program P = parseOrDie("fn f() -> (r) { a = 3; b = 4; r = a * b + 2; }");
  FlatFunction F = flattenFunction(P.Functions.at("f"));
  FlatFunction G = constantPropagation(F);
  // After constprop + DCE the body should be tiny.
  FlatFunction H = deadCodeElim(G);
  EXPECT_LT(flatSize(*H.Body), flatSize(*F.Body));
  EXPECT_EQ(compileAndRun(P, "f", {}, CompilerOptions::o3()), 14u);
}

TEST(Passes, DceKeepsSideEffects) {
  Program P = parseOrDie(R"(
    fn f() -> (r) {
      dead = 1 + 2;
      extern MMIOWRITE(0x10012008, 9);
      r = 5;
    }
  )");
  CompileResult C = compileProgram(P, CompilerOptions::o3(),
                                   Entry::singleCall("f"), 65536);
  ASSERT_TRUE(C.ok());
  devices::Platform Plat;
  riscv::Machine M(65536);
  M.loadImage(0, C.Prog->image());
  riscv::runToPc(M, Plat, C.Prog->HaltPc);
  ASSERT_EQ(M.trace().size(), 1u); // The MMIO write survived DCE.
  EXPECT_EQ(M.getReg(10), 5u);
}

TEST(Passes, InliningRemovesCalls) {
  Program P = parseOrDie(R"(
    fn sq(x) -> (r) { r = x * x; }
    fn f(a) -> (r) {
      u = sq(a);
      v = sq(a + 1);
      r = u + v;
    }
  )");
  Program Q = inlineCalls(P, 100);
  // f should no longer contain calls.
  std::function<bool(const Stmt &)> HasCall = [&](const Stmt &S) {
    switch (S.K) {
    case Stmt::Kind::Call:
      return true;
    case Stmt::Kind::Seq:
    case Stmt::Kind::If:
      return HasCall(*S.S1) || HasCall(*S.S2);
    case Stmt::Kind::While:
    case Stmt::Kind::Stackalloc:
      return HasCall(*S.S1);
    default:
      return false;
    }
  };
  EXPECT_FALSE(HasCall(*Q.Functions.at("f").Body));
  EXPECT_EQ(compileAndRun(P, "f", {3}, CompilerOptions::o3()), 9u + 16u);
}

TEST(Passes, OptimizedCodeIsSmallerOrFasterOnKernels) {
  Program P = parseOrDie(R"(
    fn poll() -> (r) {
      mask = 1 << 31;
      addr = 0x10024048;
      r = mask | addr;
    }
  )");
  CompileResult O0 = compileProgram(P, CompilerOptions::o0(),
                                    Entry::singleCall("poll"), 65536);
  CompileResult O3 = compileProgram(P, CompilerOptions::o3(),
                                    Entry::singleCall("poll"), 65536);
  ASSERT_TRUE(O0.ok() && O3.ok());
  EXPECT_LT(O3.Prog->CodeBytes, O0.Prog->CodeBytes);
}

// -- Differential property tests -----------------------------------------------------

TEST(CompilerDiff, HandwrittenProgramsAgree) {
  const char *Sources[] = {
      "fn f(a, b) -> (r) { r = a / b + a % b; }",
      "fn f(a, b) -> (r) { r = (a <s b) + (a < b) + (a == b); }",
      "fn f(a, b) -> (r) { r = a >>s 3 ^ b << 2; }",
      R"(fn f(a, b) -> (r) {
           r = 0;
           stackalloc buf[64] {
             i = 0;
             while (i < 16) { store4(buf + i * 4, a + i); i = i + 1; }
             i = 0;
             while (i < 16) { r = r + load4(buf + i * 4); i = i + 1; }
           }
         })",
      R"(fn g(x) -> (r, s) { r = x + 1; s = x * 2; }
         fn f(a, b) -> (r) { p, q = g(a); r = p ^ q ^ b; })",
  };
  support::Rng Rng(0xD1FF);
  for (const char *Src : Sources) {
    Program P = parseOrDie(Src);
    for (int K = 0; K != 8; ++K) {
      std::vector<Word> Args = {Rng.interestingWord(), Rng.interestingWord()};
      for (CompilerOptions O :
           {CompilerOptions::o0(), CompilerOptions::o3()}) {
        DiffOptions DO;
        DO.Compiler = O;
        DiffResult R = diffCompilePure(P, "f", Args, DO);
        ASSERT_TRUE(R.Ok) << Src << "\nargs " << Args[0] << ", " << Args[1]
                          << "\n" << R.Error;
        ASSERT_TRUE(R.Source.ok()) << "source UB in " << Src;
      }
    }
  }
}

TEST(CompilerDiff, RandomProgramsAgreeO0) {
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    b2::testing::RandomProgramGen Gen(Seed);
    Program P = Gen.generate();
    support::Rng Rng(Seed * 31);
    std::vector<Word> Args = {Rng.interestingWord(), Rng.interestingWord()};
    DiffResult R = diffCompilePure(P, "main", Args);
    ASSERT_TRUE(R.Ok) << "seed " << Seed << ": " << R.Error;
    ASSERT_TRUE(R.Source.ok())
        << "seed " << Seed << " unexpectedly UB: "
        << bedrock2::faultName(R.Source.F) << " " << R.Source.Detail;
  }
}

TEST(CompilerDiff, RandomProgramsAgreeO3) {
  for (uint64_t Seed = 100; Seed <= 160; ++Seed) {
    b2::testing::RandomProgramGen Gen(Seed);
    Program P = Gen.generate();
    support::Rng Rng(Seed * 17);
    std::vector<Word> Args = {Rng.interestingWord(), Rng.interestingWord()};
    DiffOptions DO;
    DO.Compiler = CompilerOptions::o3();
    DiffResult R = diffCompilePure(P, "main", Args, DO);
    ASSERT_TRUE(R.Ok) << "seed " << Seed << ": " << R.Error;
    ASSERT_TRUE(R.Source.ok()) << "seed " << Seed;
  }
}

TEST(CompilerDiff, RandomMmioProgramsKeepTraceOrder) {
  b2::testing::RandomProgramOptions RO;
  RO.UseMmio = true;
  for (uint64_t Seed = 200; Seed <= 230; ++Seed) {
    b2::testing::RandomProgramGen Gen(Seed, RO);
    Program P = Gen.generate();
    DiffOptions DO;
    DiffResult R = diffCompile(
        P, "main", {Word(Seed & 0xFF), Word(~Seed & 0xFF)},
        [] { return std::make_unique<devices::Platform>(); }, DO);
    ASSERT_TRUE(R.Ok) << "seed " << Seed << ": " << R.Error;
    ASSERT_TRUE(R.Source.ok()) << "seed " << Seed;
  }
}
