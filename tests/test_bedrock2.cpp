//===- tests/test_bedrock2.cpp - Source language tests -------------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "bedrock2/Ast.h"
#include "bedrock2/CExport.h"
#include "bedrock2/Dsl.h"
#include "bedrock2/Parser.h"
#include "bedrock2/Semantics.h"

#include "devices/MemoryMap.h"
#include "compiler/Flatten.h"
#include "devices/Platform.h"
#include "verify/CompilerDiff.h"

#include <gtest/gtest.h>

using namespace b2;
using namespace b2::bedrock2;
using namespace b2::bedrock2::dsl;

namespace {

/// Runs \p P's function \p Fn with a no-I/O device.
ExecResult runPure(const Program &P, const std::string &Fn,
                   const std::vector<Word> &Args,
                   const StackallocPolicy &Policy = StackallocPolicy()) {
  riscv::NoDevice Dev;
  MmioExtSpec Ext(Dev, 64 * 1024);
  // Differential mode: every semantics test exercises the AST walker and
  // the bytecode engine and demands bit-identical results.
  Interp I(P, Ext, 1'000'000, Policy, ExecMode::Differential);
  ExecResult R = I.callFunction(Fn, Args);
  EXPECT_EQ(I.divergenceCount(), 0u) << I.divergence();
  return R;
}

Program progWith(Function F) {
  Program P;
  P.add(std::move(F));
  return P;
}

} // namespace

TEST(Interp, ArithmeticAndLocals) {
  V a("a"), b("b"), r("r");
  Program P = progWith(fn("f", {"a", "b"}, {"r"},
                          block({r = (a + b) * lit(2)})));
  ExecResult R = runPure(P, "f", {3, 4});
  ASSERT_TRUE(R.ok()) << R.Detail;
  EXPECT_EQ(R.Rets[0], 14u);
}

TEST(Interp, AllBinOpsEvaluate) {
  EXPECT_EQ(evalBinOp(BinOp::Add, 3, 4), 7u);
  EXPECT_EQ(evalBinOp(BinOp::Sub, 3, 4), Word(-1));
  EXPECT_EQ(evalBinOp(BinOp::Mul, 3, 4), 12u);
  EXPECT_EQ(evalBinOp(BinOp::MulHuu, 0xFFFFFFFF, 0xFFFFFFFF), 0xFFFFFFFEu);
  EXPECT_EQ(evalBinOp(BinOp::Divu, 7, 2), 3u);
  EXPECT_EQ(evalBinOp(BinOp::Divu, 7, 0), 0xFFFFFFFFu); // RISC-V choice.
  EXPECT_EQ(evalBinOp(BinOp::Remu, 7, 0), 7u);
  EXPECT_EQ(evalBinOp(BinOp::Sru, 0x80000000, 31), 1u);
  EXPECT_EQ(evalBinOp(BinOp::Srs, 0x80000000, 31), 0xFFFFFFFFu);
  EXPECT_EQ(evalBinOp(BinOp::Lts, Word(-1), 1), 1u);
  EXPECT_EQ(evalBinOp(BinOp::Ltu, Word(-1), 1), 0u);
  EXPECT_EQ(evalBinOp(BinOp::Eq, 5, 5), 1u);
}

TEST(Interp, WhileLoopTerminates) {
  V i("i"), sum("sum"), r("r");
  Program P = progWith(fn("f", {}, {"r"},
                          block({
                              i = lit(10),
                              sum = lit(0),
                              whileLoop(i, block({
                                            sum = sum + i,
                                            i = i - lit(1),
                                        })),
                              r = sum,
                          })));
  ExecResult R = runPure(P, "f", {});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Rets[0], 55u);
}

TEST(Interp, InfiniteLoopRunsOutOfFuel) {
  V r("r");
  Program P = progWith(fn("f", {}, {"r"},
                          block({
                              r = lit(1),
                              whileLoop(lit(1), block({r = r + lit(1)})),
                          })));
  ExecResult R = runPure(P, "f", {});
  EXPECT_EQ(R.F, Fault::OutOfFuel);
}

TEST(Interp, UnboundVariableIsFault) {
  Program P = progWith(fn("f", {}, {"r"},
                          block({Stmt::set("r", Expr::var("ghost"))})));
  ExecResult R = runPure(P, "f", {});
  EXPECT_EQ(R.F, Fault::UnboundVariable);
}

TEST(Interp, StackallocGivesOwnedZeroedMemory) {
  V buf("buf"), r("r");
  Program P = progWith(fn("f", {}, {"r"},
                          block({stackalloc(buf, 16,
                                            block({
                                                store4(buf, lit(0x1234)),
                                                r = load4(buf) + load1(buf),
                                            }))})));
  ExecResult R = runPure(P, "f", {});
  ASSERT_TRUE(R.ok()) << R.Detail;
  EXPECT_EQ(R.Rets[0], 0x1234u + 0x34u);
}

TEST(Interp, StoreOutsideFootprintIsFault) {
  // The paper's buffer-overrun class of bug: writing one past the buffer.
  V buf("buf"), r("r");
  Program P = progWith(fn("f", {}, {"r"},
                          block({
                              r = lit(0),
                              stackalloc(buf, 16,
                                         store4(buf + lit(16), lit(1))),
                          })));
  ExecResult R = runPure(P, "f", {});
  EXPECT_EQ(R.F, Fault::StoreOutsideFootprint);
}

TEST(Interp, LoadAfterScopeExitIsFault) {
  // Ownership ends with the stackalloc block.
  V buf("buf"), p("p"), r("r");
  Program P = progWith(fn("f", {}, {"r"},
                          block({
                              stackalloc(buf, 16, block({p = buf})),
                              r = load4(p),
                          })));
  ExecResult R = runPure(P, "f", {});
  EXPECT_EQ(R.F, Fault::LoadOutsideFootprint);
}

TEST(Interp, MisalignedAccessIsFault) {
  V buf("buf"), r("r");
  Program P = progWith(fn("f", {}, {"r"},
                          block({
                              r = lit(0),
                              stackalloc(buf, 16,
                                         block({r = load4(buf + lit(2))})),
                          })));
  ExecResult R = runPure(P, "f", {});
  EXPECT_EQ(R.F, Fault::MisalignedAccess);
}

TEST(Interp, StackallocAddressVariesWithPolicyButBehaviorMustNot) {
  V buf("buf"), r("r");
  Program P = progWith(fn("f", {}, {"r"},
                          block({stackalloc(buf, 16,
                                            block({
                                                store4(buf, lit(7)),
                                                r = load4(buf),
                                            }))})));
  StackallocPolicy P1, P2;
  P2.Salt = 1024;
  ExecResult R1 = runPure(P, "f", {}, P1);
  ExecResult R2 = runPure(P, "f", {}, P2);
  ASSERT_TRUE(R1.ok() && R2.ok());
  EXPECT_EQ(R1.Rets[0], R2.Rets[0]);
}

TEST(Interp, CallsPassTuplesBothWays) {
  V a("a"), q("q"), m("m"), x("x"), y("y"), r("r");
  Program P;
  P.add(fn("divmod", {"a"}, {"q", "m"},
           block({q = divu(a, lit(10)), m = remu(a, lit(10))})));
  P.add(fn("main", {}, {"r"},
           block({
               call({"x", "y"}, "divmod", {lit(1234)}),
               r = x * lit(100) + y,
           })));
  ExecResult R = runPure(P, "main", {});
  ASSERT_TRUE(R.ok()) << R.Detail;
  EXPECT_EQ(R.Rets[0], 12300u + 4u);
}

TEST(Interp, UnknownFunctionIsFault) {
  Program P = progWith(fn("f", {}, {},
                          block({call({}, "nonexistent", {})})));
  ExecResult R = runPure(P, "f", {});
  EXPECT_EQ(R.F, Fault::UnknownFunction);
}

TEST(Interp, ArityMismatchIsFault) {
  Program P;
  P.add(fn("g", {"a"}, {}, Stmt::skip()));
  P.add(fn("f", {}, {}, block({call({}, "g", {})})));
  ExecResult R = runPure(P, "f", {});
  EXPECT_EQ(R.F, Fault::ArityMismatch);
}

TEST(Interp, DivByZeroCounted) {
  V r("r");
  Program P = progWith(fn("f", {"a"}, {"r"},
                          block({r = divu(Expr::var("a"), lit(0))})));
  ExecResult R = runPure(P, "f", {7});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Rets[0], 0xFFFFFFFFu);
  EXPECT_EQ(R.DivByZeroCount, 1u);
}

TEST(ExtSpec, MmioContractRejectsNonMmioAddress) {
  V r("r");
  Program P = progWith(fn("f", {}, {"r"},
                          block({
                              r = lit(0),
                              mmioRead(r, lit(0x100)), // RAM, not MMIO.
                          })));
  devices::Platform Plat;
  MmioExtSpec Ext(Plat, 64 * 1024);
  Interp I(P, Ext);
  ExecResult R = I.callFunction("f", {});
  EXPECT_EQ(R.F, Fault::ExtContractViolation);
}

TEST(ExtSpec, MmioContractRejectsMisaligned) {
  V r("r");
  Program P = progWith(fn("f", {}, {"r"},
                          block({
                              r = lit(0),
                              mmioRead(r, lit(devices::SpiRxData + 2)),
                          })));
  devices::Platform Plat;
  MmioExtSpec Ext(Plat, 64 * 1024);
  Interp I(P, Ext);
  ExecResult R = I.callFunction("f", {});
  EXPECT_EQ(R.F, Fault::ExtContractViolation);
}

TEST(ExtSpec, MmioTraceRecordsTriples) {
  V r("r");
  Program P = progWith(fn("f", {}, {"r"},
                          block({
                              mmioWrite(lit(devices::GpioOutputVal), lit(5)),
                              mmioRead(r, lit(devices::GpioOutputVal)),
                          })));
  devices::Platform Plat;
  MmioExtSpec Ext(Plat, 64 * 1024);
  Interp I(P, Ext);
  ExecResult R = I.callFunction("f", {});
  ASSERT_TRUE(R.ok()) << R.Detail;
  EXPECT_EQ(R.Rets[0], 5u);
  ASSERT_EQ(Ext.mmioTrace().size(), 2u);
  EXPECT_TRUE(Ext.mmioTrace()[0].IsStore);
  EXPECT_FALSE(Ext.mmioTrace()[1].IsStore);
  // The source-level interaction trace is recorded too (section 5.2).
  ASSERT_EQ(R.Trace.size(), 2u);
  EXPECT_EQ(R.Trace[0].Action, "MMIOWRITE");
  EXPECT_EQ(R.Trace[1].Action, "MMIOREAD");
}

TEST(Footprint, OwnDisownRoundTrip) {
  Footprint F;
  F.own(100, 8);
  EXPECT_TRUE(F.owns(100, 8));
  EXPECT_FALSE(F.owns(99, 1));
  EXPECT_FALSE(F.owns(100, 9));
  F.writeLe(100, 4, 0xAABBCCDD);
  EXPECT_EQ(F.readLe(100, 4), 0xAABBCCDDu);
  EXPECT_EQ(F.readLe(100, 2), 0xCCDDu);
  F.disown(100, 8);
  EXPECT_FALSE(F.owns(100, 1));
}

// -- Parser -------------------------------------------------------------------

TEST(Parser, ParsesFunctionsAndExpressions) {
  ParseResult R = parseProgram(R"(
    fn add3(a, b, c) -> (r) {
      r = a + b + c;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  ExecResult E = runPure(*R.Prog, "add3", {1, 2, 3});
  ASSERT_TRUE(E.ok());
  EXPECT_EQ(E.Rets[0], 6u);
}

TEST(Parser, PrecedenceMatchesC) {
  ParseResult R = parseProgram("fn f() -> (r) { r = 2 + 3 * 4; }");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(runPure(*R.Prog, "f", {}).Rets[0], 14u);
  R = parseProgram("fn f() -> (r) { r = (2 + 3) * 4; }");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(runPure(*R.Prog, "f", {}).Rets[0], 20u);
  R = parseProgram("fn f() -> (r) { r = 1 << 2 + 3; }"); // + binds tighter.
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(runPure(*R.Prog, "f", {}).Rets[0], 32u);
}

TEST(Parser, HexLiteralsAndComments) {
  ParseResult R = parseProgram(R"(
    // line comment
    fn f() -> (r) {
      /* block
         comment */
      r = 0xFF & 0x0f;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(runPure(*R.Prog, "f", {}).Rets[0], 0x0Fu);
}

TEST(Parser, ControlFlowAndCalls) {
  ParseResult R = parseProgram(R"(
    fn abs_diff(a, b) -> (r) {
      if (a < b) {
        r = b - a;
      } else {
        r = a - b;
      }
    }
    fn main() -> (r) {
      x = 0;
      i = 5;
      while (i != 0) {
        t = abs_diff(i, 3);
        x = x + t;
        i = i - 1;
      }
      r = x;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  // |5-3|+|4-3|+|3-3|+|2-3|+|1-3| = 2+1+0+1+2 = 6.
  EXPECT_EQ(runPure(*R.Prog, "main", {}).Rets[0], 6u);
}

TEST(Parser, StackallocLoadsStores) {
  ParseResult R = parseProgram(R"(
    fn f() -> (r) {
      stackalloc buf[8] {
        store4(buf, 0xCAFE);
        store1(buf + 4, 0x7F);
        r = load4(buf) + load1(buf + 4);
      }
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(runPure(*R.Prog, "f", {}).Rets[0], 0xCAFEu + 0x7Fu);
}

TEST(Parser, ExternCalls) {
  ParseResult R = parseProgram(R"(
    fn f() -> (r) {
      extern MMIOWRITE(0x10012008, 42);
      r = extern MMIOREAD(0x10012008);
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  const Function &F = R.Prog->Functions.at("f");
  // Body is (seq interact interact-set).
  EXPECT_EQ(F.Body->S1->K, Stmt::Kind::Interact);
}

TEST(Parser, MultipleReturnsAndDestinations) {
  ParseResult R = parseProgram(R"(
    fn divmod(a, b) -> (q, m) {
      q = a / b;
      m = a % b;
    }
    fn main() -> (r) {
      x, y = divmod(47, 10);
      r = x * 16 + y;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(runPure(*R.Prog, "main", {}).Rets[0], 4u * 16 + 7);
}

TEST(Parser, ReportsErrorsWithLine) {
  ParseResult R = parseProgram("fn f() -> (r) {\n  r = ;\n}");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("line 2"), std::string::npos) << R.Error;
  R = parseProgram("fn f( { }");
  EXPECT_FALSE(R.ok());
  R = parseProgram("fn f() {} fn f() {}");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("duplicate"), std::string::npos);
  // The interpreter's stackalloc size rule (Fault::StackallocMisuse),
  // stated for a literal size.
  R = parseProgram("fn f() -> (r) {\n  stackalloc p[6] { r = p; }\n}");
  EXPECT_EQ(R.Error, "line 2: stackalloc size 6 is 0 or not a multiple of 4");
}

// Hostile nesting is a located parse error, not a stack overflow in the
// recursive-descent parser or in the passes that walk the tree later.
TEST(Parser, DeepParenthesesAreALocatedError) {
  const size_t N = 200'000;
  ParseResult R = parseProgram("fn f() -> (r) {\n  r = " +
                               std::string(N, '(') + "1" +
                               std::string(N, ')') + ";\n}");
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Error.rfind("line 2: nesting deeper than", 0), 0u) << R.Error;
  // Loads nest too.
  std::string Loads;
  for (size_t I = 0; I != N; ++I)
    Loads += "load4(";
  R = parseProgram("fn f() -> (r) { r = " + Loads + "0" +
                   std::string(N, ')') + "; }");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("nesting deeper than"), std::string::npos)
      << R.Error;
  // Moderate nesting still parses and runs.
  R = parseProgram("fn f() -> (r) { r = " + std::string(200, '(') + "7" +
                   std::string(200, ')') + "; }");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(runPure(*R.Prog, "f", {}).Rets, std::vector<Word>{7});
}

TEST(Parser, DeepNestedBlocksAreALocatedError) {
  std::string Open, Close;
  for (size_t I = 0; I != 200'000; ++I) {
    Open += "if (1) {\n";
    Close += "}";
  }
  ParseResult R = parseProgram("fn f() -> (r) {\n  r = 0;\n" + Open +
                               "r = 1;" + Close + "}");
  EXPECT_FALSE(R.ok());
  // The function body is one level, so the 256th `if` is the first too
  // deep; it sits on line 258.
  EXPECT_EQ(R.Error.rfind("line 258: nesting deeper than 256 levels", 0), 0u)
      << R.Error;
  Open.clear();
  Close.clear();
  for (size_t I = 0; I != 200; ++I) {
    Open += "while (r < 1) { ";
    Close += "}";
  }
  R = parseProgram("fn f() -> (r) { r = 0; " + Open + "r = 1;" + Close +
                   "}");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(runPure(*R.Prog, "f", {}).Rets, std::vector<Word>{1});
}

// Length is depth too (a block is a right-nested Seq chain, an operator
// chain a left-nested Expr), so long flat programs are capped as well:
// at the cap they parse, compile and run; one past it is a located error.
TEST(Parser, LongBlocksAreALocatedError) {
  auto Block = [](size_t Statements) {
    std::string Src = "fn f() -> (r) {\nr = 0;\n";
    for (size_t I = 1; I != Statements; ++I)
      Src += "r = r + 1;\n";
    return Src + "}";
  };
  ParseResult R = parseProgram(Block(2048));
  ASSERT_TRUE(R.ok()) << R.Error;
  verify::DiffResult D = verify::diffCompilePure(*R.Prog, "f", {});
  ASSERT_TRUE(D.Ok) << D.Error;
  EXPECT_EQ(D.MachineRets, std::vector<Word>{2047});
  // The 2049th statement sits on line 2050.
  R = parseProgram(Block(2049));
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "line 2050: more than 2048 statements in a block and "
                     "its enclosing blocks");
  // Enclosing blocks' statements count: the Seq chain runs through them.
  std::string Src = "fn f() -> (r) {\nr = 0;\nif (1) {\n";
  for (size_t I = 0; I != 2047; ++I)
    Src += "r = r + 1;\n";
  R = parseProgram(Src + "}\n}");
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Error.rfind("line 2050: more than 2048 statements", 0), 0u)
      << R.Error;
}

TEST(Parser, LongOperatorChainsAreALocatedError) {
  auto Chain = [](size_t Operators) {
    std::string Src = "fn f() -> (r) {\nr = 1";
    for (size_t I = 0; I != Operators; ++I)
      Src += " + 1";
    return Src + ";\n}";
  };
  ParseResult R = parseProgram(Chain(1024));
  ASSERT_TRUE(R.ok()) << R.Error;
  verify::DiffResult D = verify::diffCompilePure(*R.Prog, "f", {});
  ASSERT_TRUE(D.Ok) << D.Error;
  EXPECT_EQ(D.MachineRets, std::vector<Word>{1025});
  // Flattened, the chain is one Seq spine of ~2,000 statements.
  EXPECT_NE(compiler::toString(compiler::flattenFunction(*R.Prog->find("f")))
                .find("r#"),
            std::string::npos);
  R = parseProgram(Chain(1025));
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Error,
            "line 2: more than 1024 binary operators in one statement");
  // Operators inside parentheses and loads count toward their statement.
  std::string Nested = "fn f() -> (r) { store4(load4(0";
  for (size_t I = 0; I != 512; ++I)
    Nested += " + 1";
  Nested += "), (1";
  for (size_t I = 0; I != 513; ++I)
    Nested += " * 1";
  R = parseProgram(Nested + ")); }");
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Error.rfind("line 1: more than 1024 binary operators", 0), 0u)
      << R.Error;
}

TEST(Parser, PrintParseRoundTrip) {
  // toString output reparses to a behaviorally identical program.
  ParseResult R1 = parseProgram(R"(
    fn f(a) -> (r) {
      stackalloc buf[16] {
        store4(buf, a * 3);
        if (load4(buf) < 10) {
          r = 1;
        } else {
          r = load4(buf);
        }
      }
    }
  )");
  ASSERT_TRUE(R1.ok()) << R1.Error;
  std::string Printed = toString(*R1.Prog);
  ParseResult R2 = parseProgram(Printed);
  ASSERT_TRUE(R2.ok()) << R2.Error << "\nsource was:\n" << Printed;
  for (Word A : {Word(1), Word(5), Word(1000)}) {
    ExecResult E1 = runPure(*R1.Prog, "f", {A});
    ExecResult E2 = runPure(*R2.Prog, "f", {A});
    ASSERT_TRUE(E1.ok() && E2.ok());
    EXPECT_EQ(E1.Rets, E2.Rets) << "arg " << A;
  }
}

// -- C export -------------------------------------------------------------------

TEST(CExport, EmitsCompilableLookingC) {
  V a("a"), r("r");
  Program P = progWith(fn("f", {"a"}, {"r"},
                          block({r = a + lit(1)})));
  std::string C = exportC(P);
  EXPECT_NE(C.find("#include <stdint.h>"), std::string::npos);
  EXPECT_NE(C.find("uintptr_t f(uintptr_t a)"), std::string::npos);
  EXPECT_NE(C.find("return r;"), std::string::npos);
}

TEST(CExport, MultipleReturnsUseOutPointers) {
  V a("a"), q("q"), m("m");
  Program P = progWith(fn("divmod", {"a"}, {"q", "m"},
                          block({q = divu(a, lit(10)),
                                 m = remu(a, lit(10))})));
  std::string C = exportC(P);
  EXPECT_NE(C.find("uintptr_t *_out_m"), std::string::npos);
  EXPECT_NE(C.find("*_out_m = m;"), std::string::npos);
}

TEST(CExport, MmioBecomesVolatile) {
  V r("r");
  Program P = progWith(fn("f", {}, {"r"},
                          block({
                              mmioWrite(lit(0x10012008), lit(1)),
                              mmioRead(r, lit(0x10012008)),
                          })));
  std::string C = exportC(P);
  EXPECT_NE(C.find("volatile uint32_t"), std::string::npos);
}
