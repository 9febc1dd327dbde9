//===- bedrock2/Ast.h - Bedrock2 abstract syntax ---------------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax of Bedrock2, the paper's "minimal C-like language"
/// (section 5.2): expressions over a single type `word`, memory loads and
/// stores of 1/2/4 bytes, if/while/sequencing, calls to Bedrock2-defined
/// procedures with tuple returns, and the syntactically distinct *external
/// calls* through which all I/O happens (section 6.1). Stack allocation
/// (`stackalloc`) is included because it is the paper's canonical source
/// of internal nondeterminism ("the address at which stack allocation
/// allocates memory is unspecified", section 5.3).
///
/// ASTs are immutable trees of shared nodes; all construction goes through
/// the static factories (or the nicer bedrock2/Dsl.h wrappers).
///
//===----------------------------------------------------------------------===//

#ifndef B2_BEDROCK2_AST_H
#define B2_BEDROCK2_AST_H

#include "support/Word.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace b2 {
namespace bedrock2 {

/// Bedrock2's binary operators (the full set of the original language).
enum class BinOp : uint8_t {
  Add,
  Sub,
  Mul,
  MulHuu, ///< High word of the unsigned product.
  Divu,
  Remu,
  And,
  Or,
  Xor,
  Sru, ///< Shift right unsigned (logical).
  Slu, ///< Shift left.
  Srs, ///< Shift right signed (arithmetic).
  Lts, ///< Signed less-than (0 or 1).
  Ltu, ///< Unsigned less-than (0 or 1).
  Eq,  ///< Equality (0 or 1).
};

/// Returns the surface-syntax spelling ("+", ">>", "<s", ...).
const char *binOpName(BinOp Op);

/// Evaluates \p Op on concrete words. Division by zero follows the RISC-V
/// convention (the source semantics leave it unspecified; the compiler may
/// assume RISC-V's choice — paper footnote 3). Defined inline: this is the
/// single hottest operation of both checking-interpreter engines.
constexpr Word evalBinOp(BinOp Op, Word A, Word B) {
  switch (Op) {
  case BinOp::Add:
    return A + B;
  case BinOp::Sub:
    return A - B;
  case BinOp::Mul:
    return A * B;
  case BinOp::MulHuu:
    return support::mulhuu(A, B);
  case BinOp::Divu:
    return support::divu(A, B);
  case BinOp::Remu:
    return support::remu(A, B);
  case BinOp::And:
    return A & B;
  case BinOp::Or:
    return A | B;
  case BinOp::Xor:
    return A ^ B;
  case BinOp::Sru:
    return support::shiftRL(A, B);
  case BinOp::Slu:
    return support::shiftL(A, B);
  case BinOp::Srs:
    return support::shiftRA(A, B);
  case BinOp::Lts:
    return SWord(A) < SWord(B) ? 1 : 0;
  case BinOp::Ltu:
    return A < B ? 1 : 0;
  case BinOp::Eq:
    return A == B ? 1 : 0;
  }
  return 0;
}

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// An expression. Tagged union; unused fields are empty.
struct Expr {
  enum class Kind : uint8_t { Literal, Var, Load, Op } K;

  Word Lit = 0;                 ///< Literal.
  std::string Name;             ///< Var.
  unsigned Size = 4;            ///< Load: access size in bytes (1/2/4).
  ExprPtr A;                    ///< Load address / Op lhs.
  ExprPtr B;                    ///< Op rhs.
  BinOp Op = BinOp::Add;        ///< Op.

  static ExprPtr literal(Word V);
  static ExprPtr var(std::string Name);
  static ExprPtr load(unsigned Size, ExprPtr Addr);
  static ExprPtr op(BinOp Op, ExprPtr A, ExprPtr B);
};

struct Stmt;
using StmtPtr = std::shared_ptr<const Stmt>;

/// A statement.
struct Stmt {
  enum class Kind : uint8_t {
    Skip,
    Set,        ///< Var = E.
    Store,      ///< store<Size>(Addr, Value).
    If,         ///< if (Cond) Then else Else.
    While,      ///< while (Cond) Body.
    Seq,        ///< S1; S2.
    Call,       ///< Dsts... = Callee(Args...).
    Interact,   ///< Dsts... = external Action(Args...)  (I/O).
    Stackalloc, ///< stackalloc Var[NBytes] { Body }: a fresh
                ///< zero-initialized buffer whose *address* is
                ///< unspecified (internal nondeterminism).
  } K;

  std::string Var;               ///< Set destination / Stackalloc pointer.
  unsigned Size = 4;             ///< Store size.
  ExprPtr Cond;                  ///< If/While condition.
  ExprPtr Addr;                  ///< Store address.
  ExprPtr Value;                 ///< Set/Store value.
  StmtPtr S1;                    ///< Seq first / If then / While & Stackalloc body.
  StmtPtr S2;                    ///< Seq second / If else.
  std::vector<std::string> Dsts; ///< Call/Interact result variables.
  std::string Callee;            ///< Call function / Interact action name.
  std::vector<ExprPtr> Args;     ///< Call/Interact arguments.
  Word NBytes = 0;               ///< Stackalloc byte count.
  ExprPtr Invariant;             ///< While: optional loop invariant.
  ExprPtr Measure;               ///< While: optional decreasing measure.

  static StmtPtr skip();
  static StmtPtr set(std::string Var, ExprPtr E);
  static StmtPtr store(unsigned Size, ExprPtr Addr, ExprPtr Value);
  static StmtPtr ifThenElse(ExprPtr Cond, StmtPtr Then, StmtPtr Else);
  static StmtPtr whileLoop(ExprPtr Cond, StmtPtr Body);
  /// While loop with the program-logic annotations vcgen asks for in its
  /// loop case (section 4.1): an invariant that must hold at every test
  /// of the condition, and a measure that must strictly decrease
  /// (unsigned) on every iteration. The compiler erases both; the
  /// checking interpreter enforces them.
  static StmtPtr whileLoopAnnotated(ExprPtr Cond, ExprPtr Invariant,
                                    ExprPtr Measure, StmtPtr Body);
  static StmtPtr seq(StmtPtr S1, StmtPtr S2);
  static StmtPtr block(std::vector<StmtPtr> Stmts);
  static StmtPtr call(std::vector<std::string> Dsts, std::string Callee,
                      std::vector<ExprPtr> Args);
  static StmtPtr interact(std::vector<std::string> Dsts, std::string Action,
                          std::vector<ExprPtr> Args);
  /// Any \p NBytes is accepted; a size that is 0 or not a multiple of 4
  /// faults with Fault::StackallocMisuse when the statement runs (the
  /// parser rejects such a literal with the same rule).
  static StmtPtr stackalloc(std::string Var, Word NBytes, StmtPtr Body);
};

/// A Bedrock2 procedure: word-typed parameters and (tuple) results.
/// \c Pre and \c Post are the program-logic contract (the paper's P and Q
/// in "for each function with body c, precondition P, and postcondition
/// Q, we prove forall t m l, P => vcgen(c, ..., Q)", section 4.1): the
/// precondition ranges over the parameters, the postcondition over
/// parameters (with their final values) and results. Null means "true".
struct Function {
  std::string Name;
  std::vector<std::string> Params;
  std::vector<std::string> Rets;
  StmtPtr Body;
  ExprPtr Pre;
  ExprPtr Post;
};

/// A compilation unit. Bedrock2 "outright omits higher-order features such
/// as function pointers and mutually dependent compilation units" (section
/// 5.2): all callees must be defined in the same program.
struct Program {
  std::map<std::string, Function> Functions;

  void add(Function F) { Functions[F.Name] = std::move(F); }
  const Function *find(const std::string &Name) const {
    auto It = Functions.find(Name);
    return It == Functions.end() ? nullptr : &It->second;
  }
};

/// Pretty-prints in the concrete syntax accepted by bedrock2/Parser.h.
std::string toString(const Expr &E);
std::string toString(const Stmt &S, unsigned Indent = 0);
std::string toString(const Function &F);
std::string toString(const Program &P);

} // namespace bedrock2
} // namespace b2

#endif // B2_BEDROCK2_AST_H
