//===- bedrock2/Ast.cpp - Bedrock2 abstract syntax --------------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "bedrock2/Ast.h"

#include "support/Format.h"

#include <cassert>

using namespace b2;
using namespace b2::bedrock2;
using namespace b2::support;

const char *b2::bedrock2::binOpName(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "+";
  case BinOp::Sub:
    return "-";
  case BinOp::Mul:
    return "*";
  case BinOp::MulHuu:
    return "*h";
  case BinOp::Divu:
    return "/";
  case BinOp::Remu:
    return "%";
  case BinOp::And:
    return "&";
  case BinOp::Or:
    return "|";
  case BinOp::Xor:
    return "^";
  case BinOp::Sru:
    return ">>";
  case BinOp::Slu:
    return "<<";
  case BinOp::Srs:
    return ">>s";
  case BinOp::Lts:
    return "<s";
  case BinOp::Ltu:
    return "<";
  case BinOp::Eq:
    return "==";
  }
  return "?";
}

ExprPtr Expr::literal(Word V) {
  auto E = std::make_shared<Expr>();
  E->K = Kind::Literal;
  E->Lit = V;
  return E;
}

ExprPtr Expr::var(std::string Name) {
  auto E = std::make_shared<Expr>();
  E->K = Kind::Var;
  E->Name = std::move(Name);
  return E;
}

ExprPtr Expr::load(unsigned Size, ExprPtr Addr) {
  assert((Size == 1 || Size == 2 || Size == 4) && "bad load size");
  auto E = std::make_shared<Expr>();
  E->K = Kind::Load;
  E->Size = Size;
  E->A = std::move(Addr);
  return E;
}

ExprPtr Expr::op(BinOp Op, ExprPtr A, ExprPtr B) {
  auto E = std::make_shared<Expr>();
  E->K = Kind::Op;
  E->Op = Op;
  E->A = std::move(A);
  E->B = std::move(B);
  return E;
}

StmtPtr Stmt::skip() {
  auto S = std::make_shared<Stmt>();
  S->K = Kind::Skip;
  return S;
}

StmtPtr Stmt::set(std::string Var, ExprPtr E) {
  auto S = std::make_shared<Stmt>();
  S->K = Kind::Set;
  S->Var = std::move(Var);
  S->Value = std::move(E);
  return S;
}

StmtPtr Stmt::store(unsigned Size, ExprPtr Addr, ExprPtr Value) {
  assert((Size == 1 || Size == 2 || Size == 4) && "bad store size");
  auto S = std::make_shared<Stmt>();
  S->K = Kind::Store;
  S->Size = Size;
  S->Addr = std::move(Addr);
  S->Value = std::move(Value);
  return S;
}

StmtPtr Stmt::ifThenElse(ExprPtr Cond, StmtPtr Then, StmtPtr Else) {
  auto S = std::make_shared<Stmt>();
  S->K = Kind::If;
  S->Cond = std::move(Cond);
  S->S1 = std::move(Then);
  S->S2 = Else ? std::move(Else) : skip();
  return S;
}

StmtPtr Stmt::whileLoop(ExprPtr Cond, StmtPtr Body) {
  auto S = std::make_shared<Stmt>();
  S->K = Kind::While;
  S->Cond = std::move(Cond);
  S->S1 = std::move(Body);
  return S;
}

StmtPtr Stmt::whileLoopAnnotated(ExprPtr Cond, ExprPtr Invariant,
                                 ExprPtr Measure, StmtPtr Body) {
  auto S = std::make_shared<Stmt>();
  S->K = Kind::While;
  S->Cond = std::move(Cond);
  S->Invariant = std::move(Invariant);
  S->Measure = std::move(Measure);
  S->S1 = std::move(Body);
  return S;
}

StmtPtr Stmt::seq(StmtPtr S1, StmtPtr S2) {
  auto S = std::make_shared<Stmt>();
  S->K = Kind::Seq;
  S->S1 = std::move(S1);
  S->S2 = std::move(S2);
  return S;
}

StmtPtr Stmt::block(std::vector<StmtPtr> Stmts) {
  if (Stmts.empty())
    return skip();
  StmtPtr Out = Stmts.back();
  for (size_t I = Stmts.size() - 1; I-- > 0;)
    Out = seq(Stmts[I], Out);
  return Out;
}

StmtPtr Stmt::call(std::vector<std::string> Dsts, std::string Callee,
                   std::vector<ExprPtr> Args) {
  auto S = std::make_shared<Stmt>();
  S->K = Kind::Call;
  S->Dsts = std::move(Dsts);
  S->Callee = std::move(Callee);
  S->Args = std::move(Args);
  return S;
}

StmtPtr Stmt::interact(std::vector<std::string> Dsts, std::string Action,
                       std::vector<ExprPtr> Args) {
  auto S = std::make_shared<Stmt>();
  S->K = Kind::Interact;
  S->Dsts = std::move(Dsts);
  S->Callee = std::move(Action);
  S->Args = std::move(Args);
  return S;
}

StmtPtr Stmt::stackalloc(std::string Var, Word NBytes, StmtPtr Body) {
  auto S = std::make_shared<Stmt>();
  S->K = Kind::Stackalloc;
  S->Var = std::move(Var);
  S->NBytes = NBytes;
  S->S1 = std::move(Body);
  return S;
}

// -- Pretty-printing ----------------------------------------------------------

std::string b2::bedrock2::toString(const Expr &E) {
  switch (E.K) {
  case Expr::Kind::Literal:
    return E.Lit >= 1024 ? hex32(E.Lit) : std::to_string(E.Lit);
  case Expr::Kind::Var:
    return E.Name;
  case Expr::Kind::Load:
    return "load" + std::to_string(E.Size) + "(" + toString(*E.A) + ")";
  case Expr::Kind::Op:
    return "(" + toString(*E.A) + " " + binOpName(E.Op) + " " +
           toString(*E.B) + ")";
  }
  return "?";
}

namespace {

std::string indentStr(unsigned Indent) { return std::string(Indent * 2, ' '); }

std::string commaList(const std::vector<std::string> &Names) {
  return join(Names, ", ");
}

std::string argList(const std::vector<ExprPtr> &Args) {
  std::vector<std::string> Parts;
  Parts.reserve(Args.size());
  for (const ExprPtr &A : Args)
    Parts.push_back(toString(*A));
  return join(Parts, ", ");
}

} // namespace

std::string b2::bedrock2::toString(const Stmt &S, unsigned Indent) {
  std::string Pad = indentStr(Indent);
  switch (S.K) {
  case Stmt::Kind::Skip:
    return Pad + "skip;\n";
  case Stmt::Kind::Set:
    return Pad + S.Var + " = " + toString(*S.Value) + ";\n";
  case Stmt::Kind::Store:
    return Pad + "store" + std::to_string(S.Size) + "(" + toString(*S.Addr) +
           ", " + toString(*S.Value) + ");\n";
  case Stmt::Kind::If:
    return Pad + "if (" + toString(*S.Cond) + ") {\n" +
           toString(*S.S1, Indent + 1) + Pad + "} else {\n" +
           toString(*S.S2, Indent + 1) + Pad + "}\n";
  case Stmt::Kind::While: {
    std::string Header = Pad + "while (" + toString(*S.Cond) + ")";
    if (S.Invariant)
      Header += " invariant (" + toString(*S.Invariant) + ")";
    if (S.Measure)
      Header += " measure (" + toString(*S.Measure) + ")";
    return Header + " {\n" + toString(*S.S1, Indent + 1) + Pad + "}\n";
  }
  case Stmt::Kind::Seq:
    return toString(*S.S1, Indent) + toString(*S.S2, Indent);
  case Stmt::Kind::Call: {
    std::string Lhs = S.Dsts.empty() ? "" : commaList(S.Dsts) + " = ";
    return Pad + Lhs + S.Callee + "(" + argList(S.Args) + ");\n";
  }
  case Stmt::Kind::Interact: {
    std::string Lhs = S.Dsts.empty() ? "" : commaList(S.Dsts) + " = ";
    return Pad + Lhs + "extern " + S.Callee + "(" + argList(S.Args) + ");\n";
  }
  case Stmt::Kind::Stackalloc:
    return Pad + "stackalloc " + S.Var + "[" + std::to_string(S.NBytes) +
           "] {\n" + toString(*S.S1, Indent + 1) + Pad + "}\n";
  }
  return Pad + "?\n";
}

std::string b2::bedrock2::toString(const Function &F) {
  std::string Out = "fn " + F.Name + "(" + commaList(F.Params) + ")";
  if (!F.Rets.empty())
    Out += " -> (" + commaList(F.Rets) + ")";
  if (F.Pre)
    Out += "\n  requires (" + toString(*F.Pre) + ")";
  if (F.Post)
    Out += "\n  ensures (" + toString(*F.Post) + ")";
  Out += " {\n" + toString(*F.Body, 1) + "}\n";
  return Out;
}

std::string b2::bedrock2::toString(const Program &P) {
  std::string Out;
  for (const auto &[Name, F] : P.Functions)
    Out += toString(F) + "\n";
  return Out;
}
