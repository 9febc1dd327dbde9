//===- compiler/FlatImp.cpp - Flattened intermediate language ---------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "compiler/FlatImp.h"

#include "support/Format.h"

using namespace b2;
using namespace b2::compiler;

namespace {
std::shared_ptr<FStmt> mk(FStmt::Kind K) {
  auto S = std::make_shared<FStmt>();
  S->K = K;
  return S;
}
} // namespace

FStmtPtr FStmt::skip() { return mk(Kind::Skip); }

FStmtPtr FStmt::constant(FVar Dst, Word Imm) {
  auto S = mk(Kind::Const);
  S->Dst = Dst;
  S->Imm = Imm;
  return S;
}

FStmtPtr FStmt::copy(FVar Dst, FVar A) {
  auto S = mk(Kind::Copy);
  S->Dst = Dst;
  S->A = A;
  return S;
}

FStmtPtr FStmt::op(FVar Dst, bedrock2::BinOp Op, FVar A, FVar B) {
  auto S = mk(Kind::Op);
  S->Dst = Dst;
  S->Op = Op;
  S->A = A;
  S->B = B;
  return S;
}

FStmtPtr FStmt::opImm(FVar Dst, bedrock2::BinOp Op, FVar A, Word Imm) {
  auto S = mk(Kind::OpImm);
  S->Dst = Dst;
  S->Op = Op;
  S->A = A;
  S->Imm = Imm;
  return S;
}

FStmtPtr FStmt::load(FVar Dst, unsigned Size, FVar Addr) {
  auto S = mk(Kind::Load);
  S->Dst = Dst;
  S->Size = Size;
  S->A = Addr;
  return S;
}

FStmtPtr FStmt::store(unsigned Size, FVar Addr, FVar Value) {
  auto S = mk(Kind::Store);
  S->Size = Size;
  S->A = Addr;
  S->B = Value;
  return S;
}

FStmtPtr FStmt::ifThenElse(FVar CondVar, FStmtPtr S1, FStmtPtr S2) {
  auto S = mk(Kind::If);
  S->CondVar = CondVar;
  S->S1 = std::move(S1);
  S->S2 = std::move(S2);
  return S;
}

FStmtPtr FStmt::whileLoop(FStmtPtr CondPre, FVar CondVar, FStmtPtr Body) {
  auto S = mk(Kind::While);
  S->CondPre = std::move(CondPre);
  S->CondVar = CondVar;
  S->S1 = std::move(Body);
  return S;
}

FStmtPtr FStmt::seq(FStmtPtr S1, FStmtPtr S2) {
  auto S = mk(Kind::Seq);
  S->S1 = std::move(S1);
  S->S2 = std::move(S2);
  return S;
}

FStmtPtr FStmt::call(std::vector<FVar> Dsts, std::string Callee,
                     std::vector<FVar> Args) {
  auto S = mk(Kind::Call);
  S->Dsts = std::move(Dsts);
  S->Callee = std::move(Callee);
  S->Args = std::move(Args);
  return S;
}

FStmtPtr FStmt::interact(std::vector<FVar> Dsts, std::string Action,
                         std::vector<FVar> Args) {
  auto S = mk(Kind::Interact);
  S->Dsts = std::move(Dsts);
  S->Callee = std::move(Action);
  S->Args = std::move(Args);
  return S;
}

FStmtPtr FStmt::stackalloc(FVar Dst, Word NBytes, FStmtPtr Body) {
  auto S = mk(Kind::Stackalloc);
  S->Dst = Dst;
  S->NBytes = NBytes;
  S->S1 = std::move(Body);
  return S;
}

namespace {

void print(const FlatFunction &F, const FStmt &S, unsigned Indent,
           std::string &Out) {
  auto V = [&](FVar Id) {
    if (Id < F.VarNames.size() && !F.VarNames[Id].empty())
      return F.VarNames[Id] + "#" + std::to_string(Id);
    return "v" + std::to_string(Id);
  };
  std::string Pad(Indent * 2, ' ');
  switch (S.K) {
  case FStmt::Kind::Skip:
    Out += Pad + "skip\n";
    return;
  case FStmt::Kind::Const:
    Out += Pad + V(S.Dst) + " = " + support::hex32(S.Imm) + "\n";
    return;
  case FStmt::Kind::Copy:
    Out += Pad + V(S.Dst) + " = " + V(S.A) + "\n";
    return;
  case FStmt::Kind::Op:
    Out += Pad + V(S.Dst) + " = " + V(S.A) + " " +
           bedrock2::binOpName(S.Op) + " " + V(S.B) + "\n";
    return;
  case FStmt::Kind::OpImm:
    Out += Pad + V(S.Dst) + " = " + V(S.A) + " " +
           bedrock2::binOpName(S.Op) + " " + support::hex32(S.Imm) + "\n";
    return;
  case FStmt::Kind::Load:
    Out += Pad + V(S.Dst) + " = load" + std::to_string(S.Size) + "[" +
           V(S.A) + "]\n";
    return;
  case FStmt::Kind::Store:
    Out += Pad + "store" + std::to_string(S.Size) + "[" + V(S.A) +
           "] = " + V(S.B) + "\n";
    return;
  case FStmt::Kind::If:
    Out += Pad + "if " + V(S.CondVar) + " {\n";
    print(F, *S.S1, Indent + 1, Out);
    Out += Pad + "} else {\n";
    print(F, *S.S2, Indent + 1, Out);
    Out += Pad + "}\n";
    return;
  case FStmt::Kind::While:
    Out += Pad + "while {\n";
    print(F, *S.CondPre, Indent + 1, Out);
    Out += Pad + "  test " + V(S.CondVar) + "\n";
    Out += Pad + "} do {\n";
    print(F, *S.S1, Indent + 1, Out);
    Out += Pad + "}\n";
    return;
  case FStmt::Kind::Seq: {
    // Walk the right spine in a loop: a long block, or one long
    // flattened expression, is a long right-nested Seq chain.
    const FStmt *Cur = &S;
    for (; Cur->K == FStmt::Kind::Seq; Cur = Cur->S2.get())
      print(F, *Cur->S1, Indent, Out);
    print(F, *Cur, Indent, Out);
    return;
  }
  case FStmt::Kind::Call:
  case FStmt::Kind::Interact: {
    Out += Pad;
    for (size_t I = 0; I != S.Dsts.size(); ++I)
      Out += (I ? ", " : "") + V(S.Dsts[I]);
    if (!S.Dsts.empty())
      Out += " = ";
    Out += (S.K == FStmt::Kind::Interact ? "extern " : "") + S.Callee + "(";
    for (size_t I = 0; I != S.Args.size(); ++I)
      Out += (I ? ", " : "") + V(S.Args[I]);
    Out += ")\n";
    return;
  }
  case FStmt::Kind::Stackalloc:
    Out += Pad + V(S.Dst) + " = stackalloc " + std::to_string(S.NBytes) +
           " {\n";
    print(F, *S.S1, Indent + 1, Out);
    Out += Pad + "}\n";
    return;
  }
}

} // namespace

std::string b2::compiler::toString(const FlatFunction &F) {
  std::string Out = "flat fn " + F.Name + "(";
  for (size_t I = 0; I != F.Params.size(); ++I)
    Out += (I ? ", " : "") + std::to_string(F.Params[I]);
  Out += ") -> (";
  for (size_t I = 0; I != F.Rets.size(); ++I)
    Out += (I ? ", " : "") + std::to_string(F.Rets[I]);
  Out += ") {\n";
  print(F, *F.Body, 1, Out);
  Out += "}\n";
  return Out;
}
