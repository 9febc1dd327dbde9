//===- vc/Expr.cpp - Hash-consed symbolic expression DAG ------------------===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "vc/Expr.h"

#include <cassert>

namespace b2 {
namespace vc {

using bedrock2::BinOp;

static bool isCommutative(BinOp O) {
  switch (O) {
  case BinOp::Add:
  case BinOp::Mul:
  case BinOp::MulHuu:
  case BinOp::And:
  case BinOp::Or:
  case BinOp::Xor:
  case BinOp::Eq:
    return true;
  default:
    return false;
  }
}

/// Does \p O always produce 0 or 1?
static bool opIs01(BinOp O) {
  switch (O) {
  case BinOp::Lts:
  case BinOp::Ltu:
  case BinOp::Eq:
    return true;
  default:
    return false;
  }
}

ExprArena::ExprArena() {
  FalseRef = constant(0);
  TrueRef = constant(1);
}

ExprRef ExprArena::intern(const NodeKey &Key, bool Is01) {
  auto It = Interned.find(Key);
  if (It != Interned.end())
    return It->second;
  ExprNode N;
  N.K = ExprKind(Key.K);
  N.Op = BinOp(Key.Op);
  N.Is01 = Is01;
  N.A = Key.A;
  N.B = Key.B;
  N.C = Key.C;
  N.Lit = Key.Lit;
  Nodes.push_back(N);
  ExprRef R = ExprRef(Nodes.size() - 1);
  Interned.emplace(Key, R);
  return R;
}

ExprRef ExprArena::constant(Word V) {
  NodeKey Key{uint8_t(ExprKind::Const), 0, 0, 0, 0, V};
  return intern(Key, V <= 1);
}

ExprRef ExprArena::var(std::string Name, VarOrigin Origin) {
  unsigned Id = unsigned(Vars.size());
  Vars.push_back({std::move(Name), Origin});
  // Vars are intentionally not consed: every call mints a distinct node.
  ExprNode N;
  N.K = ExprKind::Var;
  N.Op = BinOp::Add;
  N.Is01 = false;
  N.Lit = Id;
  Nodes.push_back(N);
  return ExprRef(Nodes.size() - 1);
}

bool ExprArena::constValue(ExprRef R, Word &V) const {
  const ExprNode &N = Nodes[R];
  if (N.K != ExprKind::Const)
    return false;
  V = N.Lit;
  return true;
}

bool ExprArena::isConstTrue(ExprRef R) const {
  Word V;
  return constValue(R, V) && V != 0;
}

bool ExprArena::isConstZero(ExprRef R) const {
  Word V;
  return constValue(R, V) && V == 0;
}

ExprRef ExprArena::op(BinOp O, ExprRef A, ExprRef B) {
  Word CA = 0, CB = 0;
  bool AConst = constValue(A, CA);
  bool BConst = constValue(B, CB);
  if (AConst && BConst)
    return constant(bedrock2::evalBinOp(O, CA, CB));

  // Canonical operand order for commutative operators: constants to the
  // right, otherwise lower ref first. Determinism matters: the arena's
  // node order feeds the solver's variable order and the VC.json output.
  if (isCommutative(O) && (AConst || (!BConst && A > B))) {
    std::swap(A, B);
    std::swap(CA, CB);
    std::swap(AConst, BConst);
  }

  const ExprNode &NA = Nodes[A];
  const ExprNode &NB = Nodes[B];

  // Algebraic identities. After canonicalization a lone constant is B.
  if (BConst) {
    switch (O) {
    case BinOp::Add:
    case BinOp::Xor:
    case BinOp::Sub:
      if (CB == 0)
        return A;
      break;
    case BinOp::Or:
      if (CB == 0)
        return A;
      if (CB == ~Word(0))
        return B;
      if (CB == 1 && NA.Is01)
        return TrueRef; // b01 | 1 saturates; folds implies(false, b).
      break;
    case BinOp::Mul:
      if (CB == 0)
        return FalseRef;
      if (CB == 1)
        return A;
      break;
    case BinOp::And:
      if (CB == 0)
        return FalseRef;
      if (CB == ~Word(0))
        return A;
      if (CB == 1 && NA.Is01)
        return A;
      break;
    case BinOp::Slu:
    case BinOp::Sru:
    case BinOp::Srs:
      if ((CB & 31) == 0)
        return A;
      break;
    case BinOp::Divu:
      if (CB == 1)
        return A;
      break;
    case BinOp::Remu:
      if (CB == 1)
        return FalseRef;
      break;
    case BinOp::Ltu:
      if (CB == 0)
        return FalseRef; // x <u 0 is false.
      break;
    default:
      break;
    }
  }
  // Associative constant chains collapse: (x ? c1) ? c2 == x ? (c1 ? c2)
  // for xor/add/and/or. The xor case is what makes boolNot self-inverse;
  // the add case flattens the address arithmetic loop unrolling produces.
  if (BConst && NA.K == ExprKind::Op && NA.Op == O &&
      (O == BinOp::Xor || O == BinOp::Add || O == BinOp::And ||
       O == BinOp::Or)) {
    Word C1;
    if (constValue(NA.B, C1))
      return op(O, NA.A, constant(bedrock2::evalBinOp(O, C1, CB)));
  }
  // Mixed add/sub constant chains: (x + c1) - c2 == x + (c1 - c2).
  if (O == BinOp::Sub && BConst && NA.K == ExprKind::Op &&
      NA.Op == BinOp::Add) {
    Word C1;
    if (constValue(NA.B, C1))
      return op(BinOp::Add, NA.A, constant(C1 - CB));
  }
  // 0 <u x over a 0/1-valued x is x itself (the toBool normal form).
  if (O == BinOp::Ltu && AConst && CA == 0 && NB.Is01)
    return B;
  if (A == B) {
    switch (O) {
    case BinOp::Sub:
    case BinOp::Xor:
    case BinOp::Ltu:
    case BinOp::Lts:
      return FalseRef;
    case BinOp::And:
    case BinOp::Or:
      return A;
    case BinOp::Eq:
      return TrueRef;
    default:
      break;
    }
  }
  // Eq(x, 0) where x is 0/1 is logical negation; Eq of that again is x.
  // This keeps guard chains built from toBool/boolNot flat.
  if (O == BinOp::Eq && BConst && CB == 0 && NA.K == ExprKind::Op &&
      NA.Op == BinOp::Eq && NA.Is01) {
    const ExprNode &Inner = Nodes[NA.B];
    if (Inner.K == ExprKind::Const && Inner.Lit == 0 && Nodes[NA.A].Is01)
      return NA.A; // Eq(Eq(b01, 0), 0) == b01
  }

  bool Is01 = opIs01(O) ||
              ((O == BinOp::And || O == BinOp::Or || O == BinOp::Xor) &&
               NA.Is01 && NB.Is01);
  NodeKey Key{uint8_t(ExprKind::Op), uint8_t(O), A, B, 0, 0};
  return intern(Key, Is01);
}

ExprRef ExprArena::ite(ExprRef Cond, ExprRef Then, ExprRef Else) {
  Word CV;
  if (constValue(Cond, CV))
    return CV != 0 ? Then : Else;
  if (Then == Else)
    return Then;
  const ExprNode &NC = Nodes[Cond];
  Word TV, EV;
  bool TConst = constValue(Then, TV);
  bool EConst = constValue(Else, EV);
  if (NC.Is01 && TConst && EConst) {
    if (TV == 1 && EV == 0)
      return Cond;
    if (TV == 0 && EV == 1)
      return boolNot(Cond);
  }
  bool Is01 = Nodes[Then].Is01 && Nodes[Else].Is01;
  NodeKey Key{uint8_t(ExprKind::Ite), 0, Cond, Then, Else, 0};
  return intern(Key, Is01);
}

ExprRef ExprArena::toBool(ExprRef W) {
  if (Nodes[W].Is01)
    return W;
  Word V;
  if (constValue(W, V))
    return V != 0 ? TrueRef : FalseRef;
  return op(BinOp::Ltu, FalseRef, W); // 0 <u W  ==  W != 0
}

ExprRef ExprArena::boolNot(ExprRef B) {
  assert(Nodes[B].Is01 && "boolNot over a non-0/1 word");
  return op(BinOp::Xor, B, TrueRef);
}

ExprRef ExprArena::boolAnd(ExprRef A, ExprRef B) {
  assert(Nodes[A].Is01 && Nodes[B].Is01);
  return op(BinOp::And, A, B);
}

ExprRef ExprArena::boolOr(ExprRef A, ExprRef B) {
  assert(Nodes[A].Is01 && Nodes[B].Is01);
  return op(BinOp::Or, A, B);
}

ExprRef ExprArena::implies(ExprRef Guard, ExprRef Cond) {
  return boolOr(boolNot(toBool(Guard)), toBool(Cond));
}

std::vector<Word> ExprArena::evalAll(const std::vector<Word> &VarVals) const {
  std::vector<Word> Out(Nodes.size(), 0);
  for (size_t I = 0; I < Nodes.size(); ++I) {
    const ExprNode &N = Nodes[I];
    switch (N.K) {
    case ExprKind::Const:
      Out[I] = N.Lit;
      break;
    case ExprKind::Var:
      Out[I] = N.Lit < VarVals.size() ? VarVals[N.Lit] : 0;
      break;
    case ExprKind::Op:
      Out[I] = bedrock2::evalBinOp(N.Op, Out[N.A], Out[N.B]);
      break;
    case ExprKind::Ite:
      Out[I] = Out[N.A] != 0 ? Out[N.B] : Out[N.C];
      break;
    }
  }
  return Out;
}

Word ExprArena::eval(ExprRef R, const std::vector<Word> &VarVals) const {
  return evalAll(VarVals)[R];
}

} // namespace vc
} // namespace b2
