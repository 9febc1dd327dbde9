//===- bedrock2/Bytecode.cpp - Compiled checking interpreter -----------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// Keep this file in lockstep with the reference walker in Semantics.cpp:
// every check, every evaluation order, every fault Detail string, and the
// fuel accounting must match bit for bit. ExecMode::Differential and the
// BytecodeDiff tests enforce the equivalence.
//
//===----------------------------------------------------------------------===//

#include "bedrock2/Bytecode.h"

#include "support/Format.h"
#include "support/Metrics.h"
#include "verify/FaultInjection.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace b2;
using namespace b2::bedrock2;
using namespace b2::support;

// Token-threaded dispatch (GNU labels-as-values) when available, else the
// portable switch loop.
#if defined(__GNUC__)
#define B2_BC_THREADED 1
#define B2_UNLIKELY(X) __builtin_expect(!!(X), 0)
#else
#define B2_BC_THREADED 0
#define B2_UNLIKELY(X) (X)
#endif

// -- Compilation ---------------------------------------------------------------

class BytecodeProgram::Compiler {
public:
  Compiler(BytecodeProgram &BP, const Program &P) : BP(BP), P(P) {}

  void compileAll() {
    // Index every function first so call sites resolve regardless of
    // definition order (Bedrock2 programs are one compilation unit).
    for (const auto &[Name, Fn] : P.Functions) {
      (void)Fn;
      BP.Index.emplace(Name, uint32_t(BP.Funcs.size()));
      BP.Funcs.emplace_back();
      BP.Funcs.back().Name = Name;
    }
    for (const auto &[Name, Fn] : P.Functions)
      compileFunction(BP.Funcs[BP.Index.at(Name)], Fn);
  }

private:
  BytecodeProgram &BP;
  const Program &P;

  BcFunction *F = nullptr;
  std::map<std::string, uint16_t> SlotOf;
  uint32_t NumMeasures = 0;
  int CurDepth = 0; ///< Operand-stack depth at the current emit point.
  int MaxDepth = 0;

  /// Net operand-stack effect of \p I. The structured control flow makes
  /// the depth at every program point path-independent, so tracking it
  /// linearly during emission yields the exact per-frame maximum. Ops
  /// whose effect depends on a site table (calls, interactions) return 0
  /// here and are adjusted at their emit site.
  static int stackDelta(const bc::Insn &I) {
    switch (I.K) {
    case bc::Op::PushLit:
    case bc::Op::PushVar:
    case bc::Op::CollectRet:
      return 1;
    case bc::Op::Binop:
    case bc::Op::SetVar:
    case bc::Op::JumpIfZero:
    case bc::Op::CheckInv:
    case bc::Op::MeasCheck:
    case bc::Op::CheckPre:
    case bc::Op::CheckPost:
      return -1;
    case bc::Op::StoreMem:
      return -2;
    default:
      return 0;
    }
  }

  uint32_t intern(const std::string &S) {
    auto It = StrIdx.find(S);
    if (It != StrIdx.end())
      return It->second;
    uint32_t I = uint32_t(BP.Strings.size());
    BP.Strings.push_back(S);
    StrIdx.emplace(S, I);
    return I;
  }
  std::map<std::string, uint32_t> StrIdx;

  uint16_t slot(const std::string &Name) {
    auto It = SlotOf.find(Name);
    if (It != SlotOf.end())
      return It->second;
    assert(SlotOf.size() < 0xFFFF && "too many locals in one function");
    uint16_t S = uint16_t(SlotOf.size());
    SlotOf.emplace(Name, S);
    return S;
  }

  size_t emit(bc::Insn I) {
    F->Code.push_back(I);
    CurDepth += stackDelta(I);
    MaxDepth = std::max(MaxDepth, CurDepth);
    return F->Code.size() - 1;
  }
  void patchJump(size_t At) { F->Code[At].Arg = uint32_t(F->Code.size()); }
  uint32_t here() const { return uint32_t(F->Code.size()); }

  void compileFunction(BcFunction &BF, const Function &Fn) {
    F = &BF;
    SlotOf.clear();
    NumMeasures = 0;
    CurDepth = 0;
    MaxDepth = 0;
    for (const std::string &Param : Fn.Params)
      slot(Param); // Params occupy slots 0..N-1 in declaration order.
    BF.NumParams = uint32_t(Fn.Params.size());
    BF.NumRets = uint32_t(Fn.Rets.size());
    // Mirrors Interp::execCall: precondition, body, return collection,
    // postcondition (over final parameter values and results).
    if (Fn.Pre) {
      compileExpr(*Fn.Pre);
      emit({bc::Op::CheckPre, 0, 0, 0,
            intern("requires clause of '" + Fn.Name + "'"), 0});
    }
    compileStmt(*Fn.Body);
    for (const std::string &R : Fn.Rets)
      emit({bc::Op::CollectRet, 0, slot(R), 0,
            intern("return variable '" + R + "' of '" + Fn.Name + "'"), 0});
    if (Fn.Post) {
      compileExpr(*Fn.Post);
      emit({bc::Op::CheckPost, 0, 0, 0,
            intern("ensures clause of '" + Fn.Name + "'"), 0});
    }
    emit({bc::Op::Return, 0, 0, 0, 0, 0});
    BF.NumSlots = uint32_t(SlotOf.size());
    BF.NumMeasures = NumMeasures;
    // Code after a StaticFault never runs but is still tracked linearly,
    // so MaxDepth can over-estimate there; that only costs slack capacity.
    BF.MaxStack = uint32_t(MaxDepth);
    metrics::add(metrics::Id::InterpCompileFns);
    metrics::add(metrics::Id::InterpCompileInsnsIn, BF.Code.size());
  }

  /// Evaluates \p E at compile time when it is built purely from
  /// literals, so runtime evaluation could not observably differ: literal
  /// subtrees cannot fault and consume no fuel. The one observable effect
  /// they can have is the division-by-zero count, so a Divu/Remu whose
  /// rhs folds to zero blocks folding of its whole enclosing tree.
  static bool foldConst(const Expr &E, Word &V) {
    switch (E.K) {
    case Expr::Kind::Literal:
      V = E.Lit;
      return true;
    case Expr::Kind::Op: {
      Word A, B;
      if (!foldConst(*E.A, A) || !foldConst(*E.B, B))
        return false;
      if ((E.Op == BinOp::Divu || E.Op == BinOp::Remu) && B == 0)
        return false;
      V = evalBinOp(E.Op, A, B);
      return true;
    }
    default:
      return false;
    }
  }

  void compileExpr(const Expr &E) {
    switch (E.K) {
    case Expr::Kind::Literal:
      emit({bc::Op::PushLit, 0, 0, 0, 0, E.Lit});
      return;
    case Expr::Kind::Var:
      emit({bc::Op::PushVar, 0, slot(E.Name), 0,
            intern("variable '" + E.Name + "'"), 0});
      return;
    case Expr::Kind::Load:
      compileExpr(*E.A);
      emit({bc::Op::LoadMem, uint8_t(E.Size), 0, 0, 0, 0});
      return;
    case Expr::Kind::Op: {
      Word V;
      if (foldConst(E, V)) {
        emit({bc::Op::PushLit, 0, 0, 0, 0, V});
        return;
      }
      compileExpr(*E.A);
      compileExpr(*E.B);
      emit({bc::Op::Binop, uint8_t(E.Op), 0, 0, 0, 0});
      return;
    }
    }
    assert(false && "unreachable: exhaustive expression kinds");
  }

  void emitStaticFault(Fault Kind, const std::string &Detail) {
    emit({bc::Op::StaticFault, uint8_t(Kind), 0, 0, intern(Detail), 0});
  }

  void compileStmt(const Stmt &S) {
    // Every statement node consumes one fuel step on entry, exactly as
    // the top of Interp::execStmt does.
    emit({bc::Op::StepStmt, 0, 0, 0, intern("statement budget exhausted"),
          0});
    switch (S.K) {
    case Stmt::Kind::Skip:
      return;
    case Stmt::Kind::Set:
      compileExpr(*S.Value);
      emit({bc::Op::SetVar, 0, slot(S.Var), 0, 0, 0});
      return;
    case Stmt::Kind::Store:
      compileExpr(*S.Addr);
      compileExpr(*S.Value);
      emit({bc::Op::StoreMem, uint8_t(S.Size), 0, 0, 0, 0});
      return;
    case Stmt::Kind::If: {
      compileExpr(*S.Cond);
      size_t ToElse = emit({bc::Op::JumpIfZero, 0, 0, 0, 0, 0});
      compileStmt(*S.S1);
      size_t ToEnd = emit({bc::Op::Jump, 0, 0, 0, 0, 0});
      patchJump(ToElse);
      compileStmt(*S.S2);
      patchJump(ToEnd);
      return;
    }
    case Stmt::Kind::While: {
      // Per iteration: invariant, condition, measure, body, then the
      // walker's extra per-iteration fuel charge.
      uint16_t Meas = 0;
      if (S.Measure) {
        Meas = uint16_t(NumMeasures++);
        emit({bc::Op::MeasReset, 0, Meas, 0, 0, 0});
      }
      uint32_t Head = here();
      if (S.Invariant) {
        compileExpr(*S.Invariant);
        emit({bc::Op::CheckInv, 0, 0, 0, intern("loop invariant"), 0});
      }
      compileExpr(*S.Cond);
      size_t ToExit = emit({bc::Op::JumpIfZero, 0, 0, 0, 0, 0});
      if (S.Measure) {
        compileExpr(*S.Measure);
        emit({bc::Op::MeasCheck, 0, Meas, 0, 0, 0});
      }
      compileStmt(*S.S1);
      emit({bc::Op::StepLoop, 0, 0, 0, intern("loop budget exhausted"), 0});
      emit({bc::Op::Jump, 0, 0, Head, 0, 0});
      patchJump(ToExit);
      return;
    }
    case Stmt::Kind::Seq:
      compileStmt(*S.S1);
      compileStmt(*S.S2);
      return;
    case Stmt::Kind::Call: {
      // Arguments evaluate before any callee checking (so an argument
      // fault wins over an unknown-callee fault), like execStmt.
      for (const ExprPtr &A : S.Args)
        compileExpr(*A);
      const Function *Callee = P.find(S.Callee);
      if (!Callee) {
        emitStaticFault(Fault::UnknownFunction,
                        "function '" + S.Callee + "'");
        return;
      }
      if (Callee->Params.size() != S.Args.size()) {
        emitStaticFault(Fault::ArityMismatch,
                        "call to '" + S.Callee + "' with " +
                            std::to_string(S.Args.size()) +
                            " args, expected " +
                            std::to_string(Callee->Params.size()));
        return;
      }
      uint32_t FnIdx = BP.Index.at(S.Callee);
      if (Callee->Rets.size() != S.Dsts.size()) {
        // The callee still runs to completion first — the walker only
        // reports the result-binding mismatch after a successful call.
        emit({bc::Op::CallDrop, 0, 0, FnIdx, 0, 0});
        CurDepth -= int(S.Args.size());
        emitStaticFault(Fault::ArityMismatch,
                        "call to '" + S.Callee + "' binds " +
                            std::to_string(S.Dsts.size()) +
                            " results, returns " +
                            std::to_string(Callee->Rets.size()));
        return;
      }
      bc::CallSite Site;
      Site.Fn = FnIdx;
      Site.Dsts.reserve(S.Dsts.size());
      for (const std::string &D : S.Dsts)
        Site.Dsts.push_back(slot(D));
      uint32_t SiteIdx = uint32_t(BP.Calls.size());
      BP.Calls.push_back(std::move(Site));
      emit({bc::Op::CallBind, 0, 0, SiteIdx, 0, 0});
      CurDepth -= int(S.Args.size());
      return;
    }
    case Stmt::Kind::Interact: {
      for (const ExprPtr &A : S.Args)
        compileExpr(*A);
      bc::InteractSite Site;
      Site.Action = S.Callee;
      Site.NumArgs = uint32_t(S.Args.size());
      for (const std::string &D : S.Dsts)
        Site.Dsts.push_back(slot(D));
      Site.BindDetail = intern("external '" + S.Callee + "' binds " +
                               std::to_string(S.Dsts.size()) + " results");
      uint32_t SiteIdx = uint32_t(BP.Interacts.size());
      BP.Interacts.push_back(std::move(Site));
      emit({bc::Op::InteractExt, 0, 0, SiteIdx, 0, 0});
      CurDepth -= int(S.Args.size());
      return;
    }
    case Stmt::Kind::Stackalloc: {
      if (S.NBytes == 0 || S.NBytes % 4 != 0) {
        emitStaticFault(Fault::StackallocMisuse,
                        "size " + std::to_string(S.NBytes));
        return;
      }
      uint32_t SiteIdx = uint32_t(BP.Allocs.size());
      BP.Allocs.push_back({slot(S.Var), S.NBytes});
      emit({bc::Op::EnterAlloc, 0, 0, SiteIdx, 0, 0});
      compileStmt(*S.S1);
      emit({bc::Op::LeaveAlloc, 0, 0, SiteIdx, 0, 0});
      return;
    }
    }
    assert(false && "unreachable: exhaustive statement kinds");
  }
};

BytecodeProgram::BytecodeProgram(const Program &P) {
  Compiler(*this, P).compileAll();
}

size_t BytecodeProgram::numInstructions() const {
  size_t N = 0;
  for (const BcFunction &F : Funcs)
    N += F.Code.size();
  return N;
}

// -- Execution ---------------------------------------------------------------

struct BytecodeProgram::Exec {
  const BytecodeProgram &BP;
  ExtSpec &Ext;
  Footprint &Mem;
  uint64_t Fuel;
  Word StackNext;
  /// Arenas live in the caller-provided scratch so their capacity
  /// survives across calls; only the tops below are per-call state.
  ExecScratch &Sc;
  ExecResult R = {};
  /// Operand stack shared by all frames, raw-pointer discipline: a frame
  /// reserves its whole window (MaxStack, known at compile time) once on
  /// entry, then pushes and pops through a local Word* with no per-op
  /// bookkeeping. Top is the live depth, synced only around recursion.
  std::vector<Word> &Stack = Sc.Stack;
  size_t Top = 0;
  std::vector<Word> &Slots = Sc.Slots; ///< Frame-slot arena (explicit top).
  std::vector<uint8_t> &Bound =
      Sc.Bound; ///< Per-slot definedness (UnboundVariable).
  size_t SlotTop = 0;
  std::vector<Word> &MeasVal =
      Sc.MeasVal; ///< Per-loop-activation previous measure.
  std::vector<uint8_t> &MeasHave = Sc.MeasHave;
  size_t MeasTop = 0;
  /// Live stackalloc scopes of all frames; each frame unwinds down to its
  /// entry size on both exit paths (ownership ends with the block even
  /// when a fault sticks).
  std::vector<std::pair<Word, Word>> &AllocScopes = Sc.AllocScopes;

  bool fault(Fault F, std::string D) {
    if (R.F == Fault::None) {
      R.F = F;
      R.Detail = std::move(D);
    }
    return false;
  }

  /// Runs one activation. Arguments sit at Stack[ArgBase..); on success
  /// the results are left at Stack[ArgBase..) with Top = ArgBase+NumRets.
  bool runFunction(uint32_t FnIdx, size_t ArgBase);
};

bool BytecodeProgram::Exec::runFunction(uint32_t FnIdx, size_t ArgBase) {
  const BcFunction &F = BP.Funcs[FnIdx];

  // Frame setup: grow each arena at most once, so the hot loop can run on
  // raw pointers. Only Bound/MeasHave need (re)zeroing — slot values are
  // never read before their definedness bit is set.
  const size_t NeedStack = ArgBase + F.NumParams + F.MaxStack;
  if (Stack.size() < NeedStack)
    Stack.resize(std::max(Stack.size() * 2, NeedStack));
  const size_t SlotBase = SlotTop;
  SlotTop += F.NumSlots;
  if (Slots.size() < SlotTop) {
    Slots.resize(std::max(Slots.size() * 2, SlotTop));
    Bound.resize(Slots.size());
  }
  if (F.NumSlots)
    std::memset(Bound.data() + SlotBase, 0, F.NumSlots);
  for (uint32_t I = 0; I != F.NumParams; ++I) {
    Slots[SlotBase + I] = Stack[ArgBase + I];
    Bound[SlotBase + I] = 1;
  }
  const size_t MeasBase = MeasTop;
  MeasTop += F.NumMeasures;
  if (MeasVal.size() < MeasTop) {
    MeasVal.resize(std::max(MeasVal.size() * 2, MeasTop));
    MeasHave.resize(MeasVal.size());
  }
  if (F.NumMeasures)
    std::memset(MeasHave.data() + MeasBase, 0, F.NumMeasures);
  const size_t AllocBase = AllocScopes.size();

  // Hot-loop registers. Sp points one past the operand-stack top (the
  // frame reuses the argument window — params were just consumed into
  // slots); Sl/Bd are this frame's slot windows; Steps shadows
  // R.StepsUsed. All are re-derived after a recursive call, which may
  // reallocate the arenas.
  const bc::Insn *Code = F.Code.data();
  const uint64_t FuelLim = Fuel;
  Word *Sp = Stack.data() + ArgBase;
  Word *Sl = Slots.data() + SlotBase;
  uint8_t *Bd = Bound.data() + SlotBase;
  uint64_t Steps = R.StepsUsed;
  bool Ok = true;
  uint32_t Pc = 0;
  const bc::Insn *I;

  // Dispatch. On GNU-compatible compilers each handler ends by jumping
  // through a label table indexed by the next opcode (token-threaded
  // dispatch): the indirect branch is replicated per handler, so the
  // branch predictor learns per-opcode successor patterns instead of
  // sharing one mispredicting switch branch. The portable fallback is
  // the same handlers inside a switch. Both variants share one handler
  // body via these macros.
#define B2_FAULT(KIND, DETAIL)                                               \
  do {                                                                       \
    Ok = fault(Fault::KIND, DETAIL);                                         \
    goto Exit;                                                               \
  } while (0)
#define B2_CHARGE(DETAIL)                                                    \
  do {                                                                       \
    if (B2_UNLIKELY(Steps >= FuelLim))                                       \
      B2_FAULT(OutOfFuel, DETAIL);                                           \
    ++Steps;                                                                 \
  } while (0)
#if B2_BC_THREADED
#define B2_BC_LABEL(N) &&Op_##N,
  static const void *const JT[] = {B2_BC_OP_LIST(B2_BC_LABEL)};
#undef B2_BC_LABEL
#define B2_OP(N) Op_##N:
#define B2_NEXT                                                              \
  do {                                                                       \
    I = &Code[Pc++];                                                         \
    goto *JT[size_t(I->K)];                                                  \
  } while (0)
  B2_NEXT;
#else
#define B2_OP(N) case bc::Op::N:
#define B2_NEXT continue
  for (;;) {
    I = &Code[Pc++];
    switch (I->K) {
#endif

  B2_OP(PushLit)
    *Sp++ = I->Imm;
    B2_NEXT;

  B2_OP(PushVar)
    if (B2_UNLIKELY(!Bd[I->A]))
      B2_FAULT(UnboundVariable, BP.Strings[I->Str]);
    *Sp++ = Sl[I->A];
    B2_NEXT;

  B2_OP(LoadMem) {
    const Word Addr = Sp[-1];
    if (B2_UNLIKELY(!isAligned(Addr, I->U8)))
      B2_FAULT(MisalignedAccess,
               "load" + std::to_string(I->U8) + " at " + hex32(Addr));
    if (B2_UNLIKELY(!Mem.owns(Addr, I->U8)))
      B2_FAULT(LoadOutsideFootprint,
               "load" + std::to_string(I->U8) + " at " + hex32(Addr));
    Sp[-1] = Mem.readLe(Addr, I->U8);
    B2_NEXT;
  }

  B2_OP(Binop) {
    const Word BV = *--Sp;
    const BinOp O = BinOp(I->U8);
    if ((O == BinOp::Divu || O == BinOp::Remu) && BV == 0 &&
        !fi::on(fi::Fault::BcDivCountSkip))
      ++R.DivByZeroCount;
    Sp[-1] = evalBinOp(O, Sp[-1], BV);
    B2_NEXT;
  }

  B2_OP(SetVar)
    Sl[I->A] = *--Sp;
    Bd[I->A] = 1;
    B2_NEXT;

  B2_OP(StoreMem) {
    const Word V = *--Sp, Addr = *--Sp;
    if (B2_UNLIKELY(!isAligned(Addr, I->U8)))
      B2_FAULT(MisalignedAccess,
               "store" + std::to_string(I->U8) + " at " + hex32(Addr));
    if (B2_UNLIKELY(!Mem.owns(Addr, I->U8)))
      B2_FAULT(StoreOutsideFootprint,
               "store" + std::to_string(I->U8) + " at " + hex32(Addr));
    Mem.writeLe(Addr, I->U8, V);
    B2_NEXT;
  }

  B2_OP(Jump)
    Pc = I->Arg;
    B2_NEXT;

  B2_OP(JumpIfZero)
    if (*--Sp == 0)
      Pc = I->Arg;
    B2_NEXT;

  B2_OP(StepStmt)
  B2_OP(StepLoop)
    B2_CHARGE(BP.Strings[I->Str]);
    B2_NEXT;

  B2_OP(CheckInv)
    if (B2_UNLIKELY(*--Sp == 0))
      B2_FAULT(InvariantViolated, BP.Strings[I->Str]);
    B2_NEXT;

  B2_OP(MeasReset)
    MeasHave[MeasBase + I->A] = 0;
    B2_NEXT;

  B2_OP(MeasCheck) {
    const Word M = *--Sp;
    Word &Prev = MeasVal[MeasBase + I->A];
    uint8_t &Have = MeasHave[MeasBase + I->A];
    if (B2_UNLIKELY(Have && M >= Prev))
      B2_FAULT(MeasureNotDecreasing, "measure " + std::to_string(M) +
                                         " after " + std::to_string(Prev));
    Prev = M;
    Have = 1;
    B2_NEXT;
  }

  B2_OP(CallBind) {
    const bc::CallSite &Site = BP.Calls[I->Arg];
    const BcFunction &CF = BP.Funcs[Site.Fn];
    const size_t CalleeBase = size_t(Sp - Stack.data()) - CF.NumParams;
    Top = CalleeBase + CF.NumParams;
    R.StepsUsed = Steps;
    const bool CalleeOk = runFunction(Site.Fn, CalleeBase);
    Steps = R.StepsUsed;
    Sl = Slots.data() + SlotBase;
    Bd = Bound.data() + SlotBase;
    Sp = Stack.data() + CalleeBase;
    if (!CalleeOk) {
      Ok = false;
      goto Exit;
    }
    for (size_t K = 0; K != Site.Dsts.size(); ++K) {
      Sl[Site.Dsts[K]] = Sp[K]; // The callee left its results here.
      Bd[Site.Dsts[K]] = 1;
    }
    B2_NEXT;
  }

  B2_OP(CallDrop) {
    // Rets are discarded: a StaticFault (result-binding arity mismatch)
    // follows immediately — but the callee still runs first, exactly as
    // the walker only reports that mismatch after a successful call.
    const BcFunction &CF = BP.Funcs[I->Arg];
    const size_t CalleeBase = size_t(Sp - Stack.data()) - CF.NumParams;
    Top = CalleeBase + CF.NumParams;
    R.StepsUsed = Steps;
    const bool CalleeOk = runFunction(I->Arg, CalleeBase);
    Steps = R.StepsUsed;
    Sl = Slots.data() + SlotBase;
    Bd = Bound.data() + SlotBase;
    Sp = Stack.data() + CalleeBase;
    if (!CalleeOk) {
      Ok = false;
      goto Exit;
    }
    B2_NEXT;
  }

  B2_OP(InteractExt) {
    {
      const bc::InteractSite &Site = BP.Interacts[I->Arg];
      Sp -= Site.NumArgs;
      std::vector<Word> ArgVals(Sp, Sp + Site.NumArgs);
      ExtSpec::Outcome Out = Ext.call(Site.Action, ArgVals, Mem);
      if (!Out.Ok)
        B2_FAULT(ExtContractViolation,
                 "'" + Site.Action + "': " + Out.Error);
      if (Out.Rets.size() != Site.Dsts.size())
        B2_FAULT(ArityMismatch, BP.Strings[Site.BindDetail]);
      R.Trace.push_back(IoEvent{Site.Action, std::move(ArgVals), Out.Rets});
      for (size_t K = 0; K != Out.Rets.size(); ++K) {
        Sl[Site.Dsts[K]] = Out.Rets[K];
        Bd[Site.Dsts[K]] = 1;
      }
    } // Non-trivial locals die here, before the (computed) goto.
    B2_NEXT;
  }

  B2_OP(EnterAlloc) {
    const bc::AllocSite &Site = BP.Allocs[I->Arg];
    StackNext -= Site.NBytes;
    const Word Addr = StackNext;
    Mem.own(Addr, Site.NBytes);
    Sl[Site.VarSlot] =
        fi::on(fi::Fault::BcAllocSkew) ? Addr + 4 : Addr;
    Bd[Site.VarSlot] = 1;
    AllocScopes.push_back({Addr, Site.NBytes});
    B2_NEXT;
  }

  B2_OP(LeaveAlloc) {
    const auto [Addr, NBytes] = AllocScopes.back();
    AllocScopes.pop_back();
    Mem.disown(Addr, NBytes);
    StackNext += NBytes;
    B2_NEXT;
  }

  B2_OP(StaticFault)
    Ok = fault(Fault(I->U8), BP.Strings[I->Str]);
    goto Exit;

  B2_OP(CheckPre)
    if (B2_UNLIKELY(*--Sp == 0))
      B2_FAULT(PreconditionFailed, BP.Strings[I->Str]);
    B2_NEXT;

  B2_OP(CheckPost)
    if (B2_UNLIKELY(*--Sp == 0))
      B2_FAULT(PostconditionFailed, BP.Strings[I->Str]);
    B2_NEXT;

  B2_OP(CollectRet)
    if (B2_UNLIKELY(!Bd[I->A]))
      B2_FAULT(UnboundVariable, BP.Strings[I->Str]);
    *Sp++ = Sl[I->A];
    B2_NEXT;

  B2_OP(Return)
    goto Exit;
#if !B2_BC_THREADED
    }
  }
#endif
#undef B2_OP
#undef B2_NEXT
#undef B2_CHARGE
#undef B2_FAULT

Exit:

  // Unwind live stackalloc scopes innermost-first, exactly as the
  // walker's recursion does when a fault propagates.
  for (size_t K = AllocScopes.size(); K-- > AllocBase;) {
    Mem.disown(AllocScopes[K].first, AllocScopes[K].second);
    StackNext += AllocScopes[K].second;
  }
  AllocScopes.resize(AllocBase);
  R.StepsUsed = Steps;
  SlotTop = SlotBase;
  MeasTop = MeasBase;
  if (Ok) {
    // The results sit on top of the stack (pushed by CollectRet, below
    // any already-popped postcondition temporaries); move them down to
    // the frame base where the caller binds them.
    std::memmove(Stack.data() + ArgBase, Sp - F.NumRets,
                 F.NumRets * sizeof(Word));
    Top = ArgBase + F.NumRets;
  } else {
    Top = ArgBase;
  }
  return Ok;
}

ExecResult BytecodeProgram::run(const std::string &Fn,
                                const std::vector<Word> &Args, ExtSpec &Ext,
                                Footprint &Mem, uint64_t Fuel,
                                const StackallocPolicy &Policy,
                                ExecScratch *Scratch) const {
  ExecScratch Local;
  ExecScratch &Sc = Scratch ? *Scratch : Local;
  Sc.AllocScopes.clear(); // Frames unwind on exit; clear defensively.
  Exec E{*this, Ext, Mem, Fuel, Word(Policy.Base - (Policy.Salt & ~Word(3))),
         Sc};
  auto It = Index.find(Fn);
  if (It == Index.end()) {
    E.fault(Fault::UnknownFunction, "function '" + Fn + "'");
    return std::move(E.R);
  }
  const BcFunction &F = Funcs[It->second];
  if (F.NumParams != Args.size()) {
    E.fault(Fault::ArityMismatch,
            "call to '" + Fn + "' with " + std::to_string(Args.size()) +
                " args, expected " + std::to_string(F.NumParams));
    return std::move(E.R);
  }
  // Copy args in place without shrinking: the stack keeps its high-water
  // size so runFunction's grow check is a no-op on steady-state calls.
  // Stale words beyond Top are never read (pushes always write first).
  if (E.Stack.size() < Args.size())
    E.Stack.resize(Args.size());
  std::copy(Args.begin(), Args.end(), E.Stack.begin());
  E.Top = Args.size();
  if (E.runFunction(It->second, 0))
    E.R.Rets.assign(E.Stack.begin(), E.Stack.begin() + F.NumRets);
  // One publication per top-level run (never per bytecode step): the
  // dispatch loop's own fuel accounting already aggregates the mix.
  metrics::add(metrics::Id::InterpExecRuns);
  metrics::add(metrics::Id::InterpExecSteps, E.R.StepsUsed);
  return std::move(E.R);
}
