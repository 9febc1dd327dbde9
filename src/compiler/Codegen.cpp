//===- compiler/Codegen.cpp - RISC-V backend ----------------------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "compiler/Codegen.h"

#include "support/Word.h"
#include "verify/FaultInjection.h"

#include <cassert>

using namespace b2;
using namespace b2::bedrock2;
using namespace b2::compiler;
using namespace b2::isa;

ExtCallCompiler::~ExtCallCompiler() = default;

bool MmioExtCallCompiler::emit(Asm &A, const std::string &Action,
                               unsigned NumArgs, unsigned NumRets,
                               std::string &Error) {
  if (Action == "MMIOREAD") {
    if (NumArgs != 1 || NumRets != 1) {
      Error = "MMIOREAD must have 1 argument and 1 result";
      return false;
    }
    A.emit(lw(A0, A0, 0));
    return true;
  }
  if (Action == "MMIOWRITE") {
    if (NumArgs != 2 || NumRets != 0) {
      Error = "MMIOWRITE must have 2 arguments and no result";
      return false;
    }
    A.emit(sw(A0, A1, 0));
    return true;
  }
  Error = "external-calls compiler does not support '" + Action + "'";
  return false;
}

namespace {

/// Per-function code generator.
class FunctionCodegen {
public:
  FunctionCodegen(Asm &A, const FlatFunction &F, const Allocation &Alloc,
                  const std::map<std::string, Label> &FunctionLabels,
                  ExtCallCompiler &ExtCompiler)
      : A(A), F(F), Alloc(Alloc), FunctionLabels(FunctionLabels),
        ExtCompiler(ExtCompiler) {}

  std::optional<FunctionCode> run(std::string &Error) {
    computeAllocaOffsets(*F.Body);
    Word SaveBytes = Word(1 + Alloc.UsedCalleeSaved.size()) * 4;
    SpillBase = AllocaBytes;
    SaveBase = AllocaBytes + Word(Alloc.NumSlots) * 4;
    FrameBytes = (SaveBase + SaveBytes + 15) & ~Word(15);

    FunctionCode Out;
    Out.Name = F.Name;
    Out.FrameBytes = FrameBytes;
    Out.Entry = FunctionLabels.at(F.Name);

    A.bind(Out.Entry);
    emitPrologue();
    if (!genStmt(*F.Body, Error))
      return std::nullopt;
    if (!emitEpilogue(Error))
      return std::nullopt;
    Out.Callees = Callees;
    return Out;
  }

private:
  Asm &A;
  const FlatFunction &F;
  const Allocation &Alloc;
  const std::map<std::string, Label> &FunctionLabels;
  ExtCallCompiler &ExtCompiler;
  Word AllocaBytes = 0;
  Word SpillBase = 0;
  Word SaveBase = 0;
  Word FrameBytes = 0;
  std::map<const FStmt *, Word> AllocaOffset;
  std::vector<std::string> Callees;

  void computeAllocaOffsets(const FStmt &S) {
    switch (S.K) {
    case FStmt::Kind::Stackalloc:
      AllocaOffset[&S] = AllocaBytes;
      AllocaBytes += S.NBytes;
      computeAllocaOffsets(*S.S1);
      return;
    case FStmt::Kind::If:
      computeAllocaOffsets(*S.S1);
      computeAllocaOffsets(*S.S2);
      return;
    case FStmt::Kind::While:
      computeAllocaOffsets(*S.CondPre);
      computeAllocaOffsets(*S.S1);
      return;
    case FStmt::Kind::Seq:
      computeAllocaOffsets(*S.S1);
      computeAllocaOffsets(*S.S2);
      return;
    default:
      return;
    }
  }

  // -- sp-relative access helpers ------------------------------------------

  /// Emits `Dst = sp + Offset`.
  void emitSpPlus(Reg Dst, Word Offset) {
    if (support::fitsSigned(SWord(Offset), 12)) {
      A.emit(addi(Dst, SP, SWord(Offset)));
      return;
    }
    A.emitLoadImm(Dst, Offset);
    A.emit(mkR(Opcode::Add, Dst, Dst, SP));
  }

  void emitFrameLoad(Reg Dst, Word Offset) {
    if (support::fitsSigned(SWord(Offset), 12)) {
      A.emit(lw(Dst, SP, SWord(Offset)));
      return;
    }
    // The destination doubles as the address scratch, so no other
    // register is disturbed (important when both operands are spilled).
    emitSpPlus(Dst, Offset);
    A.emit(lw(Dst, Dst, 0));
  }

  void emitFrameStore(Reg Src, Word Offset, Reg AddrScratch) {
    assert(Src != AddrScratch && "store scratch conflict");
    if (support::fitsSigned(SWord(Offset), 12)) {
      A.emit(sw(SP, Src, SWord(Offset)));
      return;
    }
    emitSpPlus(AddrScratch, Offset);
    A.emit(sw(AddrScratch, Src, 0));
  }

  Word slotOffset(unsigned Slot) const { return SpillBase + Word(Slot) * 4; }

  // -- Variable access ---------------------------------------------------------

  /// Materializes the value of \p V into a register: its home register,
  /// or \p Scratch for spilled variables.
  Reg useVar(FVar V, Reg Scratch) {
    const Location &L = Alloc.VarLoc[V];
    if (L.K == Location::Kind::Register)
      return L.R;
    emitFrameLoad(Scratch, slotOffset(L.Slot));
    return Scratch;
  }

  /// Register into which the value of \p V should be computed.
  Reg defTarget(FVar V, Reg Scratch) {
    const Location &L = Alloc.VarLoc[V];
    return L.K == Location::Kind::Register ? L.R : Scratch;
  }

  /// Completes a definition computed into \p Src.
  void defCommit(FVar V, Reg Src) {
    const Location &L = Alloc.VarLoc[V];
    if (L.K == Location::Kind::Register) {
      if (L.R != Src)
        A.emit(addi(L.R, Src, 0));
      return;
    }
    Reg AddrScratch = Src == T2 ? T1 : T2;
    emitFrameStore(Src, slotOffset(L.Slot), AddrScratch);
  }

  // -- Statement generation -----------------------------------------------------

  bool genStmt(const FStmt &S, std::string &Error) {
    switch (S.K) {
    case FStmt::Kind::Skip:
      return true;
    case FStmt::Kind::Const: {
      Reg Rd = defTarget(S.Dst, T2);
      A.emitLoadImm(Rd, S.Imm);
      defCommit(S.Dst, Rd);
      return true;
    }
    case FStmt::Kind::Copy: {
      Reg Rs = useVar(S.A, T0);
      defCommit(S.Dst, Rs);
      return true;
    }
    case FStmt::Kind::Op: {
      Reg Ra = useVar(S.A, T0);
      Reg Rb = useVar(S.B, T1);
      Reg Rd = defTarget(S.Dst, T2);
      genOp(S.Op, Rd, Ra, Rb);
      defCommit(S.Dst, Rd);
      return true;
    }
    case FStmt::Kind::OpImm: {
      Reg Ra = useVar(S.A, T0);
      Reg Rd = defTarget(S.Dst, T2);
      genOpImm(S.Op, Rd, Ra, S.Imm);
      defCommit(S.Dst, Rd);
      return true;
    }
    case FStmt::Kind::Load: {
      Reg Ra = useVar(S.A, T0);
      Reg Rd = defTarget(S.Dst, T2);
      Opcode Op = S.Size == 4   ? Opcode::Lw
                  : S.Size == 2 ? Opcode::Lhu
                                : Opcode::Lbu;
      if (Op == Opcode::Lbu && fi::on(fi::Fault::CompilerLoadNoZeroExtend))
        Op = Opcode::Lb;
      A.emit(mkI(Op, Rd, Ra, 0));
      defCommit(S.Dst, Rd);
      return true;
    }
    case FStmt::Kind::Store: {
      Reg Ra = useVar(S.A, T0);
      Reg Rb = useVar(S.B, T1);
      Opcode Op = S.Size == 4   ? Opcode::Sw
                  : S.Size == 2 ? Opcode::Sh
                                : Opcode::Sb;
      A.emit(mkS(Op, Ra, Rb, 0));
      return true;
    }
    case FStmt::Kind::If: {
      Reg Rc = useVar(S.CondVar, T0);
      Label ElseL = A.newLabel();
      Label EndL = A.newLabel();
      A.emitBranch(Opcode::Beq, Rc, Zero, ElseL);
      if (!genStmt(*S.S1, Error))
        return false;
      A.emitJal(Zero, EndL);
      A.bind(ElseL);
      if (!genStmt(*S.S2, Error))
        return false;
      A.bind(EndL);
      return true;
    }
    case FStmt::Kind::While: {
      Label HeadL = A.newLabel();
      Label ExitL = A.newLabel();
      A.bind(HeadL);
      if (!genStmt(*S.CondPre, Error))
        return false;
      Reg Rc = useVar(S.CondVar, T0);
      A.emitBranch(Opcode::Beq, Rc, Zero, ExitL);
      if (!genStmt(*S.S1, Error))
        return false;
      A.emitJal(Zero, HeadL);
      A.bind(ExitL);
      return true;
    }
    case FStmt::Kind::Seq:
      return genStmt(*S.S1, Error) && genStmt(*S.S2, Error);
    case FStmt::Kind::Call: {
      if (S.Args.size() > 8 || S.Dsts.size() > 8) {
        Error = "call to '" + S.Callee + "' exceeds 8 arguments/results";
        return false;
      }
      auto It = FunctionLabels.find(S.Callee);
      if (It == FunctionLabels.end()) {
        Error = "call to undefined function '" + S.Callee + "'";
        return false;
      }
      for (size_t I = 0; I != S.Args.size(); ++I) {
        Reg Rs = useVar(S.Args[I], T0);
        A.emit(addi(Reg(A0 + I), Rs, 0));
      }
      A.emitJal(RA, It->second);
      Callees.push_back(S.Callee);
      for (size_t I = 0; I != S.Dsts.size(); ++I)
        defCommit(S.Dsts[I], Reg(A0 + I));
      return true;
    }
    case FStmt::Kind::Interact: {
      if (S.Args.size() > 8 || S.Dsts.size() > 8) {
        Error = "external call '" + S.Callee + "' exceeds 8 args/results";
        return false;
      }
      for (size_t I = 0; I != S.Args.size(); ++I) {
        Reg Rs = useVar(S.Args[I], T0);
        A.emit(addi(Reg(A0 + I), Rs, 0));
      }
      if (!ExtCompiler.emit(A, S.Callee, unsigned(S.Args.size()),
                            unsigned(S.Dsts.size()), Error))
        return false;
      for (size_t I = 0; I != S.Dsts.size(); ++I)
        defCommit(S.Dsts[I], Reg(A0 + I));
      return true;
    }
    case FStmt::Kind::Stackalloc: {
      Reg Rd = defTarget(S.Dst, T2);
      emitSpPlus(Rd, AllocaOffset.at(&S));
      // This dialect defines stackalloc memory as zero-initialized (the
      // checking interpreter hands out fresh zeroed bytes, so the machine
      // level must match). Emit a descending zero-fill loop.
      if (!fi::on(fi::Fault::CompilerStackallocNoZero)) {
        A.emitLoadImm(T0, S.NBytes);
        Label ZeroLoop = A.newLabel();
        A.bind(ZeroLoop);
        A.emit(addi(T0, T0, -4));
        A.emit(mkR(Opcode::Add, T1, Rd, T0));
        A.emit(sw(T1, Zero, 0));
        A.emitBranch(Opcode::Bne, T0, Zero, ZeroLoop);
      }
      defCommit(S.Dst, Rd);
      return genStmt(*S.S1, Error);
    }
    }
    assert(false && "unreachable: exhaustive FlatImp kinds");
    return false;
  }

  void genOp(BinOp Op, Reg Rd, Reg Ra, Reg Rb) {
    switch (Op) {
    case BinOp::Add:
      A.emit(mkR(Opcode::Add, Rd, Ra, Rb));
      return;
    case BinOp::Sub:
      A.emit(mkR(Opcode::Sub, Rd, Ra, Rb));
      return;
    case BinOp::Mul:
      A.emit(mkR(Opcode::Mul, Rd, Ra, Rb));
      return;
    case BinOp::MulHuu:
      A.emit(mkR(Opcode::Mulhu, Rd, Ra, Rb));
      return;
    case BinOp::Divu:
      A.emit(mkR(Opcode::Divu, Rd, Ra, Rb));
      return;
    case BinOp::Remu:
      A.emit(mkR(Opcode::Remu, Rd, Ra, Rb));
      return;
    case BinOp::And:
      A.emit(mkR(Opcode::And, Rd, Ra, Rb));
      return;
    case BinOp::Or:
      A.emit(mkR(Opcode::Or, Rd, Ra, Rb));
      return;
    case BinOp::Xor:
      A.emit(mkR(Opcode::Xor, Rd, Ra, Rb));
      return;
    case BinOp::Sru:
      A.emit(mkR(Opcode::Srl, Rd, Ra, Rb));
      return;
    case BinOp::Slu:
      A.emit(mkR(Opcode::Sll, Rd, Ra, Rb));
      return;
    case BinOp::Srs:
      A.emit(mkR(Opcode::Sra, Rd, Ra, Rb));
      return;
    case BinOp::Lts:
      A.emit(mkR(Opcode::Slt, Rd, Ra, Rb));
      return;
    case BinOp::Ltu:
      A.emit(mkR(Opcode::Sltu, Rd, Ra, Rb));
      return;
    case BinOp::Eq:
      // rd = (a ^ b) == 0, computed via the scratch register so rd may
      // alias an operand.
      A.emit(mkR(Opcode::Xor, T2, Ra, Rb));
      A.emit(mkI(Opcode::Sltiu, Rd, T2, 1));
      return;
    }
    assert(false && "unreachable: exhaustive BinOp switch");
  }

  void genOpImm(BinOp Op, Reg Rd, Reg Ra, Word Imm) {
    SWord S = SWord(Imm);
    bool Fits = support::fitsSigned(S, 12);
    switch (Op) {
    case BinOp::Add:
      if (Fits) {
        A.emit(addi(Rd, Ra, S));
        return;
      }
      break;
    case BinOp::Sub: {
      // Negate in Word: -SWord(0x80000000) would be signed overflow.
      SWord Neg = SWord(Word(0) - Imm);
      if (support::fitsSigned(Neg, 12)) {
        A.emit(addi(Rd, Ra, Neg));
        return;
      }
      break;
    }
    case BinOp::And:
      if (Fits) {
        A.emit(mkI(Opcode::Andi, Rd, Ra, S));
        return;
      }
      break;
    case BinOp::Or:
      if (Fits) {
        A.emit(mkI(Opcode::Ori, Rd, Ra, S));
        return;
      }
      break;
    case BinOp::Xor:
      if (Fits) {
        A.emit(mkI(Opcode::Xori, Rd, Ra, S));
        return;
      }
      break;
    case BinOp::Slu:
      if (Imm < 32) {
        A.emit(mkI(Opcode::Slli, Rd, Ra, SWord(Imm)));
        return;
      }
      break;
    case BinOp::Sru:
      if (Imm < 32) {
        A.emit(mkI(Opcode::Srli, Rd, Ra, SWord(Imm)));
        return;
      }
      break;
    case BinOp::Srs:
      if (Imm < 32) {
        A.emit(mkI(Opcode::Srai, Rd, Ra, SWord(Imm)));
        return;
      }
      break;
    case BinOp::Ltu:
      if (Fits) {
        A.emit(mkI(Opcode::Sltiu, Rd, Ra, S));
        return;
      }
      break;
    case BinOp::Lts:
      if (Fits) {
        A.emit(mkI(Opcode::Slti, Rd, Ra, S));
        return;
      }
      break;
    case BinOp::Eq:
      if (Fits) {
        A.emit(mkI(Opcode::Xori, T2, Ra, S));
        A.emit(mkI(Opcode::Sltiu, Rd, T2, 1));
        return;
      }
      break;
    default:
      break;
    }
    // No immediate form: materialize and use the register form.
    A.emitLoadImm(T1, Imm);
    genOp(Op, Rd, Ra, T1);
  }

  // -- Prologue / epilogue -----------------------------------------------------

  void emitFrameAdjust(bool Enter) {
    if (FrameBytes == 0)
      return;
    SWord Delta = Enter ? -SWord(FrameBytes) : SWord(FrameBytes);
    if (support::fitsSigned(Delta, 12)) {
      A.emit(addi(SP, SP, Delta));
      return;
    }
    A.emitLoadImm(T0, FrameBytes);
    A.emit(mkR(Enter ? Opcode::Sub : Opcode::Add, SP, SP, T0));
  }

  void emitPrologue() {
    emitFrameAdjust(/*Enter=*/true);
    Word Off = SaveBase;
    emitFrameStore(RA, Off, T2);
    Off += 4;
    bool SkipFirst = fi::on(fi::Fault::CompilerCalleeSavedSkip);
    for (Reg R : Alloc.UsedCalleeSaved) {
      if (!SkipFirst)
        emitFrameStore(R, Off, T2);
      SkipFirst = false;
      Off += 4;
    }
    // Move incoming arguments from a-registers to their homes.
    for (size_t I = 0; I != F.Params.size(); ++I)
      defCommit(F.Params[I], Reg(A0 + I));
  }

  bool emitEpilogue(std::string &Error) {
    if (F.Rets.size() > 8) {
      Error = "function '" + F.Name + "' returns more than 8 values";
      return false;
    }
    for (size_t I = 0; I != F.Rets.size(); ++I) {
      Reg Rs = useVar(F.Rets[I], T0);
      A.emit(addi(Reg(A0 + I), Rs, 0));
    }
    Word Off = SaveBase;
    emitFrameLoad(RA, Off);
    Off += 4;
    bool SkipFirst = fi::on(fi::Fault::CompilerCalleeSavedSkip);
    for (Reg R : Alloc.UsedCalleeSaved) {
      if (!SkipFirst)
        emitFrameLoad(R, Off);
      SkipFirst = false;
      Off += 4;
    }
    emitFrameAdjust(/*Enter=*/false);
    A.emit(jalr(Zero, RA, 0));
    return true;
  }
};

} // namespace

std::optional<FunctionCode> b2::compiler::generateFunction(
    Asm &A, const FlatFunction &F, const Allocation &Alloc,
    const std::map<std::string, Label> &FunctionLabels,
    ExtCallCompiler &ExtCompiler, std::string &Error) {
  if (F.Params.size() > 8) {
    Error = "function '" + F.Name + "' takes more than 8 parameters";
    return std::nullopt;
  }
  FunctionCodegen G(A, F, Alloc, FunctionLabels, ExtCompiler);
  return G.run(Error);
}
