//===- bedrock2/Bytecode.h - Compiled checking interpreter -----*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fast path of the checking interpreter: a one-time resolution pass
/// over a bedrock2::Program that interns every variable name to a dense
/// frame-slot index, resolves callees and checks arities once, and
/// flattens each function body into a compact bytecode executed by a
/// switch-dispatch loop — replacing the AST walker's per-step
/// string-keyed hash lookups and shared_ptr chasing.
///
/// The fast path performs *exactly* the same checks as the reference
/// walker (bedrock2/Semantics.cpp) and must report every runtime fault —
/// UnboundVariable, footprint and alignment violations, arity mismatches,
/// fuel exhaustion, contract faults — with the identical Fault kind,
/// Detail string, StepsUsed, DivByZeroCount, I/O trace, and return tuple.
/// Faults that the resolution pass can already see statically (unknown
/// callee, call-site arity mismatch, bad stackalloc size) compile to
/// fault instructions that raise at the same dynamic point the walker
/// would, so compile-time knowledge never changes observable behavior:
/// dead faulty code stays silent, reachable faulty code faults
/// identically. ExecMode::Differential (bedrock2/Semantics.h) enforces
/// this equivalence on every run, making the bytecode engine a second
/// semantics witness in the same two-path style as the ISA simulator's
/// block engine (DESIGN.md section 4).
///
//===----------------------------------------------------------------------===//

#ifndef B2_BEDROCK2_BYTECODE_H
#define B2_BEDROCK2_BYTECODE_H

#include "bedrock2/Semantics.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace b2 {
namespace bedrock2 {

namespace bc {

/// The full operation list as an X-macro so the enum and the executor's
/// computed-goto jump table are generated from one source and can never
/// fall out of order. Expressions evaluate on an operand stack in the
/// reference walker's evaluation order; statements mirror execStmt one
/// case at a time, including its fuel accounting. The compiled stream
/// is exactly what the resolution pass emits.
///   PushLit      push Imm.
///   PushVar      push slot A (fault: UnboundVariable, detail Str).
///   LoadMem      pop addr; push load of U8 bytes (align + footprint).
///   Binop        pop rhs, lhs; push BinOp(U8) result; counts div-by-0.
///   SetVar       pop value into slot A.
///   StoreMem     pop value, addr; store U8 bytes (align + footprint).
///   Jump         pc = Arg.
///   JumpIfZero   pop cond; if 0, pc = Arg.
///   StepStmt     fuel check + StepsUsed++ ("statement budget exhausted").
///   StepLoop     per-iteration fuel check ("loop budget exhausted").
///   CheckInv     pop; fault InvariantViolated if 0.
///   MeasReset    clear measure state A of this frame.
///   MeasCheck    pop; fault MeasureNotDecreasing unless decreasing.
///   CallBind     call site Arg: run callee, bind rets to dst slots.
///   CallDrop     call function Arg, discard rets (a StaticFault follows).
///   InteractExt  external call site Arg (args popped, trace recorded).
///   EnterAlloc   stackalloc site Arg: carve + own + bind pointer.
///   LeaveAlloc   stackalloc scope exit: disown + release.
///   StaticFault  fault(Fault(U8), Str): a statically-resolved fault site.
///   CheckPre     pop; fault PreconditionFailed if 0 (detail Str).
///   CheckPost    pop; fault PostconditionFailed if 0 (detail Str).
///   CollectRet   append slot A to the return tuple (Str if unbound).
///   Return       function epilogue.
#define B2_BC_OP_LIST(X)                                                     \
  X(PushLit) X(PushVar) X(LoadMem) X(Binop) X(SetVar) X(StoreMem) X(Jump)    \
  X(JumpIfZero) X(StepStmt) X(StepLoop) X(CheckInv) X(MeasReset)             \
  X(MeasCheck) X(CallBind) X(CallDrop) X(InteractExt) X(EnterAlloc)          \
  X(LeaveAlloc) X(StaticFault) X(CheckPre) X(CheckPost) X(CollectRet)        \
  X(Return)

enum class Op : uint8_t {
#define B2_BC_OP_ENUM(N) N,
  B2_BC_OP_LIST(B2_BC_OP_ENUM)
#undef B2_BC_OP_ENUM
};

/// One instruction; 16 bytes, trivially copyable.
struct Insn {
  Op K;
  uint8_t U8 = 0;    ///< Access size / BinOp / Fault kind.
  uint16_t A = 0;    ///< Frame slot / dst-list index / measure index.
  uint32_t Arg = 0;  ///< Jump target / function / site index.
  uint32_t Str = 0;  ///< Interned fault-detail string index.
  Word Imm = 0;      ///< Literal value.
};

/// A resolved internal call site: callee index plus the destination
/// slots its result tuple binds to (arity already checked — mismatches
/// compile to CallDrop + StaticFault instead).
struct CallSite {
  uint32_t Fn = 0;
  std::vector<uint16_t> Dsts;
};

/// An Interact site: everything the runtime needs that is known at
/// compile time, with the two static fault details preformatted.
struct InteractSite {
  std::string Action;
  uint32_t NumArgs = 0;
  std::vector<uint16_t> Dsts;
  uint32_t BindDetail = 0; ///< "external '...' binds N results".
};

/// A stackalloc site (size already validated; invalid sizes compile to
/// StaticFault instead).
struct AllocSite {
  uint16_t VarSlot = 0;
  Word NBytes = 0;
};

} // namespace bc

/// Reusable execution arenas. A caller that makes many calls against one
/// BytecodeProgram (Interp, the benches, the fuzz harnesses) passes the
/// same scratch to every run() so the operand stack and frame arenas
/// keep their capacity instead of re-allocating from empty on each call
/// — per-call setup cost matters when the average call is only a few
/// thousand steps. Holds no call state between runs, only capacity.
struct ExecScratch {
  std::vector<Word> Stack;
  std::vector<Word> Slots;
  std::vector<uint8_t> Bound;
  std::vector<Word> MeasVal;
  std::vector<uint8_t> MeasHave;
  std::vector<std::pair<Word, Word>> AllocScopes;
};

/// A whole bedrock2::Program compiled to bytecode. Compilation never
/// fails; see the file comment for how statically-detected faults are
/// represented.
class BytecodeProgram {
public:
  explicit BytecodeProgram(const Program &P);

  /// Runs \p Fn(\p Args) to completion under the same checking semantics
  /// as Interp's reference walker, against \p Mem and \p Ext. \p Scratch,
  /// when given, supplies reusable arenas (see ExecScratch).
  ExecResult run(const std::string &Fn, const std::vector<Word> &Args,
                 ExtSpec &Ext, Footprint &Mem, uint64_t Fuel,
                 const StackallocPolicy &Policy,
                 ExecScratch *Scratch = nullptr) const;

  /// Static shape, for benches and tests.
  size_t numFunctions() const { return Funcs.size(); }
  size_t numInstructions() const;

private:
  struct BcFunction {
    std::string Name;
    uint32_t NumParams = 0;
    uint32_t NumRets = 0;
    uint32_t NumSlots = 0;
    uint32_t NumMeasures = 0;
    /// Maximum operand-stack depth of one activation, computed during
    /// compilation — lets the executor reserve a frame's whole stack
    /// window up front and push/pop through a raw pointer.
    uint32_t MaxStack = 0;
    std::vector<bc::Insn> Code;
  };

  std::vector<BcFunction> Funcs;
  std::map<std::string, uint32_t> Index;
  std::vector<std::string> Strings;
  std::vector<bc::CallSite> Calls;
  std::vector<bc::InteractSite> Interacts;
  std::vector<bc::AllocSite> Allocs;

  class Compiler;
  struct Exec;
};

} // namespace bedrock2
} // namespace b2

#endif // B2_BEDROCK2_BYTECODE_H
