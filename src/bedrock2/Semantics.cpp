//===- bedrock2/Semantics.cpp - Checking interpreter ------------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "bedrock2/Semantics.h"

#include "bedrock2/Bytecode.h"
#include "devices/MemoryMap.h"
#include "support/Format.h"
#include "verify/FaultInjection.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace b2;
using namespace b2::bedrock2;
using namespace b2::support;

ExtSpec::~ExtSpec() = default;

ExtSpec::Outcome MmioExtSpec::call(const std::string &Action,
                                   const std::vector<Word> &Args,
                                   Footprint &Mem) {
  (void)Mem; // MMIO neither grants nor revokes memory (section 6.2 notes
             // DMA would; the lightbulb platform has none).
  Outcome Out;
  // Dispatch with one length-gated memcmp per candidate action instead of
  // repeated full std::string compares; this runs once per MMIO
  // interaction in every fleet, and the success path below allocates no
  // strings at all (hex32 formatting happens only on failure).
  const bool IsRead =
      Action.size() == 8 && std::memcmp(Action.data(), "MMIOREAD", 8) == 0;
  const bool IsWrite = !IsRead && Action.size() == 9 &&
                       std::memcmp(Action.data(), "MMIOWRITE", 9) == 0;
  if (!IsRead && !IsWrite) {
    Out.Ok = false;
    Out.Error = "unknown external procedure '" + Action + "'";
    return Out;
  }
  if (Args.size() != (IsRead ? 1u : 2u)) {
    Out.Ok = false;
    Out.Error = IsRead ? "MMIOREAD expects 1 argument"
                       : "MMIOWRITE expects 2 arguments";
    return Out;
  }
  // The vcextern instance for the lightbulb platform (section 6.1): the
  // address must be a word-aligned MMIO address; MMIO must not alias the
  // physical memory (external invariant, section 6.3).
  const Word Addr = Args[0];
  if (!devices::isMmioAddr(Addr)) {
    Out.Ok = false;
    Out.Error = "address " + hex32(Addr) + " is not an MMIO address";
    return Out;
  }
  if (!isAligned(Addr, 4)) {
    Out.Ok = false;
    Out.Error = "MMIO address " + hex32(Addr) + " is not word-aligned";
    return Out;
  }
  if (Addr < RamBytes) {
    Out.Ok = false;
    Out.Error = "MMIO address " + hex32(Addr) + " overlaps physical memory";
    return Out;
  }
  if (IsRead) {
    Word V = Device.load(Addr, 4);
    Trace.push_back(riscv::MmioEvent{/*IsStore=*/false, Addr, V, 4});
    Out.Rets = {V};
    return Out;
  }
  Device.store(Addr, 4, Args[1]);
  Trace.push_back(riscv::MmioEvent{/*IsStore=*/true, Addr, Args[1], 4});
  return Out;
}

const char *b2::bedrock2::faultName(Fault F) {
  switch (F) {
  case Fault::None:
    return "none";
  case Fault::UnboundVariable:
    return "unbound-variable";
  case Fault::LoadOutsideFootprint:
    return "load-outside-footprint";
  case Fault::StoreOutsideFootprint:
    return "store-outside-footprint";
  case Fault::MisalignedAccess:
    return "misaligned-access";
  case Fault::UnknownFunction:
    return "unknown-function";
  case Fault::ArityMismatch:
    return "arity-mismatch";
  case Fault::ExtContractViolation:
    return "extcall-contract-violation";
  case Fault::OutOfFuel:
    return "out-of-fuel";
  case Fault::StackallocMisuse:
    return "stackalloc-misuse";
  case Fault::PreconditionFailed:
    return "precondition-failed";
  case Fault::PostconditionFailed:
    return "postcondition-failed";
  case Fault::InvariantViolated:
    return "invariant-violated";
  case Fault::MeasureNotDecreasing:
    return "measure-not-decreasing";
  }
  return "unknown";
}

const char *b2::bedrock2::execModeName(ExecMode M) {
  switch (M) {
  case ExecMode::Reference:
    return "reference";
  case ExecMode::Fast:
    return "fast";
  case ExecMode::Differential:
    return "differential";
  }
  return "unknown";
}

// -- Footprint ---------------------------------------------------------------

namespace {
/// One past the last byte of the 32-bit address space, in the linearized
/// coordinate the interval set uses.
constexpr uint64_t SpaceEnd = uint64_t(1) << 32;
} // namespace

Footprint::Footprint(const Footprint &O)
    : Pages(O.Pages), Intervals(O.Intervals), OwnedBytes(O.OwnedBytes),
      Epoch(O.Epoch) {}

Footprint &Footprint::operator=(const Footprint &O) {
  Pages = O.Pages;
  Intervals = O.Intervals;
  OwnedBytes = O.OwnedBytes;
  Epoch = O.Epoch;
  CachedIdx = ~Word(0);
  CachedPage = nullptr;
  OwnCacheLo = 1;
  OwnCacheHi = 0;
  return *this;
}

std::vector<uint8_t> &Footprint::pageFor(Word Addr) {
  Word Idx = Addr >> PageShift;
  if (Idx == CachedIdx && CachedPage)
    return *CachedPage;
  auto [It, Inserted] = Pages.try_emplace(Idx);
  if (Inserted)
    It->second.assign(PageBytes, 0);
  // unordered_map nodes are pointer-stable, so the cache survives later
  // insertions.
  CachedIdx = Idx;
  CachedPage = &It->second;
  return It->second;
}

const std::vector<uint8_t> *Footprint::findPage(Word Addr) const {
  Word Idx = Addr >> PageShift;
  if (Idx == CachedIdx && CachedPage)
    return CachedPage;
  auto It = Pages.find(Idx);
  if (It == Pages.end())
    return nullptr;
  CachedIdx = Idx;
  CachedPage = const_cast<std::vector<uint8_t> *>(&It->second);
  return CachedPage;
}

void Footprint::zeroRange(uint64_t Start, uint64_t End) {
  while (Start < End) {
    Word Addr = Word(Start);
    std::vector<uint8_t> &Pg = pageFor(Addr);
    Word Off = Addr & (PageBytes - 1);
    uint64_t N = std::min<uint64_t>(PageBytes - Off, End - Start);
    std::memset(Pg.data() + Off, 0, size_t(N));
    Start += N;
  }
}

namespace {
/// First interval whose start is greater than \p V.
template <typename IntervalVec>
inline auto intervalAfter(IntervalVec &Iv, uint64_t V) {
  return std::upper_bound(
      Iv.begin(), Iv.end(), V,
      [](uint64_t X, const std::pair<uint64_t, uint64_t> &P) {
        return X < P.first;
      });
}
} // namespace

void Footprint::ownRange(uint64_t Start, uint64_t End) {
  OwnCacheLo = 1;
  OwnCacheHi = 0;
  zeroRange(Start, End);
  // Merge with every interval overlapping or adjacent to [Start, End),
  // keeping the set coalesced (maximal disjoint intervals) so `owns` is
  // a single predecessor lookup.
  auto It = intervalAfter(Intervals, Start);
  if (It != Intervals.begin()) {
    auto Prev = std::prev(It);
    if (Prev->second >= Start)
      It = Prev;
  }
  uint64_t NewS = Start, NewE = End;
  auto First = It;
  while (It != Intervals.end() && It->first <= NewE) {
    NewS = std::min(NewS, It->first);
    NewE = std::max(NewE, It->second);
    OwnedBytes -= size_t(It->second - It->first);
    ++It;
  }
  if (First != It) {
    if (NewE - NewS > 1 && fi::on(fi::Fault::FootprintCoalesceDropByte))
      --NewE; // Seeded bug: the merged union loses its last byte.
    *First = {NewS, NewE};
    Intervals.erase(First + 1, It);
  } else {
    Intervals.insert(First, {NewS, NewE});
  }
  OwnedBytes += size_t(NewE - NewS);
}

void Footprint::disownRange(uint64_t Start, uint64_t End) {
  OwnCacheLo = 1;
  OwnCacheHi = 0;
  auto It = intervalAfter(Intervals, Start);
  if (It != Intervals.begin()) {
    auto Prev = std::prev(It);
    if (Prev->second > Start)
      It = Prev;
  }
  // At most one left remnant (the first overlapping interval can straddle
  // Start) and one right remnant (the last can straddle End).
  std::pair<uint64_t, uint64_t> Keep[2];
  size_t NKeep = 0;
  auto First = It;
  while (It != Intervals.end() && It->first < End) {
    uint64_t IS = It->first, IE = It->second;
    OwnedBytes -= size_t(IE - IS);
    if (IS < Start) {
      Keep[NKeep++] = {IS, Start};
      OwnedBytes += size_t(Start - IS);
    }
    ++It;
    if (IE > End) {
      Keep[NKeep++] = {End, IE};
      OwnedBytes += size_t(IE - End);
      break;
    }
  }
  size_t Span = size_t(It - First);
  if (NKeep <= Span) {
    std::copy(Keep, Keep + NKeep, First);
    Intervals.erase(First + NKeep, It);
  } else { // NKeep == 2, Span == 1: one interval split in two.
    *First = Keep[0];
    Intervals.insert(First + 1, Keep[1]);
  }
}

bool Footprint::ownsRange(uint64_t Start, uint64_t End) const {
  if (OwnCacheLo <= Start && End <= OwnCacheHi)
    return true;
  auto It = intervalAfter(Intervals, Start);
  if (It == Intervals.begin())
    return false;
  --It;
  if (It->first <= Start && It->second >= End) {
    OwnCacheLo = It->first;
    OwnCacheHi = It->second;
    return true;
  }
  return false;
}

void Footprint::own(Word Addr, Word Len) {
  if (Len == 0)
    return;
  ++Epoch;
  uint64_t Start = Addr, End = uint64_t(Addr) + Len;
  if (End <= SpaceEnd) {
    ownRange(Start, End);
  } else {
    // The range wraps the 2^32 boundary, like per-byte Addr + I would.
    ownRange(Start, SpaceEnd);
    ownRange(0, End - SpaceEnd);
  }
}

void Footprint::disown(Word Addr, Word Len) {
  if (Len == 0)
    return;
  ++Epoch;
  uint64_t Start = Addr, End = uint64_t(Addr) + Len;
  if (End <= SpaceEnd) {
    disownRange(Start, End);
  } else {
    disownRange(Start, SpaceEnd);
    disownRange(0, End - SpaceEnd);
  }
}

bool Footprint::ownsSlow(Word Addr, Word Len) const {
  if (Len == 0)
    return true;
  uint64_t Start = Addr, End = uint64_t(Addr) + Len;
  if (End <= SpaceEnd)
    return ownsRange(Start, End);
  return ownsRange(Start, SpaceEnd) && ownsRange(0, End - SpaceEnd);
}

uint8_t Footprint::read(Word Addr) const {
  const std::vector<uint8_t> *Pg = findPage(Addr);
  assert(Pg && owns(Addr, 1) && "read of unowned byte");
  return (*Pg)[Addr & (PageBytes - 1)];
}

void Footprint::write(Word Addr, uint8_t V) {
  assert(owns(Addr, 1) && "write of unowned byte");
  ++Epoch;
  pageFor(Addr)[Addr & (PageBytes - 1)] = V;
}

Word Footprint::readLeSlow(Word Addr, unsigned Size) const {
  Word Off = Addr & (PageBytes - 1);
  if (Off + Size <= PageBytes) {
    const std::vector<uint8_t> *Pg = findPage(Addr);
    assert(Pg && owns(Addr, Size) && "read of unowned bytes");
    const uint8_t *B = Pg->data() + Off;
    Word V = 0;
    for (unsigned I = 0; I != Size; ++I)
      V |= Word(B[I]) << (8 * I);
    return V;
  }
  Word V = 0; // Page-crossing (or address-wrapping) slow path.
  for (unsigned I = 0; I != Size; ++I)
    V |= Word(read(Addr + I)) << (8 * I);
  return V;
}

void Footprint::writeLeSlow(Word Addr, unsigned Size, Word V) {
  ++Epoch;
  Word Off = Addr & (PageBytes - 1);
  if (Off + Size <= PageBytes) {
    assert(owns(Addr, Size) && "write of unowned bytes");
    uint8_t *B = pageFor(Addr).data() + Off;
    for (unsigned I = 0; I != Size; ++I)
      B[I] = uint8_t((V >> (8 * I)) & 0xFF);
    return;
  }
  for (unsigned I = 0; I != Size; ++I) {
    assert(owns(Addr + I, 1) && "write of unowned byte");
    pageFor(Addr + I)[(Addr + I) & (PageBytes - 1)] =
        uint8_t((V >> (8 * I)) & 0xFF);
  }
}

std::vector<std::pair<Word, Word>> Footprint::intervals() const {
  std::vector<std::pair<Word, Word>> Out;
  Out.reserve(Intervals.size());
  for (const auto &[S, E] : Intervals)
    Out.emplace_back(Word(S), Word(E - S));
  return Out;
}

bool Footprint::identical(const Footprint &O) const {
  if (Intervals != O.Intervals)
    return false;
  for (const auto &[S, E] : Intervals) {
    uint64_t A = S;
    while (A < E) {
      Word Addr = Word(A);
      Word Off = Addr & (PageBytes - 1);
      uint64_t N = std::min<uint64_t>(PageBytes - Off, E - A);
      const std::vector<uint8_t> *P1 = findPage(Addr);
      const std::vector<uint8_t> *P2 = O.findPage(Addr);
      if (!P1 || !P2)
        return false; // Owned bytes always have pages; be conservative.
      if (std::memcmp(P1->data() + Off, P2->data() + Off, size_t(N)) != 0)
        return false;
      A += N;
    }
  }
  return true;
}

// -- Interpreter ---------------------------------------------------------------

Interp::Interp(const Program &P, ExtSpec &Ext, uint64_t Fuel,
               const StackallocPolicy &Policy, ExecMode Mode,
               std::shared_ptr<const BytecodeProgram> Compiled)
    : Prog(P), Ext(Ext), Fuel(Fuel), Policy(Policy), Mode(Mode),
      Bc(std::move(Compiled)) {
  StackNext = Policy.Base - (Policy.Salt & ~Word(3));
  ActiveExt = &this->Ext;
}

Interp::~Interp() = default;

const BytecodeProgram &Interp::compiled() {
  if (!Bc)
    Bc = std::make_shared<const BytecodeProgram>(Prog);
  if (!Scratch)
    Scratch = std::make_unique<ExecScratch>();
  return *Bc;
}

bool Interp::fault(Fault F, std::string Detail) {
  if (Result.F == Fault::None) {
    Result.F = F;
    Result.Detail = std::move(Detail);
  }
  return false;
}

bool Interp::evalExpr(const Expr &E, const Locals &L, Word &Out) {
  switch (E.K) {
  case Expr::Kind::Literal:
    Out = E.Lit;
    return true;
  case Expr::Kind::Var: {
    auto It = L.find(E.Name);
    if (It == L.end())
      return fault(Fault::UnboundVariable, "variable '" + E.Name + "'");
    Out = It->second;
    return true;
  }
  case Expr::Kind::Load: {
    Word Addr;
    if (!evalExpr(*E.A, L, Addr))
      return false;
    if (!isAligned(Addr, E.Size))
      return fault(Fault::MisalignedAccess,
                   "load" + std::to_string(E.Size) + " at " + hex32(Addr));
    if (!Mem.owns(Addr, E.Size))
      return fault(Fault::LoadOutsideFootprint,
                   "load" + std::to_string(E.Size) + " at " + hex32(Addr));
    Out = Mem.readLe(Addr, E.Size);
    return true;
  }
  case Expr::Kind::Op: {
    Word A, B;
    if (!evalExpr(*E.A, L, A) || !evalExpr(*E.B, L, B))
      return false;
    if ((E.Op == BinOp::Divu || E.Op == BinOp::Remu) && B == 0)
      ++Result.DivByZeroCount;
    Out = evalBinOp(E.Op, A, B);
    return true;
  }
  }
  assert(false && "unreachable: exhaustive expression kinds");
  return false;
}

bool Interp::execCall(const std::string &Callee,
                      const std::vector<Word> &ArgVals,
                      std::vector<Word> &Rets) {
  const Function *F = Prog.find(Callee);
  if (!F)
    return fault(Fault::UnknownFunction, "function '" + Callee + "'");
  if (F->Params.size() != ArgVals.size())
    return fault(Fault::ArityMismatch,
                 "call to '" + Callee + "' with " +
                     std::to_string(ArgVals.size()) + " args, expected " +
                     std::to_string(F->Params.size()));
  Locals L;
  for (size_t I = 0; I != ArgVals.size(); ++I)
    L[F->Params[I]] = ArgVals[I];
  // The contract's precondition (vcgen is invoked under P, section 4.1).
  if (F->Pre) {
    Word P;
    if (!evalExpr(*F->Pre, L, P))
      return false;
    if (P == 0)
      return fault(Fault::PreconditionFailed,
                   "requires clause of '" + Callee + "'");
  }
  if (!execStmt(*F->Body, L))
    return false;
  Rets.clear();
  for (const std::string &R : F->Rets) {
    auto It = L.find(R);
    if (It == L.end())
      return fault(Fault::UnboundVariable,
                   "return variable '" + R + "' of '" + Callee + "'");
    Rets.push_back(It->second);
  }
  // The contract's postcondition Q, over final parameter values and the
  // results.
  if (F->Post) {
    Word Q;
    if (!evalExpr(*F->Post, L, Q))
      return false;
    if (Q == 0)
      return fault(Fault::PostconditionFailed,
                   "ensures clause of '" + Callee + "'");
  }
  return true;
}

bool Interp::execStmt(const Stmt &S, Locals &L) {
  if (Result.StepsUsed >= Fuel)
    return fault(Fault::OutOfFuel, "statement budget exhausted");
  ++Result.StepsUsed;

  switch (S.K) {
  case Stmt::Kind::Skip:
    return true;
  case Stmt::Kind::Set: {
    Word V;
    if (!evalExpr(*S.Value, L, V))
      return false;
    L[S.Var] = V;
    return true;
  }
  case Stmt::Kind::Store: {
    Word Addr, V;
    if (!evalExpr(*S.Addr, L, Addr) || !evalExpr(*S.Value, L, V))
      return false;
    if (!isAligned(Addr, S.Size))
      return fault(Fault::MisalignedAccess,
                   "store" + std::to_string(S.Size) + " at " + hex32(Addr));
    if (!Mem.owns(Addr, S.Size))
      return fault(Fault::StoreOutsideFootprint,
                   "store" + std::to_string(S.Size) + " at " + hex32(Addr));
    Mem.writeLe(Addr, S.Size, V);
    return true;
  }
  case Stmt::Kind::If: {
    Word C;
    if (!evalExpr(*S.Cond, L, C))
      return false;
    return execStmt(C != 0 ? *S.S1 : *S.S2, L);
  }
  case Stmt::Kind::While: {
    // vcgen's loop case "asks for a loop invariant and a decreasing
    // measure instead of unrolling the loop" (section 4.1); when the
    // annotations are present the interpreter enforces them.
    bool HavePrev = false;
    Word PrevMeasure = 0;
    for (;;) {
      if (S.Invariant) {
        Word Inv;
        if (!evalExpr(*S.Invariant, L, Inv))
          return false;
        if (Inv == 0)
          return fault(Fault::InvariantViolated, "loop invariant");
      }
      Word C;
      if (!evalExpr(*S.Cond, L, C))
        return false;
      if (C == 0)
        return true;
      if (S.Measure) {
        Word M;
        if (!evalExpr(*S.Measure, L, M))
          return false;
        if (HavePrev && M >= PrevMeasure)
          return fault(Fault::MeasureNotDecreasing,
                       "measure " + std::to_string(M) +
                           " after " + std::to_string(PrevMeasure));
        PrevMeasure = M;
        HavePrev = true;
      }
      if (!execStmt(*S.S1, L))
        return false;
      if (Result.StepsUsed >= Fuel)
        return fault(Fault::OutOfFuel, "loop budget exhausted");
      ++Result.StepsUsed;
    }
  }
  case Stmt::Kind::Seq:
    return execStmt(*S.S1, L) && execStmt(*S.S2, L);
  case Stmt::Kind::Call: {
    std::vector<Word> ArgVals(S.Args.size());
    for (size_t I = 0; I != S.Args.size(); ++I)
      if (!evalExpr(*S.Args[I], L, ArgVals[I]))
        return false;
    std::vector<Word> Rets;
    if (!execCall(S.Callee, ArgVals, Rets))
      return false;
    if (Rets.size() != S.Dsts.size())
      return fault(Fault::ArityMismatch,
                   "call to '" + S.Callee + "' binds " +
                       std::to_string(S.Dsts.size()) + " results, returns " +
                       std::to_string(Rets.size()));
    for (size_t I = 0; I != Rets.size(); ++I)
      L[S.Dsts[I]] = Rets[I];
    return true;
  }
  case Stmt::Kind::Interact: {
    std::vector<Word> ArgVals(S.Args.size());
    for (size_t I = 0; I != S.Args.size(); ++I)
      if (!evalExpr(*S.Args[I], L, ArgVals[I]))
        return false;
    ExtSpec::Outcome Out = ActiveExt->call(S.Callee, ArgVals, Mem);
    if (!Out.Ok)
      return fault(Fault::ExtContractViolation,
                   "'" + S.Callee + "': " + Out.Error);
    if (Out.Rets.size() != S.Dsts.size())
      return fault(Fault::ArityMismatch,
                   "external '" + S.Callee + "' binds " +
                       std::to_string(S.Dsts.size()) + " results");
    // "The semantics records the latter in an interaction trace" (5.2).
    Result.Trace.push_back(IoEvent{S.Callee, ArgVals, Out.Rets});
    for (size_t I = 0; I != Out.Rets.size(); ++I)
      L[S.Dsts[I]] = Out.Rets[I];
    return true;
  }
  case Stmt::Kind::Stackalloc: {
    if (S.NBytes == 0 || S.NBytes % 4 != 0)
      return fault(Fault::StackallocMisuse,
                   "size " + std::to_string(S.NBytes));
    // Resolve the internal nondeterminism: pick the next address from the
    // policy-controlled arena. The program must not depend on the value.
    StackNext -= S.NBytes;
    Word Addr = StackNext;
    Mem.own(Addr, S.NBytes);
    L[S.Var] = Addr;
    bool OkBody = execStmt(*S.S1, L);
    // Ownership ends with the block, even on fault (the fault sticks).
    Mem.disown(Addr, S.NBytes);
    StackNext += S.NBytes;
    return OkBody;
  }
  }
  assert(false && "unreachable: exhaustive statement kinds");
  return false;
}

ExecResult Interp::runReference(const std::string &FuncName,
                                const std::vector<Word> &Args) {
  Result = ExecResult();
  std::vector<Word> Rets;
  if (execCall(FuncName, Args, Rets))
    Result.Rets = std::move(Rets);
  return std::move(Result);
}

// -- Differential record/replay ------------------------------------------------

namespace {

/// One recorded external interaction of the reference run, with enough
/// context to re-supply it to the fast run and to detect divergence.
struct RecordedCall {
  std::string Action;
  std::vector<Word> Args;
  ExtSpec::Outcome Out;
  bool MemChanged = false;
  Footprint MemAfter; ///< Snapshot when the call touched memory (DMA).
};

/// Forwards to the real ExtSpec, logging every call. The reference run
/// in differential mode uses this, so real device effects happen exactly
/// once.
class RecordingExt final : public ExtSpec {
public:
  explicit RecordingExt(ExtSpec &Inner) : Inner(Inner) {}

  Outcome call(const std::string &Action, const std::vector<Word> &Args,
               Footprint &Mem) override {
    uint64_t Epoch0 = Mem.mutationEpoch();
    Outcome Out = Inner.call(Action, Args, Mem);
    RecordedCall C;
    C.Action = Action;
    C.Args = Args;
    C.Out = Out;
    C.MemChanged = Mem.mutationEpoch() != Epoch0;
    if (C.MemChanged)
      C.MemAfter = Mem;
    Log.push_back(std::move(C));
    return Out;
  }

  std::vector<RecordedCall> Log;

private:
  ExtSpec &Inner;
};

/// Replays the recorded interactions to the fast run, checking that it
/// asks for the same externals with the same arguments in the same
/// order. Memory-touching calls re-apply the recorded post-call
/// footprint, so DMA-style grants replay faithfully.
class ReplayExt final : public ExtSpec {
public:
  explicit ReplayExt(const std::vector<RecordedCall> &Log) : Log(Log) {}

  Outcome call(const std::string &Action, const std::vector<Word> &Args,
               Footprint &Mem) override {
    if (Next >= Log.size()) {
      note("fast path made an extra external call '" + Action + "'");
      Outcome Out;
      Out.Ok = false;
      Out.Error = "[differential] unexpected external call";
      return Out;
    }
    const RecordedCall &C = Log[Next++];
    if (C.Action != Action || C.Args != Args)
      note("external call " + std::to_string(Next - 1) +
           " differs: reference '" + C.Action + "' vs fast '" + Action +
           "'");
    if (C.MemChanged)
      Mem = C.MemAfter;
    return C.Out;
  }

  std::string Mismatch;

private:
  void note(std::string M) {
    if (Mismatch.empty())
      Mismatch = std::move(M);
  }

  const std::vector<RecordedCall> &Log;
  size_t Next = 0;
};

} // namespace

ExecResult Interp::callFunction(const std::string &FuncName,
                                const std::vector<Word> &Args) {
  switch (Mode) {
  case ExecMode::Reference:
    return runReference(FuncName, Args);
  case ExecMode::Fast:
    return compiled().run(FuncName, Args, Ext, Mem, Fuel, Policy,
                          Scratch.get());
  case ExecMode::Differential:
    break;
  }

  // Differential: the reference engine runs against the real ExtSpec and
  // footprint (and stays authoritative for both), while the fast engine
  // replays the recorded interactions against a pre-run footprint copy.
  // Every observable of the two runs must then agree bit for bit.
  const BytecodeProgram &BP = compiled();
  Footprint FastMem = Mem;
  RecordingExt Rec(Ext);
  ActiveExt = &Rec;
  ExecResult Ref = runReference(FuncName, Args);
  ActiveExt = &Ext;
  ReplayExt Rep(Rec.Log);
  ExecResult Fast =
      BP.run(FuncName, Args, Rep, FastMem, Fuel, Policy, Scratch.get());

  std::string D;
  auto Mismatch = [&D](const std::string &What) {
    if (!D.empty())
      D += "; ";
    D += What;
  };
  if (Ref.F != Fast.F)
    Mismatch(std::string("fault kind: reference ") + faultName(Ref.F) +
             " vs fast " + faultName(Fast.F));
  if (Ref.Detail != Fast.Detail)
    Mismatch("fault detail: reference '" + Ref.Detail + "' vs fast '" +
             Fast.Detail + "'");
  if (Ref.Rets != Fast.Rets)
    Mismatch("return tuples differ");
  if (!(Ref.Trace == Fast.Trace))
    Mismatch("I/O traces differ (reference " +
             std::to_string(Ref.Trace.size()) + " events, fast " +
             std::to_string(Fast.Trace.size()) + ")");
  if (Ref.StepsUsed != Fast.StepsUsed)
    Mismatch("StepsUsed: reference " + std::to_string(Ref.StepsUsed) +
             " vs fast " + std::to_string(Fast.StepsUsed));
  if (Ref.DivByZeroCount != Fast.DivByZeroCount)
    Mismatch("DivByZeroCount: reference " +
             std::to_string(Ref.DivByZeroCount) + " vs fast " +
             std::to_string(Fast.DivByZeroCount));
  if (!Rep.Mismatch.empty())
    Mismatch(Rep.Mismatch);
  if (!Mem.identical(FastMem))
    Mismatch("final footprints differ");
  if (!D.empty()) {
    ++NumDivergences;
    if (!Divergences.empty())
      Divergences += "\n";
    Divergences += "callFunction('" + FuncName + "'): " + D;
  }
  return Ref;
}
