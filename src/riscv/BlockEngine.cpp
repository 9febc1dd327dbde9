//===- riscv/BlockEngine.cpp - Superblock trace execution engine -----------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "riscv/BlockEngine.h"

#include "isa/Encoding.h"
#include "riscv/Exec.h"
#include "riscv/Step.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "verify/FaultInjection.h"

#include <algorithm>

using namespace b2;
using namespace b2::riscv;
using namespace b2::support;

const char *b2::riscv::execModeName(ExecMode Mode) {
  switch (Mode) {
  case ExecMode::Reference:
    return "reference";
  case ExecMode::Block:
    return "block";
  case ExecMode::Differential:
    return "differential";
  }
  return "unknown";
}

bool b2::riscv::execModeByName(const std::string &Name, ExecMode &Out) {
  if (Name == "reference") {
    Out = ExecMode::Reference;
    return true;
  }
  if (Name == "block") {
    Out = ExecMode::Block;
    return true;
  }
  if (Name == "differential" || Name == "diff") {
    Out = ExecMode::Differential;
    return true;
  }
  return false;
}

BlockEngine::BlockEngine(Machine &M, MmioDevice &Device, ExecMode Mode)
    : M(M), Dev(Device), Mode(Mode), RamWordMax(M.ramSize() - 4) {
  if (Mode == ExecMode::Reference)
    return;
  size_t Words = size_t(M.ramSize()) / 4;
  Heat.assign(Words, 0);
  CoverCount.assign(Words, 0);
  CoverBits.assign((Words + 63) / 64, 0);
  IndexByWord.assign(Words, -1);
  M.setInvalidationListener(this);
  if (Mode == ExecMode::Differential)
    ShadowStale = true;
}

BlockEngine::~BlockEngine() {
  publishMetrics(); // Flush any tail accumulated since the last run().
  if (Mode != ExecMode::Reference && M.invalidationListener() == this)
    M.setInvalidationListener(nullptr);
}

void BlockEngine::publishMetrics() {
  using metrics::Id;
  metrics::add(Id::SimBlockTranslations,
               Stats.BlocksTranslated - Published.BlocksTranslated);
  metrics::add(Id::SimBlockKilled, Stats.BlocksKilled - Published.BlocksKilled);
  metrics::add(Id::SimBlockFlushes, Stats.Flushes - Published.Flushes);
  metrics::add(Id::SimBlockTraceInstrs,
               Stats.TraceInstrs - Published.TraceInstrs);
  metrics::add(Id::SimBlockColdInstrs, Stats.ColdInstrs - Published.ColdInstrs);
  metrics::add(Id::SimBlockSideExits, Stats.SideExits - Published.SideExits);
  metrics::add(Id::SimBlockSideExitUntranslated,
               Stats.SideExitUntranslated - Published.SideExitUntranslated);
  metrics::add(Id::SimBlockSideExitMemGuard,
               Stats.SideExitMemGuard - Published.SideExitMemGuard);
  metrics::add(Id::SimBlockSideExitKilled,
               Stats.SideExitKilled - Published.SideExitKilled);
  metrics::add(Id::SimBlockLinkHits, Stats.LinkHits - Published.LinkHits);
  metrics::add(Id::SimBlockLinkMisses, Stats.LinkMisses - Published.LinkMisses);
  metrics::add(Id::SimBlockMmioInline, Stats.MmioInline - Published.MmioInline);
  metrics::add(Id::SimBlockFusedRetired,
               Stats.FusedRetired - Published.FusedRetired);
  metrics::add(Id::SimBlockInvalProbes,
               Stats.InvalProbes - Published.InvalProbes);
  Published = Stats;
}

void BlockEngine::flushTranslations() {
  if (Mode == ExecMode::Reference)
    return;
  Blocks.clear();
  std::fill(IndexByWord.begin(), IndexByWord.end(), -1);
  std::fill(CoverCount.begin(), CoverCount.end(), uint32_t(0));
  std::fill(CoverBits.begin(), CoverBits.end(), uint64_t(0));
  std::fill(Heat.begin(), Heat.end(), uint16_t(0));
  CurBlock = -1;
  CurKilled = false;
  ++Stats.Flushes;
}

void BlockEngine::onRestore() {
  // The whole architectural state was replaced; translations and the
  // differential shadow both describe a machine that no longer exists.
  flushTranslations();
  ShadowStale = true;
}

void BlockEngine::onInvalidate(size_t FirstWord, size_t LastWord) {
  if (fi::on(fi::Fault::SimBlockStaleSuperblock))
    return; // Seeded bug: invalidation no longer reaches the trace cache.
  if (CoverCount.empty())
    return;
  ++Stats.InvalProbes;
  if (LastWord >= CoverCount.size())
    LastWord = CoverCount.size() - 1;
  // Fast path: almost every store hits data words no trace covers.
  bool Any = false;
  for (size_t W = FirstWord; W <= LastWord; ++W)
    if (CoverBits[W >> 6] & (uint64_t(1) << (W & 63))) {
      Any = true;
      break;
    }
  if (!Any)
    return;
  for (size_t I = 0; I != Blocks.size(); ++I) {
    Block &Bk = Blocks[I];
    if (!Bk.Valid)
      continue;
    auto It = std::lower_bound(Bk.Words.begin(), Bk.Words.end(),
                               uint32_t(FirstWord));
    if (It != Bk.Words.end() && *It <= LastWord)
      killBlock(I);
  }
}

void BlockEngine::killBlock(size_t Idx) {
  Block &Bk = Blocks[Idx];
  if (!Bk.Valid)
    return;
  Bk.Valid = false;
  for (uint32_t W : Bk.Words)
    if (CoverCount[W] != 0 && --CoverCount[W] == 0)
      CoverBits[W >> 6] &= ~(uint64_t(1) << (W & 63));
  size_t HeadW = size_t(Bk.HeadPc >> 2);
  if (HeadW < IndexByWord.size() && IndexByWord[HeadW] == int32_t(Idx))
    IndexByWord[HeadW] = -1;
  if (int32_t(Idx) == CurBlock)
    CurKilled = true;
  ++Stats.BlocksKilled;
  // Bk.Ops stays allocated: the engine may be mid-pass inside this very
  // block. Dead storage is reclaimed wholesale by flushTranslations().
}

int32_t BlockEngine::blockAt(Word Pc) const {
  if ((Pc & 3) != 0)
    return -1;
  size_t W = size_t(Pc >> 2);
  if (W >= IndexByWord.size())
    return -1;
  return IndexByWord[W];
}

void BlockEngine::noteJumpTarget(Word Pc) {
  if ((Pc & 3) != 0)
    return;
  size_t W = size_t(Pc >> 2);
  if (W < Heat.size() && Heat[W] < 0xFFFF)
    ++Heat[W];
}

int32_t BlockEngine::maybeTranslate(Word Pc) {
  if ((Pc & 3) != 0)
    return -1;
  size_t W = size_t(Pc >> 2);
  if (W >= Heat.size() || Heat[W] < HotThreshold)
    return -1;
  int32_t Idx = translate(Pc);
  if (Idx < 0)
    Heat[W] = 0; // Untranslatable head: cool off before retrying.
  return Idx;
}

int32_t BlockEngine::translate(Word HeadPc) {
  if ((HeadPc & 3) != 0 || !M.isExecutable(HeadPc))
    return -1;
  if (Blocks.size() >= MaxBlocks)
    flushTranslations();

  Block B;
  B.HeadPc = HeadPc;
  Word Pc = HeadPc;
  unsigned Weight = 0; // Instructions a full pass retires.

  auto Cover = [&](Word A) { B.Words.push_back(uint32_t(A >> 2)); };
  // Translation decodes raw bytes under the same executability rule the
  // slow-path fetch applies; a valid result witnesses that executing this
  // word cold would retire normally *right now* — staleness from here on
  // is the invalidation listener's job.
  auto Fetch = [&](Word A, isa::Instr &Out) -> bool {
    if ((A & 3) != 0 || !M.isExecutable(A))
      return false;
    Out = isa::decode(M.readRam(A, 4));
    return Out.isValid();
  };

  bool Open = true;
  while (Open) {
    isa::Instr I;
    // Stop == 0: translated, keep going. 1: terminator emitted.
    // 2: untranslatable here — seal with a side exit.
    int Stop = 2;
    if (Weight < MaxBlockWeight && Fetch(Pc, I)) {
      MicroOp U;
      U.Op = I.Op;
      U.Rd = I.Rd;
      U.Rs1 = I.Rs1;
      U.Rs2 = I.Rs2;
      U.Imm = I.Imm;
      U.InstrPc = Pc;
      using isa::Opcode;
      Stop = 0;
      if (I.Op == Opcode::Lui || I.Op == Opcode::Auipc) {
        U.K = I.Rd ? UOp::LoadConst : UOp::Nop;
        U.Aux = I.Op == Opcode::Lui ? Word(I.Imm) : Pc + Word(I.Imm);
        Cover(Pc);
        B.Ops.push_back(U);
        ++Weight;
        Pc += 4;
      } else if (I.Op == Opcode::Addi) {
        isa::Instr N;
        bool HaveN = I.Rd != 0 && Fetch(Pc + 4, N);
        if (HaveN && isa::isBranch(N.Op)) {
          // Counter idiom: addi feeding straight into a branch. The addi
          // commits first, then the branch reads the updated registers.
          U.K = UOp::FusedAddiBranch;
          U.Op = N.Op;
          U.Rs2 = N.Rs1;
          U.R3 = N.Rs2;
          U.Aux = (Pc + 4) + Word(N.Imm);
          Cover(Pc);
          Cover(Pc + 4);
          B.Ops.push_back(U);
          Weight += 2;
          Stop = 1;
        } else if (HaveN && N.Op == Opcode::Addi && N.Rd != 0) {
          // Address-arithmetic burst: two addis in one dispatch. Commit
          // order is sequential, so the second may read the first.
          U.K = UOp::FusedAddiAddi;
          U.R3 = N.Rd;
          U.Rs2 = N.Rs1;
          U.Aux = Word(N.Imm);
          Cover(Pc);
          Cover(Pc + 4);
          B.Ops.push_back(U);
          Weight += 2;
          Pc += 8;
        } else {
          U.K = I.Rd ? UOp::Addi : UOp::Nop;
          Cover(Pc);
          B.Ops.push_back(U);
          ++Weight;
          Pc += 4;
        }
      } else if (isa::isBranch(I.Op)) {
        U.K = I.Op == Opcode::Bne   ? UOp::Bne
              : I.Op == Opcode::Beq ? UOp::Beq
                                    : UOp::Branch;
        U.Aux = Pc + Word(I.Imm);
        Cover(Pc);
        B.Ops.push_back(U);
        ++Weight;
        Stop = 1;
      } else if (I.Op == Opcode::Jal) {
        Word Target = Pc + Word(I.Imm);
        Cover(Pc);
        if (Weight + 1 < MaxBlockWeight && (Target & 3) == 0 &&
            M.isExecutable(Target)) {
          // Superblock extension: follow the unconditional jump — calls
          // included, with the link-register write folded to a constant —
          // and keep translating at the target, so a call plus the
          // callee's prologue lands in one trace. The weight cap bounds
          // jump cycles.
          U.K = I.Rd ? UOp::LoadConst : UOp::Nop;
          U.Aux = Pc + 4;
          B.Ops.push_back(U);
          ++Weight;
          Pc = Target;
        } else {
          U.K = UOp::Jal;
          U.Aux = Target;
          B.Ops.push_back(U);
          ++Weight;
          Stop = 1;
        }
      } else if (I.Op == Opcode::Jalr) {
        U.K = UOp::Jalr;
        Cover(Pc);
        B.Ops.push_back(U);
        ++Weight;
        Stop = 1;
      } else if (I.Op == Opcode::Lw && I.Rd != 0) {
        isa::Instr N;
        if (Fetch(Pc + 4, N) && N.Op == Opcode::Lw && N.Rd != 0) {
          // Reload burst: two word loads in one dispatch, committed in
          // order so the second base may be the first's destination.
          U.K = UOp::FusedLwLw;
          U.R3 = N.Rd;
          U.Rs2 = N.Rs1;
          U.Aux = Word(N.Imm);
          Cover(Pc);
          Cover(Pc + 4);
          B.Ops.push_back(U);
          Weight += 2;
          Pc += 8;
        } else {
          U.K = UOp::LoadW;
          Cover(Pc);
          B.Ops.push_back(U);
          ++Weight;
          Pc += 4;
        }
      } else if (isa::isLoad(I.Op)) {
        if (I.Rd == 0) {
          // Loads to x0 keep full MMIO/UB semantics; leave them to the
          // stepper.
          Stop = 2;
        } else {
          U.K = UOp::Load;
          Cover(Pc);
          B.Ops.push_back(U);
          ++Weight;
          Pc += 4;
        }
      } else if (isa::isStore(I.Op)) {
        isa::Instr N;
        if (I.Op == Opcode::Sw && Fetch(Pc + 4, N) && N.Op == Opcode::Sw) {
          // Spill burst: two word stores in one dispatch. Stores never
          // change registers, so both addresses are computable — and
          // guarded — before either half commits.
          U.K = UOp::FusedSwSw;
          U.R3 = N.Rs1;
          U.Rd = N.Rs2;
          U.Aux = Word(N.Imm);
          Cover(Pc);
          Cover(Pc + 4);
          B.Ops.push_back(U);
          Weight += 2;
          Pc += 8;
        } else {
          U.K = I.Op == Opcode::Sw ? UOp::StoreW : UOp::Store;
          Cover(Pc);
          B.Ops.push_back(U);
          ++Weight;
          Pc += 4;
        }
      } else if (I.Op == Opcode::Fence) {
        U.K = UOp::Nop; // Single-core platform: fences are no-ops.
        Cover(Pc);
        B.Ops.push_back(U);
        ++Weight;
        Pc += 4;
      } else if (I.Op == Opcode::Ecall || I.Op == Opcode::Ebreak) {
        Stop = 2; // UB; the stepper owns the diagnosis.
      } else if (isa::isImmAlu(I.Op)) {
        U.K = I.Rd ? UOp::AluImm : UOp::Nop;
        Cover(Pc);
        B.Ops.push_back(U);
        ++Weight;
        Pc += 4;
      } else if (I.Op == Opcode::Add && I.Rd != 0) {
        isa::Instr N;
        if (Fetch(Pc + 4, N) && isa::isBranch(N.Op)) {
          // Pointer-bump idiom: register add feeding straight into a
          // branch. Same commit order as FusedAddiBranch — the add
          // writes back first, then the branch reads updated registers.
          U.K = UOp::FusedAddBranch;
          U.Op = N.Op;
          U.R3 = N.Rs1;
          U.Imm = SWord(N.Rs2);
          U.Aux = (Pc + 4) + Word(N.Imm);
          Cover(Pc);
          Cover(Pc + 4);
          B.Ops.push_back(U);
          Weight += 2;
          Stop = 1;
        } else {
          U.K = UOp::Add;
          Cover(Pc);
          B.Ops.push_back(U);
          ++Weight;
          Pc += 4;
        }
      } else {
        assert(isa::isRegAlu(I.Op) && "unhandled opcode in translate");
        UOp K = UOp::AluReg;
        switch (I.Op) {
        case Opcode::Add:
          K = UOp::Add;
          break;
        case Opcode::Sub:
          K = UOp::Sub;
          break;
        case Opcode::And:
          K = UOp::And;
          break;
        case Opcode::Sltu:
          K = UOp::Sltu;
          break;
        case Opcode::Srl:
          K = UOp::Srl;
          break;
        default:
          break;
        }
        U.K = I.Rd ? K : UOp::Nop;
        Cover(Pc);
        B.Ops.push_back(U);
        ++Weight;
        Pc += 4;
      }
    }
    if (Stop == 1)
      Open = false;
    else if (Stop == 2) {
      if (Weight == 0)
        return -1; // Untranslatable head: never build a zero-progress block.
      MicroOp U;
      U.K = UOp::SideExit;
      U.Aux = Pc;
      U.InstrPc = Pc;
      B.Ops.push_back(U);
      Open = false;
    }
  }

  B.Count = Weight;
  std::sort(B.Words.begin(), B.Words.end());
  B.Words.erase(std::unique(B.Words.begin(), B.Words.end()), B.Words.end());

  int32_t Idx = int32_t(Blocks.size());
  for (uint32_t W : B.Words) {
    ++CoverCount[W];
    CoverBits[W >> 6] |= uint64_t(1) << (W & 63);
  }
  IndexByWord[size_t(HeadPc >> 2)] = Idx;
  metrics::record(metrics::Id::SimBlockWeight, B.Count);
  Blocks.push_back(std::move(B));
  ++Stats.BlocksTranslated;
  return Idx;
}

uint64_t BlockEngine::execTraces(size_t Bi, uint64_t Budget) {
  // Threaded dispatch: on GCC/Clang every handler ends in its own
  // computed goto, giving the branch predictor one indirect-branch site
  // per micro-op kind instead of a single shared switch jump; elsewhere a
  // central switch feeds the same handler labels. Retire counts
  // accumulate in locals and flush to the machine and the stats once per
  // call, not once per pass.
  Word *R = M.Regs; // x0 stays 0: translation never emits an x0 write.
  uint64_t Done = 0; // Retired across completed passes.
  uint64_t Ret = 0;  // Retired in the current pass.
  Word Addr = 0;
  Word NextPc = 0;
  Word ExitPc = 0;
  // Side-exit classification: most exit sites are memory-guard misses
  // (MMIO beyond the inline path, misaligned, unmapped), so that is the
  // default; the self-kill and untranslated paths override it just
  // before jumping. Set at most once per call — side_exit returns.
  enum : uint8_t { ExUntranslated, ExMemGuard, ExKilled };
  uint8_t ExitReason = ExMemGuard;
  int32_t *LinkSlot = nullptr;
  bool UseJalrCache = false;
  Block *B = nullptr;
  const MicroOp *Op = nullptr;
  const MicroOp *U = nullptr;

#if defined(__GNUC__) || defined(__clang__)
  // Must match the UOp enumerator order exactly.
  static const void *const Tab[] = {
      &&L_Nop,          &&L_LoadConst, &&L_Addi,   &&L_AluImm,
      &&L_AluReg,       &&L_Load,      &&L_Store,  &&L_FusedAddiBranch,
      &&L_Branch,       &&L_Jal,       &&L_Jalr,   &&L_SideExit,
      &&L_LoadW,        &&L_StoreW,    &&L_Add,    &&L_Sub,
      &&L_And,          &&L_Sltu,      &&L_Srl,    &&L_Bne,
      &&L_Beq,          &&L_FusedAddBranch,        &&L_FusedSwSw,
      &&L_FusedAddiAddi, &&L_FusedLwLw};
  static_assert(sizeof(Tab) / sizeof(Tab[0]) == size_t(UOp::FusedLwLw) + 1,
                "one label per micro-op kind");
#define B2_DISPATCH() goto *Tab[unsigned((U = Op++)->K)]
#else
#define B2_DISPATCH() goto dispatch
#endif

enter_block:
  B = &Blocks[Bi];
  CurBlock = int32_t(Bi);
  CurKilled = false;
  Ret = 0;
  UseJalrCache = false;
  Op = B->Ops.data();
  B2_DISPATCH();

#if !defined(__GNUC__) && !defined(__clang__)
dispatch:
  U = Op++;
  switch (U->K) {
  case UOp::Nop:
    goto L_Nop;
  case UOp::LoadConst:
    goto L_LoadConst;
  case UOp::Addi:
    goto L_Addi;
  case UOp::AluImm:
    goto L_AluImm;
  case UOp::AluReg:
    goto L_AluReg;
  case UOp::Load:
    goto L_Load;
  case UOp::Store:
    goto L_Store;
  case UOp::FusedAddiBranch:
    goto L_FusedAddiBranch;
  case UOp::Branch:
    goto L_Branch;
  case UOp::Jal:
    goto L_Jal;
  case UOp::Jalr:
    goto L_Jalr;
  case UOp::SideExit:
    goto L_SideExit;
  case UOp::LoadW:
    goto L_LoadW;
  case UOp::StoreW:
    goto L_StoreW;
  case UOp::Add:
    goto L_Add;
  case UOp::Sub:
    goto L_Sub;
  case UOp::And:
    goto L_And;
  case UOp::Sltu:
    goto L_Sltu;
  case UOp::Srl:
    goto L_Srl;
  case UOp::Bne:
    goto L_Bne;
  case UOp::Beq:
    goto L_Beq;
  case UOp::FusedAddBranch:
    goto L_FusedAddBranch;
  case UOp::FusedSwSw:
    goto L_FusedSwSw;
  case UOp::FusedAddiAddi:
    goto L_FusedAddiAddi;
  case UOp::FusedLwLw:
    goto L_FusedLwLw;
  }
  assert(false && "unhandled micro-op kind");
  ExitPc = U->InstrPc;
  ExitReason = ExUntranslated;
  goto side_exit;
#endif

L_Nop:
  ++Ret;
  B2_DISPATCH();

L_LoadConst:
  R[U->Rd] = U->Aux;
  ++Ret;
  B2_DISPATCH();

L_Addi:
  R[U->Rd] = R[U->Rs1] + Word(U->Imm);
  ++Ret;
  B2_DISPATCH();

L_AluImm:
  R[U->Rd] = exec::alu(U->Op, R[U->Rs1], Word(U->Imm));
  ++Ret;
  B2_DISPATCH();

L_AluReg:
  R[U->Rd] = exec::alu(U->Op, R[U->Rs1], R[U->Rs2]);
  ++Ret;
  B2_DISPATCH();

  // Specialized register-ALU kinds: same semantics as exec::alu for the
  // matching opcode, minus the opcode switch. None carries a fault hook.
L_Add:
  R[U->Rd] = R[U->Rs1] + R[U->Rs2];
  ++Ret;
  B2_DISPATCH();

L_Sub:
  R[U->Rd] = R[U->Rs1] - R[U->Rs2];
  ++Ret;
  B2_DISPATCH();

L_And:
  R[U->Rd] = R[U->Rs1] & R[U->Rs2];
  ++Ret;
  B2_DISPATCH();

L_Sltu:
  R[U->Rd] = R[U->Rs1] < R[U->Rs2] ? 1 : 0;
  ++Ret;
  B2_DISPATCH();

L_Srl:
  R[U->Rd] = shiftRL(R[U->Rs1], R[U->Rs2]);
  ++Ret;
  B2_DISPATCH();

L_LoadW:
  Addr = R[U->Rs1] + Word(U->Imm);
  if (Addr <= RamWordMax && (Addr & 3) == 0) {
    R[U->Rd] = M.loadWordFast(Addr);
    ++Ret;
    B2_DISPATCH();
  }
  goto load_mmio;

L_Load: {
  Addr = R[U->Rs1] + Word(U->Imm);
  unsigned Size = isa::accessSize(U->Op);
  if (M.inRam(Addr, Size) && isAligned(Addr, Size)) {
    R[U->Rd] = exec::extendLoad(U->Op, M.readRam(Addr, Size));
    ++Ret;
    B2_DISPATCH();
  }
}
load_mmio:
  if (U->Op == isa::Opcode::Lw && (Addr & 3) == 0 && Dev.isMmio(Addr, 4)) {
    // Exactly the nonmem_load success path: word-sized, aligned,
    // MMIO-mapped, recorded in the I/O trace.
    Word V = Dev.load(Addr, 4);
    M.appendEvent(MmioEvent{/*IsStore=*/false, Addr, V, 4});
    R[U->Rd] = V;
    ++Ret;
    ++Stats.MmioInline;
    B2_DISPATCH();
  }
  // Misaligned, unmapped, or sub-word MMIO: the stepper reproduces the
  // precise UB verdict. Nothing has been mutated yet.
  ExitPc = U->InstrPc;
  goto side_exit;

L_StoreW:
  Addr = R[U->Rs1] + Word(U->Imm);
  if (Addr <= RamWordMax && (Addr & 3) == 0) {
    // Inline aligned-word store: the invalidation discipline runs via the
    // shared Machine helper (seeded store faults included). The trace
    // engine is the machine's invalidation listener, so when the
    // discipline ran to completion the cover-count filter decides whether
    // any superblock needs killing, without a virtual round-trip through
    // storeRam.
    if (M.storeWordNoNotify(Addr, R[U->Rs2]) &&
        (CoverBits[size_t(Addr >> 2) >> 6] &
         (uint64_t(1) << (size_t(Addr >> 2) & 63))) != 0) {
      onInvalidate(size_t(Addr >> 2), size_t(Addr >> 2));
      ++Ret;
      if (CurKilled) {
        // The store invalidated this very trace: commit the completed
        // instruction and hand the stale tail to the stepper.
        ExitPc = U->InstrPc + 4;
        ExitReason = ExKilled;
        goto side_exit;
      }
      B2_DISPATCH();
    }
    ++Ret;
    B2_DISPATCH();
  }
  goto store_mmio;

L_Store: {
  Addr = R[U->Rs1] + Word(U->Imm);
  unsigned Size = isa::accessSize(U->Op);
  if (M.inRam(Addr, Size) && isAligned(Addr, Size)) {
    M.storeRam(Addr, Size, R[U->Rs2]);
    ++Ret;
    if (CurKilled) {
      // The store invalidated this very trace: commit the completed
      // instruction and hand the stale tail to the stepper.
      ExitPc = U->InstrPc + 4;
      ExitReason = ExKilled;
      goto side_exit;
    }
    B2_DISPATCH();
  }
}
store_mmio:
  if (U->Op == isa::Opcode::Sw && (Addr & 3) == 0 && Dev.isMmio(Addr, 4)) {
    Word V = R[U->Rs2];
    Dev.store(Addr, 4, V);
    M.appendEvent(MmioEvent{/*IsStore=*/true, Addr, V, 4});
    ++Ret;
    ++Stats.MmioInline;
    B2_DISPATCH();
  }
  ExitPc = U->InstrPc;
  goto side_exit;

L_FusedAddiAddi:
  R[U->Rd] = R[U->Rs1] + Word(U->Imm);
  R[U->R3] = R[U->Rs2] + U->Aux;
  Ret += 2;
  Stats.FusedRetired += 2;
  B2_DISPATCH();

L_FusedSwSw: {
  Addr = R[U->Rs1] + Word(U->Imm);
  Word Addr2 = R[U->R3] + U->Aux;
  if (Addr > RamWordMax || (Addr & 3) != 0 || Addr2 > RamWordMax ||
      (Addr2 & 3) != 0) {
    // Both guards checked before either half commits; MMIO or UB pairs
    // replay from the first store in the stepper.
    ExitPc = U->InstrPc;
    goto side_exit;
  }
  if (M.storeWordNoNotify(Addr, R[U->Rs2]) &&
      (CoverBits[size_t(Addr >> 2) >> 6] &
       (uint64_t(1) << (size_t(Addr >> 2) & 63))) != 0) {
    onInvalidate(size_t(Addr >> 2), size_t(Addr >> 2));
    if (CurKilled) {
      // The first store killed this trace; the second re-runs cold.
      ++Ret;
      ++Stats.FusedRetired;
      ExitPc = U->InstrPc + 4;
      ExitReason = ExKilled;
      goto side_exit;
    }
  }
  Ret += 2;
  Stats.FusedRetired += 2;
  if (M.storeWordNoNotify(Addr2, R[U->Rd]) &&
      (CoverBits[size_t(Addr2 >> 2) >> 6] &
       (uint64_t(1) << (size_t(Addr2 >> 2) & 63))) != 0) {
    onInvalidate(size_t(Addr2 >> 2), size_t(Addr2 >> 2));
    if (CurKilled) {
      ExitPc = U->InstrPc + 8;
      ExitReason = ExKilled;
      goto side_exit;
    }
  }
  B2_DISPATCH();
}

L_FusedLwLw: {
  Addr = R[U->Rs1] + Word(U->Imm);
  if (Addr > RamWordMax || (Addr & 3) != 0) {
    // Nothing committed; the stepper re-runs the pair from the top.
    ExitPc = U->InstrPc;
    goto side_exit;
  }
  R[U->Rd] = M.loadWordFast(Addr);
  Addr = R[U->Rs2] + U->Aux;
  if (Addr > RamWordMax || (Addr & 3) != 0) {
    // The first half fully retired and loads are idempotent, so the
    // stepper resumes cleanly at the second lw.
    ++Ret;
    ++Stats.FusedRetired;
    ExitPc = U->InstrPc + 4;
    goto side_exit;
  }
  R[U->R3] = M.loadWordFast(Addr);
  Ret += 2;
  Stats.FusedRetired += 2;
  B2_DISPATCH();
}

L_FusedAddiBranch: {
  Word Pre = R[U->Rd];
  R[U->Rd] = R[U->Rs1] + Word(U->Imm);
  Word A = R[U->Rs2];
  Word Bv = R[U->R3];
  if (fi::on(fi::Fault::SimBlockFusedClobber)) {
    // Seeded bug: the fused op latches its branch operands before the
    // addi result is written back.
    if (U->Rs2 == U->Rd)
      A = Pre;
    if (U->R3 == U->Rd)
      Bv = Pre;
  }
  Ret += 2;
  Stats.FusedRetired += 2;
  if (exec::branchTaken(U->Op, A, Bv)) {
    NextPc = U->Aux;
    LinkSlot = &B->LinkTaken;
  } else {
    NextPc = U->InstrPc + 8;
    LinkSlot = &B->LinkFall;
  }
  goto chain;
}

L_FusedAddBranch: {
  // Register-register twin of FusedAddiBranch; the second branch operand
  // register rides in Imm. The same seeded clobber fault applies.
  Word Pre = R[U->Rd];
  R[U->Rd] = R[U->Rs1] + R[U->Rs2];
  Word A = R[U->R3];
  Word Bv = R[uint8_t(U->Imm)];
  if (fi::on(fi::Fault::SimBlockFusedClobber)) {
    if (U->R3 == U->Rd)
      A = Pre;
    if (uint8_t(U->Imm) == U->Rd)
      Bv = Pre;
  }
  Ret += 2;
  Stats.FusedRetired += 2;
  if (exec::branchTaken(U->Op, A, Bv)) {
    NextPc = U->Aux;
    LinkSlot = &B->LinkTaken;
  } else {
    NextPc = U->InstrPc + 8;
    LinkSlot = &B->LinkFall;
  }
  goto chain;
}

L_Branch:
  ++Ret;
  if (exec::branchTaken(U->Op, R[U->Rs1], R[U->Rs2])) {
    NextPc = U->Aux;
    LinkSlot = &B->LinkTaken;
  } else {
    NextPc = U->InstrPc + 4;
    LinkSlot = &B->LinkFall;
  }
  goto chain;

  // Specialized branch terminators (bne/beq carry no fault hooks).
L_Bne:
  ++Ret;
  if (R[U->Rs1] != R[U->Rs2]) {
    NextPc = U->Aux;
    LinkSlot = &B->LinkTaken;
  } else {
    NextPc = U->InstrPc + 4;
    LinkSlot = &B->LinkFall;
  }
  goto chain;

L_Beq:
  ++Ret;
  if (R[U->Rs1] == R[U->Rs2]) {
    NextPc = U->Aux;
    LinkSlot = &B->LinkTaken;
  } else {
    NextPc = U->InstrPc + 4;
    LinkSlot = &B->LinkFall;
  }
  goto chain;

L_Jal:
  if (U->Rd)
    R[U->Rd] = U->InstrPc + 4;
  ++Ret;
  NextPc = U->Aux;
  LinkSlot = &B->LinkTaken;
  goto chain;

L_Jalr:
  NextPc = (R[U->Rs1] + Word(U->Imm)) & ~Word(1);
  if (U->Rd)
    R[U->Rd] = U->InstrPc + 4;
  ++Ret;
  UseJalrCache = true;
  goto chain;

L_SideExit:
  ExitPc = U->Aux;
  ExitReason = ExUntranslated;
  goto side_exit;

chain:
  Done += Ret;
  {
    // Block completed: chain straight into the successor trace when one
    // exists and fits the remaining budget.
    int32_t Ni;
    if (UseJalrCache) {
      if (B->JalrCachePc == NextPc && B->JalrCacheBlock >= 0 &&
          size_t(B->JalrCacheBlock) < Blocks.size() &&
          Blocks[size_t(B->JalrCacheBlock)].Valid &&
          Blocks[size_t(B->JalrCacheBlock)].HeadPc == NextPc) {
        Ni = B->JalrCacheBlock;
        ++Stats.LinkHits;
      } else {
        Ni = blockAt(NextPc);
        B->JalrCachePc = NextPc;
        B->JalrCacheBlock = Ni;
        ++Stats.LinkMisses;
      }
    } else {
      Ni = *LinkSlot;
      if (Ni >= 0 &&
          (size_t(Ni) >= Blocks.size() || !Blocks[size_t(Ni)].Valid ||
           Blocks[size_t(Ni)].HeadPc != NextPc))
        Ni = -1;
      if (Ni < 0) {
        Ni = blockAt(NextPc);
        *LinkSlot = Ni;
        ++Stats.LinkMisses;
      } else {
        ++Stats.LinkHits;
      }
    }
    if (Ni >= 0 && uint64_t(Blocks[size_t(Ni)].Count) <= Budget - Done) {
      Bi = size_t(Ni);
      goto enter_block;
    }
    M.Pc = NextPc;
    if (Ni < 0)
      noteJumpTarget(NextPc); // Block exits are jump arrivals too.
  }
  CurBlock = -1;
  M.Retired += Done;
  Stats.TraceInstrs += Done;
  return Done;

side_exit:
  Done += Ret;
  ++Stats.SideExits;
  if (ExitReason == ExKilled)
    ++Stats.SideExitKilled;
  else if (ExitReason == ExMemGuard)
    ++Stats.SideExitMemGuard;
  else
    ++Stats.SideExitUntranslated;
  CurBlock = -1;
  M.Pc = ExitPc;
  M.Retired += Done;
  Stats.TraceInstrs += Done;
  return Done;
#undef B2_DISPATCH
}

uint64_t BlockEngine::runBlocks(uint64_t MaxSteps) {
  uint64_t Done = 0;
  while (Done < MaxSteps) {
    if (M.hasUb())
      break;
    Word Pc = M.Pc;
    int32_t Bi = blockAt(Pc);
    if (Bi < 0)
      Bi = maybeTranslate(Pc);
    if (Bi >= 0 && uint64_t(Blocks[size_t(Bi)].Count) <= MaxSteps - Done) {
      uint64_t T = execTraces(size_t(Bi), MaxSteps - Done);
      Done += T;
      if (T > 0)
        continue;
      // A guard at the block's first instruction refused the trace (zero
      // progress): interpret one instruction to move past it.
    }
    Word Prev = Pc;
    if (!riscv::step(M, Dev))
      break;
    ++Done;
    ++Stats.ColdInstrs;
    if (M.Pc != Prev + 4)
      noteJumpTarget(M.Pc);
  }
  return Done;
}

namespace {

/// Differential replay: the shadow machine re-executes the primary's
/// instruction stream through the reference stepper, with MMIO loads
/// served from the primary's recorded I/O trace (devices are functions of
/// the access sequence they observe, so replaying recorded values is the
/// only way to show both engines the same external world). Stores are
/// verified against the recorded events instead of reaching the device a
/// second time.
class ReplayDevice final : public MmioDevice {
public:
  ReplayDevice(const MmioDevice &Real, const MmioTrace &Trace, size_t Cur)
      : Real(Real), Trace(Trace), Cur(Cur) {}

  bool isMmio(Word Addr, unsigned Size) const override {
    return Real.isMmio(Addr, Size);
  }

  Word load(Word Addr, unsigned Size) override {
    if (Cur < Trace.size() && !Trace[Cur].IsStore && Trace[Cur].Addr == Addr &&
        Trace[Cur].Size == Size)
      return Trace[Cur++].Value;
    Desynced = true;
    return 0;
  }

  void store(Word Addr, unsigned Size, Word Value) override {
    if (Cur < Trace.size() && Trace[Cur].IsStore && Trace[Cur].Addr == Addr &&
        Trace[Cur].Size == Size && Trace[Cur].Value == Value) {
      ++Cur;
      return;
    }
    Desynced = true;
  }

  bool Desynced = false;

private:
  const MmioDevice &Real;
  const MmioTrace &Trace;
  size_t Cur;
};

} // namespace

void BlockEngine::syncShadow() {
  if (!Shadow)
    Shadow = std::make_unique<Machine>(M.ramSize());
  Shadow->restore(M.snapshot());
  ShadowStale = false;
}

std::string BlockEngine::compareWithShadow(size_t TraceStart, bool Desynced) {
  Machine &S = *Shadow;
  if (M.Retired != S.Retired)
    return "retired-instruction counts diverged: block engine " +
           std::to_string(M.Retired) + ", reference " +
           std::to_string(S.Retired);
  if (M.Pc != S.Pc)
    return "pc diverged: block engine " + hex32(M.Pc) + ", reference " +
           hex32(S.Pc);
  for (unsigned Rn = 0; Rn != 32; ++Rn)
    if (M.Regs[Rn] != S.Regs[Rn])
      return "x" + std::to_string(Rn) + " diverged: block engine " +
             hex32(M.Regs[Rn]) + ", reference " + hex32(S.Regs[Rn]);
  if (M.Ub != S.Ub)
    return std::string("UB status diverged: block engine ") +
           ubKindName(M.Ub) + ", reference " + ubKindName(S.Ub);
  if (M.UbMessage != S.UbMessage)
    return "UB detail diverged: block engine \"" + M.UbMessage +
           "\", reference \"" + S.UbMessage + "\"";
  if (Desynced || M.Trace.size() != S.Trace.size())
    return "MMIO event streams diverged";
  for (size_t I = TraceStart; I < M.Trace.size(); ++I)
    if (!(M.Trace[I] == S.Trace[I]))
      return "MMIO event " + std::to_string(I) + " diverged: block engine " +
             toString(M.Trace[I]) + ", reference " + toString(S.Trace[I]);
  if (M.Ram != S.Ram)
    return "RAM contents diverged";
  if (M.XBits != S.XBits)
    return "XAddrs diverged";
  return {};
}

uint64_t BlockEngine::run(uint64_t MaxSteps) {
  if (Mode == ExecMode::Reference) {
    uint64_t N = riscv::run(M, Dev, MaxSteps);
    publishMetrics();
    return N;
  }
  if (Mode == ExecMode::Block) {
    uint64_t N = runBlocks(MaxSteps);
    publishMetrics();
    return N;
  }

  // Differential: run the block engine, then replay the same instruction
  // count through the reference stepper on the shadow and demand an
  // exact architectural match.
  if (ShadowStale)
    syncShadow();
  size_t TraceStart = M.trace().size();
  uint64_t N = runBlocks(MaxSteps);
  if (!DiffDead) {
    ReplayDevice RD(Dev, M.trace(), TraceStart);
    riscv::run(*Shadow, RD, N);
    if (M.hasUb() && !Shadow->hasUb())
      riscv::step(*Shadow, RD); // The primary's final, faulting step.
    std::string D = compareWithShadow(TraceStart, RD.Desynced);
    if (!D.empty()) {
      ++DivergenceCount;
      DivergenceMsg = D;
      DiffDead = true; // Sticky: preserve the first divergence's detail.
    }
  }
  publishMetrics();
  return N;
}
