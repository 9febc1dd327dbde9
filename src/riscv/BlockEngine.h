//===- riscv/BlockEngine.h - Superblock trace execution engine -*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A two-tier execution engine for the software-oriented RISC-V machine.
/// The first tier is the reference stepper (riscv/Step.h); the second
/// tier discovers hot basic blocks through per-word heat counters,
/// translates them into contiguous threaded micro-op traces (with
/// opcode-specialised kinds for the hottest ALU ops and branches, fused
/// pairs for addi/branch and add/branch loop tails and for addi/addi,
/// sw/sw and lw/lw bursts, and with unconditional jumps — calls
/// included, their link-register write folded to a translation-time
/// constant — followed straight through), and chains translated blocks
/// through direct block linking so that steady-state loops never leave
/// trace execution. A block is one pass over its instructions; a loop
/// re-enters its own head through the taken link.
///
/// The engine is a *performance* layer, never a *semantics* layer: every
/// micro-op reuses the semantic kernels of riscv/Exec.h (fault-injection
/// hooks included), every guard that could fail — MMIO touches beyond the
/// aligned-word fast path, misalignment, unmapped addresses, untranslated
/// control-flow targets — side-exits back to the reference stepper
/// *before* mutating state, and undefined behavior is only ever diagnosed
/// by the stepper so UB kinds and messages are bit-identical across
/// engines.
///
/// Stale-trace discipline: translation covers a set of instruction words,
/// and the machine reports every XAddrs removal set (paper section 5.6)
/// and host-level RAM poke through InvalidationListener; any
/// superblock overlapping the set is killed, including the block
/// currently executing (which commits the completed instruction and
/// side-exits). Whole-machine restore flushes the translation cache —
/// trace state is derived, never architectural, so snapshots compose with
/// the PR-5 checkpoint layer unchanged.
///
/// ExecMode::Differential runs both tiers in lockstep: the block engine
/// drives the primary machine, and after every run() chunk a shadow
/// machine replays the same instruction count through the reference
/// stepper (MMIO loads served from the primary's recorded trace), then
/// the full architectural state — registers, pc, RAM, XAddrs, UB status,
/// retired count, MMIO event stream — must match exactly.
///
//===----------------------------------------------------------------------===//

#ifndef B2_RISCV_BLOCKENGINE_H
#define B2_RISCV_BLOCKENGINE_H

#include "isa/Instr.h"
#include "riscv/ExecMode.h"
#include "riscv/Machine.h"
#include "support/Word.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace b2 {
namespace riscv {

/// Execution counters of one BlockEngine, for benchmarks and tests.
struct BlockEngineStats {
  uint64_t BlocksTranslated = 0; ///< Superblocks built.
  uint64_t BlocksKilled = 0;     ///< Superblocks killed by invalidation.
  uint64_t Flushes = 0;          ///< Whole-cache flushes (restore/capacity).
  uint64_t TraceInstrs = 0;      ///< Instructions retired inside traces.
  uint64_t ColdInstrs = 0;       ///< Instructions retired by the stepper.
  uint64_t SideExits = 0;        ///< Trace exits back to the stepper.
  uint64_t MmioInline = 0;       ///< MMIO word accesses handled in-trace.
  uint64_t FusedRetired = 0;     ///< Instructions retired by fused ops.
  // Side-exit reasons (their sum equals SideExits).
  uint64_t SideExitUntranslated = 0; ///< An untranslatable instruction
                                     ///< (explicit SideExit micro-op).
  uint64_t SideExitMemGuard = 0;     ///< Load/store guard miss: MMIO
                                     ///< beyond the inline path,
                                     ///< misaligned, or unmapped.
  uint64_t SideExitKilled = 0;       ///< A store invalidated the very
                                     ///< trace that executed it.
  // Direct-link resolution at block transitions.
  uint64_t LinkHits = 0;   ///< Successor reached through a valid cached
                           ///< link (direct link or jalr cache).
  uint64_t LinkMisses = 0; ///< Link stale/empty: full blockAt lookup.
  uint64_t InvalProbes = 0; ///< onInvalidate calls that passed the
                            ///< cover-bitmap filter (rare path).
};

/// The two-tier engine. Owns the machine's execution strategy for its
/// lifetime: construction in Block/Differential mode installs the
/// invalidation listener. At most one engine may drive a machine at a
/// time.
class BlockEngine final : public InvalidationListener {
public:
  BlockEngine(Machine &M, MmioDevice &Device, ExecMode Mode);
  ~BlockEngine() override;

  BlockEngine(const BlockEngine &) = delete;
  BlockEngine &operator=(const BlockEngine &) = delete;

  /// Retires up to \p MaxSteps instructions, stopping early only on UB —
  /// exactly the contract of riscv::run, so chunked drivers observe
  /// identical retirement schedules from every mode.
  uint64_t run(uint64_t MaxSteps);

  ExecMode mode() const { return Mode; }
  const BlockEngineStats &stats() const { return Stats; }

  /// Differential mode: number of lockstep divergences seen (sticky: the
  /// engine stops comparing after the first, preserving its detail).
  uint64_t divergences() const { return DivergenceCount; }
  const std::string &divergenceDetail() const { return DivergenceMsg; }

  /// Drops every translation (blocks, links, heat). Architectural state
  /// is untouched; execution re-warms from the stepper.
  void flushTranslations();

  /// Publishes the stat deltas since the last publish to the global
  /// metrics registry. Called automatically at the end of every run()
  /// chunk and on destruction; Stats itself is monotone for the engine's
  /// lifetime, so deltas never underflow.
  void publishMetrics();

  // -- InvalidationListener -------------------------------------------------

  void onInvalidate(size_t FirstWord, size_t LastWord) override;
  void onRestore() override;

private:
  /// Threaded micro-op kinds. Non-terminators fall through to the next
  /// op; terminators compute the successor pc and follow a direct link.
  enum class UOp : uint8_t {
    Nop,             ///< Retire one instruction, no state change.
    LoadConst,       ///< Rd = Aux (lui, auipc — pc folded at translation).
    Addi,            ///< Rd = Rs1 + Imm (hottest ALU op, dispatched early).
    AluImm,          ///< Rd = alu(Op, Rs1, Imm).
    AluReg,          ///< Rd = alu(Op, Rs1, Rs2).
    Load,            ///< Rd = extend(Op, mem[Rs1 + Imm]); MMIO-guarded.
    Store,           ///< mem[Rs1 + Imm] = Rs2; MMIO-guarded.
    FusedAddiBranch, ///< Rd = Rs1+Imm; branch Op on (Rs2, R3). Retires 2.
    Branch,          ///< Terminator: taken -> Aux, else InstrPc + 4.
    Jal,             ///< Terminator: link InstrPc+4, jump to Aux.
    Jalr,            ///< Terminator: indirect target via Rs1 + Imm.
    SideExit,        ///< Resume the reference stepper at Aux. Retires 0.
    LoadW,           ///< Load specialized to lw: single-compare RAM guard.
    StoreW,          ///< Store specialized to sw, with the inline word
                     ///< store path and a cover-count invalidation filter.
    // Opcode-specialized kinds for the hottest register-ALU ops and
    // branches, folding the secondary opcode switch into the primary
    // dispatch. Only fault-hook-free opcodes qualify (the Sra and Blt
    // seeded faults stay on the generic AluReg/Branch paths), and each
    // handler must mirror exec::alu / exec::branchTaken exactly.
    Add,             ///< Rd = Rs1 + Rs2.
    Sub,             ///< Rd = Rs1 - Rs2.
    And,             ///< Rd = Rs1 & Rs2.
    Sltu,            ///< Rd = (Rs1 < Rs2) unsigned.
    Srl,             ///< Rd = Rs1 >> (Rs2 & 31) logical.
    Bne,             ///< Terminator: Branch specialized to bne.
    Beq,             ///< Terminator: Branch specialized to beq.
    FusedAddBranch,  ///< Rd = Rs1+Rs2; branch Op on (R3, Imm-as-reg).
                     ///< Register-register twin of FusedAddiBranch, with
                     ///< the second branch operand's register number
                     ///< carried in Imm (the add uses no immediate).
                     ///< Retires 2.
    // Straight-line pair fusions for the dominant o0 runs (stack spills
    // and address arithmetic come in bursts), halving dispatches there.
    FusedSwSw,       ///< mem[Rs1+Imm] = Rs2; mem[R3+Aux] = Rd-as-reg.
                     ///< Both guards checked before either store
                     ///< commits; any miss side-exits untouched.
                     ///< Retires 2.
    FusedAddiAddi,   ///< Rd = Rs1+Imm; R3 = Rs2+Aux. Sequential commit,
                     ///< so the second addi may read the first's result.
                     ///< Retires 2.
    FusedLwLw,       ///< Rd = mem[Rs1+Imm]; R3 = mem[Rs2+Aux].
                     ///< Sequential commit — the second base may be the
                     ///< first's destination — and RAM loads are
                     ///< idempotent, so a second-guard miss can side-exit
                     ///< after the first half retired. Retires 2.
  };

  struct MicroOp {
    UOp K = UOp::SideExit;
    isa::Opcode Op = isa::Opcode::Invalid; ///< For alu/branch/load/store.
    uint8_t Rd = 0;
    uint8_t Rs1 = 0;
    uint8_t Rs2 = 0;
    uint8_t R3 = 0; ///< Second branch operand of FusedAddiBranch.
    SWord Imm = 0;
    Word Aux = 0;     ///< Branch/jump target, constant, or store offset.
    Word InstrPc = 0; ///< Pc of the source instruction (side-exit resume).
  };

  /// One translated superblock: a straight-line micro-op trace (jal
  /// rd=x0 followed through at translation time) ending in a terminator.
  struct Block {
    Word HeadPc = 0;
    uint32_t Count = 0; ///< Instructions a full pass retires; also the
                        ///< budget a chunk needs left to enter.
    bool Valid = true;
    int32_t LinkTaken = -1;      ///< Direct link: taken / unconditional.
    int32_t LinkFall = -1;       ///< Direct link: fall-through.
    int32_t JalrCacheBlock = -1; ///< Monomorphic indirect-target cache.
    Word JalrCachePc = ~Word(0);
    std::vector<MicroOp> Ops;
    std::vector<uint32_t> Words; ///< Sorted covered word indices.
  };

  static constexpr unsigned HotThreshold = 8;
  static constexpr unsigned MaxBlockWeight = 64;
  static constexpr size_t MaxBlocks = 4096;

  uint64_t runBlocks(uint64_t MaxSteps);
  uint64_t execTraces(size_t Bi, uint64_t Budget);
  int32_t blockAt(Word Pc) const;
  int32_t maybeTranslate(Word Pc);
  int32_t translate(Word HeadPc);
  void killBlock(size_t Idx);
  void noteJumpTarget(Word Pc);
  void syncShadow();
  std::string compareWithShadow(size_t TraceStart, bool Desynced);

  Machine &M;
  MmioDevice &Dev;
  ExecMode Mode;
  Word RamWordMax = 0; ///< Largest in-RAM address of an aligned word:
                       ///< `A <= RamWordMax && !(A & 3)` is inRam(A, 4)
                       ///< plus alignment in one compare each.
  BlockEngineStats Stats;
  BlockEngineStats Published; ///< publishMetrics() baseline.

  std::vector<Block> Blocks;
  std::vector<int32_t> IndexByWord;   ///< Head word -> block index, or -1.
  std::vector<uint16_t> Heat;         ///< Jump-target arrival counters.
  std::vector<uint32_t> CoverCount;   ///< Live blocks covering each word.
  std::vector<uint64_t> CoverBits;    ///< Bit per word: CoverCount != 0.
                                      ///< The store fast path probes this
                                      ///< 1/32-size mirror so the test
                                      ///< stays L1-resident.
  int32_t CurBlock = -1;              ///< Block mid-pass, for self-kill.
  bool CurKilled = false;

  std::unique_ptr<Machine> Shadow;    ///< Differential reference replica.
  bool ShadowStale = false;
  bool DiffDead = false;              ///< Stop comparing after first diff.
  uint64_t DivergenceCount = 0;
  std::string DivergenceMsg;
};

} // namespace riscv
} // namespace b2

#endif // B2_RISCV_BLOCKENGINE_H
