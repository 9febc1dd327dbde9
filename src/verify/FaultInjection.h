//===- verify/FaultInjection.h - Seeded-fault registry ---------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime fault injection for checker-adequacy testing (the mutation
/// adequacy campaign of verify/Adequacy.h). Every layer of the stack
/// carries a small set of named, individually switchable seeded bugs —
/// compiler miscompilations, ISA-simulator semantic bugs, pipeline bugs,
/// device-model bugs, interpreter/bytecode bugs. A bug is *armed* by
/// installing a FaultPlan for the current thread (RAII FaultScope); with
/// no plan installed every hook compiles down to one thread-local load
/// and a predicted-untaken branch, and behavior is bit-identical to the
/// unhooked code. There are deliberately no #ifdef forks: the shipped
/// binary IS the testable binary, which is what lets the adequacy driver
/// assert the no-false-positive property (zero kills under an empty plan)
/// on the exact code the rest of the suite runs.
///
/// The plan is thread-local so the sharded campaign driver
/// (verify/ParallelDriver.h) can arm a different fault on every shard:
/// support::parallelFor runs each shard as one task on one worker thread,
/// so a FaultScope installed inside the shard body scopes exactly that
/// shard's work.
///
/// This header is include-only (C++17 inline thread_local) so that every
/// layer library (compiler, riscv, kami, devices, bedrock2) can hook
/// without linking against b2_verify; the registry *metadata* (names,
/// owning checkers) lives in FaultInjection.cpp inside b2_verify, where
/// only the adequacy tooling needs it.
///
//===----------------------------------------------------------------------===//

#ifndef B2_VERIFY_FAULTINJECTION_H
#define B2_VERIFY_FAULTINJECTION_H

#include <cstdint>
#include <string>
#include <vector>

namespace b2 {
namespace fi {

/// Every seeded fault in the stack. Grouped by layer; the registry in
/// FaultInjection.cpp carries the per-fault metadata (layer, owning
/// checker, summary). Keep in sync with faultRegistry().
enum class Fault : uint8_t {
  // -- Compiler miscompilations (owned by CompilerDiff) --------------------
  CompilerRegallocWrongReg,   ///< Two live variables share one register.
  CompilerLoadNoZeroExtend,   ///< 1-byte loads emit lb instead of lbu.
  CompilerBranchOffByOne,     ///< Short branches land one instruction late.
  CompilerStackallocNoZero,   ///< stackalloc skips the zero-fill loop.
  CompilerCalleeSavedSkip,    ///< First used s-register not saved/restored.
  CompilerImmTruncate,        ///< Constants materialize truncated to 12 bits.
  // -- ISA-simulator semantic bugs (owned by Lockstep / BlockDiff) ---------
  SimSraLogicalShift,         ///< sra/srai shift in zeros, not sign bits.
  SimBranchLtAsGe,            ///< blt takes the bge condition.
  SimLhWrongWidth,            ///< lh sign-extends from 8 bits, not 16.
  SimStoreKeepsXAddrs,        ///< Stores forget the stale-instruction
                              ///< discipline: XAddrs survives the
                              ///< overwrite (section 5.6).
  SimBlockStaleSuperblock,    ///< Decode invalidation no longer kills the
                              ///< owning superblocks, so the trace engine
                              ///< keeps executing stale micro-op traces
                              ///< after self-modifying stores.
  SimBlockFusedClobber,       ///< The fused addi/branch micro-op compares
                              ///< against the stale pre-increment counter
                              ///< value instead of the updated one.
  // -- Kami processor bugs (owned by Refinement / Lockstep / Decode) -------
  KamiBtbNoSquash,            ///< Mispredicted wrong-path instr not squashed.
  KamiForwardLoadStale,       ///< WB forwarding bypasses load results too,
                              ///< handing ID a stale ALU latch.
  KamiMemWrongByteEnable,     ///< Sub-word stores drive all 4 byte enables.
  KamiLoadNoSignExtend,       ///< lb zero-extends.
  KamiSltAsUnsigned,          ///< slt compares unsigned.
  KamiDecodeShamtWide,        ///< Shift-immediate decode skips the 5-bit
                              ///< shamt mask (full I-imm leaks through).
  KamiIcacheFillTruncated,    ///< Reset fill copies only half the BRAM.
  // -- Device-model bugs (owned by EndToEnd) -------------------------------
  DevLanRxByteOrder,          ///< RX FIFO assembles words big-endian.
  DevLanRxLengthOffByOne,     ///< RX status reports length + 1.
  DevSpiStaleRead,            ///< rxdata replays the last byte instead of
                              ///< signaling empty.
  DevLanRxCrossFrameLatch,    ///< The RX engine's frame-boundary reset
                              ///< leaks a marker latch across frames:
                              ///< once an ON command has been buffered,
                              ///< every later OFF command is corrupted
                              ///< in the FIFO (header byte flipped).
  // -- Interpreter / bytecode bugs (owned by InterpDiff / CompilerDiff) ----
  BcLoopChargeMiscount,       ///< Fused loop op undercharges body entry.
  BcLatchOpAsAdd,             ///< Fused "i = i op k" latch always adds.
  BcBrVZInverted,             ///< Fused loop-head branch tests != 0.
  BcDivCountSkip,             ///< Bytecode Binop forgets DivByZeroCount.
  BcAllocSkew,                ///< stackalloc hands out base + 4.
  FootprintCoalesceDropByte,  ///< Interval merge in the ownership set
                              ///< loses the last byte of the union.
  // -- Traffic subsystem bugs (owned by SoakMonitor) -----------------------
  TrafficMonitorDropEvent,    ///< The streaming trace monitor silently
                              ///< skips every 64th event it is fed.
  TrafficGenUnseededFrame,    ///< The scenario generator derives one
                              ///< payload byte from hidden global state
                              ///< instead of the seed.
  TrafficPcapTruncateWrite,   ///< The pcap writer drops the last byte of
                              ///< frames longer than 64 bytes.
  SnapStateStaleLatch,        ///< Checkpoint restore leaves the SPI
                              ///< shifter-busy latch stale, so a resumed
                              ///< run diverges from straight-through.
  // -- VC subsystem bugs (owned by VcCheck) --------------------------------
  VcWpDroppedConjunct,        ///< The WP generator drops the entry
                              ///< function's postcondition obligation, so
                              ///< buggy contracts verify Valid.
  VcSolverBadModel,           ///< The SAT backend corrupts one bit of
                              ///< every model it returns, so symbolic
                              ///< counterexamples describe no real run.
  VcCacheStaleHit,            ///< The solved-obligation cache answers any
                              ///< lookup from any stored entry (hash
                              ///< discrimination lost), so unproved
                              ///< obligations come back "proved".
  VcSliceDroppedSupport,      ///< The cone-of-influence slicer drops one
                              ///< live assumption, so sliced queries are
                              ///< weaker than the originals.

  NumFaults, ///< Count sentinel; not a fault.
};

static_assert(unsigned(Fault::NumFaults) <= 64,
              "FaultPlan packs the plan into one 64-bit word");

/// The set of armed faults. Cheap value type; campaigns arm exactly one
/// fault per plan, but the representation allows any subset.
class FaultPlan {
public:
  constexpr FaultPlan() = default;

  void enable(Fault F) { Bits |= uint64_t(1) << unsigned(F); }
  void disable(Fault F) { Bits &= ~(uint64_t(1) << unsigned(F)); }
  bool enabled(Fault F) const {
    return (Bits >> unsigned(F)) & 1;
  }
  bool empty() const { return Bits == 0; }

  /// The packed plan word — a stable identity for cache keys (e.g. the
  /// warm-boot snapshot cache keys on it so a snapshot taken under one
  /// plan is never resumed under another).
  uint64_t bits() const { return Bits; }

  static FaultPlan single(Fault F) {
    FaultPlan P;
    P.enable(F);
    return P;
  }

private:
  uint64_t Bits = 0;
};

/// The plan armed on this thread, or null (the common case: nothing
/// armed, all hooks dormant). Installed only via FaultScope.
inline thread_local const FaultPlan *ActivePlan = nullptr;

/// The hook predicate every injection site evaluates. One thread-local
/// load and a branch when dormant.
inline bool on(Fault F) {
  const FaultPlan *P = ActivePlan;
  return P != nullptr && P->enabled(F);
}

/// RAII installer: arms \p Plan for the current thread for the scope's
/// lifetime, restoring whatever was armed before (scopes nest). The plan
/// must outlive the scope.
class FaultScope {
public:
  explicit FaultScope(const FaultPlan &Plan) : Prev(ActivePlan) {
    ActivePlan = &Plan;
  }
  ~FaultScope() { ActivePlan = Prev; }

  FaultScope(const FaultScope &) = delete;
  FaultScope &operator=(const FaultScope &) = delete;

private:
  const FaultPlan *Prev;
};

// -- Registry metadata (defined in FaultInjection.cpp, linked into
// b2_verify; only the adequacy tooling needs these) -----------------------

/// Static description of one seeded fault.
struct FaultInfo {
  Fault Id;
  const char *Name;    ///< Stable kebab-case identifier (CLI / JSON).
  const char *Layer;   ///< compiler / sim / kami / devices / interp.
  const char *Owner;   ///< The checker column that must kill it.
  const char *Summary; ///< One-line description of the seeded bug.
};

/// All registered faults, ordered by Fault enumerator.
const std::vector<FaultInfo> &faultRegistry();

/// Looks up a fault by its stable name; null if unknown.
const FaultInfo *findFault(const std::string &Name);

/// All registered fault names, comma-joined in registry order — the
/// "valid names are:" list for CLI rejections of unknown fault names.
std::string faultNameList();

} // namespace fi
} // namespace b2

#endif // B2_VERIFY_FAULTINJECTION_H
