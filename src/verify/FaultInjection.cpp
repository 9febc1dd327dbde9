//===- verify/FaultInjection.cpp - Seeded-fault registry metadata -----------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/FaultInjection.h"

using namespace b2;
using namespace b2::fi;

const std::vector<FaultInfo> &b2::fi::faultRegistry() {
  static const std::vector<FaultInfo> Registry = {
      // -- Compiler ----------------------------------------------------------
      {Fault::CompilerRegallocWrongReg, "compiler-regalloc-wrong-reg",
       "compiler", "CompilerDiff",
       "register allocator assigns two simultaneously live variables to "
       "the same register"},
      {Fault::CompilerLoadNoZeroExtend, "compiler-load-no-zero-extend",
       "compiler", "CompilerDiff",
       "1-byte loads compile to lb (sign-extending) instead of lbu"},
      {Fault::CompilerBranchOffByOne, "compiler-branch-off-by-one",
       "compiler", "CompilerDiff",
       "short conditional branches resolve one instruction past their "
       "target"},
      {Fault::CompilerStackallocNoZero, "compiler-stackalloc-no-zero",
       "compiler", "CompilerDiff",
       "stackalloc omits the zero-fill loop, exposing stale stack bytes"},
      {Fault::CompilerCalleeSavedSkip, "compiler-callee-saved-skip",
       "compiler", "CompilerDiff",
       "prologue/epilogue skip the first used callee-saved register"},
      {Fault::CompilerImmTruncate, "compiler-imm-truncate", "compiler",
       "CompilerDiff",
       "constant materialization truncates immediates to 12 signed bits"},
      // -- ISA simulator -----------------------------------------------------
      {Fault::SimSraLogicalShift, "sim-sra-logical-shift", "sim", "Lockstep",
       "sra/srai executes as a logical right shift"},
      {Fault::SimBranchLtAsGe, "sim-branch-lt-as-ge", "sim", "Lockstep",
       "blt takes the bge condition"},
      {Fault::SimLhWrongWidth, "sim-lh-wrong-width", "sim", "Lockstep",
       "lh sign-extends from bit 7 instead of bit 15"},
      {Fault::SimStoreKeepsXAddrs, "sim-store-keeps-xaddrs", "sim",
       "Lockstep",
       "stores skip the section-5.6 discipline: stored bytes stay in "
       "XAddrs, so a patched instruction executes instead of trapping"},
      {Fault::SimBlockStaleSuperblock, "sim-stale-superblock-after-invalidate",
       "sim", "BlockDiff",
       "decode invalidation no longer kills the owning superblocks, so "
       "the trace engine keeps executing stale micro-op traces after "
       "self-modifying stores"},
      {Fault::SimBlockFusedClobber, "sim-fused-op-flag-clobber", "sim",
       "BlockDiff",
       "the fused addi/branch micro-op evaluates its branch on the stale "
       "pre-increment counter value instead of the updated one"},
      // -- Kami processors ---------------------------------------------------
      {Fault::KamiBtbNoSquash, "kami-btb-no-squash", "kami", "Refinement",
       "a detected misprediction redirects fetch but does not squash the "
       "wrong-path instruction in the decode latch"},
      {Fault::KamiForwardLoadStale, "kami-forward-load-stale", "kami",
       "Refinement",
       "WB->ID forwarding also fires for loads, forwarding the stale ALU "
       "latch instead of the loaded value"},
      {Fault::KamiMemWrongByteEnable, "kami-mem-wrong-byte-enable", "kami",
       "Lockstep",
       "sub-word BRAM stores assert all four byte-enable lanes"},
      {Fault::KamiLoadNoSignExtend, "kami-load-no-sign-extend", "kami",
       "Lockstep", "lb zero-extends the loaded byte"},
      {Fault::KamiSltAsUnsigned, "kami-slt-as-unsigned", "kami", "Lockstep",
       "slt/slti compare unsigned"},
      {Fault::KamiDecodeShamtWide, "kami-decode-shamt-wide", "kami",
       "DecodeConsistency",
       "shift-immediate decode keeps the whole I-immediate instead of "
       "masking to the 5-bit shamt"},
      {Fault::KamiIcacheFillTruncated, "kami-icache-fill-truncated", "kami",
       "Lockstep",
       "the reset-time I$ fill copies only the lower half of BRAM; upper "
       "fetches read zero words"},
      {Fault::KamiFastMmioLatencyDropped, "kami-fast-mmio-latency-dropped",
       "kami", "BlockDiff",
       "the pipelined core's fast engine retires external loads and "
       "stores one cycle after EX, dropping the MMIO handshake latency "
       "from its cycle recurrence"},
      // -- Devices -----------------------------------------------------------
      {Fault::DevLanRxByteOrder, "dev-lan-rx-byte-order", "devices",
       "EndToEnd",
       "LAN9250 RX data FIFO assembles its 32-bit words big-endian"},
      {Fault::DevLanRxLengthOffByOne, "dev-lan-rx-length-off-by-one",
       "devices", "EndToEnd",
       "LAN9250 RX status words report the frame length plus one"},
      {Fault::DevSpiStaleRead, "dev-spi-stale-read", "devices", "EndToEnd",
       "SPI rxdata returns the previously popped byte instead of the "
       "FIFO-empty flag"},
      {Fault::DevLanRxCrossFrameLatch, "dev-lan-rx-cross-frame-latch",
       "devices", "EndToEnd",
       "LAN9250 RX leaks a marker latch across frame boundaries: after an "
       "ON command is buffered, later OFF commands are corrupted in the "
       "FIFO"},
      // -- Interpreter / bytecode --------------------------------------------
      {Fault::BcDivCountSkip, "bc-div-count-skip", "interp", "InterpDiff",
       "the bytecode Binop handler does not count divisions by zero"},
      {Fault::BcAllocSkew, "bc-alloc-skew", "interp", "InterpDiff",
       "bytecode stackalloc binds the pointer 4 bytes past the owned "
       "base"},
      {Fault::FootprintCoalesceDropByte, "footprint-coalesce-drop-byte",
       "interp", "CompilerDiff",
       "merging overlapping ownership intervals drops the last byte of "
       "the union"},
      // -- Traffic subsystem ---------------------------------------------------
      {Fault::TrafficMonitorDropEvent, "traffic-monitor-drop-event",
       "traffic", "SoakMonitor",
       "the streaming trace monitor silently skips every 64th event it "
       "is fed"},
      {Fault::TrafficGenUnseededFrame, "traffic-gen-unseeded-frame",
       "traffic", "SoakMonitor",
       "the scenario generator derives one payload byte from hidden "
       "global state instead of the seed"},
      {Fault::TrafficPcapTruncateWrite, "traffic-pcap-truncate-write",
       "traffic", "SoakMonitor",
       "the pcap writer drops the last byte of frames longer than 64 "
       "bytes"},
      {Fault::SnapStateStaleLatch, "snap-state-stale-latch", "traffic",
       "SnapDiff",
       "checkpoint restore leaves the SPI shifter-busy latch stale, so "
       "a snapshot-resumed run diverges from the straight-through run"},
      // -- VC subsystem --------------------------------------------------------
      {Fault::VcWpDroppedConjunct, "vc-wp-dropped-conjunct", "vc", "VcCheck",
       "the WP generator drops the entry function's postcondition "
       "obligation, so buggy contracts verify Valid"},
      {Fault::VcSolverBadModel, "vc-solver-bad-model", "vc", "VcCheck",
       "the SAT backend flips one bit of every model it returns, so "
       "symbolic counterexamples describe no real execution"},
      {Fault::VcCacheStaleHit, "vc-cache-stale-hit", "vc", "VcCheck",
       "the solved-obligation cache loses hash discrimination and answers "
       "any lookup from any stored entry, so unproved obligations come "
       "back proved"},
      {Fault::VcSliceDroppedSupport, "vc-slice-dropped-support", "vc",
       "VcCheck",
       "the cone-of-influence slicer drops one live assumption, so sliced "
       "queries are weaker than the originals"},
  };
  return Registry;
}

const FaultInfo *b2::fi::findFault(const std::string &Name) {
  for (const FaultInfo &F : faultRegistry())
    if (Name == F.Name)
      return &F;
  return nullptr;
}

std::string b2::fi::faultNameList() {
  std::string Out;
  for (const FaultInfo &F : faultRegistry()) {
    if (!Out.empty())
      Out += ", ";
    Out += F.Name;
  }
  return Out;
}
