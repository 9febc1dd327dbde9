//===- verify/Lockstep.cpp - Processor/ISA lockstep checking -----------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/Lockstep.h"

#include "riscv/Step.h"
#include "support/Format.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <span>

using namespace b2;
using namespace b2::verify;
using namespace b2::support;

namespace {

/// The `related` relation of section 5.8 (architectural part).
bool relatedState(const riscv::Machine &M, const kami::PipelinedCore &Core,
                  std::string &Error) {
  for (unsigned R = 0; R != 32; ++R) {
    if (M.getReg(R) != Core.getReg(R)) {
      Error = "register x" + std::to_string(R) + " differs: sim " +
              hex32(M.getReg(R)) + " vs core " + hex32(Core.getReg(R));
      return false;
    }
  }
  if (M.getPc() != Core.architecturalPc()) {
    Error = "pc differs: sim " + hex32(M.getPc()) + " vs core " +
            hex32(Core.architecturalPc());
    return false;
  }
  return true;
}

// The bulk comparisons below memcmp the simulator's little-endian RAM
// bytes against the BRAM's and I$'s host-order words, which is the same
// comparison only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "Lockstep's bulk memory comparison assumes a little-endian host");

/// Full data-memory comparison (called periodically): one memcmp, then a
/// word walk for the report only once a difference is known.
bool relatedMemory(const riscv::Machine &M, const kami::Bram &B,
                   std::string &Error) {
  assert(B.sizeBytes() == M.ramSize() && "lockstep memories differ in size");
  std::span<const uint8_t> Ram = M.ramBytes();
  if (std::memcmp(Ram.data(), B.words().data(), Ram.size()) == 0)
    return true;
  for (Word A = 0; A < M.ramSize(); A += 4) {
    if (M.readRam(A, 4) != B.readWord(A)) {
      Error = "memory word at " + hex32(A) + " differs: sim " +
              hex32(M.readRam(A, 4)) + " vs core " + hex32(B.readWord(A));
      return false;
    }
  }
  assert(false && "memcmp found a difference the word walk did not");
  return false;
}

/// The XAddrs part of `related`: the instruction cache agrees with data
/// memory on every executable address (section 5.8: "most importantly
/// that the instruction cache is consistent with main memory at the
/// executable addresses"). Walks the XAddrs bitset a 64-byte block at a
/// time: a wholly executable block is one memcmp, a wholly data block is
/// skipped, and only mixed blocks are compared word by word.
bool relatedICache(const riscv::Machine &M, const kami::ICache &IC,
                   std::string &Error) {
  assert(IC.sizeWords() * 4 == M.ramSize() && "I$ and RAM differ in size");
  std::span<const uint8_t> Ram = M.ramBytes();
  std::span<const Word> Lines = IC.lines();
  std::span<const uint64_t> XBlocks = M.xAddrBlocks();
  for (size_t Block = 0; Block != XBlocks.size(); ++Block) {
    Word Base = Word(Block * 64);
    // The last block may hold fewer than 64 RAM bytes (a multiple of 4).
    Word Bytes = std::min<Word>(64, M.ramSize() - Base);
    uint64_t InRam = Bytes == 64 ? ~uint64_t(0) : (uint64_t(1) << Bytes) - 1;
    uint64_t X = XBlocks[Block] & InRam;
    if (X == 0)
      continue;
    if (X == InRam &&
        std::memcmp(&Ram[Base], &Lines[Base / 4], Bytes) == 0)
      continue;
    for (Word A = Base; A != Base + Bytes; A += 4) {
      if (((X >> (A - Base)) & 0xF) == 0xF &&
          M.loadWordFast(A) != Lines[A / 4]) {
        Error = "icache stale at executable address " + hex32(A);
        return false;
      }
    }
  }
  return true;
}

} // namespace

LockstepResult b2::verify::lockstep(const std::vector<uint8_t> &Image,
                                    Word HaltPc, DeviceFactory MakeDevice,
                                    const LockstepOptions &Options) {
  LockstepResult R;

  auto SimDev = MakeDevice();
  riscv::Machine M(Options.RamBytes);
  M.loadImage(0, Image);

  auto CoreDev = MakeDevice();
  kami::Bram B(Options.RamBytes);
  B.loadImage(Image);
  kami::PipelinedCore Core(B, *CoreDev, Options.Pipe);

  while (R.Retired < Options.MaxRetired) {
    if (M.getPc() == HaltPc)
      break;

    // One architectural step on the software semantics.
    if (!riscv::step(M, *SimDev)) {
      // UB: the comparison is vacuous from here on (the hardware may do
      // anything); stop and report where.
      R.SimulatorHitUb = true;
      R.Ub = M.ubKind();
      break;
    }

    // Retire exactly one instruction on the pipelined core.
    if (!Core.runUntilRetired(Core.retired() + 1,
                              Options.MaxCyclesPerInstr)) {
      R.Error = "liveness: core failed to retire within " +
                std::to_string(Options.MaxCyclesPerInstr) + " cycles at sim pc " +
                hex32(M.getPc());
      return R;
    }
    ++R.Retired;

    if (!relatedState(M, Core, R.Error)) {
      R.Error = "after " + std::to_string(R.Retired) + " retirements: " +
                R.Error;
      return R;
    }
    if (R.Retired % Options.MemoryCheckEvery == 0) {
      if (!relatedMemory(M, B, R.Error) || !relatedICache(M, Core.icache(),
                                                          R.Error)) {
        R.Error = "after " + std::to_string(R.Retired) + " retirements: " +
                  R.Error;
        return R;
      }
    }
  }

  // Final deep checks: memory, icache-vs-XAddrs, and the label trace.
  if (!R.SimulatorHitUb) {
    if (!relatedMemory(M, B, R.Error) ||
        !relatedICache(M, Core.icache(), R.Error))
      return R;
  }
  riscv::MmioTrace CoreTrace = kami::kamiLabelSeqR(Core.labels());
  const riscv::MmioTrace &SimTrace = M.trace();
  size_t N = std::min(CoreTrace.size(), SimTrace.size());
  for (size_t I = 0; I != N; ++I) {
    if (!(CoreTrace[I] == SimTrace[I])) {
      R.Error = "MMIO event " + std::to_string(I) + " differs: sim " +
                riscv::toString(SimTrace[I]) + " vs core " +
                riscv::toString(CoreTrace[I]);
      return R;
    }
  }
  if (!R.SimulatorHitUb && CoreTrace.size() != SimTrace.size()) {
    R.Error = "MMIO trace lengths differ: sim " +
              std::to_string(SimTrace.size()) + " vs core " +
              std::to_string(CoreTrace.size());
    return R;
  }

  R.Cycles = Core.cycles();
  R.Ok = true;
  return R;
}
