//===- kami/MemSystem.h - Shared memory/MMIO routing -----------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory module shared by the spec processor and the pipelined
/// processor. "The processor itself does not distinguish ordinary memory
/// operations from MMIO. When the memory module is attached, it handles
/// the loads and stores to memory addresses but makes designated external
/// method calls for the rest. This factoring appears both in the pipelined
/// processor and in the spec processor, making for an easy correctness
/// proof by modular refinement" (paper section 6.4). Sharing the routing
/// logic here makes the refinement property hold for the *data values* by
/// construction; the refinement checker still validates the end-to-end
/// label traces.
///
//===----------------------------------------------------------------------===//

#ifndef B2_KAMI_MEMSYSTEM_H
#define B2_KAMI_MEMSYSTEM_H

#include "kami/Bram.h"
#include "kami/Decode.h"
#include "kami/Labels.h"
#include "riscv/Mmio.h"
#include "verify/FaultInjection.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace b2 {
namespace kami {

/// Data-memory port: routes each access either to the BRAM or to the
/// external module (recording a label). The RAM half is inline, since the
/// cores call it once per memory instruction; the external half is out of
/// line.
class MemPort {
public:
  MemPort(Bram &Mem, riscv::MmioDevice &Device) : Mem(Mem), Device(Device) {}

  bool isExternal(Word Addr) const { return Addr >= Mem.sizeBytes(); }

  /// Performs a load; external accesses are recorded in \p Labels.
  Word load(Word Addr, unsigned Size, uint64_t Cycle, LabelTrace &Labels) {
    return isExternal(Addr) ? loadExternal(Addr, Size, Cycle, Labels)
                            : loadRam(Addr, Size);
  }

  /// Performs a store; external accesses are recorded in \p Labels.
  void store(Word Addr, unsigned Size, Word Value, uint64_t Cycle,
             LabelTrace &Labels) {
    if (isExternal(Addr))
      storeExternal(Addr, Size, Value, Cycle, Labels);
    else
      storeRam(Addr, Size, Value);
  }

  /// A load from a RAM address (!isExternal(Addr)).
  Word loadRam(Word Addr, unsigned Size) const {
    return laneExtract(Addr, Size, Mem.readWord(Addr));
  }

  /// A store to a RAM address (!isExternal(Addr)).
  void storeRam(Word Addr, unsigned Size, Word Value) {
    uint8_t Be = byteEnableFor(Addr, Size);
    if (fi::on(fi::Fault::KamiMemWrongByteEnable))
      Be = 0xF; // Seeded bug: sub-word stores clobber the whole word.
    Mem.writeWord(Addr, Be, laneAlign(Addr, Size, Value));
  }

  /// An external method call on the unspecified module. Addresses no
  /// device claims still produce a call; a load's reply is then an
  /// arbitrary (but deterministic) value.
  Word loadExternal(Word Addr, unsigned Size, uint64_t Cycle,
                    LabelTrace &Labels);
  void storeExternal(Word Addr, unsigned Size, Word Value, uint64_t Cycle,
                     LabelTrace &Labels);

  Bram &bram() { return Mem; }
  const Bram &bram() const { return Mem; }

private:
  Bram &Mem;
  riscv::MmioDevice &Device;
};

/// The interface-compatible instruction cache the paper added to the Kami
/// processor: on reset it eagerly copies main memory into FPGA block RAM
/// and serves all fetches from the copy (section 5.5). Ordinary stores do
/// *not* update it — that is the stale-instruction hazard of section 5.6,
/// which the software side must avoid via the XAddrs discipline.
///
/// Because the snapshot never changes after reset, each line's decode is
/// computed once (lazily, on first fetch from that line) and reused by
/// every later fetch — a host-simulation fast path with no architectural
/// effect: fetchDecoded(pc) == decodeInst(fetch(pc)) for every pc, by
/// construction.
class ICache {
public:
  explicit ICache(const Bram &Mem) {
    if (!isBramSize(Mem.sizeBytes()))
      throw std::invalid_argument("I$ size is not a power of two");
    Lines.resize(Mem.sizeBytes() / 4);
    IndexMask = Word(Lines.size()) - 1;
    Word Fill = Word(Lines.size());
    if (fi::on(fi::Fault::KamiIcacheFillTruncated))
      Fill /= 2; // Seeded bug: the reset fill stops halfway; the upper
                 // lines keep their power-on zeros.
    std::copy_n(Mem.words().begin(), Fill, Lines.begin());
    Decoded.resize(Lines.size());
    DecodedValid.resize(Lines.size(), 0);
  }

  Word fetch(Word Pc) const { return Lines[(Pc / 4) & IndexMask]; }

  /// Predecoded fetch for the core models' frontends.
  const DecodedInst &fetchDecoded(Word Pc) const {
    Word I = (Pc / 4) & IndexMask;
    if (!DecodedValid[I]) {
      Decoded[I] = decodeInst(Lines[I]);
      DecodedValid[I] = true;
    }
    return Decoded[I];
  }

  Word sizeWords() const { return Word(Lines.size()); }

  /// Read-only view of the lines (line I caches the word at byte 4I), for
  /// checkers that compare the cache with memory in bulk.
  std::span<const Word> lines() const { return Lines; }

private:
  std::vector<Word> Lines;
  Word IndexMask = 0; ///< Lines.size() - 1 (a power of two minus one).
  // Memoized decodes; mutable because filling the memo is not an
  // architectural state change (the snapshot itself is immutable). The
  // valid flags are bytes, not bits: every fetch tests one.
  mutable std::vector<DecodedInst> Decoded;
  mutable std::vector<uint8_t> DecodedValid;
};

} // namespace kami
} // namespace b2

#endif // B2_KAMI_MEMSYSTEM_H
