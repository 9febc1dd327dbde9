//===- riscv/Machine.h - Software-oriented RISC-V machine state -*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-state type of the software-oriented RISC-V semantics that
/// the compiler is verified (here: differentially tested) against — the
/// paper's riscv-coq instantiation (sections 5.4 and 5.6). It includes:
///
///  * the register file, program counter, and a flat byte-addressed RAM
///    starting at address 0 (the demo platform's BRAM);
///  * the I/O trace of MMIO events (section 6.2);
///  * the set of executable addresses `XAddrs` used to encode the
///    stale-instruction discipline (section 5.6): every store removes its
///    addresses from the set, and fetching from an address outside the set
///    is undefined behavior;
///  * an explicit undefined-behavior status. UB is a *value* of the
///    simulation, never C++ UB: a machine that stepped into UB freezes and
///    remembers why.
///
/// XAddrs is stored as a packed bitset (one bit per byte, 64 bytes per
/// block) so that range queries and removals are word operations rather
/// than per-byte scans.
///
/// The machine is the reference semantics: riscv::step (riscv/Step.h)
/// runs every fetch check — alignment, mapping, XAddrs, decodability —
/// on every instruction. The one fast engine, the superblock trace engine
/// of riscv/BlockEngine.h, keeps its translations outside the machine and
/// learns of every XAddrs removal and host-level RAM poke through
/// InvalidationListener; its Differential mode replays each run chunk on
/// this stepper, which makes the stepper the second witness of the
/// section-5.6 discipline for the engine's cached translations.
///
//===----------------------------------------------------------------------===//

#ifndef B2_RISCV_MACHINE_H
#define B2_RISCV_MACHINE_H

#include "riscv/Mmio.h"
#include "support/Snapshot.h"
#include "support/Word.h"
#include "verify/FaultInjection.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace b2 {
namespace riscv {

/// Why a machine stopped making well-defined progress.
enum class UbKind : uint8_t {
  None,              ///< No UB: the machine is running.
  FetchUnmapped,     ///< PC outside RAM.
  FetchMisaligned,   ///< PC not 4-byte aligned.
  FetchNotExecutable,///< PC in RAM but outside XAddrs (stale instruction).
  InvalidInstruction,///< Fetched word does not decode.
  LoadUnmapped,      ///< Load from an address that is neither RAM nor MMIO.
  StoreUnmapped,     ///< Store to an address that is neither RAM nor MMIO.
  LoadMisaligned,    ///< Misaligned RAM or MMIO load.
  StoreMisaligned,   ///< Misaligned RAM or MMIO store.
  MmioBadSize,       ///< Non-word-sized MMIO access on this platform.
  EnvironmentCall,   ///< ecall/ebreak: no execution environment exists.
};

/// Human-readable name for a UB kind.
const char *ubKindName(UbKind K);

/// Observer of the machine's derived-state invalidation events, wired up
/// by the superblock trace engine (riscv/BlockEngine.h). The machine
/// notifies it on exactly the XAddrs-removal set of section 5.6, plus
/// host-level RAM pokes, and on whole-machine restore, where every
/// derived structure must be considered stale. The listener is runtime
/// wiring, not architectural state: it is not part of Snapshot and never
/// changes observable behavior by itself.
class InvalidationListener {
public:
  virtual ~InvalidationListener() = default;

  /// Instruction words [\p FirstWord, \p LastWord] (inclusive, in units
  /// of aligned 4-byte words) were invalidated.
  virtual void onInvalidate(size_t FirstWord, size_t LastWord) = 0;

  /// The whole machine state was replaced by restore(); all derived
  /// state (translated superblocks, shadow copies) is stale.
  virtual void onRestore() = 0;
};

/// The software-oriented RISC-V machine. The memory footprint never
/// changes during execution (paper section 6.2: "In our instantiation of
/// the ISA specification, the memory footprint remains unchanged").
class Machine {
public:
  /// Creates a machine with \p RamSize bytes of zeroed RAM at address 0,
  /// PC 0, all registers 0, and every RAM address executable. \p RamSize
  /// must be a positive multiple of 4.
  explicit Machine(Word RamSize);

  // -- Registers and PC ---------------------------------------------------

  Word getReg(unsigned R) const {
    assert(R < 32 && "register index out of range");
    return R == 0 ? 0 : Regs[R];
  }

  void setReg(unsigned R, Word V) {
    assert(R < 32 && "register index out of range");
    if (R != 0)
      Regs[R] = V;
  }

  Word getPc() const { return Pc; }
  void setPc(Word V) { Pc = V; }

  // -- RAM ----------------------------------------------------------------

  Word ramSize() const { return Word(Ram.size()); }

  /// Returns true iff the \p Size-byte range at \p Addr lies entirely in
  /// RAM (with overflow handled).
  bool inRam(Word Addr, unsigned Size) const {
    return Addr < Ram.size() && Size <= Ram.size() - Addr;
  }

  uint8_t readByte(Word Addr) const {
    assert(inRam(Addr, 1) && "RAM read out of range");
    return Ram[Addr];
  }

  void writeByte(Word Addr, uint8_t V) {
    assert(inRam(Addr, 1) && "RAM write out of range");
    Ram[Addr] = V;
    RamCow.markDirty(Addr);
    notifyInvalidation(Addr, 1);
  }

  /// Little-endian read of \p Size in {1,2,4} bytes.
  Word readRam(Word Addr, unsigned Size) const;

  /// Little-endian write of \p Size in {1,2,4} bytes.
  void writeRam(Word Addr, unsigned Size, Word V);

  /// Copies \p Image into RAM at \p Addr. Asserts it fits.
  void loadImage(Word Addr, const std::vector<uint8_t> &Image);

  /// The ISA store operation: writes \p Size bytes and removes them from
  /// XAddrs (section 5.6) — equivalent to writeRam + removeXAddrs but with
  /// a single listener notification.
  void storeRam(Word Addr, unsigned Size, Word V);

  /// Aligned-word RAM read with no bounds handling: \p Addr must be
  /// 4-aligned and in RAM. This is readRam's word case, inlined for the
  /// trace engine's guarded fast path.
  Word loadWordFast(Word Addr) const {
    assert((Addr & 3) == 0 && inRam(Addr, 4) && "unguarded word read");
    const uint8_t *P = &Ram[Addr];
    return Word(P[0]) | Word(P[1]) << 8 | Word(P[2]) << 16 | Word(P[3]) << 24;
  }

  /// The aligned-word case of storeRam, minus the listener notification:
  /// writes the word and applies the section-5.6 XAddrs removal (seeded
  /// store faults included — this IS storeRam's aligned path, which
  /// delegates here). Returns true iff the invalidation discipline ran to
  /// completion, i.e. iff storeRam would have notified the invalidation
  /// listener; the caller owns delivering that notification. \p Addr
  /// must be 4-aligned and in RAM.
  bool storeWordNoNotify(Word Addr, Word V) {
    assert((Addr & 3) == 0 && inRam(Addr, 4) && "unguarded word store");
    uint8_t *P = &Ram[Addr];
    P[0] = uint8_t(V);
    P[1] = uint8_t(V >> 8);
    P[2] = uint8_t(V >> 16);
    P[3] = uint8_t(V >> 24);
    RamCow.markDirty(Addr);
    if (fi::on(fi::Fault::SimStoreKeepsXAddrs))
      return false; // Seeded bug: the section-5.6 discipline is forgotten.
    // Aligned word: one XAddrs block. Data words lose their X bits on the
    // first store and never regain them, so test before clearing to spare
    // the steady-state read-modify-write.
    uint64_t XMask = uint64_t(0xF) << (Addr & 63);
    if (XBits[Addr >> 6] & XMask)
      XBits[Addr >> 6] &= ~XMask;
    return true;
  }

  // -- XAddrs (stale-instruction discipline, section 5.6) ------------------

  /// True iff all 4 bytes at \p Addr are executable.
  bool isExecutable(Word Addr) const {
    if (!inRam(Addr, 4))
      return false;
    return xBitsAllSet(Addr, 4);
  }

  /// Removes [Addr, Addr+Size) from the executable set; called on every
  /// RAM store. Addresses wrap modulo 2^32 exactly as a per-byte removal
  /// would, and bytes outside RAM are ignored. The invalidation listener
  /// is notified of exactly the removal set.
  void removeXAddrs(Word Addr, unsigned Size);

  /// True iff [Addr, Addr+Size) is entirely executable; used by the
  /// compiler-correctness checker to verify the program image stays
  /// executable throughout execution.
  bool rangeExecutable(Word Addr, Word Size) const {
    if (Size == 0)
      return inRam(Addr, 0);
    if (!inRam(Addr, Size))
      return false;
    return xBitsAllSet(Addr, Size);
  }

  // -- Invalidation listener ------------------------------------------------

  /// Installs (or clears, with null) the invalidation listener. At most
  /// one listener is supported; the superblock trace engine owns it for
  /// the machine it drives.
  void setInvalidationListener(InvalidationListener *L) { Listener = L; }
  InvalidationListener *invalidationListener() const { return Listener; }

  // -- Snapshot/restore ------------------------------------------------------

  /// Whole-machine checkpoint. RAM is captured copy-on-write (O(pages
  /// dirtied since the last checkpoint)); the MMIO trace as an
  /// append-only delta chain; the rest (registers, XAddrs bitset, UB
  /// status, counters) flat.
  struct Snapshot {
    Word Regs[32];
    Word Pc;
    support::CowTracker<uint8_t>::Snap Ram;
    std::vector<uint64_t> XBits;
    UbKind Ub;
    std::string UbMessage;
    support::ChainTracker<MmioEvent>::Snap Trace;
    uint64_t Retired;
  };

  /// Captures the complete architectural state.
  Snapshot snapshot();

  /// Rewinds the machine to \p S (which must come from this machine's
  /// snapshot()). Pure state copy: no fault hooks run.
  void restore(const Snapshot &S);

  // -- UB status ------------------------------------------------------------

  bool hasUb() const { return Ub != UbKind::None; }
  UbKind ubKind() const { return Ub; }
  const std::string &ubDetail() const { return UbMessage; }

  /// Marks the machine as having undefined behavior. Sticky: the first UB
  /// wins and the machine stops stepping.
  void markUb(UbKind K, std::string Detail);

  // -- I/O trace -------------------------------------------------------------

  const MmioTrace &trace() const { return Trace; }
  void appendEvent(const MmioEvent &E) { Trace.push_back(E); }

  // -- Counters --------------------------------------------------------------

  uint64_t retiredInstructions() const { return Retired; }
  void countRetired() { ++Retired; }

private:
  friend class BlockEngine; ///< The superblock trace engine executes
                            ///< micro-ops directly on this state.

  Word Regs[32] = {};
  Word Pc = 0;
  std::vector<uint8_t> Ram;
  /// XAddrs, one bit per RAM byte, packed into 64-bit blocks. Trailing
  /// bits past ramSize() are never consulted (all queries bound-check
  /// first).
  std::vector<uint64_t> XBits;
  UbKind Ub = UbKind::None;
  std::string UbMessage;
  MmioTrace Trace;
  uint64_t Retired = 0;
  support::CowTracker<uint8_t> RamCow;
  support::ChainTracker<MmioEvent> TraceChain;
  InvalidationListener *Listener = nullptr;

  /// True iff every XAddrs bit in [Addr, Addr+Len) is set. \p Len > 0 and
  /// the range must be in RAM.
  bool xBitsAllSet(Word Addr, Word Len) const;

  /// Tells the invalidation listener, if any, that the words overlapping
  /// [Addr, Addr+Len) changed (no address wrapping; the range must be in
  /// RAM).
  void notifyInvalidation(Word Addr, Word Len);
};

} // namespace riscv
} // namespace b2

#endif // B2_RISCV_MACHINE_H
