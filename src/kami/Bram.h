//===- kami/Bram.h - Block RAM with byte-enable interface ------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FPGA block-RAM model. The paper's additions to the Kami processor
/// included "adding byte-enable signals to the memory interface" to support
/// lb/sb (section 5.5); accordingly this model's write port takes a 4-bit
/// byte-enable mask on a word-aligned address, and all narrower accesses
/// are expressed through it.
///
/// Address handling matches hardware, not the software semantics: the
/// Kami semantics "does not have a notion of undefined behavior —
/// memory accesses at too-large addresses just wrap around, ignoring the
/// more-significant address bits" (section 5.8). The wrap is implemented
/// here so that the processor models inherit it.
///
//===----------------------------------------------------------------------===//

#ifndef B2_KAMI_BRAM_H
#define B2_KAMI_BRAM_H

#include "support/Snapshot.h"
#include "support/Word.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace b2 {
namespace kami {

/// True iff \p SizeBytes is a legal BRAM size: a power of two of at least
/// one word. Hardware BRAMs index with the low address bits, so every
/// size in the tree is one; the cores' index arithmetic relies on it.
inline bool isBramSize(Word SizeBytes) {
  return SizeBytes >= 4 && (SizeBytes & (SizeBytes - 1)) == 0;
}

/// Word-addressed block RAM with a byte-enable write port.
class Bram {
public:
  /// Creates a zeroed BRAM of \p SizeBytes, which must satisfy
  /// isBramSize (checked in every build type: throws
  /// std::invalid_argument).
  explicit Bram(Word SizeBytes)
      : Words(checkedWords(SizeBytes), 0), IndexMask(Word(Words.size()) - 1) {}

  Word sizeBytes() const { return (IndexMask + 1) * 4; }

  /// Reads the aligned word containing \p Addr; high address bits wrap.
  Word readWord(Word Addr) const { return Words[wordIndex(Addr)]; }

  /// Writes bytes of \p Data selected by \p ByteEnable (bit i enables byte
  /// lane i) into the aligned word containing \p Addr.
  void writeWord(Word Addr, uint8_t ByteEnable, Word Data) {
    Word Index = wordIndex(Addr);
    Word Mask = 0; // Byte lane i is all ones iff bit i is enabled.
    for (unsigned Lane = 0; Lane != 4; ++Lane)
      if (ByteEnable & (1u << Lane))
        Mask |= Word(0xFF) << (8 * Lane);
    Word &W = Words[Index];
    W = (W & ~Mask) | (Data & Mask);
    Cow.markDirty(Index);
  }

  /// Copies \p Image into the BRAM starting at byte 0 (system bring-up:
  /// "place it at address 0 in a memory", section 5.9). Asserts it fits.
  void loadImage(const std::vector<uint8_t> &Image) {
    assert(Image.size() <= size_t(sizeBytes()) && "image does not fit");
    for (std::size_t I = 0; I != Image.size(); ++I) {
      Word Lane = Word(I) & 3;
      writeWord(Word(I), uint8_t(1u << Lane), Word(Image[I]) << (8 * Lane));
    }
  }

  /// Byte view used by checkers that compare against the software
  /// semantics' RAM.
  uint8_t readByte(Word Addr) const {
    Word W = readWord(Addr);
    return uint8_t((W >> (8 * (Addr & 3))) & 0xFF);
  }

  /// Read-only view of the word array (word I holds bytes 4I..4I+3), for
  /// checkers that compare whole memories at once.
  std::span<const Word> words() const { return Words; }

  /// Word-for-word content equality (the differential engines' memory
  /// comparison).
  friend bool operator==(const Bram &A, const Bram &B) {
    return A.Words == B.Words;
  }

  // -- Snapshot/restore ------------------------------------------------------

  /// Copy-on-write checkpoint of the word array: O(words dirtied since
  /// the previous checkpoint), not O(BRAM size).
  struct Snapshot {
    support::CowTracker<Word>::Snap Words;
  };

  Snapshot snapshot() { return Snapshot{Cow.snapshot(Words)}; }
  void restore(const Snapshot &S) { Cow.restore(Words, S.Words); }

private:
  static size_t checkedWords(Word SizeBytes) {
    if (!isBramSize(SizeBytes))
      throw std::invalid_argument("BRAM size " + std::to_string(SizeBytes) +
                                  " is not a power of two of at least 4");
    return SizeBytes / 4;
  }

  Word wordIndex(Word Addr) const {
    // Hardware truncates the address to the BRAM's index width: high bits
    // wrap around.
    return (Addr / 4) & IndexMask;
  }

  std::vector<Word> Words;
  Word IndexMask; ///< Words.size() - 1.
  support::CowTracker<Word> Cow;
};

/// Computes the byte-enable mask for a \p Size-byte access at \p Addr
/// (addr low bits select lanes). \p Size in {1,2,4}.
inline uint8_t byteEnableFor(Word Addr, unsigned Size) {
  unsigned Lane = Addr & 3;
  switch (Size) {
  case 1:
    return uint8_t(1u << Lane);
  case 2:
    return uint8_t(0x3u << (Lane & 2));
  case 4:
    return 0xF;
  default:
    assert(false && "invalid access size");
    return 0;
  }
}

/// Replicates \p Value across the byte lanes selected by \p Addr so a
/// narrow store drives the right lanes of the word-wide write port.
inline Word laneAlign(Word Addr, unsigned Size, Word Value) {
  unsigned Lane = Addr & 3;
  switch (Size) {
  case 1:
    return (Value & 0xFF) << (8 * Lane);
  case 2:
    return (Value & 0xFFFF) << (8 * (Lane & 2));
  case 4:
    return Value;
  default:
    assert(false && "invalid access size");
    return 0;
  }
}

/// Extracts a \p Size-byte value from word \p WordData as selected by the
/// low bits of \p Addr.
inline Word laneExtract(Word Addr, unsigned Size, Word WordData) {
  unsigned Lane = Addr & 3;
  switch (Size) {
  case 1:
    return (WordData >> (8 * Lane)) & 0xFF;
  case 2:
    return (WordData >> (8 * (Lane & 2))) & 0xFFFF;
  case 4:
    return WordData;
  default:
    assert(false && "invalid access size");
    return 0;
  }
}

} // namespace kami
} // namespace b2

#endif // B2_KAMI_BRAM_H
