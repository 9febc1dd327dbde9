//===- kami/Labels.h - Kami-style I/O labels -------------------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// I/O is encoded in Kami "as invoking methods on an unspecified external
/// module, which the semantics tracks in a behavior trace" (section 6.4).
/// A Label records one such external method call. The end-to-end theorem
/// relates Kami label sequences to the software-level MMIO traces via
/// `KamiRiscv.KamiLabelSeqR`, reproduced here as \c kamiLabelSeqR.
///
//===----------------------------------------------------------------------===//

#ifndef B2_KAMI_LABELS_H
#define B2_KAMI_LABELS_H

#include "riscv/Mmio.h"
#include "support/Word.h"

#include <cstdint>
#include <vector>

namespace b2 {
namespace kami {

/// One external method call of the processor module.
struct Label {
  enum class Kind : uint8_t { MmioLoad, MmioStore } MethodKind;
  Word Addr = 0;
  Word Value = 0;
  uint8_t Size = 4;
  uint64_t Cycle = 0; ///< Cycle of the call (diagnostics only; not part of
                      ///< the architectural trace relation).

  friend bool operator==(const Label &A, const Label &B) {
    // Cycle numbers are timing, not behavior: two traces are equal iff the
    // architectural content matches.
    return A.MethodKind == B.MethodKind && A.Addr == B.Addr &&
           A.Value == B.Value && A.Size == B.Size;
  }
};

using LabelTrace = std::vector<Label>;

/// KamiLabelSeqR on one label: its ("ld"|"st", addr, value) event.
inline riscv::MmioEvent kamiLabelEvent(const Label &L) {
  return riscv::MmioEvent{L.MethodKind == Label::Kind::MmioStore, L.Addr,
                          L.Value, L.Size};
}

/// Incremental KamiLabelSeqR: appends the images of Labels[From..) to
/// \p Out and returns the new conversion watermark. Lets pollers keep a
/// converted trace up to date without rebuilding it from scratch.
inline size_t appendKamiLabelSeqR(const LabelTrace &Labels, size_t From,
                                  riscv::MmioTrace &Out) {
  for (size_t I = From; I < Labels.size(); ++I)
    Out.push_back(kamiLabelEvent(Labels[I]));
  return Labels.size();
}

/// The paper's KamiLabelSeqR: maps a Kami label sequence to the ("ld"|"st",
/// addr, value) triples of the application-level trace predicates.
inline riscv::MmioTrace kamiLabelSeqR(const LabelTrace &Labels) {
  riscv::MmioTrace Out;
  appendKamiLabelSeqR(Labels, 0, Out);
  return Out;
}

} // namespace kami
} // namespace b2

#endif // B2_KAMI_LABELS_H
