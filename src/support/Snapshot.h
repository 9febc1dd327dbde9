//===- support/Snapshot.h - Copy-on-write snapshot primitives --*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Building blocks for the whole-machine checkpoint/restore layer.
///
/// CowTracker<T> snapshots a large std::vector<T> (RAM, BRAM) in
/// O(dirty pages): the tracked vector is divided into fixed-size pages,
/// mutation sites call markDirty, and snapshot() materializes immutable
/// shared pages only for the dirty ones, reusing the clean base pages by
/// pointer. restore() copies back only the pages that differ from the
/// machine's current base, and reports which ones it touched so callers
/// can fix up derived state.
///
/// ChainTracker<T> snapshots an append-only vector (MMIO traces, label
/// traces, accepted-frame logs) as a delta chain: each snapshot node
/// stores just the elements appended since its parent, so a snapshot is
/// O(delta) and restore walks to the pointer-identical common ancestor
/// and replays the path. Both are single-threaded by design — each soak
/// shard owns its machine outright.
///
//===----------------------------------------------------------------------===//

#ifndef B2_SUPPORT_SNAPSHOT_H
#define B2_SUPPORT_SNAPSHOT_H

#include "support/Metrics.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace b2 {
namespace support {

/// Paged copy-on-write tracker for one std::vector<T> owned elsewhere.
///
/// Contract: every mutation of the tracked vector between tracker
/// operations is reported via markDirty/markDirtyRange (element
/// granularity; over-approximation is fine, under-approximation is
/// not). The vector's size must not change between snapshot() and
/// restore() of the same lineage.
template <typename T> class CowTracker {
public:
  /// ~4 KiB pages, at least one element each.
  static constexpr size_t PageElems =
      sizeof(T) >= 4096 ? 1 : 4096 / sizeof(T);

  using Page = std::shared_ptr<const std::vector<T>>;

  /// An immutable snapshot: one shared page per PageElems-sized slice.
  struct Snap {
    std::vector<Page> Pages;
    size_t Size = 0;
  };

  /// Marks the page holding element \p Index dirty.
  void markDirty(size_t Index) {
    size_t P = Index / PageElems;
    if (P >= PageCount)
      growTo(P + 1);
    // Test first: hot loops re-dirty the same pages, and skipping the
    // redundant read-modify-write keeps the bitmap line clean.
    uint64_t Bit = uint64_t(1) << (P & 63);
    if (!(Dirty[P >> 6] & Bit))
      Dirty[P >> 6] |= Bit;
  }

  /// Marks every page overlapping [\p Lo, \p Hi) dirty. No-op when the
  /// range is empty.
  void markDirtyRange(size_t Lo, size_t Hi) {
    if (Lo >= Hi)
      return;
    size_t First = Lo / PageElems, Last = (Hi - 1) / PageElems;
    if (Last >= PageCount)
      growTo(Last + 1);
    for (size_t P = First; P <= Last; ++P)
      Dirty[P >> 6] |= uint64_t(1) << (P & 63);
  }

  /// Captures \p Data. Clean pages are shared with the previous
  /// snapshot; only dirty or never-snapshotted pages are copied. The
  /// tracker rebases on the result, so a subsequent snapshot with no
  /// intervening writes is all pointer reuse.
  Snap snapshot(const std::vector<T> &Data) {
    size_t N = pagesFor(Data.size());
    if (N > PageCount)
      growTo(N);
    Snap S;
    S.Size = Data.size();
    S.Pages.resize(N);
    uint64_t Copied = 0;
    for (size_t P = 0; P != N; ++P) {
      if (P < Base.size() && Base[P] && !isDirty(P) &&
          Base[P]->size() == sliceLen(Data.size(), P)) {
        S.Pages[P] = Base[P];
        continue;
      }
      size_t Lo = P * PageElems;
      S.Pages[P] = std::make_shared<const std::vector<T>>(
          Data.begin() + Lo, Data.begin() + Lo + sliceLen(Data.size(), P));
      Copied += sliceLen(Data.size(), P) * sizeof(T);
    }
    metrics::add(metrics::Id::CkptBytesCopied, Copied);
    Base = S.Pages;
    clearDirty();
    return S;
  }

  /// Rewinds \p Data to \p S. Pages whose base pointer matches the
  /// snapshot's and that were not dirtied since are skipped; the rest
  /// are copied back and their indices appended to \p TouchedPages (if
  /// non-null) so the caller can invalidate derived per-page state. The
  /// tracker rebases on \p S.
  void restore(std::vector<T> &Data, const Snap &S,
               std::vector<size_t> *TouchedPages = nullptr) {
    Data.resize(S.Size);
    size_t N = S.Pages.size();
    if (N > PageCount)
      growTo(N);
    uint64_t Copied = 0;
    for (size_t P = 0; P != N; ++P) {
      if (P < Base.size() && Base[P] == S.Pages[P] && !isDirty(P))
        continue;
      const std::vector<T> &Src = *S.Pages[P];
      std::copy(Src.begin(), Src.end(), Data.begin() + P * PageElems);
      Copied += Src.size() * sizeof(T);
      if (TouchedPages)
        TouchedPages->push_back(P);
    }
    metrics::add(metrics::Id::CkptBytesCopied, Copied);
    Base = S.Pages;
    Base.resize(PageCount);
    clearDirty();
  }

  /// Forgets all base pages; the next snapshot copies everything.
  void reset() {
    Base.clear();
    Dirty.clear();
    PageCount = 0;
  }

private:
  std::vector<Page> Base;      ///< Pages Data matched at the last rebase.
  std::vector<uint64_t> Dirty; ///< One bit per page, set => diverged.
  size_t PageCount = 0;

  static size_t pagesFor(size_t Elems) {
    return (Elems + PageElems - 1) / PageElems;
  }
  static size_t sliceLen(size_t Total, size_t P) {
    size_t Lo = P * PageElems;
    return Total - Lo < PageElems ? Total - Lo : PageElems;
  }
  bool isDirty(size_t P) const {
    return (Dirty[P >> 6] >> (P & 63)) & 1;
  }
  void clearDirty() {
    for (uint64_t &W : Dirty)
      W = 0;
  }
  void growTo(size_t N) {
    PageCount = N;
    Dirty.resize((N + 63) / 64, 0);
    if (Base.size() < N)
      Base.resize(N);
  }
};

/// Delta-chain tracker for an append-only std::vector<T>.
///
/// Contract: between tracker operations the tracked vector is only
/// appended to (never truncated or edited in place). snapshot() is
/// O(elements appended since the previous snapshot); restore() is
/// O(distance to the pointer-identical common ancestor).
template <typename T> class ChainTracker {
public:
  struct Node {
    std::shared_ptr<const Node> Parent;
    std::vector<T> Delta; ///< Elements [Parent->Len, Len).
    size_t Len = 0;
    size_t Depth = 0;
  };

  using Snap = std::shared_ptr<const Node>;

  /// Captures \p Data as a new chain node holding only the suffix
  /// appended since the last tracker operation.
  Snap snapshot(const std::vector<T> &Data) {
    // A tracked vector shorter than the chain position means a caller
    // moved it out (stats collection does); drop the position and store
    // a full copy rather than slicing past the end.
    if (Tip && Data.size() < Tip->Len)
      Tip = nullptr;
    auto N = std::make_shared<Node>();
    N->Parent = Tip;
    N->Len = Data.size();
    N->Depth = Tip ? Tip->Depth + 1 : 0;
    size_t From = Tip ? Tip->Len : 0;
    N->Delta.assign(Data.begin() + From, Data.end());
    Tip = N;
    return N;
  }

  /// Rewinds \p Data to the contents captured by \p S. When \p S shares
  /// an ancestor with the tracker's current position, only the diverging
  /// suffix is truncated and replayed; otherwise the whole vector is
  /// rebuilt from the chain.
  void restore(std::vector<T> &Data, const Snap &S) {
    // Same moved-out defense as snapshot(): if the vector no longer
    // extends the chain position, rebuild it from scratch.
    if (Tip && Data.size() < Tip->Len)
      Tip = nullptr;
    // Find the common ancestor by equalizing depth, then walking both
    // chains in lock step comparing pointers.
    const Node *A = S.get();
    const Node *B = Tip.get();
    while (A && B && A != B) {
      if (A->Depth > B->Depth)
        A = A->Parent.get();
      else if (B->Depth > A->Depth)
        B = B->Parent.get();
      else {
        A = A->Parent.get();
        B = B->Parent.get();
      }
    }
    const Node *Ancestor = (A && A == B) ? A : nullptr;

    // Collect the path Ancestor(exclusive) -> S, deepest first.
    std::vector<const Node *> Path;
    for (const Node *N = S.get(); N && N != Ancestor; N = N->Parent.get())
      Path.push_back(N);

    Data.resize(Ancestor ? Ancestor->Len : 0);
    for (size_t I = Path.size(); I != 0; --I)
      Data.insert(Data.end(), Path[I - 1]->Delta.begin(),
                  Path[I - 1]->Delta.end());
    Tip = S;
  }

  /// Forgets the chain position; the next snapshot stores a full copy.
  void reset() { Tip = nullptr; }

private:
  Snap Tip; ///< Node whose contents the tracked vector extends.
};

} // namespace support
} // namespace b2

#endif // B2_SUPPORT_SNAPSHOT_H
