//===- bedrock2/Semantics.h - Checking interpreter -------------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable counterpart of the paper's program logic (section 4.1):
/// an interpreter for Bedrock2 that *checks*, at every step, the side
/// conditions that `vcgen` would emit as proof obligations —
///
///  * every load and store touches only memory the program owns
///    (separation-logic footprint discipline; the word-count/byte-count
///    driver bug of section 3 is caught here as an ownership violation);
///  * word and halfword accesses are naturally aligned;
///  * variables are bound before use, calls match arities;
///  * external calls satisfy their `vcextern` contracts (bedrock2/ExtSpec.h);
///  * execution terminates within the provided fuel ("we only model
///    behavior of terminating programs ... implicitly identifying
///    nontermination with undefined behavior", section 5.2).
///
/// On the paper's CPS semantics (section 4): the Coq development phrases
/// evaluation as derivations `(c, t, m, l) ⇓ Q` so that *all* possible
/// executions under nondeterminism are covered by one derivation. In this
/// executable reproduction the ExtSpec resolves the input nondeterminism
/// and the Stackalloc policy resolves the internal nondeterminism, so one
/// run computes one concrete execution; checkers quantify over
/// nondeterminism by re-running with varied policies (see
/// verify/CompilerDiff.h).
///
/// Two execution engines implement these semantics: the AST walker in this
/// file (the reference) and the bytecode fast path (bedrock2/Bytecode.h).
/// ExecMode selects reference, fast, or differential-both; in differential
/// mode every callFunction runs both engines and demands bit-identical
/// ExecResults, making the bytecode path a second semantics witness in the
/// same style as the ISA simulator's block engine (DESIGN.md section 4).
///
//===----------------------------------------------------------------------===//

#ifndef B2_BEDROCK2_SEMANTICS_H
#define B2_BEDROCK2_SEMANTICS_H

#include "bedrock2/Ast.h"
#include "bedrock2/ExtSpec.h"
#include "support/Word.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace b2 {
namespace bedrock2 {

class BytecodeProgram;
struct ExecScratch;

/// Why an execution failed to be well-defined.
enum class Fault : uint8_t {
  None,
  UnboundVariable,
  LoadOutsideFootprint,
  StoreOutsideFootprint,
  MisalignedAccess,
  UnknownFunction,
  ArityMismatch,
  ExtContractViolation, ///< vcextern precondition failed.
  OutOfFuel,            ///< Suspected divergence (totality violation).
  StackallocMisuse,     ///< Bad size or nested shadowing.
  PreconditionFailed,   ///< A callee's `requires` clause was violated.
  PostconditionFailed,  ///< A function's `ensures` clause was violated.
  InvariantViolated,    ///< A loop invariant did not hold at the test.
  MeasureNotDecreasing, ///< A loop measure failed to strictly decrease.
};

const char *faultName(Fault F);

/// Byte-granular owned memory: the Bedrock2-owned footprint. Sparse, so
/// ownership of disjoint regions anywhere in the address space can be
/// modeled (the memory is "a global (not necessarily contiguous) address
/// space of bytes", section 5.2).
///
/// Storage is page-backed (4 KiB pages allocated on first ownership) with
/// ownership tracked separately as a coalesced interval set, so
/// `own`/`disown`/`owns` are O(intervals touched) and `readLe`/`writeLe`
/// are O(1) — instead of one hash-map operation per byte. All address
/// arithmetic wraps at 2^32, exactly like the per-byte map it replaces.
class Footprint {
public:
  Footprint() = default;
  // Copies must not share the page cache: the cached pointer aims into
  // *this* object's page table. Moves keep it (map nodes move over).
  Footprint(const Footprint &O);
  Footprint &operator=(const Footprint &O);
  Footprint(Footprint &&) = default;
  Footprint &operator=(Footprint &&) = default;

  /// Grants ownership of [Addr, Addr+Len) initialized to zero. Re-owning
  /// an already-owned byte re-zeroes it (the historical per-byte-map
  /// behavior, relied on by stackalloc's fresh-buffer guarantee).
  void own(Word Addr, Word Len);

  /// Revokes ownership of [Addr, Addr+Len) (stackalloc scope exit).
  /// Revoking unowned bytes is a no-op, as with per-byte erase.
  void disown(Word Addr, Word Len);

  /// The hot-path accessors are defined inline below: both checking
  /// engines call owns + readLe/writeLe on every load and store, and the
  /// one-entry caches satisfy nearly all of those — only misses pay for
  /// an out-of-line call.
  bool owns(Word Addr, Word Len) const {
    const uint64_t Start = Addr;
    // OwnCacheHi never exceeds 2^32, so a cache hit is always a
    // non-wrapping query; wrapping ones fall through to the slow path.
    if (OwnCacheLo <= Start && Start + Len <= OwnCacheHi)
      return true;
    return ownsSlow(Addr, Len);
  }

  /// Unchecked accessors; callers must have verified ownership.
  uint8_t read(Word Addr) const;
  void write(Word Addr, uint8_t V);

  Word readLe(Word Addr, unsigned Size) const {
    const Word Off = Addr & (PageBytes - 1);
    // CachedIdx starts at ~0, which no real page index (Addr >> 12)
    // reaches, so a match implies CachedPage is valid.
    if ((Addr >> PageShift) == CachedIdx && Off + Size <= PageBytes) {
      const uint8_t *B = CachedPage->data() + Off;
      Word V = 0;
      for (unsigned I = 0; I != Size; ++I)
        V |= Word(B[I]) << (8 * I);
      return V;
    }
    return readLeSlow(Addr, Size);
  }

  void writeLe(Word Addr, unsigned Size, Word V) {
    const Word Off = Addr & (PageBytes - 1);
    if ((Addr >> PageShift) == CachedIdx && Off + Size <= PageBytes) {
      ++Epoch;
      uint8_t *B = CachedPage->data() + Off;
      for (unsigned I = 0; I != Size; ++I)
        B[I] = uint8_t((V >> (8 * I)) & 0xFF);
      return;
    }
    writeLeSlow(Addr, Size, V);
  }

  /// Number of owned bytes (tests).
  size_t size() const { return OwnedBytes; }

  /// The coalesced ownership intervals as (start, length) pairs in
  /// ascending address order. A length of 0 encodes the degenerate
  /// whole-address-space interval.
  std::vector<std::pair<Word, Word>> intervals() const;

  /// True iff \p O owns exactly the same bytes with the same contents
  /// (the differential-mode memory comparison).
  bool identical(const Footprint &O) const;

  /// Monotonic counter bumped by every mutating operation. Lets the
  /// differential recorder detect external calls that touch memory
  /// (DMA-style grants) without snapshotting around every call.
  uint64_t mutationEpoch() const { return Epoch; }

private:
  static constexpr unsigned PageShift = 12;
  static constexpr Word PageBytes = Word(1) << PageShift;

  /// Page index -> backing bytes. Pages are never freed while the
  /// Footprint lives; ownership is gated by the interval set alone.
  /// unordered_map nodes are stable, so cached page pointers survive
  /// rehashing.
  std::unordered_map<Word, std::vector<uint8_t>> Pages;

  /// Owned [start, end) intervals over the linear 0..2^32 byte space,
  /// disjoint, non-adjacent (always coalesced), and sorted by start.
  /// Ranges that wrap the 2^32 boundary are stored split. A flat sorted
  /// vector, not a tree: footprints hold a handful of intervals (RAM
  /// grants plus live stackallocs), so binary search plus memmove beats
  /// per-node heap traffic — stackalloc enter/exit churns this set on
  /// every frame.
  std::vector<std::pair<uint64_t, uint64_t>> Intervals;

  size_t OwnedBytes = 0;
  uint64_t Epoch = 0;

  /// One-entry page cache for the hot readLe/writeLe path.
  mutable Word CachedIdx = ~Word(0);
  mutable std::vector<uint8_t> *CachedPage = nullptr;

  /// One-entry interval cache for the hot owns() path: the last interval
  /// that satisfied a query (empty when Lo > Hi). Repeated accesses into
  /// the same stackalloc buffer or RAM grant skip the tree lookup.
  /// Invalidated whenever the interval set changes.
  mutable uint64_t OwnCacheLo = 1;
  mutable uint64_t OwnCacheHi = 0;

  std::vector<uint8_t> &pageFor(Word Addr);
  const std::vector<uint8_t> *findPage(Word Addr) const;
  bool ownsSlow(Word Addr, Word Len) const;
  Word readLeSlow(Word Addr, unsigned Size) const;
  void writeLeSlow(Word Addr, unsigned Size, Word V);
  void ownRange(uint64_t Start, uint64_t End);
  void disownRange(uint64_t Start, uint64_t End);
  bool ownsRange(uint64_t Start, uint64_t End) const;
  void zeroRange(uint64_t Start, uint64_t End);
};

/// Policy resolving stackalloc's internal nondeterminism: where the next
/// allocation lands. Varying \p Salt across runs checks that programs do
/// not depend on the unspecified choice.
struct StackallocPolicy {
  Word Base = 0x00F00000; ///< Grows downward from here.
  Word Salt = 0;          ///< Extra offset mixed into every address.
};

/// Result of running a Bedrock2 function.
struct ExecResult {
  Fault F = Fault::None;
  std::string Detail;        ///< Human-readable fault context.
  std::vector<Word> Rets;    ///< Return tuple (valid when F == None).
  IoTrace Trace;             ///< Interaction trace (valid prefix even on fault).
  uint64_t StepsUsed = 0;
  uint64_t DivByZeroCount = 0; ///< Divisions/remainders by zero observed
                               ///< (unspecified in source semantics).

  bool ok() const { return F == Fault::None; }
};

/// Which engine(s) execute the checking semantics.
enum class ExecMode : uint8_t {
  Reference,    ///< The AST walker (ground truth).
  Fast,         ///< The compiled bytecode path (bedrock2/Bytecode.h).
  Differential, ///< Both, with bit-identical-ExecResult checking; the
                ///< reference run is authoritative for state and result.
};

const char *execModeName(ExecMode M);

/// The interpreter.
class Interp {
public:
  /// \p Ext supplies and checks external calls; \p Fuel bounds the total
  /// statement steps (totality check).
  Interp(const Program &P, ExtSpec &Ext, uint64_t Fuel = 10'000'000,
         const StackallocPolicy &Policy = StackallocPolicy(),
         ExecMode Mode = ExecMode::Reference);
  ~Interp();

  /// Grants the program ownership of [Addr, Addr+Len) before execution
  /// (e.g. a static scratch buffer).
  void ownMemory(Word Addr, Word Len) { Mem.own(Addr, Len); }

  /// Selects the execution engine for subsequent callFunction calls.
  void setMode(ExecMode M) { Mode = M; }
  ExecMode mode() const { return Mode; }

  /// Calls \p FuncName with \p Args and runs it to completion.
  ExecResult callFunction(const std::string &FuncName,
                          const std::vector<Word> &Args);

  /// Direct access to the owned memory (tests).
  Footprint &memory() { return Mem; }

  /// Differential mode: description of every divergence between the
  /// reference and bytecode engines observed so far (empty == the two
  /// semantics witnesses agree bit for bit).
  const std::string &divergence() const { return Divergences; }
  uint64_t divergenceCount() const { return NumDivergences; }

private:
  using Locals = std::unordered_map<std::string, Word>;

  const Program &Prog;
  ExtSpec &Ext;
  uint64_t Fuel;
  StackallocPolicy Policy;
  ExecMode Mode;
  Footprint Mem;
  Word StackNext = 0;
  ExecResult Result; ///< Accumulates trace/fault during a call.
  ExtSpec *ActiveExt = nullptr; ///< Ext for the current reference run
                                ///< (swapped for a recorder in
                                ///< differential mode).
  std::unique_ptr<BytecodeProgram> Bc; ///< Lazily compiled fast path.
  std::unique_ptr<ExecScratch> Scratch; ///< Reusable fast-path arenas.
  std::string Divergences;
  uint64_t NumDivergences = 0;

  const BytecodeProgram &compiled();
  ExecResult runReference(const std::string &FuncName,
                          const std::vector<Word> &Args);
  bool fault(Fault F, std::string Detail);
  bool evalExpr(const Expr &E, const Locals &L, Word &Out);
  bool execStmt(const Stmt &S, Locals &L);
  bool execCall(const std::string &Callee,
                const std::vector<Word> &ArgVals, std::vector<Word> &Rets);
};

} // namespace bedrock2
} // namespace b2

#endif // B2_BEDROCK2_SEMANTICS_H
