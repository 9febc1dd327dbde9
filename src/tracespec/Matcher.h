//===- tracespec/Matcher.h - NFA matching of trace predicates --*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decides membership and prefix-membership of MMIO traces in the language
/// of a trace predicate. The end-to-end theorem asserts that the observed
/// trace is a *prefix* of a trace allowed by goodHlTrace ("The prefix
/// closure is important because this theorem holds at any point during the
/// execution", section 5.9), so prefix acceptance is the primary query.
///
/// Implementation: Glushkov position automaton over the combinator tree.
/// States are the Sym leaves (plus a start state); simulation keeps the
/// set of live positions. Because Spec guarantees every subterm has a
/// non-empty language, a non-empty live set after consuming the whole
/// trace is exactly prefix membership.
///
//===----------------------------------------------------------------------===//

#ifndef B2_TRACESPEC_MATCHER_H
#define B2_TRACESPEC_MATCHER_H

#include "tracespec/Spec.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace b2 {
namespace tracespec {

/// Result of a diagnostic match, for debugging spec/implementation
/// mismatches.
struct MatchDiagnosis {
  bool Accepted = false;      ///< Full-trace membership.
  bool PrefixAccepted = false;///< Prefix membership.
  size_t DeadAt = 0;          ///< Index of the first unconsumable event
                              ///< (== trace size if all were consumed).
  std::vector<std::string> ExpectedHere; ///< Leaf names that were live at
                                         ///< the point of death.
  std::string FailingEvent;   ///< Rendering of the offending event.
};

/// Compiled matcher for one Spec. Construction is linear-ish in the spec
/// size; matching is O(events * live states).
class Matcher {
public:
  explicit Matcher(const Spec &S);

  /// Full-trace membership: Trace ∈ L(Spec).
  bool matches(const Trace &T) const;

  /// Prefix membership: ∃ extension U. Trace·U ∈ L(Spec).
  bool acceptsPrefix(const Trace &T) const;

  /// Detailed matching for error reporting.
  MatchDiagnosis diagnose(const Trace &T) const;

  /// Number of automaton positions (for tests and benches).
  size_t numPositions() const { return Positions.size(); }

  /// Incremental (online) NFA simulation over one growing trace. The
  /// streaming monitors feed events as they are produced by a running
  /// machine, so a spec violation is pinned to the exact offending event
  /// while the run is still in flight — instead of re-matching the whole
  /// trace after the fact. One Stream holds the live-position frontier
  /// for one trace; many Streams can share one compiled Matcher (which
  /// they never mutate).
  ///
  /// Invariant tying the two APIs together: after feeding the events of
  /// T in order, alive() == acceptsPrefix(T), accepted() == matches(T),
  /// and on the first rejected event consumed() equals the whole-trace
  /// diagnosis's DeadAt.
  class Stream {
  public:
    explicit Stream(const Matcher &M);

    /// Consumes one event. Returns false — and leaves the frontier at
    /// the pre-event state, for expectedHere() — iff no live position
    /// can consume it (the fed trace stops being a prefix of L(Spec)).
    /// Once dead, a stream stays dead; feeding more events is a no-op.
    bool feed(const Event &E);

    /// The fed trace is still a prefix of some accepted trace.
    bool alive() const { return !Dead; }

    /// The fed trace is itself a member of L(Spec).
    bool accepted() const;

    /// Events successfully consumed so far (== the index of the
    /// offending event once dead).
    size_t consumed() const { return Consumed; }

    /// Live NFA positions right now — the per-event matching cost and
    /// the size of a frontier checkpoint (observability surface).
    size_t frontierSize() const { return Current.size(); }

    /// Leaf names the spec would have accepted at the current point
    /// (after death: at the point of death). Deduplicated, in position
    /// order, like MatchDiagnosis::ExpectedHere.
    std::vector<std::string> expectedHere() const;

    /// Forgets everything and rewinds to the empty trace.
    void reset();

    // -- Snapshot/restore ----------------------------------------------------

    /// Frontier checkpoint. InFrontier is pure scratch (all-false
    /// between feeds), so the live and last-matched position sets plus
    /// the progress counters capture the stream exactly.
    struct Snapshot {
      std::vector<uint32_t> Current;
      std::vector<uint32_t> Matched;
      size_t Consumed = 0;
      bool Dead = false;
    };

    Snapshot snapshot() const {
      return Snapshot{Current, Matched, Consumed, Dead};
    }

    void restore(const Snapshot &S) {
      Current = S.Current;
      Matched = S.Matched;
      Consumed = S.Consumed;
      Dead = S.Dead;
    }

  private:
    const Matcher *M;
    std::vector<uint32_t> Current; ///< Live frontier (position indices).
    std::vector<uint32_t> Matched; ///< Positions that consumed the last
                                   ///< event (acceptance is read here).
    std::vector<bool> InFrontier;  ///< Scratch for frontier dedup.
    size_t Consumed = 0;
    bool Dead = false;
  };

private:
  struct Position {
    EventPred Pred;
    std::string Name;
    bool Accepting = false;          ///< Position is in last(Spec).
    std::vector<uint32_t> Follow;    ///< Successor positions.
  };

  std::vector<Position> Positions;
  std::vector<uint32_t> FirstSet; ///< Positions reachable from the start.
  bool Nullable = false;          ///< Empty trace accepted.
};

} // namespace tracespec
} // namespace b2

#endif // B2_TRACESPEC_MATCHER_H
