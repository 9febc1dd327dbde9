//===- traffic/Monitor.h - Streaming goodHlTrace monitor -------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Online checking of the paper's top-level I/O specification during a
/// soak run. The correctness statement is prefix-closed ("every trace the
/// system can produce is a prefix of goodHlTrace", section 3.2), so a
/// violation is detectable at the exact event where the trace leaves the
/// prefix language — there is no need to wait for the run to finish, and
/// at soak scale (millions of frames) re-matching the whole trace after
/// the fact would dominate the run. TraceMonitor wraps
/// tracespec::Matcher::Stream and is fed each event once as the machine
/// emits it (SoakMachine::poll), or from a kept trace (pollTrace).
///
//===----------------------------------------------------------------------===//

#ifndef B2_TRAFFIC_MONITOR_H
#define B2_TRAFFIC_MONITOR_H

#include "tracespec/Matcher.h"

#include <cstdint>
#include <string>
#include <vector>

namespace b2 {
namespace traffic {

/// The compiled goodHlTrace automaton, shared (read-only) by every
/// monitor on every shard. Building it once matters: Glushkov
/// construction is quadratic in spec size.
const tracespec::Matcher &goodHlMatcher();

/// Streams one machine's MMIO trace through the goodHlTrace prefix
/// checker, event by event.
class TraceMonitor {
public:
  /// Monitors against \p M (defaults to the shared goodHlTrace matcher).
  explicit TraceMonitor(const tracespec::Matcher &M = goodHlMatcher());

  /// Feeds every event of \p T the monitor has not been offered yet, by
  /// either entry point. Returns false once the trace has left the prefix
  /// language (and stops consuming further events, so the violation index
  /// stays pinned to the first offender).
  bool pollTrace(const riscv::MmioTrace &T);

  /// Feeds one event. False on (or after) the first violation.
  bool feed(const tracespec::Event &E);

  /// Ends a poll of events fed through feed(), as pollTrace does: samples
  /// the frontier once; false once the trace left the prefix language.
  bool finishPoll();

  /// True once a violation has been observed.
  bool violated() const { return !Stream.alive(); }

  /// Index (into the monitored trace) of the first rejected event.
  /// Meaningful only when violated().
  size_t violationIndex() const { return Stream.consumed(); }

  /// Symbols the spec would have accepted at the violation point.
  std::vector<std::string> expectedAtViolation() const {
    return Stream.expectedHere();
  }

  /// Events actually fed into the automaton so far (== the events offered
  /// on a healthy monitor — the adequacy column compares this against the
  /// offline trace length).
  size_t eventsSeen() const { return Seen; }

  /// Restarts the monitor for a fresh trace.
  void reset();

  // -- Snapshot/restore ------------------------------------------------------

  /// Monitor checkpoint: the NFA frontier plus both event counters.
  /// Offered is included deliberately — the seeded drop-event fault keys
  /// off its cadence, so a resumed run under that fault must resume the
  /// cadence, not restart it.
  struct Snapshot {
    tracespec::Matcher::Stream::Snapshot Stream;
    size_t Offered;
    size_t Seen;
  };

  Snapshot snapshot() const {
    return Snapshot{Stream.snapshot(), Offered, Seen};
  }

  void restore(const Snapshot &S) {
    Stream.restore(S.Stream);
    Offered = S.Offered;
    Seen = S.Seen;
  }

private:
  tracespec::Matcher::Stream Stream;
  /// Events offered to feed() while alive, the rejected one included:
  /// the drop cadence, and the index of the next trace event to offer.
  size_t Offered = 0;
  size_t Seen = 0; ///< Events actually fed (drops excluded).
};

} // namespace traffic
} // namespace b2

#endif // B2_TRAFFIC_MONITOR_H
