//===- traffic/Monitor.cpp - Streaming goodHlTrace monitor -------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "traffic/Monitor.h"

#include "app/LightbulbSpec.h"
#include "support/Metrics.h"
#include "verify/FaultInjection.h"

using namespace b2;
using namespace b2::traffic;

const tracespec::Matcher &b2::traffic::goodHlMatcher() {
  static const tracespec::Matcher M(app::goodHlTrace());
  return M;
}

TraceMonitor::TraceMonitor(const tracespec::Matcher &M) : Stream(M) {}

void TraceMonitor::reset() {
  Stream.reset();
  Offered = 0;
  Seen = 0;
}

bool TraceMonitor::feed(const tracespec::Event &E) {
  if (!Stream.alive())
    return false;
  ++Offered;
  // Seeded monitor bug for the adequacy campaign: every 64th event is
  // silently skipped, so the monitor checks a subsequence of the real
  // trace. Killed by comparing eventsSeen() against the offline trace.
  if (fi::on(fi::Fault::TrafficMonitorDropEvent) && Offered % 64 == 0)
    return true;
  ++Seen;
  return Stream.feed(E);
}

bool TraceMonitor::pollTrace(const riscv::MmioTrace &T) {
  // feed() advances Offered while the monitor is alive, and a dead
  // monitor refuses the next event.
  while (Offered < T.size() && feed(T[Offered])) {
  }
  return finishPoll();
}

bool TraceMonitor::finishPoll() {
  // Frontier occupancy sampled once per poll (i.e. per soak chunk): the
  // per-event matching cost the monitor is currently paying. Polls are a
  // pure function of the shard plan, so the histogram is deterministic.
  metrics::record(metrics::Id::SoakMonitorFrontier, Stream.frontierSize());
  return Stream.alive();
}
