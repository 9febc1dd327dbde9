//===- traffic/Scenario.h - Seeded traffic scenario generators -*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seeded frame-stream generation for the soak harness.
/// The end-to-end theorem quantifies over *all* packet traces; the
/// scenario catalog approximates that quantifier with workload families
/// worth soaking at scale:
///
///   valid-mix    well-formed command frames only (the happy path the
///                lightbulb spec's Recv/LightbulbCmd alternative covers)
///   adversarial  the devices/Net packet fuzzer's mix of valid commands
///                and frames malformed at every protocol layer
///   burst        duty-cycle arrivals: back-to-back bursts separated by
///                idle gaps (stresses NIC FIFO occupancy + PollNone)
///   multi-user   several simulated senders, each keyed by its own
///                SrcIp/SrcPort and running an independent seeded
///                command stream, interleaved by arrival op
///
/// Generators compose: a frame source (what the bytes are) is paired
/// with an arrival pattern (when frames land, in platform MMIO ops), and
/// interleave() merges streams by arrival op. Everything is a pure
/// function of the seed, so a scenario regenerates bit-identically —
/// which is what makes pcap corpus files, sharded soaks, and shrunk
/// counterexamples reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef B2_TRAFFIC_SCENARIO_H
#define B2_TRAFFIC_SCENARIO_H

#include "devices/Platform.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace b2 {
namespace traffic {

/// A generated workload: scheduled frames, nondecreasing in AtOp.
struct TrafficStream {
  std::vector<devices::ScheduledFrame> Frames;
};

/// FNV-1a digest of a stream's frames, schedule, and error flags (for
/// determinism checks and reports).
uint64_t streamDigest(const TrafficStream &S);

/// When frames arrive, measured in platform MMIO ops.
struct ArrivalPattern {
  uint64_t FirstAtOp = 2000;  ///< First arrival (after NIC bring-up).
  uint64_t OpSpacing = 3000;  ///< Nominal gap between frames.
  /// Burst/duty-cycle shape: deliver \c BurstLen frames \c BurstSpacing
  /// ops apart, then idle \c GapOps. BurstLen 0 = uniform spacing.
  unsigned BurstLen = 0;
  uint64_t BurstSpacing = 200;
  uint64_t GapOps = 20000;
};

/// A composable frame-stream generator: draws scheduled frames one at a
/// time, nondecreasing in AtOp. Implementations are pure functions of
/// their construction parameters (seed included).
class ScenarioGenerator {
public:
  virtual ~ScenarioGenerator();

  /// Produces the next scheduled frame.
  virtual devices::ScheduledFrame next() = 0;
};

/// Catalog entry for the CLI and the CI smoke matrix.
struct ScenarioInfo {
  const char *Name;
  const char *Summary;
};

/// All named scenarios, in a fixed order.
const std::vector<ScenarioInfo> &scenarioCatalog();

/// True iff \p Name is in the catalog.
bool isScenario(const std::string &Name);

struct ScenarioOptions {
  uint64_t Seed = 1;
  uint64_t Frames = 100;     ///< Number of frames to generate.
  ArrivalPattern Arrival;    ///< Base pattern (scenarios may reshape it).
  unsigned Users = 4;        ///< Simulated senders (multi-user only).
};

/// Generates \p Options.Frames frames of the named scenario. \p Name
/// must be in the catalog.
TrafficStream generateScenario(const std::string &Name,
                               const ScenarioOptions &Options);

} // namespace traffic
} // namespace b2

#endif // B2_TRAFFIC_SCENARIO_H
