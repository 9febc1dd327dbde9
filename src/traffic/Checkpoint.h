//===- traffic/Checkpoint.h - Whole-machine checkpoint/restore -*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-machine snapshot/restore over one soak shard's complete system —
/// core (ISA simulator, spec core, or pipelined core), device platform,
/// converted trace, streaming monitor, and delivery loop state — plus the
/// two fleets built on top of it:
///
///  * a warm-boot cache that captures the system once at the
///    ready-to-inject point (firmware booted, RX enabled) and forks every
///    subsequent shard of the same configuration from that snapshot, and
///  * a checkpointed shrink oracle that keys checkpoints by the
///    delivered-frame prefix and resumes each ddmin candidate from the
///    deepest matching checkpoint instead of re-running boot + prefix.
///
/// Why prefix keying is sound: in backpressure mode frame delivery is a
/// function of machine state only (RX enablement and FIFO headroom are
/// polled, never scheduled), so the complete system state immediately
/// after injecting frame j is a pure function of the delivered prefix
/// [0, j]. Two runs sharing a prefix share the state at its end, hence a
/// checkpoint taken there serves every candidate with that prefix.
///
/// The correctness contract for every consumer is *bit-identity*: a run
/// resumed from any snapshot must produce exactly the trace hash, stats,
/// and light history of the straight-through run. runSnapshotDifferential
/// checks that contract directly and backs both the fuzz tests and the
/// SnapDiff adequacy column (which exists to kill the seeded
/// snap-state-stale-latch restore bug).
///
//===----------------------------------------------------------------------===//

#ifndef B2_TRAFFIC_CHECKPOINT_H
#define B2_TRAFFIC_CHECKPOINT_H

#include "kami/Bram.h"
#include "kami/PipelinedCore.h"
#include "kami/SpecCore.h"
#include "riscv/Machine.h"
#include "traffic/Monitor.h"
#include "traffic/Soak.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace b2 {
namespace traffic {

/// FNV-1a over an MMIO trace (the shard trace fingerprint; local to
/// b2_traffic so the layer stays independent of b2_verify's digest).
uint64_t soakTraceHash(const riscv::MmioTrace &T);

/// Ground truth, as in the end-to-end checker: the distinct lightbulb
/// states implied by the accepted frames (initial state off).
std::vector<bool>
expectedLightSequence(const std::vector<devices::ScheduledFrame> &Accepted);

/// The whole-system runner: the selected core running a compiled image
/// against its private platform, the incrementally converted MMIO trace,
/// the streaming goodHlTrace monitor, and the delivery-loop cursor state.
/// Soak shards, the end-to-end checker (verify/EndToEnd.h), the shrink
/// oracles and the latency benches all drive this one class through
/// runShardLoop. It is also the unit of snapshot/restore — everything a
/// run reads or writes.
class SoakMachine {
public:
  /// \p Spi moves the SPI controller off the shipped system's default
  /// (the section 7.2.1 pipelined-driver configuration). Soak shards
  /// always run the default, which is why the warm-boot cache does not
  /// key on it.
  SoakMachine(const compiler::CompiledProgram &Prog, SoakCore Core,
              Word RamBytes, riscv::ExecMode SimExec = riscv::ExecMode::Block,
              const devices::SpiConfig &Spi = devices::SpiConfig());

  /// Runs up to \p Cycles. Returns the number actually executed (the ISA
  /// simulator stops early on UB; the Kami cores always run the full
  /// request). \p Ok becomes false iff the ISA simulator hit UB.
  uint64_t runChunk(uint64_t Cycles, bool &Ok);

  /// The machine's MMIO trace under KamiLabelSeqR, converted
  /// incrementally (O(new events) per call).
  const riscv::MmioTrace &trace();

  /// The Kami core's label log, whose cycle stamps the converted trace
  /// drops. Empty on the ISA simulator.
  const kami::LabelTrace &labels() const;

  uint64_t retired() const;

  /// UB rendering; only meaningful on the ISA simulator after runChunk
  /// reported !Ok.
  std::string simUbDetail() const;

  /// Lockstep divergence of the block engine (ExecMode::Differential
  /// only; always false otherwise).
  bool engineDiverged() const;
  std::string engineDivergenceDetail() const;

  devices::Platform &platform() { return Plat; }
  TraceMonitor &monitor() { return Mon; }
  SoakCore core() const { return Core; }

  // -- Delivery-loop state (driven by runShardLoop) --------------------------

  uint64_t Elapsed = 0;  ///< Simulated cycles charged so far.
  size_t NextFrame = 0;  ///< Next input frame to inject (backpressure).
  std::vector<devices::ScheduledFrame> Delivered; ///< Injection log
                                                  ///< (backpressure mode).
  bool DrainFlagged = false; ///< Drain observed once; one settle chunk
                             ///< runs before the loop exits.

  // -- Snapshot/restore ------------------------------------------------------

  /// Whole-system checkpoint. Memory-bearing components (RAM, BRAM)
  /// snapshot copy-on-write pages; append-only logs (traces, labels,
  /// delivered/accepted frames) snapshot O(delta) chains; latches and
  /// counters copy flat. Taking and restoring a snapshot is O(dirty
  /// pages + new log entries), which is what makes per-injection
  /// checkpointing affordable.
  struct Snapshot {
    std::optional<riscv::Machine::Snapshot> Sim;
    std::optional<kami::Bram::Snapshot> Mem;
    std::optional<kami::SpecCore::Snapshot> Spec;
    std::optional<kami::PipelinedCore::Snapshot> Pipe;
    devices::Platform::Snapshot Plat;
    support::ChainTracker<riscv::MmioEvent>::Snap ConvertedTrace;
    size_t Converted;
    TraceMonitor::Snapshot Mon;
    uint64_t Elapsed;
    size_t NextFrame;
    support::ChainTracker<devices::ScheduledFrame>::Snap Delivered;
    bool DrainFlagged;
  };

  Snapshot snapshot();

  /// Restores a snapshot taken from this machine *or* from any machine
  /// built with the same (program, core, RAM size) — the copy-on-write
  /// trackers fall back to full page copies when no pages are shared, so
  /// cross-machine restore is merely slower, never wrong.
  void restore(const Snapshot &S);

  /// Publishes the trace engine's metric deltas accumulated since the
  /// last publication. Called at shard-stat collection, and — under
  /// metrics::PauseScope — by the warm-boot path to rebase the publication
  /// baselines so warm and cold shards publish identical shard-only
  /// deltas. No-op without a trace engine.
  void publishMetrics();

private:
  SoakCore Core;
  devices::Platform Plat;
  std::unique_ptr<riscv::Machine> Sim;
  /// Superblock trace engine over Sim; null in ExecMode::Reference and
  /// on the Kami cores. Translation state is derived, never snapshotted:
  /// restore flushes it and execution re-warms (bit-identically).
  std::unique_ptr<riscv::BlockEngine> Engine;
  std::unique_ptr<kami::Bram> Mem;
  std::unique_ptr<kami::SpecCore> Spec;
  std::unique_ptr<kami::PipelinedCore> Pipe;
  riscv::MmioTrace ConvertedTrace;
  size_t Converted = 0;
  support::ChainTracker<riscv::MmioEvent> ConvertedChain;
  support::ChainTracker<devices::ScheduledFrame> DeliveredChain;
  TraceMonitor Mon;
};

/// Why runShardLoop returned.
enum class ShardExit : uint8_t {
  Completed,        ///< Drained and settled (or empty schedule consumed).
  HitUb,            ///< ISA simulator hit UB mid-chunk.
  Diverged,         ///< Differential block engine left lockstep.
  Violated,         ///< Streaming monitor rejected an event.
  BudgetExhausted,  ///< MaxCyclesPerShard reached first.
  ReadyToInject,    ///< StopBeforeFirstInject: boot finished, RX enabled,
                    ///< FIFO headroom available, nothing injected yet.
};

/// Called immediately after each backpressure injection with the number
/// of frames injected so far (== SoakMachine::NextFrame). The machine
/// state at that instant is the canonical "state after delivered prefix
/// of length n" — exactly what the checkpoint tree stores.
using InjectHook = std::function<void(size_t)>;

/// The shard delivery loop, factored out of runSoakShard so that runs can
/// start from a restored snapshot: the loop reads all its progress from
/// \p M (Elapsed / NextFrame / DrainFlagged), so resuming is simply
/// restore + call. Equivalent to the original chunk-then-inject loop
/// event-for-event; \p OnInject and \p StopBeforeFirstInject extend it
/// for the checkpoint fleets without perturbing plain runs.
ShardExit runShardLoop(SoakMachine &M, const devices::ScheduledFrame *Begin,
                       const devices::ScheduledFrame *End,
                       const SoakOptions &Options,
                       const InjectHook &OnInject = InjectHook(),
                       bool StopBeforeFirstInject = false);

/// Fills a ShardStats from a finished loop: counters, trace hash, drain
/// and monitor verdicts, ground truth, error strings, and the delivered
/// prefix on frame-dependent failures. Cross-checking stays with the
/// caller (it reruns the shard on a sibling core). Consumes M.Delivered
/// on failure paths.
ShardStats collectShardStats(SoakMachine &M, ShardExit Exit,
                             const devices::ScheduledFrame *Begin,
                             const devices::ScheduledFrame *End,
                             const SoakOptions &Options);

/// Warm-boot fleet entry point: returns a machine positioned at the
/// ready-to-inject point for (Prog, Options), forked from a per-thread
/// snapshot cache so the boot sequence is simulated once per
/// configuration per worker thread, not once per shard. Returns null when
/// the boot never reaches injection readiness within the cycle budget
/// (e.g. under a fault that breaks driver init) — callers then run the
/// shard cold, which reproduces the budget-exhaustion verdict exactly.
/// The cache key includes the armed fault plan, so a snapshot taken
/// under one plan is never resumed under another.
std::unique_ptr<SoakMachine>
warmBootMachine(const compiler::CompiledProgram &Prog,
                const SoakOptions &Options);

/// The checkpoint-tree shrink oracle. Nodes hold the machine state
/// immediately after injecting the frame on their incoming edge; the root
/// holds the ready-to-inject boot state. Each candidate walks the tree
/// along its frame sequence, restores the deepest matching node, and
/// resumes from there — ddmin candidates share long prefixes, so most of
/// each oracle run's cycles are skipped rather than simulated.
class CheckpointedOracle {
public:
  /// \p Options must describe a backpressure run (HonorSchedule is
  /// forced off, as is CrossCheck — the shrinker never cross-checks).
  CheckpointedOracle(const compiler::CompiledProgram &Prog,
                     const SoakOptions &Options);
  ~CheckpointedOracle();

  /// The shrinker's predicate: does this candidate still fail? The
  /// verdict formula is identical to the cold soakOracle's.
  bool failing(const std::vector<devices::ScheduledFrame> &Frames);

  /// Discovery handoff: replays the already-failing scenario once,
  /// growing the checkpoint tree along its full delivered prefix, and
  /// books the replay's cycles under PrimeRuns/PrimeCycles instead of
  /// the shrink-phase counters. This models the deployed pipeline — the
  /// failing shard itself ran under the checkpoint layer, so the
  /// shrinker inherits the tree rather than re-simulating the scenario
  /// from reset. Returns the scenario's verdict (must be true for a
  /// genuine failure). The subsequent ddmin reproduce run resumes from
  /// the tree's deepest node and costs only the drain tail.
  bool prime(const std::vector<devices::ScheduledFrame> &Frames);

  /// Work accounting, for the bench and the EXPERIMENTS table. The
  /// prime (handoff) replay is booked separately so the shrink-phase
  /// counters measure only ddmin's own oracle work — the quantity a
  /// cold-replay shrinker pays in full.
  struct RunStats {
    uint64_t OracleRuns = 0;      ///< Shrink-phase failing() calls.
    uint64_t ResumedRuns = 0;     ///< Calls resumed past the boot state.
    uint64_t SimulatedCycles = 0; ///< Cycles actually executed.
    uint64_t SkippedCycles = 0;   ///< Cycles inherited from checkpoints.
    uint64_t Checkpoints = 0;     ///< Tree nodes created (excl. root).
    uint64_t PrimeRuns = 0;       ///< prime() replays.
    uint64_t PrimeCycles = 0;     ///< Cycles simulated by prime().
  };
  const RunStats &stats() const { return Stats; }

private:
  struct Node;

  const compiler::CompiledProgram &Prog;
  SoakOptions Options;
  std::unique_ptr<SoakMachine> M;
  std::unique_ptr<Node> Root;
  bool BootOk = false;
  RunStats Stats;

  /// Tree-size cap: beyond this the oracle keeps resuming from existing
  /// checkpoints but stops creating new ones (graceful degradation, not
  /// an error).
  static constexpr uint64_t MaxCheckpoints = 1024;
};

/// Result of one straight-through vs snapshot-resumed differential.
struct SnapshotDifferential {
  bool Identical = false; ///< Every compared field was bit-identical.
  std::string Detail;     ///< First mismatch, rendered (empty when
                          ///< Identical).
  ShardStats Straight;    ///< The uninterrupted run.
  ShardStats Resumed;     ///< Snapshot at CheckpointDepth, restored into
                          ///< a fresh machine, run to completion.
};

/// Runs \p Frames straight through, snapshots at injection
/// \p CheckpointDepth (0 or beyond the last injection: the resumed run is
/// simply a second cold run, checking plain determinism), restores the
/// snapshot into a *fresh* machine, resumes, and compares everything:
/// every ShardStats field, the trace hash, the light history, and the
/// delivered-frame log. This is the bit-identity witness behind the fuzz
/// tests and the SnapDiff adequacy column; faults armed on the calling
/// thread apply to both runs equally, so a deterministic seeded bug in
/// the *simulated system* never trips it — only a bug in the checkpoint
/// layer itself does.
SnapshotDifferential
runSnapshotDifferential(const compiler::CompiledProgram &Prog,
                        const std::vector<devices::ScheduledFrame> &Frames,
                        const SoakOptions &Options, size_t CheckpointDepth);

} // namespace traffic
} // namespace b2

#endif // B2_TRAFFIC_CHECKPOINT_H
