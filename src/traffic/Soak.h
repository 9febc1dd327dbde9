//===- traffic/Soak.h - Sharded pcap-driven soak harness -------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Long-horizon validation of the end-to-end theorem's executable
/// counterpart: drive millions of frames through compiled firmware on a
/// processor model while the streaming goodHlTrace monitor
/// (traffic/Monitor.h) checks prefix membership event by event.
///
/// The stream is sharded into contiguous slices; each slice runs on its
/// own independent machine instance (fresh platform, fresh core), so
/// shards are pure functions of (slice, options) and parallelize over
/// support::ThreadPool without any cross-shard state. Frames are
/// delivered with backpressure — injected only while the NIC has FIFO
/// headroom (FrameBudget < the LAN9250's MaxBufferedFrames), so the
/// workload adapts to firmware drain rate and no frame is lost to queue
/// overflow. All progress is measured in MMIO ops and model cycles,
/// never wall-clock, which is what makes the aggregated SOAK.json
/// bit-identical at any thread count.
///
/// On a violation the shard keeps its delivered-frame list so the
/// shrinker (traffic/Shrink.h) can minimize it into a replayable pcap
/// counterexample.
///
//===----------------------------------------------------------------------===//

#ifndef B2_TRAFFIC_SOAK_H
#define B2_TRAFFIC_SOAK_H

#include "compiler/Compile.h"
#include "devices/Platform.h"
#include "riscv/BlockEngine.h"
#include "traffic/Scenario.h"
#include "verify/FaultInjection.h"

#include <cstdint>
#include <string>
#include <vector>

namespace b2 {
namespace traffic {

/// Which execution substrate runs the firmware — for soak shards, the
/// end-to-end checker (verify/EndToEnd.h) and the latency benches alike.
enum class SoakCore : uint8_t {
  Pipelined, ///< The pipelined Kami processor (the theorem's p4mm).
  IsaSim,    ///< Software-oriented ISA semantics.
  SpecCore,  ///< Single-cycle Kami spec processor.
};

const char *soakCoreName(SoakCore C);

struct SoakOptions {
  SoakCore Core = SoakCore::Pipelined;
  /// Engine of whichever core runs (the spec core has only one):
  /// Reference runs the layer's reference semantics (the ISA stepper, or
  /// PipelinedCore::tick), Block runs its fast engine (superblock traces,
  /// or the instruction-stepped kami::PipeEngine), Differential runs both
  /// in lockstep and fails the shard on the first divergence. Shard
  /// results are bit-identical across all three modes by construction —
  /// each fast engine reproduces its reference's exact schedule.
  riscv::ExecMode SimExec = riscv::ExecMode::Block;
  unsigned Threads = 1;      ///< Worker threads (report-invariant).
  /// Shards to split the stream into; 0 derives one shard per
  /// FramesPerShard frames. Must not depend on Threads, or the report
  /// stops being thread-count invariant.
  unsigned Shards = 0;
  uint64_t FramesPerShard = 2048;
  /// NIC FIFO headroom target: inject only while bufferedFrames() is
  /// below this. Keep under Lan9250::Config::MaxBufferedFrames so
  /// backpressure, not queue overflow, paces delivery.
  unsigned FrameBudget = 4;
  uint64_t ChunkCycles = 100'000;  ///< Cycles between monitor polls.
  uint64_t MaxCyclesPerShard = 2'000'000'000; ///< Hang backstop.
  Word RamBytes = 64 * 1024;
  /// Cross-check each shard on a second substrate (the ISA simulator,
  /// or the spec core when Core is already the ISA simulator) and
  /// compare accepted frames and lightbulb history.
  bool CrossCheck = false;
  /// Deliver frames at their scheduled AtOp (devices::Platform
  /// scheduleFrame) instead of backpressure injection. Replay fidelity
  /// for recorded corpora, and the mode of the end-to-end checker and the
  /// latency benches; throughput soaks leave it off.
  bool HonorSchedule = false;
  /// Fault plan armed (via fi::FaultScope) inside every shard body; null
  /// arms nothing. Must outlive runSoak.
  const fi::FaultPlan *Plan = nullptr;
  /// Use the whole-machine checkpoint layer (traffic/Checkpoint.h):
  /// backpressure shards fork from a cached post-boot snapshot instead
  /// of re-simulating firmware init, and the shrinker resumes ddmin
  /// candidates from prefix checkpoints. Results are bit-identical
  /// either way (that identity is itself fuzz- and adequacy-tested);
  /// off = always run cold, for differential debugging and the bench's
  /// cold baseline.
  bool Checkpoint = true;
};

/// Everything one shard produced. All fields are deterministic
/// functions of (slice, options).
struct ShardStats {
  bool Ok = false;            ///< MonitorOk && GroundTruthOk && CrossCheckOk.
  bool MonitorOk = false;     ///< Streaming prefix check never fired.
  bool GroundTruthOk = false; ///< Light history == accepted valid commands.
  bool CrossCheckOk = true;   ///< Second-substrate agreement (or not run).
  bool Drained = false;       ///< All frames delivered and FIFO emptied.
  bool HitUb = false;         ///< ISA simulator undefined behavior.
  bool Diverged = false;      ///< Differential fast engine left lockstep.
  std::string Error;          ///< First failure, human-readable.
  uint64_t FramesDelivered = 0;
  uint64_t FramesAccepted = 0;  ///< NIC-accepted subset.
  uint64_t ValidCommands = 0;   ///< Accepted frames that are valid commands.
  uint64_t MmioEvents = 0;      ///< Events streamed (the trace length).
  /// Events the streaming monitor actually consumed. On a healthy,
  /// non-violating run this equals MmioEvents; the adequacy column's
  /// monitor-agreement stim compares the two.
  uint64_t MonitorEventsSeen = 0;
  uint64_t LightTransitions = 0;
  uint64_t Cycles = 0;
  uint64_t Retired = 0;
  uint64_t TraceHash = 0;       ///< soakTraceHash, folded as streamed.
  /// Index into the shard's MMIO trace of the first rejected event.
  /// Meaningful only when !MonitorOk.
  uint64_t ViolationIndex = 0;
  /// The delivered frames, kept only on monitor/ground-truth/UB
  /// failures (not budget exhaustion) so the shrinker can minimize
  /// them.
  std::vector<devices::ScheduledFrame> DeliveredFrames;
};

struct SoakReport {
  bool Ok = false;
  std::string Scenario; ///< Catalog name, or "pcap" for replayed corpora.
  uint64_t Seed = 0;
  SoakCore Core = SoakCore::Pipelined;
  uint64_t TotalFrames = 0;
  std::vector<ShardStats> Shards;

  /// First failing shard, or null.
  const ShardStats *firstFailure() const;
};

/// Runs one frame slice on one fresh machine instance. Deterministic;
/// this is also the shrinker's oracle and the CLI's replay path.
ShardStats runSoakShard(const compiler::CompiledProgram &Prog,
                        const std::vector<devices::ScheduledFrame> &Frames,
                        const SoakOptions &Options);

/// Shards \p Stream and soaks every shard (in parallel when
/// Options.Threads > 1) on already-compiled firmware. \p Scenario and
/// \p Seed are recorded in the report verbatim.
SoakReport runSoak(const compiler::CompiledProgram &Prog,
                   const TrafficStream &Stream, const SoakOptions &Options,
                   const std::string &Scenario = "pcap", uint64_t Seed = 0);

/// Compiles the default verified lightbulb firmware at -O0 (the soak
/// harness's standard configuration). Null result carries \p Error.
compiler::CompileResult compileSoakFirmware(Word RamBytes = 64 * 1024);

/// Renders the report as SOAK.json (schema b2stack-soak-v2). Contains
/// only deterministic fields — no wall-clock — so the file is
/// bit-identical at any thread count.
std::string soakJson(const SoakReport &Report);

} // namespace traffic
} // namespace b2

#endif // B2_TRAFFIC_SOAK_H
