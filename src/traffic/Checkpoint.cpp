//===- traffic/Checkpoint.cpp - Whole-machine checkpoint/restore ------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "traffic/Checkpoint.h"

#include "devices/Net.h"
#include "riscv/Step.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "verify/FaultInjection.h"

#include <algorithm>

using namespace b2;
using namespace b2::traffic;
using namespace b2::devices;

uint64_t b2::traffic::soakTraceHash(const riscv::MmioTrace &T) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (I * 8)) & 0xFF;
      H *= 0x100000001b3ull;
    }
  };
  Mix(T.size());
  for (const riscv::MmioEvent &E : T) {
    Mix(E.IsStore ? 1 : 0);
    Mix(E.Addr);
    Mix(E.Value);
    Mix(E.Size);
  }
  return H;
}

std::vector<bool> b2::traffic::expectedLightSequence(
    const std::vector<ScheduledFrame> &Accepted) {
  std::vector<bool> Out;
  bool Light = false;
  for (const ScheduledFrame &F : Accepted) {
    if (F.Errored)
      continue;
    FrameClass C = classifyFrame(F.Frame);
    if (!C.Valid)
      continue;
    if (C.CommandBit != Light) {
      Light = C.CommandBit;
      Out.push_back(Light);
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// SoakMachine
//===----------------------------------------------------------------------===//

SoakMachine::SoakMachine(const compiler::CompiledProgram &Prog, SoakCore Core,
                         Word RamBytes, riscv::ExecMode SimExec,
                         const devices::SpiConfig &Spi)
    : Core(Core), Plat(Spi) {
  switch (Core) {
  case SoakCore::IsaSim:
    Sim = std::make_unique<riscv::Machine>(RamBytes);
    Sim->loadImage(0, Prog.image());
    if (SimExec != riscv::ExecMode::Reference)
      Engine = std::make_unique<riscv::BlockEngine>(*Sim, Plat, SimExec);
    break;
  case SoakCore::SpecCore:
    Mem = std::make_unique<kami::Bram>(RamBytes);
    Mem->loadImage(Prog.image());
    Spec = std::make_unique<kami::SpecCore>(*Mem, Plat);
    break;
  case SoakCore::Pipelined:
    Mem = std::make_unique<kami::Bram>(RamBytes);
    Mem->loadImage(Prog.image());
    Pipe = std::make_unique<kami::PipelinedCore>(*Mem, Plat,
                                                 kami::PipeConfig());
    break;
  }
}

uint64_t SoakMachine::runChunk(uint64_t Cycles, bool &Ok) {
  Ok = true;
  switch (Core) {
  case SoakCore::IsaSim: {
    // run() returns the retired count, which is the actual executed
    // cycle charge: the full request on a healthy chunk, the partial
    // count when the simulator stops early on UB. The block engine
    // retires the exact same schedule, so the charge is engine-invariant.
    uint64_t Executed =
        Engine ? Engine->run(Cycles) : riscv::run(*Sim, Plat, Cycles);
    Ok = !Sim->hasUb();
    return Executed;
  }
  case SoakCore::SpecCore:
    Spec->run(Cycles);
    return Cycles;
  case SoakCore::Pipelined:
    Pipe->run(Cycles);
    return Cycles;
  }
  return 0;
}

const riscv::MmioTrace &SoakMachine::trace() {
  switch (Core) {
  case SoakCore::IsaSim:
    return Sim->trace();
  case SoakCore::SpecCore:
  case SoakCore::Pipelined:
    Converted = kami::appendKamiLabelSeqR(labels(), Converted, ConvertedTrace);
    return ConvertedTrace;
  }
  return ConvertedTrace;
}

const kami::LabelTrace &SoakMachine::labels() const {
  static const kami::LabelTrace None;
  return Spec ? Spec->labels() : Pipe ? Pipe->labels() : None;
}

uint64_t SoakMachine::retired() const {
  switch (Core) {
  case SoakCore::IsaSim:
    return Sim->retiredInstructions();
  case SoakCore::SpecCore:
    return Spec->retired();
  case SoakCore::Pipelined:
    return Pipe->retired();
  }
  return 0;
}

std::string SoakMachine::simUbDetail() const {
  return std::string(riscv::ubKindName(Sim->ubKind())) + ": " +
         Sim->ubDetail();
}

bool SoakMachine::engineDiverged() const {
  return Engine && Engine->divergences() > 0;
}

std::string SoakMachine::engineDivergenceDetail() const {
  return Engine ? Engine->divergenceDetail() : std::string();
}

SoakMachine::Snapshot SoakMachine::snapshot() {
  metrics::add(metrics::Id::CkptSnapshots);
  Snapshot S;
  if (Sim)
    S.Sim = Sim->snapshot();
  if (Mem)
    S.Mem = Mem->snapshot();
  if (Spec)
    S.Spec = Spec->snapshot();
  if (Pipe)
    S.Pipe = Pipe->snapshot();
  S.Plat = Plat.snapshot();
  S.ConvertedTrace = ConvertedChain.snapshot(ConvertedTrace);
  S.Converted = Converted;
  S.Mon = Mon.snapshot();
  S.Elapsed = Elapsed;
  S.NextFrame = NextFrame;
  S.Delivered = DeliveredChain.snapshot(Delivered);
  S.DrainFlagged = DrainFlagged;
  return S;
}

void SoakMachine::restore(const Snapshot &S) {
  metrics::add(metrics::Id::CkptRestores);
  if (Sim)
    Sim->restore(*S.Sim);
  if (Mem)
    Mem->restore(*S.Mem);
  if (Spec)
    Spec->restore(*S.Spec);
  if (Pipe)
    Pipe->restore(*S.Pipe);
  Plat.restore(S.Plat);
  ConvertedChain.restore(ConvertedTrace, S.ConvertedTrace);
  Converted = S.Converted;
  Mon.restore(S.Mon);
  Elapsed = S.Elapsed;
  NextFrame = S.NextFrame;
  DeliveredChain.restore(Delivered, S.Delivered);
  DrainFlagged = S.DrainFlagged;
}

void SoakMachine::publishMetrics() {
  if (Engine)
    Engine->publishMetrics();
}

//===----------------------------------------------------------------------===//
// The shard delivery loop
//===----------------------------------------------------------------------===//

ShardExit b2::traffic::runShardLoop(SoakMachine &M,
                                    const ScheduledFrame *Begin,
                                    const ScheduledFrame *End,
                                    const SoakOptions &Options,
                                    const InjectHook &OnInject,
                                    bool StopBeforeFirstInject) {
  const size_t NumFrames = size_t(End - Begin);
  Platform &Plat = M.platform();
  if (!Options.HonorSchedule && NumFrames > M.NextFrame)
    M.Delivered.reserve(M.Delivered.size() + (NumFrames - M.NextFrame));

  for (;;) {
    if (!Options.HonorSchedule) {
      // Backpressure delivery: top the NIC FIFO back up to the budget.
      // Gated on rxEnabled so nothing is lost to the pre-init window,
      // and on FIFO headroom so nothing is lost to queue overflow —
      // delivery paces itself to the firmware's drain rate.
      if (StopBeforeFirstInject && Plat.nic().rxEnabled() &&
          Plat.nic().bufferedFrames() < Options.FrameBudget)
        return ShardExit::ReadyToInject;
      while (M.NextFrame < NumFrames && Plat.nic().rxEnabled() &&
             Plat.nic().bufferedFrames() < Options.FrameBudget) {
        const ScheduledFrame &F = Begin[M.NextFrame];
        Plat.injectNow(F.Frame, F.Errored);
        M.Delivered.push_back(
            ScheduledFrame{Plat.opCount(), F.Frame, F.Errored});
        ++M.NextFrame;
        if (OnInject)
          OnInject(M.NextFrame);
      }
      // Frames remain but delivery is blocked (rx disabled or the FIFO
      // is at budget): the coming chunk runs under backpressure.
      if (M.NextFrame < NumFrames)
        metrics::add(metrics::Id::SoakFifoStalls);
      // The drain check is suppressed during a boot capture (nothing has
      // been injected; an empty schedule must not look drained).
      if (!StopBeforeFirstInject && M.NextFrame == NumFrames &&
          Plat.nic().bufferedFrames() == 0) {
        if (M.DrainFlagged)
          return ShardExit::Completed;
        M.DrainFlagged = true; // One settle chunk for the final frame.
      }
    } else {
      uint64_t LastAt = NumFrames == 0 ? 0 : (End - 1)->AtOp;
      if (Plat.opCount() > LastAt + 100 && Plat.nic().bufferedFrames() == 0) {
        if (M.DrainFlagged)
          return ShardExit::Completed;
        M.DrainFlagged = true;
      }
    }

    if (M.Elapsed >= Options.MaxCyclesPerShard)
      return ShardExit::BudgetExhausted;

    bool Ok = true;
    M.Elapsed += M.runChunk(Options.ChunkCycles, Ok);
    if (M.engineDiverged())
      return ShardExit::Diverged;
    if (!Ok)
      return ShardExit::HitUb;

    // The streaming check: feed only the events this chunk produced.
    if (!M.monitor().pollTrace(M.trace()))
      return ShardExit::Violated;
  }
}

ShardStats b2::traffic::collectShardStats(SoakMachine &M, ShardExit Exit,
                                          const ScheduledFrame *Begin,
                                          const ScheduledFrame *End,
                                          const SoakOptions &Options) {
  ShardStats S;
  Platform &Plat = M.platform();
  TraceMonitor &Mon = M.monitor();
  const size_t NumFrames = size_t(End - Begin);
  const riscv::MmioTrace &Trace = M.trace();

  if (Exit == ShardExit::HitUb) {
    S.HitUb = true;
    S.Error = "ISA simulator hit UB: " + M.simUbDetail();
  }
  if (Exit == ShardExit::Diverged) {
    S.Diverged = true;
    S.Error = "block engine left lockstep: " + M.engineDivergenceDetail();
  }

  S.FramesDelivered = Options.HonorSchedule
                          ? uint64_t(std::count_if(
                                Begin, End,
                                [&Plat](const ScheduledFrame &F) {
                                  return F.AtOp <= Plat.opCount();
                                }))
                          : M.NextFrame;
  S.FramesAccepted = Plat.acceptedFrames().size();
  for (const ScheduledFrame &F : Plat.acceptedFrames())
    if (!F.Errored && classifyFrame(F.Frame).Valid)
      ++S.ValidCommands;
  S.MmioEvents = Trace.size();
  S.MonitorEventsSeen = Mon.eventsSeen();
  S.LightTransitions = Plat.gpio().lightHistory().size();
  S.Cycles = M.Elapsed;
  S.Retired = M.retired();
  S.TraceHash = soakTraceHash(Trace);

  S.MonitorOk = !Mon.violated();
  S.Drained = M.DrainFlagged;

  // One publication per shard, before the early-exit returns below so
  // failing shards are counted too. The simulator-side deltas ride along
  // here; per-frame work was already aggregated by the delivery loop.
  {
    using metrics::Id;
    metrics::add(Id::SoakShards);
    metrics::add(Id::SoakFramesDelivered, S.FramesDelivered);
    metrics::add(Id::SoakFramesAccepted, S.FramesAccepted);
    if (S.FramesDelivered > S.FramesAccepted)
      metrics::add(Id::SoakFramesDropped, S.FramesDelivered - S.FramesAccepted);
    metrics::add(Id::SoakValidCommands, S.ValidCommands);
    metrics::add(Id::SoakMmioEvents, S.MmioEvents);
    metrics::add(Id::SoakMonitorEvents, S.MonitorEventsSeen);
    M.publishMetrics();
  }

  // Keeps the delivered prefix for the shrinker (only called on
  // frame-dependent failures).
  auto KeepDelivered = [&] {
    if (Options.HonorSchedule) {
      for (const ScheduledFrame *F = Begin; F != End; ++F)
        if (F->AtOp <= Plat.opCount())
          S.DeliveredFrames.push_back(*F);
    } else {
      S.DeliveredFrames = std::move(M.Delivered);
    }
  };

  if (Exit == ShardExit::Violated) {
    S.ViolationIndex = Mon.violationIndex();
    S.Error = "goodHlTrace violated at event " +
              std::to_string(S.ViolationIndex) + "; expected one of: " +
              support::join(Mon.expectedAtViolation(), " | ");
    KeepDelivered();
    return S;
  }
  if (S.HitUb || S.Diverged) {
    KeepDelivered();
    return S;
  }
  if (!S.Drained && NumFrames != 0) {
    S.Error = "cycle budget exhausted before the shard drained (" +
              std::to_string(S.FramesDelivered) + "/" +
              std::to_string(NumFrames) + " frames delivered)";
    return S;
  }

  S.GroundTruthOk = Plat.gpio().lightHistory() ==
                    expectedLightSequence(Plat.acceptedFrames());
  if (!S.GroundTruthOk) {
    S.Error = "lightbulb state history does not match the accepted valid "
              "commands";
    KeepDelivered();
    return S;
  }

  // Cross-checking is the caller's job (it reruns the shard on a
  // sibling core); Ok is provisional on CrossCheckOk's default.
  S.Ok = S.MonitorOk && S.GroundTruthOk && S.CrossCheckOk;
  return S;
}

//===----------------------------------------------------------------------===//
// Warm-boot fleet
//===----------------------------------------------------------------------===//

namespace {

/// Cached boot snapshot for one (program, core, sizing, fault plan)
/// configuration. Thread-local: parallelFor workers never share, so no
/// locking, and the adequacy determinism guarantee (results independent
/// of thread count) holds because warm and cold shard runs are
/// bit-identical by construction.
struct BootCacheEntry {
  uint64_t Key = 0;
  bool Ok = false; ///< Boot reached injection readiness.
  SoakMachine::Snapshot Snap;
};

thread_local std::vector<BootCacheEntry> BootCache;

/// A handful of entries per worker: cross-checking alternates two cores
/// and the adequacy campaign alternates fault plans on one thread.
constexpr size_t BootCacheCap = 8;

uint64_t bootCacheKey(const compiler::CompiledProgram &Prog,
                      const SoakOptions &Options) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto MixByte = [&H](uint8_t B) {
    H ^= B;
    H *= 0x100000001b3ull;
  };
  auto Mix = [&MixByte](uint64_t V) {
    for (int I = 0; I < 8; ++I)
      MixByte(uint8_t((V >> (I * 8)) & 0xFF));
  };
  for (uint8_t B : Prog.image())
    MixByte(B);
  Mix(uint64_t(Options.Core));
  Mix(uint64_t(Options.SimExec));
  Mix(Options.RamBytes);
  Mix(Options.ChunkCycles);
  Mix(Options.FrameBudget);
  Mix(Options.MaxCyclesPerShard);
  // The plan armed on this thread (the caller arms Options.Plan before
  // calling): a boot snapshot taken under one fault plan must never be
  // resumed under another.
  Mix(fi::ActivePlan ? fi::ActivePlan->bits() : 0);
  return H;
}

} // namespace

std::unique_ptr<SoakMachine>
b2::traffic::warmBootMachine(const compiler::CompiledProgram &Prog,
                             const SoakOptions &Options) {
  const uint64_t Key = bootCacheKey(Prog, Options);
  for (const BootCacheEntry &E : BootCache) {
    if (E.Key != Key)
      continue;
    // The cache is thread-local, so hit/miss mix depends on the thread
    // count — counted under the Nondet scope, and everything the warm or
    // cold boot path *executes* is suppressed below so the Det metrics
    // describe only the per-shard work, which is thread-count-invariant.
    metrics::add(metrics::Id::CkptBootHits);
    if (!E.Ok)
      return nullptr;
    metrics::PauseScope Pause;
    auto M = std::make_unique<SoakMachine>(Prog, Options.Core,
                                           Options.RamBytes, Options.SimExec);
    M->restore(E.Snap);
    // While paused this publishes nothing but still rebases the engine's
    // publication baseline, so the restore-time flush never leaks into
    // the shard's deltas.
    M->publishMetrics();
    return M;
  }

  metrics::add(metrics::Id::CkptBootMisses);
  metrics::PauseScope Pause;
  auto M = std::make_unique<SoakMachine>(Prog, Options.Core, Options.RamBytes,
                                         Options.SimExec);
  ShardExit E = runShardLoop(*M, nullptr, nullptr, Options, InjectHook(),
                             /*StopBeforeFirstInject=*/true);
  const bool Ok = E == ShardExit::ReadyToInject;
  BootCacheEntry Entry;
  Entry.Key = Key;
  Entry.Ok = Ok;
  if (Ok)
    Entry.Snap = M->snapshot();
  if (BootCache.size() >= BootCacheCap)
    BootCache.erase(BootCache.begin());
  BootCache.push_back(std::move(Entry));
  // Rebase (see the warm path): boot-era engine work stays out of the
  // shard's published deltas, exactly as it does on a warm fork.
  M->publishMetrics();
  return Ok ? std::move(M) : nullptr;
}

//===----------------------------------------------------------------------===//
// Checkpointed shrink oracle
//===----------------------------------------------------------------------===//

struct CheckpointedOracle::Node {
  SoakMachine::Snapshot Snap;
  struct Edge {
    std::vector<uint8_t> Frame;
    bool Errored;
    std::unique_ptr<Node> Child;
  };
  std::vector<Edge> Edges;

  /// Edges key on injected content only — never on AtOp, which carries
  /// the original schedule and is ignored by backpressure delivery.
  Node *child(const ScheduledFrame &F) {
    for (Edge &E : Edges)
      if (E.Errored == F.Errored && E.Frame == F.Frame)
        return E.Child.get();
    return nullptr;
  }
};

CheckpointedOracle::CheckpointedOracle(const compiler::CompiledProgram &Prog,
                                       const SoakOptions &Options)
    : Prog(Prog), Options(Options) {
  this->Options.CrossCheck = false;
  this->Options.HonorSchedule = false;

  std::optional<fi::FaultScope> Scope;
  if (this->Options.Plan)
    Scope.emplace(*this->Options.Plan);

  // Boot is cache priming, not oracle work: suppress its metric traffic
  // and rebase the publication baselines, mirroring warmBootMachine.
  metrics::PauseScope Pause;
  M = std::make_unique<SoakMachine>(Prog, this->Options.Core,
                                    this->Options.RamBytes,
                                    this->Options.SimExec);
  ShardExit E = runShardLoop(*M, nullptr, nullptr, this->Options, InjectHook(),
                             /*StopBeforeFirstInject=*/true);
  BootOk = E == ShardExit::ReadyToInject;
  Root = std::make_unique<Node>();
  if (BootOk)
    Root->Snap = M->snapshot();
  M->publishMetrics();
}

CheckpointedOracle::~CheckpointedOracle() {
  // The oracle's lifetime totals feed the fleet registry exactly once.
  using metrics::Id;
  metrics::add(Id::ShrinkOracleRuns, Stats.OracleRuns);
  metrics::add(Id::ShrinkOracleResumed, Stats.ResumedRuns);
  metrics::add(Id::ShrinkCyclesSimulated, Stats.SimulatedCycles);
  metrics::add(Id::ShrinkCyclesSkipped, Stats.SkippedCycles);
  metrics::add(Id::ShrinkCheckpoints, Stats.Checkpoints);
  metrics::add(Id::ShrinkPrimeRuns, Stats.PrimeRuns);
  metrics::add(Id::ShrinkPrimeCycles, Stats.PrimeCycles);
}

bool CheckpointedOracle::failing(const std::vector<ScheduledFrame> &Frames) {
  ++Stats.OracleRuns;
  std::optional<fi::FaultScope> Scope;
  if (Options.Plan)
    Scope.emplace(*Options.Plan);

  if (!BootOk) {
    // Boot never reached injection readiness (a fault broke driver
    // init): fall back to cold runs, which reproduce the cold verdict
    // exactly.
    ShardStats S = runSoakShard(Prog, Frames, Options);
    Stats.SimulatedCycles += S.Cycles;
    return !S.MonitorOk || S.HitUb || S.Diverged ||
           (S.Drained && !S.GroundTruthOk);
  }

  // Walk the tree along the candidate's frame sequence; resume from the
  // deepest checkpoint whose delivered prefix matches.
  Node *Cur = Root.get();
  size_t Depth = 0;
  while (Depth < Frames.size()) {
    Node *Child = Cur->child(Frames[Depth]);
    if (!Child)
      break;
    Cur = Child;
    ++Depth;
  }
  M->restore(Cur->Snap);
  if (Depth > 0)
    ++Stats.ResumedRuns;
  const uint64_t StartElapsed = M->Elapsed;
  Stats.SkippedCycles += StartElapsed;

  Node *Pos = Cur;
  bool Tracking = true;
  InjectHook Hook = [&](size_t Injected) {
    if (!Tracking)
      return;
    const ScheduledFrame &F = Frames[Injected - 1];
    Node *Child = Pos->child(F);
    if (!Child) {
      if (Stats.Checkpoints >= MaxCheckpoints) {
        // Cap reached: stop extending the tree this run. Pos must not
        // advance past a node we failed to create, or later checkpoints
        // would be filed under the wrong prefix.
        Tracking = false;
        return;
      }
      auto Fresh = std::make_unique<Node>();
      Fresh->Snap = M->snapshot();
      Child = Fresh.get();
      Pos->Edges.push_back(Node::Edge{F.Frame, F.Errored, std::move(Fresh)});
      ++Stats.Checkpoints;
    }
    Pos = Child;
  };

  ShardExit E = runShardLoop(*M, Frames.data(), Frames.data() + Frames.size(),
                             Options, Hook);
  Stats.SimulatedCycles += M->Elapsed - StartElapsed;
  ShardStats S = collectShardStats(*M, E, Frames.data(),
                                   Frames.data() + Frames.size(), Options);
  return !S.MonitorOk || S.HitUb || S.Diverged ||
         (S.Drained && !S.GroundTruthOk);
}

bool CheckpointedOracle::prime(const std::vector<ScheduledFrame> &Frames) {
  const RunStats Before = Stats;
  bool Verdict = failing(Frames);
  // Re-book the replay under the prime counters; the checkpoint count
  // stays — the tree is precisely what the handoff produces.
  Stats.PrimeRuns += Stats.OracleRuns - Before.OracleRuns;
  Stats.PrimeCycles += Stats.SimulatedCycles - Before.SimulatedCycles;
  Stats.OracleRuns = Before.OracleRuns;
  Stats.ResumedRuns = Before.ResumedRuns;
  Stats.SimulatedCycles = Before.SimulatedCycles;
  Stats.SkippedCycles = Before.SkippedCycles;
  return Verdict;
}

//===----------------------------------------------------------------------===//
// Snapshot-resume differential
//===----------------------------------------------------------------------===//

namespace {

bool sameFrames(const std::vector<ScheduledFrame> &A,
                const std::vector<ScheduledFrame> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].AtOp != B[I].AtOp || A[I].Errored != B[I].Errored ||
        A[I].Frame != B[I].Frame)
      return false;
  return true;
}

/// First differing ShardStats field, rendered; empty when identical.
std::string statsMismatch(const ShardStats &A, const ShardStats &B) {
  auto Num = [](const char *Field, uint64_t X, uint64_t Y) {
    return std::string(Field) + " diverged: straight=" + std::to_string(X) +
           " resumed=" + std::to_string(Y);
  };
  if (A.Ok != B.Ok)
    return Num("ok", A.Ok, B.Ok);
  if (A.MonitorOk != B.MonitorOk)
    return Num("monitor_ok", A.MonitorOk, B.MonitorOk);
  if (A.GroundTruthOk != B.GroundTruthOk)
    return Num("ground_truth_ok", A.GroundTruthOk, B.GroundTruthOk);
  if (A.Drained != B.Drained)
    return Num("drained", A.Drained, B.Drained);
  if (A.HitUb != B.HitUb)
    return Num("hit_ub", A.HitUb, B.HitUb);
  if (A.Diverged != B.Diverged)
    return Num("diverged", A.Diverged, B.Diverged);
  if (A.FramesDelivered != B.FramesDelivered)
    return Num("frames_delivered", A.FramesDelivered, B.FramesDelivered);
  if (A.FramesAccepted != B.FramesAccepted)
    return Num("frames_accepted", A.FramesAccepted, B.FramesAccepted);
  if (A.ValidCommands != B.ValidCommands)
    return Num("valid_commands", A.ValidCommands, B.ValidCommands);
  if (A.MmioEvents != B.MmioEvents)
    return Num("mmio_events", A.MmioEvents, B.MmioEvents);
  if (A.MonitorEventsSeen != B.MonitorEventsSeen)
    return Num("monitor_events_seen", A.MonitorEventsSeen,
               B.MonitorEventsSeen);
  if (A.LightTransitions != B.LightTransitions)
    return Num("light_transitions", A.LightTransitions, B.LightTransitions);
  if (A.Cycles != B.Cycles)
    return Num("cycles", A.Cycles, B.Cycles);
  if (A.Retired != B.Retired)
    return Num("retired", A.Retired, B.Retired);
  if (A.TraceHash != B.TraceHash)
    return Num("trace_hash", A.TraceHash, B.TraceHash);
  if (A.ViolationIndex != B.ViolationIndex)
    return Num("violation_index", A.ViolationIndex, B.ViolationIndex);
  if (A.Error != B.Error)
    return "error string diverged: straight=\"" + A.Error + "\" resumed=\"" +
           B.Error + "\"";
  if (!sameFrames(A.DeliveredFrames, B.DeliveredFrames))
    return "kept delivered-frame prefix diverged";
  return std::string();
}

} // namespace

SnapshotDifferential b2::traffic::runSnapshotDifferential(
    const compiler::CompiledProgram &Prog,
    const std::vector<ScheduledFrame> &Frames, const SoakOptions &Options,
    size_t CheckpointDepth) {
  SnapshotDifferential D;
  SoakOptions O = Options;
  O.CrossCheck = false;
  O.HonorSchedule = false;

  std::optional<fi::FaultScope> Scope;
  if (O.Plan)
    Scope.emplace(*O.Plan);

  const ScheduledFrame *Begin = Frames.data();
  const ScheduledFrame *End = Begin + Frames.size();

  // Straight-through run; the hook captures one snapshot in flight.
  SoakMachine A(Prog, O.Core, O.RamBytes, O.SimExec);
  std::optional<SoakMachine::Snapshot> Snap;
  InjectHook Hook = [&](size_t Injected) {
    if (!Snap && Injected == CheckpointDepth)
      Snap = A.snapshot();
  };
  ShardExit EA =
      runShardLoop(A, Begin, End, O, CheckpointDepth ? Hook : InjectHook());
  std::vector<bool> LightsA = A.platform().gpio().lightHistory();
  std::vector<ScheduledFrame> DeliveredA = A.Delivered;
  D.Straight = collectShardStats(A, EA, Begin, End, O);

  // Resumed run in a *fresh* machine. If the requested depth was never
  // reached (short run, or depth past the last injection), this is a
  // second cold run — still a meaningful determinism check.
  SoakMachine B(Prog, O.Core, O.RamBytes, O.SimExec);
  if (Snap)
    B.restore(*Snap);
  ShardExit EB = runShardLoop(B, Begin, End, O);
  std::vector<bool> LightsB = B.platform().gpio().lightHistory();
  std::vector<ScheduledFrame> DeliveredB = B.Delivered;
  D.Resumed = collectShardStats(B, EB, Begin, End, O);

  D.Detail = statsMismatch(D.Straight, D.Resumed);
  if (D.Detail.empty() && LightsA != LightsB)
    D.Detail = "light history diverged";
  if (D.Detail.empty() && !sameFrames(DeliveredA, DeliveredB))
    D.Detail = "delivered-frame log diverged";
  D.Identical = D.Detail.empty();
  return D;
}
