//===- traffic/Checkpoint.cpp - Whole-machine checkpoint/restore ------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "traffic/Checkpoint.h"

#include "devices/Net.h"
#include "riscv/Step.h"
#include "support/Format.h"
#include "support/Fnv.h"
#include "support/Metrics.h"
#include "verify/FaultInjection.h"

#include <algorithm>
#include <stdexcept>

using namespace b2;
using namespace b2::traffic;
using namespace b2::devices;

static void mixEvent(support::Fnv1a &H, const riscv::MmioEvent &E) {
  H.word(E.IsStore);
  H.word(E.Addr);
  H.word(E.Value);
  H.word(E.Size);
}

uint64_t b2::traffic::soakTraceHash(const riscv::MmioTrace &T) {
  support::Fnv1a H;
  for (const riscv::MmioEvent &E : T)
    mixEvent(H, E);
  H.word(T.size());
  return H.Value;
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
    if (SimExec != riscv::ExecMode::Reference)
      PipeEng = std::make_unique<kami::PipeEngine>(*Pipe, SimExec);
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
    if (PipeEng)
      PipeEng->run(Cycles);
    else
      Pipe->run(Cycles);
    return Cycles;
  }
  return 0;
}

void SoakMachine::fold(bool Feed) {
  auto Take = [&](const riscv::MmioEvent &E) {
    mixEvent(Sink.Hash, E);
    ++Sink.Events;
    if (Feed)
      Mon.feed(E);
  };
  if (Sim) {
    const riscv::MmioTrace &T = Sim->trace();
    for (; Sink.Folded < T.size(); ++Sink.Folded)
      Take(T[Sink.Folded]);
    return;
  }
  const kami::LabelTrace &L = Spec ? Spec->labels() : Pipe->labels();
  for (; Sink.Folded < L.size(); ++Sink.Folded)
    Take(kami::kamiLabelEvent(L[Sink.Folded]));
  if (Released) {
    Spec ? Spec->clearLabels() : Pipe->clearLabels();
    Sink.Folded = 0;
  }
}

bool SoakMachine::poll() {
  fold(/*Feed=*/true);
  return Mon.finishPoll();
}

void SoakMachine::releaseLog() {
  Released = true;
  ConvertedTrace = riscv::MmioTrace();
}

uint64_t SoakMachine::traceHash() {
  fold(/*Feed=*/false);
  support::Fnv1a H = Sink.Hash;
  H.word(Sink.Events);
  return H.Value;
}

void SoakMachine::requireLog() const {
  // A kept log starts at event 0, so its fold watermark is the fold count.
  if (Released || Sink.Folded != Sink.Events)
    throw std::logic_error("SoakMachine: the MMIO log was released; only "
                           "the streamed fingerprint and counters remain");
}

const riscv::MmioTrace &SoakMachine::trace() {
  requireLog();
  if (Sim)
    return Sim->trace();
  kami::appendKamiLabelSeqR(labels(), ConvertedTrace.size(), ConvertedTrace);
  return ConvertedTrace;
}

const kami::LabelTrace &SoakMachine::labels() const {
  requireLog();
  static const kami::LabelTrace None;
  return Spec ? Spec->labels() : Pipe ? Pipe->labels() : None;
}

size_t SoakMachine::logCapacity() const {
  return Spec   ? Spec->labels().capacity()
         : Pipe ? Pipe->labels().capacity()
                : 0;
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
  return (Engine && Engine->divergences() > 0) ||
         (PipeEng && PipeEng->divergences() > 0);
}

std::string SoakMachine::engineDivergenceDetail() const {
  return Engine    ? Engine->divergenceDetail()
         : PipeEng ? PipeEng->divergenceDetail()
                   : std::string();
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
  S.Mon = Mon.snapshot();
  S.Sink = Sink;
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
  if (PipeEng)
    PipeEng->onRestore();
  Plat.restore(S.Plat);
  Mon.restore(S.Mon);
  Sink = S.Sink;
  ConvertedTrace.clear();
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

    // The streaming check: fold and feed only this chunk's events.
    if (!M.poll())
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

  if (Exit == ShardExit::HitUb) {
    S.HitUb = true;
    S.Error = "ISA simulator hit UB: " + M.simUbDetail();
  }
  if (Exit == ShardExit::Diverged) {
    S.Diverged = true;
    S.Error = "fast engine left lockstep: " + M.engineDivergenceDetail();
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
  S.TraceHash = M.traceHash();
  S.MmioEvents = M.mmioEvents();
  S.MonitorEventsSeen = Mon.eventsSeen();
  S.LightTransitions = Plat.gpio().lightHistory().size();
  S.Cycles = M.Elapsed;
  S.Retired = M.retired();

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
  support::Fnv1a H;
  for (uint8_t B : Prog.image())
    H.byte(B);
  H.word(uint64_t(Options.Core));
  H.word(uint64_t(Options.SimExec));
  H.word(Options.RamBytes);
  H.word(Options.ChunkCycles);
  H.word(Options.FrameBudget);
  H.word(Options.MaxCyclesPerShard);
  // The plan armed on this thread (the caller arms Options.Plan before
  // calling): a boot snapshot taken under one fault plan must never be
  // resumed under another.
  H.word(fi::ActivePlan ? fi::ActivePlan->bits() : 0);
  return H.Value;
}

} // namespace

std::unique_ptr<SoakMachine>
b2::traffic::warmBootMachine(const compiler::CompiledProgram &Prog,
                             const SoakOptions &Options) {
  const uint64_t Key = bootCacheKey(Prog, Options);
  // The cache is thread-local, so hit/miss mix depends on the thread
  // count — counted under the Nondet scope, and everything the boot and
  // the fork *execute* is suppressed below so the Det metrics describe
  // only the per-shard work, which is thread-count-invariant.
  auto It =
      std::find_if(BootCache.begin(), BootCache.end(),
                   [Key](const BootCacheEntry &E) { return E.Key == Key; });
  if (It != BootCache.end()) {
    metrics::add(metrics::Id::CkptBootHits);
  } else {
    metrics::add(metrics::Id::CkptBootMisses);
    metrics::PauseScope Pause;
    SoakMachine Boot(Prog, Options.Core, Options.RamBytes, Options.SimExec);
    BootCacheEntry Entry;
    Entry.Key = Key;
    Entry.Ok = runShardLoop(Boot, nullptr, nullptr, Options, InjectHook(),
                            /*StopBeforeFirstInject=*/true) ==
               ShardExit::ReadyToInject;
    if (Entry.Ok)
      Entry.Snap = Boot.snapshot();
    if (BootCache.size() >= BootCacheCap)
      BootCache.erase(BootCache.begin());
    BootCache.push_back(std::move(Entry));
    It = BootCache.end() - 1;
  }
  if (!It->Ok)
    return nullptr;
  // A miss forks from the new entry too, not from the boot machine: its
  // derived state (the block engine's translations) would otherwise make
  // the first shard on each thread run differently from the rest.
  metrics::PauseScope Pause;
  auto M = std::make_unique<SoakMachine>(Prog, Options.Core, Options.RamBytes,
                                         Options.SimExec);
  M->restore(It->Snap);
  // While paused this publishes nothing but still rebases the engine's
  // publication baseline, so the restore-time flush never leaks into the
  // shard's deltas.
  M->publishMetrics();
  return M;
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
  M->releaseLog();
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

/// First differing ShardStats field, rendered; empty when identical.
std::string statsMismatch(const ShardStats &A, const ShardStats &B) {
  const std::pair<const char *, std::pair<uint64_t, uint64_t>> Fields[] = {
      {"ok", {A.Ok, B.Ok}},
      {"monitor_ok", {A.MonitorOk, B.MonitorOk}},
      {"ground_truth_ok", {A.GroundTruthOk, B.GroundTruthOk}},
      {"drained", {A.Drained, B.Drained}},
      {"hit_ub", {A.HitUb, B.HitUb}},
      {"diverged", {A.Diverged, B.Diverged}},
      {"frames_delivered", {A.FramesDelivered, B.FramesDelivered}},
      {"frames_accepted", {A.FramesAccepted, B.FramesAccepted}},
      {"valid_commands", {A.ValidCommands, B.ValidCommands}},
      {"mmio_events", {A.MmioEvents, B.MmioEvents}},
      {"monitor_events_seen", {A.MonitorEventsSeen, B.MonitorEventsSeen}},
      {"light_transitions", {A.LightTransitions, B.LightTransitions}},
      {"cycles", {A.Cycles, B.Cycles}},
      {"retired", {A.Retired, B.Retired}},
      {"trace_hash", {A.TraceHash, B.TraceHash}},
      {"violation_index", {A.ViolationIndex, B.ViolationIndex}},
  };
  for (const auto &[Field, V] : Fields)
    if (V.first != V.second)
      return std::string(Field) + " diverged: straight=" +
             std::to_string(V.first) + " resumed=" + std::to_string(V.second);
  if (A.Error != B.Error)
    return "error string diverged: straight=\"" + A.Error + "\" resumed=\"" +
           B.Error + "\"";
  if (A.DeliveredFrames != B.DeliveredFrames)
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
  A.releaseLog();
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
  B.releaseLog();
  if (Snap)
    B.restore(*Snap);
  ShardExit EB = runShardLoop(B, Begin, End, O);
  std::vector<bool> LightsB = B.platform().gpio().lightHistory();
  std::vector<ScheduledFrame> DeliveredB = B.Delivered;
  D.Resumed = collectShardStats(B, EB, Begin, End, O);

  D.Detail = statsMismatch(D.Straight, D.Resumed);
  if (D.Detail.empty() && LightsA != LightsB)
    D.Detail = "light history diverged";
  if (D.Detail.empty() && DeliveredA != DeliveredB)
    D.Detail = "delivered-frame log diverged";
  D.Identical = D.Detail.empty();
  return D;
}
