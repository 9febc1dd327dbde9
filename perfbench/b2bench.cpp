//===- perfbench/b2bench.cpp - Whole-stack benchmark ----------------------===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark command for the whole stack. Usage:
///
///   b2bench --workload NAME --seed N --seconds S --trace 0|1
///
/// Every workload runs on one thread, in a closed loop, and repeats one
/// seeded unit of work (a soak stream, a program batch, the VC target set)
/// until its time is used up. The last line of standard output is one
/// JSON object: the end-to-end metrics with --trace 0, the per-layer
/// metrics with --trace 1. README.md in this directory lists the
/// workloads, the metrics, and which layer metric should move which
/// end-to-end metric.
///
/// With --trace 1 the run makes an untraced pass (half the time) and a
/// traced pass (the other half). The traced pass drives the same work
/// through the layers' public functions from this file, timing each call,
/// and replays recorded work against fresh layer instances. Every
/// deterministic figure must be identical across all repetitions and
/// between the two passes; any wrong output or mismatch fails the run and
/// names the unit.
///
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include "RandomProgram.h"

#include "app/Firmware.h"
#include "bedrock2/ExtSpec.h"
#include "bedrock2/Semantics.h"
#include "compiler/Compile.h"
#include "devices/MemoryMap.h"
#include "devices/Net.h"
#include "kami/Bram.h"
#include "kami/PipelinedCore.h"
#include "riscv/Machine.h"
#include "riscv/Step.h"
#include "support/Metrics.h"
#include "traffic/Checkpoint.h"
#include "traffic/Monitor.h"
#include "traffic/Scenario.h"
#include "traffic/Soak.h"
#include "vc/Corpus.h"
#include "vc/Discharge.h"
#include "vc/Replay.h"
#include "vc/Vc.h"
#include "vc/Wp.h"
#include "verify/CompilerDiff.h"
#include "verify/Lockstep.h"
#include "verify/ParallelDriver.h"

#include <malloc.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

using namespace b2;
using namespace b2::perfbench;

//===----------------------------------------------------------------------===//
// Live-heap accounting: every operator new/delete in this process
//
// peak_heap_mb is the peak of live heap bytes, not peak RSS: RSS depends
// on glibc's dynamic mmap threshold, which made the same workload's peak
// jump by 40% from seed to seed.
//===----------------------------------------------------------------------===//

namespace {
std::atomic<size_t> LiveHeapBytes{0};
std::atomic<size_t> PeakHeapBytes{0};

void *trackedAlloc(size_t N) {
  void *P = std::malloc(N ? N : 1);
  if (!P)
    throw std::bad_alloc();
  size_t Live = LiveHeapBytes.fetch_add(malloc_usable_size(P),
                                        std::memory_order_relaxed) +
                malloc_usable_size(P);
  size_t Peak = PeakHeapBytes.load(std::memory_order_relaxed);
  while (Live > Peak && !PeakHeapBytes.compare_exchange_weak(
                            Peak, Live, std::memory_order_relaxed))
    ;
  return P;
}

void trackedFree(void *P) {
  if (!P)
    return;
  LiveHeapBytes.fetch_sub(malloc_usable_size(P), std::memory_order_relaxed);
  std::free(P);
}
} // namespace

void *operator new(size_t N) { return trackedAlloc(N); }
void *operator new[](size_t N) { return trackedAlloc(N); }
void operator delete(void *P) noexcept { trackedFree(P); }
void operator delete[](void *P) noexcept { trackedFree(P); }
void operator delete(void *P, size_t) noexcept { trackedFree(P); }
void operator delete[](void *P, size_t) noexcept { trackedFree(P); }

namespace {

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host-speed reference. The machines this runs on are shared, and their
/// speed drifts by tens of percent over minutes, far beyond any bound a
/// gate could use. So every measured interval is paired with this fixed
/// kernel, which belongs to the benchmark and not to the stack: a branchy
/// L1-resident integer loop, random read-modify-writes over 4 MiB, churn
/// in a string-keyed hash map, and 32 MiB of copying, roughly the mix the
/// simulators, interpreters and trace logs run. Host times are
/// then reported in calibrated seconds: a second measured while the kernel
/// took KernelRefS counts as one. A change to the stack moves calibrated
/// times as it moves raw ones; the host's drift moves both the interval
/// and the kernel and cancels.
constexpr double KernelRefS = 0.060;
volatile uint64_t KernelSink;

uint32_t KernelTable[1 << 20];
uint8_t KernelSrc[8 << 20], KernelDst[8 << 20];

double referenceKernelS() {
  constexpr size_t TableMask = (1 << 20) - 1;
  uint64_t X = 0x9e3779b97f4a7c15ull;
  uint32_t Acc = 0;
  const double T0 = nowS();
  for (int I = 0; I != 2'800'000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    if (X & 1)
      Acc += uint32_t(X >> 3);
    else
      Acc ^= uint32_t(X);
    Acc = Acc * 31 + (Acc >> 5);
  }
  for (int I = 0; I != 2'000'000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    KernelTable[X & TableMask] += uint32_t(X);
  }
  {
    // Node allocation and string hashing, as the interpreters' variable
    // maps do.
    std::unordered_map<std::string, uint64_t> Map;
    for (int I = 0; I != 120'000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      char Key[8];
      std::snprintf(Key, sizeof Key, "v%u", unsigned(X % 509));
      if (X & 8)
        Map.erase(Key);
      else
        Map[Key] += X;
    }
    Acc += uint32_t(Map.size());
  }
  for (int R = 0; R != 4; ++R) {
    std::memcpy(KernelDst, KernelSrc, sizeof KernelSrc);
    KernelSrc[R] ^= KernelDst[sizeof KernelDst - 1 - size_t(R)] + 1;
  }
  KernelSink = Acc + KernelTable[Acc & TableMask] +
               KernelDst[Acc % sizeof KernelDst];
  return nowS() - T0;
}

/// A unit whose verdict failed, or a determinism mismatch: the message
/// names the unit.
struct BenchFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

//===----------------------------------------------------------------------===//
// Spans: host time per layer call, accumulated over a traced pass
//===----------------------------------------------------------------------===//

enum Span : unsigned {
  // Set-up.
  SpGenerate,
  SpCompile,
  SpBoot,
  // Soak shard loop (traced mirror of traffic::runShardLoop).
  SpFork,
  SpCore,
  SpPoll,
  // check-fleet units.
  SpUnitCompile,
  SpCompilerDiff,
  SpLockstep,
  // Replays against fresh layer instances (outside the loop time).
  SpReplayDevices,
  SpReplayMonitor,
  SpReplayInterp,
  SpReplayIsa,
  SpReplayKami,
  SpReplayWp,
  SpReplayDischarge,
  SpReplayProbe,
  NumSpans
};

constexpr bool isReplay(unsigned S) { return S >= SpReplayDevices; }

struct Spans {
  double S[NumSpans] = {};
  double replayTotal() const {
    double T = 0;
    for (unsigned I = 0; I != NumSpans; ++I)
      if (isReplay(I))
        T += S[I];
    return T;
  }
};

/// Times one call into a layer; free when \p Sp is null (untraced).
class SpanTimer {
public:
  SpanTimer(Spans *Sp, Span K) : Sp(Sp), K(K), T0(Sp ? nowS() : 0) {}
  ~SpanTimer() {
    if (Sp)
      Sp->S[K] += nowS() - T0;
  }
  SpanTimer(const SpanTimer &) = delete;
  SpanTimer &operator=(const SpanTimer &) = delete;

private:
  Spans *Sp;
  Span K;
  double T0;
};

//===----------------------------------------------------------------------===//
// One repetition's outcome and the per-layer counts it carries
//===----------------------------------------------------------------------===//

/// Work counts a traced repetition collects for the per-layer metrics.
/// All are deterministic except where noted.
struct LayerCounts {
  uint64_t Frames = 0, Accepted = 0, MmioEvents = 0, MonitorEvents = 0;
  uint64_t Cycles = 0, Retired = 0;        ///< Cores (soak shards, lockstep).
  bool KamiCore = false;                    ///< Cycles/Retired are Kami's.
  uint64_t CodeBytes = 0;
  uint64_t InterpSteps = 0;
  uint64_t IsaReplayRetired = 0, KamiReplayCycles = 0;
  uint64_t Obligations = 0, PreSat = 0, Conflicts = 0;
  std::vector<uint64_t> Actuation;          ///< Cycles, one per actuation.
  double EarlyS = 0, LateS = 0;             ///< Host time (nondet).

  /// The deterministic counts only traced repetitions collect.
  std::vector<uint64_t> tracedDet() const {
    std::vector<uint64_t> D = {InterpSteps, IsaReplayRetired,
                               KamiReplayCycles};
    D.insert(D.end(), Actuation.begin(), Actuation.end());
    return D;
  }
};

struct Rep {
  uint64_t Units = 0;      ///< Throughput units: simulated cycles (soaks),
                           ///< programs or obligations.
  uint64_t Verdicts = 0;   ///< Units with a verdict of their own.
  uint64_t SimRetired = 0; ///< Simulated instructions (sim_mips).
  std::vector<uint64_t> Det; ///< Deterministic fingerprint.
  LayerCounts L;
};

[[noreturn]] void fail(const std::string &Unit, const std::string &Why) {
  throw BenchFailure(Unit + ": " + Why);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

class Workload {
public:
  virtual ~Workload() = default;
  /// Generates the inputs from the seed and brings the stack to the point
  /// where the first unit can start. Repeated; each call replaces the
  /// previous state.
  virtual void setup(uint64_t Seed, Spans *Sp) = 0;
  /// Untimed: warms caches that set-up already paid for once.
  virtual void prime() {}
  /// One repetition. \p Sp is null on untraced passes.
  virtual Rep run(Spans *Sp) = 0;
};

//--- Soak workloads ------------------------------------------------------===//

void pushShardDet(std::vector<uint64_t> &Det, const traffic::ShardStats &S) {
  Det.insert(Det.end(),
             {uint64_t(S.Ok), S.FramesDelivered, S.FramesAccepted,
              S.ValidCommands, S.MmioEvents, S.MonitorEventsSeen,
              S.LightTransitions, S.Cycles, S.Retired, S.TraceHash});
}

/// Rebuilds an append-only log from a snapshot chain.
template <typename T>
std::vector<T> chainContents(const typename support::ChainTracker<T>::Snap &S) {
  std::vector<const typename support::ChainTracker<T>::Node *> Path;
  for (const auto *N = S.get(); N; N = N->Parent.get())
    Path.push_back(N);
  std::vector<T> Out;
  for (auto It = Path.rbegin(); It != Path.rend(); ++It)
    Out.insert(Out.end(), (*It)->Delta.begin(), (*It)->Delta.end());
  return Out;
}

class SoakWorkload : public Workload {
public:
  SoakWorkload(std::string Scenario, traffic::SoakCore Core, uint64_t Frames,
               unsigned Shards)
      : Scenario(std::move(Scenario)), Frames(Frames), Shards(Shards) {
    Options.Core = Core;
    Options.Threads = 1;
    Options.Shards = Shards;
  }

  void setup(uint64_t Seed, Spans *Sp) override {
    {
      SpanTimer T(Sp, SpGenerate);
      traffic::ScenarioOptions SO;
      SO.Seed = Seed;
      SO.Frames = Frames;
      Stream = traffic::generateScenario(Scenario, SO);
    }
    if (Stream.Frames.size() != Frames)
      fail("set-up", "scenario generated " +
                         std::to_string(Stream.Frames.size()) + " frames");
    {
      SpanTimer T(Sp, SpCompile);
      Firmware = traffic::compileSoakFirmware(Options.RamBytes);
    }
    if (!Firmware.ok())
      fail("set-up", "firmware compilation failed: " + Firmware.Error);
    {
      // Cold boot to the ready-to-inject point, as the warm-boot cache
      // does on a miss.
      SpanTimer T(Sp, SpBoot);
      traffic::SoakMachine M(*Firmware.Prog, Options.Core, Options.RamBytes,
                             Options.SimExec);
      if (traffic::runShardLoop(M, nullptr, nullptr, Options, {}, true) !=
          traffic::ShardExit::ReadyToInject)
        fail("set-up", "firmware never became ready to receive");
    }
  }

  void prime() override {
    // Fill the warm-boot cache the shards fork from (the boot itself was
    // timed by set-up).
    (void)traffic::warmBootMachine(*Firmware.Prog, Options);
  }

  Rep run(Spans *Sp) override {
    Rep R;
    if (!Sp) {
      traffic::SoakReport Report = traffic::runSoak(
          *Firmware.Prog, Stream, Options, Scenario, /*Seed=*/0);
      for (size_t I = 0; I != Report.Shards.size(); ++I)
        account(R, Report.Shards[I], I);
      return R;
    }
    // Same contiguous balanced slices as traffic::runSoak.
    const size_t N = Stream.Frames.size();
    const size_t Count = std::min<size_t>(Shards, N);
    const size_t Base = N / Count, Rem = N % Count;
    const devices::ScheduledFrame *Data = Stream.Frames.data();
    for (size_t I = 0; I != Count; ++I) {
      size_t Lo = I * Base + std::min(I, Rem);
      size_t Len = Base + (I < Rem ? 1 : 0);
      tracedShard(R, Data + Lo, Data + Lo + Len, I, *Sp);
    }
    return R;
  }

private:
  std::string Scenario;
  uint64_t Frames;
  unsigned Shards;
  traffic::SoakOptions Options;
  traffic::TrafficStream Stream;
  compiler::CompileResult Firmware;

  bool kami() const { return Options.Core != traffic::SoakCore::IsaSim; }

  void account(Rep &R, const traffic::ShardStats &S, size_t Index) {
    if (!S.Ok)
      fail("shard " + std::to_string(Index), S.Error);
    // Throughput counts simulated cycles: an adversarial stream's cycles
    // per frame move by 30% from seed to seed, and host time follows them.
    R.Units += S.Cycles;
    R.Verdicts += 1;
    R.SimRetired += S.Retired;
    pushShardDet(R.Det, S);
    R.L.Frames += S.FramesDelivered;
    R.L.Accepted += S.FramesAccepted;
    R.L.MmioEvents += S.MmioEvents;
    R.L.MonitorEvents += S.MonitorEventsSeen;
    R.L.Cycles += S.Cycles;
    R.L.Retired += S.Retired;
    R.L.KamiCore = kami();
    R.L.CodeBytes = Firmware.Prog->CodeBytes;
  }

  /// One shard through the layers' public functions: the warm-boot fork,
  /// then traffic::runShardLoop's backpressure delivery loop written out
  /// so the core run and the monitor poll are timed apart, then the
  /// soak's own stats collection.
  void tracedShard(Rep &R, const devices::ScheduledFrame *Begin,
                   const devices::ScheduledFrame *End, size_t Index,
                   Spans &Sp) {
    const std::string Unit = "shard " + std::to_string(Index);
    const double Start = nowS();
    std::unique_ptr<traffic::SoakMachine> M;
    {
      SpanTimer T(&Sp, SpFork);
      M = traffic::warmBootMachine(*Firmware.Prog, Options);
    }
    if (!M)
      fail(Unit, "warm boot failed");

    const size_t NumFrames = size_t(End - Begin);
    std::vector<double> Stamps; // Host time after each injection.
    Stamps.reserve(NumFrames);
    devices::Platform &Plat = M->platform();
    traffic::ShardExit Exit = traffic::ShardExit::Completed;
    for (;;) {
      while (M->NextFrame < NumFrames && Plat.nic().rxEnabled() &&
             Plat.nic().bufferedFrames() < Options.FrameBudget) {
        const devices::ScheduledFrame &F = Begin[M->NextFrame];
        Plat.injectNow(F.Frame, F.Errored);
        M->Delivered.push_back(
            devices::ScheduledFrame{Plat.opCount(), F.Frame, F.Errored});
        ++M->NextFrame;
        Stamps.push_back(nowS());
      }
      if (M->NextFrame == NumFrames && Plat.nic().bufferedFrames() == 0) {
        if (M->DrainFlagged)
          break;
        M->DrainFlagged = true;
      }
      if (M->Elapsed >= Options.MaxCyclesPerShard) {
        Exit = traffic::ShardExit::BudgetExhausted;
        break;
      }
      bool Ok = true;
      {
        SpanTimer T(&Sp, SpCore);
        M->Elapsed += M->runChunk(Options.ChunkCycles, Ok);
      }
      if (M->engineDiverged()) {
        Exit = traffic::ShardExit::Diverged;
        break;
      }
      if (!Ok) {
        Exit = traffic::ShardExit::HitUb;
        break;
      }
      const riscv::MmioTrace &Trace = M->trace();
      SpanTimer T(&Sp, SpPoll);
      if (!M->monitor().pollTrace(Trace)) {
        Exit = traffic::ShardExit::Violated;
        break;
      }
    }
    traffic::ShardStats S =
        traffic::collectShardStats(*M, Exit, Begin, End, Options);
    account(R, S, Index);

    // Per-frame host cost over the shard: first tenth vs last tenth.
    if (size_t Tenth = Stamps.size() / 10) {
      R.L.EarlyS += Stamps[Tenth - 1] - Start;
      R.L.LateS += Stamps.back() - Stamps[Stamps.size() - 1 - Tenth];
    }

    metrics::PauseScope Pause;
    const riscv::MmioTrace &Trace = M->trace();
    replayDevices(Unit, Trace, M->Delivered, Plat, Sp);
    {
      SpanTimer T(&Sp, SpReplayMonitor);
      traffic::TraceMonitor Fresh;
      if (!Fresh.pollTrace(Trace) || Fresh.eventsSeen() != Trace.size())
        fail(Unit, "fresh monitor rejected the recorded trace");
    }
    if (Options.Core == traffic::SoakCore::Pipelined)
      actuation(Unit, *M, R.L.Actuation);
  }

  /// Replays the recorded MMIO op stream, with each frame handed over at
  /// its recorded op, against a fresh platform. Every load must return
  /// the recorded value and the light history must match.
  static void replayDevices(const std::string &Unit,
                            const riscv::MmioTrace &Trace,
                            const std::vector<devices::ScheduledFrame> &Frames,
                            devices::Platform &Original, Spans &Sp) {
    SpanTimer T(&Sp, SpReplayDevices);
    devices::Platform Fresh;
    size_t Next = 0;
    for (size_t Op = 0; Op <= Trace.size(); ++Op) {
      while (Next < Frames.size() && Frames[Next].AtOp == Op) {
        Fresh.injectNow(Frames[Next].Frame, Frames[Next].Errored);
        ++Next;
      }
      if (Op == Trace.size())
        break;
      const riscv::MmioEvent &E = Trace[Op];
      if (E.IsStore) {
        Fresh.store(E.Addr, E.Size, E.Value);
      } else if (Fresh.load(E.Addr, E.Size) != E.Value) {
        fail(Unit, "device replay diverged at MMIO op " + std::to_string(Op));
      }
    }
    if (Next != Frames.size() ||
        Fresh.gpio().lightHistory() != Original.gpio().lightHistory() ||
        Fresh.acceptedFrames().size() != Original.acceptedFrames().size())
      fail(Unit, "device replay ended in a different state");
  }

  /// Packet-to-actuation latency per frame, as bench/LatencyHarness
  /// defines it: from the cycle of the handover MMIO op (the first op
  /// after the frame reached the NIC) to the first GPIO output_val store
  /// at or after it. Every accepted valid command must actuate.
  static void actuation(const std::string &Unit, traffic::SoakMachine &M,
                        std::vector<uint64_t> &Out) {
    traffic::SoakMachine::Snapshot Snap = M.snapshot();
    const std::vector<kami::Label> Labels =
        chainContents<kami::Label>(Snap.Pipe->Labels);
    if (Labels.size() != M.trace().size())
      fail(Unit, "label log and MMIO trace disagree in length");
    size_t NextStore = 0, Valid = 0;
    for (const devices::ScheduledFrame &F : M.platform().acceptedFrames()) {
      if (F.Errored || !devices::classifyFrame(F.Frame).Valid)
        continue;
      ++Valid;
      if (F.AtOp >= Labels.size())
        fail(Unit, "frame handed over after the last MMIO op");
      uint64_t Start = Labels[size_t(F.AtOp)].Cycle;
      while (NextStore < Labels.size() &&
             !(Labels[NextStore].MethodKind == kami::Label::Kind::MmioStore &&
               Labels[NextStore].Addr == devices::GpioOutputVal &&
               Labels[NextStore].Cycle >= Start))
        ++NextStore;
      if (NextStore == Labels.size())
        fail(Unit, "valid command " + std::to_string(Valid) +
                       " never actuated");
      Out.push_back(Labels[NextStore].Cycle - Start);
      ++NextStore;
    }
  }
};

//--- check-fleet ---------------------------------------------------------===//

class CheckFleet : public Workload {
public:
  /// Short, cold programs: one helper and no nested loops, so a batch's
  /// cost does not hang on one deep loop nest (the generator's default
  /// shape puts half of a batch's time into its five heaviest programs).
  explicit CheckFleet(unsigned Programs) : Programs(Programs) {
    Shape.NumHelpers = 1;
    Shape.MaxDepth = 1;
  }

  void setup(uint64_t Seed, Spans *Sp) override {
    SpanTimer T(Sp, SpGenerate);
    Units.clear();
    std::vector<uint64_t> Seeds = verify::fleetSeeds(Seed, Programs);
    for (uint64_t S : Seeds) {
      Unit U;
      U.Seed = S;
      U.Prog = b2::testing::RandomProgramGen(S, Shape).generate();
      support::Rng Rng(S * 31);
      U.Args = {Rng.interestingWord(), Rng.interestingWord()};
      Units.push_back(std::move(U));
    }
  }

  Rep run(Spans *Sp) override {
    Rep R;
    for (const Unit &U : Units) {
      const std::string Name = "program seed " + std::to_string(U.Seed);
      compiler::CompileResult C;
      {
        SpanTimer T(Sp, SpUnitCompile);
        C = compiler::compileProgram(U.Prog, compiler::CompilerOptions::o0(),
                                     compiler::Entry::singleCall("main", U.Args),
                                     devices::DefaultRamBytes);
      }
      if (!C.ok())
        fail(Name, "compilation failed: " + C.Error);
      const std::vector<uint8_t> Image = C.Prog->image();
      verify::DiffResult D;
      {
        SpanTimer T(Sp, SpCompilerDiff);
        D = verify::diffCompilePure(U.Prog, "main", U.Args);
      }
      if (!D.Ok || !D.Source.ok())
        fail(Name, "CompilerDiff: " +
                       (D.Ok ? "source faulted: " + D.Source.Detail : D.Error));
      verify::LockstepResult L;
      {
        SpanTimer T(Sp, SpLockstep);
        L = verify::lockstep(
            Image, C.Prog->HaltPc,
            [] { return std::make_unique<riscv::NoDevice>(); },
            verify::LockstepOptions());
      }
      if (!L.Ok || L.SimulatorHitUb)
        fail(Name, "Lockstep: " +
                       (L.Ok ? std::string("ISA simulator hit UB") : L.Error));

      R.Units += 1;
      R.Verdicts += 1;
      R.SimRetired += D.MachineRetired + L.Retired;
      R.Det.insert(R.Det.end(),
                   {C.Prog->CodeBytes, D.Source.StepsUsed, D.MachineRetired,
                    verify::traceDigest(D.MachineTrace), L.Retired, L.Cycles});
      for (Word W : D.MachineRets)
        R.Det.push_back(W);
      R.L.CodeBytes += C.Prog->CodeBytes;
      R.L.Cycles += L.Cycles;
      R.L.Retired += L.Retired;
      R.L.KamiCore = true;
      if (Sp) {
        metrics::PauseScope Pause;
        replay(Name, U, *C.Prog, Image, D, L, R.L, *Sp);
      }
    }
    return R;
  }

private:
  struct Unit {
    uint64_t Seed = 0;
    bedrock2::Program Prog;
    std::vector<Word> Args;
  };
  unsigned Programs;
  b2::testing::RandomProgramOptions Shape;
  std::vector<Unit> Units;

  /// Runs each layer CompilerDiff and Lockstep drive, alone: the source
  /// interpreter (CompilerDiff's three stackalloc placements), the ISA
  /// simulator to the halt PC, and the pipelined core for as many
  /// retirements as Lockstep saw. Each must reproduce the checked result.
  static void replay(const std::string &Name, const Unit &U,
                     const compiler::CompiledProgram &Prog,
                     const std::vector<uint8_t> &Image,
                     const verify::DiffResult &D,
                     const verify::LockstepResult &L, LayerCounts &Out,
                     Spans &Sp) {
    const verify::DiffOptions DO;
    {
      SpanTimer T(&Sp, SpReplayInterp);
      for (Word Salt : DO.StackallocSalts) {
        riscv::NoDevice Dev;
        bedrock2::MmioExtSpec Ext(Dev, DO.RamBytes);
        bedrock2::StackallocPolicy Policy;
        Policy.Salt = Salt;
        bedrock2::Interp I(U.Prog, Ext, DO.SourceFuel, Policy, DO.SourceMode);
        bedrock2::ExecResult E = I.callFunction("main", U.Args);
        if (!E.ok() || E.Rets != D.Source.Rets)
          fail(Name, "interpreter replay disagrees with CompilerDiff");
        Out.InterpSteps += E.StepsUsed;
      }
    }
    {
      SpanTimer T(&Sp, SpReplayIsa);
      riscv::Machine M(DO.RamBytes);
      M.loadImage(0, Image);
      riscv::NoDevice Dev;
      uint64_t Steps = 0;
      while (Steps < DO.MachineMaxSteps && M.getPc() != Prog.HaltPc &&
             riscv::step(M, Dev))
        ++Steps;
      if (M.getPc() != Prog.HaltPc ||
          M.retiredInstructions() != D.MachineRetired)
        fail(Name, "ISA replay disagrees with CompilerDiff");
      Out.IsaReplayRetired += M.retiredInstructions();
    }
    {
      SpanTimer T(&Sp, SpReplayKami);
      kami::Bram Mem(DO.RamBytes);
      Mem.loadImage(Image);
      riscv::NoDevice Dev;
      kami::PipelinedCore Core(Mem, Dev, verify::LockstepOptions().Pipe);
      if (!Core.runUntilRetired(L.Retired, L.Cycles + 1'000'000) ||
          Core.retired() != L.Retired)
        fail(Name, "pipelined-core replay disagrees with Lockstep");
      Out.KamiReplayCycles += Core.cycles();
    }
  }
};

//--- vc-discharge --------------------------------------------------------===//

class VcDischarge : public Workload {
public:
  void setup(uint64_t, Spans *Sp) override {
    SpanTimer T(Sp, SpGenerate);
    app::FirmwareOptions Fw;
    Fw.Timeouts = true;
    Firmware = app::buildFirmware(Fw);
    Examples = vc::vcExamples();
    Targets.clear();
    for (const char *Fn : {"spi_write", "spi_read", "lightbulb_loop"})
      Targets.push_back({"firmware", Fn, &Firmware});
    for (const vc::VcExample &E : Examples)
      Targets.push_back({E.Name, E.Func, &E.Prog});
    // The contract set is fixed, and so is the probe seed (tools/vc's
    // default): concrete probing is most of the pass, and its cost
    // depends on the probe inputs, so a seeded probe set would make the
    // figure vary with the seed rather than with the code.
    Opts = vc::VcOptions();
  }

  Rep run(Spans *Sp) override {
    Rep R;
    vc::DischargeCache Shared; // Fresh per pass, as each tools/vc run.
    vc::VcOptions O = Opts;
    O.SharedCache = &Shared;
    vc::DischargeCache ReplayShared;
    for (const Target &T : Targets) {
      const std::string Name = T.Program + "/" + T.Func;
      vc::FuncReport F = vc::verifyFunction(*T.Prog, T.Func, T.Program, O);
      if (!F.Error.empty())
        fail(Name, F.Error);
      if (F.V != vc::Verdict::Valid)
        fail(Name, std::string("verdict ") + vc::verdictName(F.V) +
                       ", expected Valid");
      if (F.Unconfirmed || F.ProbeViolations || F.Pipeline.DiffMismatches)
        fail(Name, "unconfirmed model, probe violation or staged mismatch");
      for (const vc::ObReport &Ob : F.Obligations)
        if (Ob.Status != vc::ObStatus::Proved &&
            Ob.Status != vc::ObStatus::ProvedTrivial)
          fail(Name, std::string("obligation ") + Ob.Where + " is " +
                         vc::obStatusName(Ob.Status));

      uint64_t PreSat = 0;
      for (vc::DischargeTier K :
           {vc::DischargeTier::Wp, vc::DischargeTier::Interval,
            vc::DischargeTier::Rewrite, vc::DischargeTier::Cache})
        PreSat += F.Pipeline.TierKills[size_t(K)];
      R.Units += F.Obligations.size();
      R.Verdicts += 1;
      R.Det.insert(R.Det.end(),
                   {uint64_t(F.V), F.Obligations.size(), F.Proved, F.Trivial,
                    F.Solver.Conflicts, F.DagNodes, PreSat,
                    F.Pipeline.CacheHits, F.Pipeline.ColdSolves});
      R.L.Obligations += F.Obligations.size();
      R.L.PreSat += PreSat;
      R.L.Conflicts += F.Solver.Conflicts;
      if (Sp) {
        metrics::PauseScope Pause;
        replayStages(Name, T, F, O, ReplayShared, *Sp);
      }
    }
    return R;
  }

private:
  struct Target {
    std::string Program;
    std::string Func;
    const bedrock2::Program *Prog;
  };
  bedrock2::Program Firmware;
  std::vector<vc::VcExample> Examples;
  std::vector<Target> Targets;
  vc::VcOptions Opts;

  /// The stages verifyFunction chains, called one by one: WP generation,
  /// the staged discharge pipeline, and the concrete probes of a Valid
  /// verdict. Their obligation count and probe result must match.
  static void replayStages(const std::string &Name, const Target &T,
                           const vc::FuncReport &F, const vc::VcOptions &O,
                           vc::DischargeCache &Shared, Spans &Sp) {
    vc::ExprArena Arena;
    vc::WpResult Wp;
    {
      SpanTimer S(&Sp, SpReplayWp);
      Wp = vc::genVCs(*T.Prog, T.Func, Arena, O.Wp);
    }
    if (!Wp.Ok || Wp.Obligations.size() != F.Obligations.size())
      fail(Name, "WP replay produced a different obligation set");
    {
      SpanTimer S(&Sp, SpReplayDischarge);
      vc::DischargeResult D =
          vc::discharge(Arena, Wp, O.Solve, O.Discharge, &Shared);
      for (const vc::ObOutcome &Out : D.Outcomes)
        if (Out.Status != vc::SolveStatus::Unsat)
          fail(Name, "discharge replay left an obligation unproved");
    }
    {
      SpanTimer S(&Sp, SpReplayProbe);
      vc::ReplayOptions RO;
      RO.Fuel = O.ReplayFuel;
      RO.RamBytes = O.Wp.RamBytes;
      RO.Stack = O.Wp.Stack;
      std::string Detail;
      if (vc::probeValid(*T.Prog, T.Func, O.Probes, O.ProbeSeed, Detail, RO))
        fail(Name, "probe replay found a violation: " + Detail);
    }
  }
};

//===----------------------------------------------------------------------===//
// Passes, determinism, and the report
//===----------------------------------------------------------------------===//

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "soak-pipelined-long")
    return std::make_unique<SoakWorkload>(
        "valid-mix", traffic::SoakCore::Pipelined, /*Frames=*/1200,
        /*Shards=*/1);
  if (Name == "soak-isa-adversarial")
    return std::make_unique<SoakWorkload>(
        "adversarial", traffic::SoakCore::IsaSim, /*Frames=*/1024,
        /*Shards=*/4);
  if (Name == "check-fleet")
    return std::make_unique<CheckFleet>(/*Programs=*/512);
  if (Name == "vc-discharge")
    return std::make_unique<VcDischarge>();
  return nullptr;
}

/// Set-up samples: total host time and its parts, one entry per set-up.
/// Each set-up replaces the workload's state with an identical one.
struct SetupResult {
  std::vector<double> Total;
  std::vector<double> Part[NumSpans];

  /// Set-ups back to back, at least \p MinCount of them and at least
  /// \p MinSeconds in all, so a sub-millisecond set-up is sampled many
  /// times with warm caches.
  void addBlock(Workload &W, uint64_t Seed, size_t MinCount,
                double MinSeconds) {
    double Sum = 0;
    for (size_t N = 0; N < MinCount || Sum < MinSeconds; ++N) {
      Spans Sp;
      double T0 = nowS();
      W.setup(Seed, &Sp);
      Total.push_back(nowS() - T0);
      Sum += Total.back();
      for (unsigned I = 0; I != NumSpans; ++I)
        Part[I].push_back(Sp.S[I]);
    }
  }
};

struct Pass {
  RunTiming Timing; ///< Loop times in calibrated seconds.
  std::vector<double> RawRates; ///< Units per raw host second.
  std::vector<double> KernelS;  ///< Reference kernel, per repetition.
  Spans Sp;
  std::vector<Rep> Reps;
  uint64_t Verdicts = 0;
  uint64_t SimRetired = 0;
  double SimSeconds = 0;
};

/// Repeats the unit (at least once) while another repetition of median
/// length still fits in \p Budget seconds. A traced pass excludes its
/// replays from the loop time.
Pass runPass(Workload &W, uint64_t Seed, SetupResult &Setups, double Budget,
             bool Traced) {
  Pass P;
  metrics::resetAll();
  metrics::setEnabled(Traced);
  const double Begin = nowS();
  double KernelBefore = referenceKernelS();
  do {
    // More set-ups before every repetition, so the set-up samples span
    // the whole run rather than its first moments.
    Setups.addBlock(W, Seed, 1, 0.01);
    Spans Before = P.Sp;
    double T0 = nowS();
    Rep R = W.run(Traced ? &P.Sp : nullptr);
    double Wall = nowS() - T0;
    double Loop = Wall - (P.Sp.replayTotal() - Before.replayTotal());
    // The kernel runs on both sides of the repetition.
    double KernelAfter = referenceKernelS();
    double Kernel = (KernelBefore + KernelAfter) / 2;
    KernelBefore = KernelAfter;
    P.KernelS.push_back(Kernel);
    P.RawRates.push_back(double(R.Units) / Loop);
    P.Timing.addRep(Loop * KernelRefS / Kernel, R.Units);
    P.Verdicts += R.Verdicts;
    P.SimRetired += R.SimRetired;
    P.SimSeconds += Loop;
    if (!P.Reps.empty() && (R.Det != P.Reps.front().Det ||
                            R.L.tracedDet() != P.Reps.front().L.tracedDet()))
      throw BenchFailure("repetition " + std::to_string(P.Reps.size()) +
                         ": deterministic results differ from repetition 0");
    P.Reps.push_back(std::move(R));
  } while (nowS() - Begin + median(P.Timing.LoopS) < Budget);
  metrics::setEnabled(false);
  return P;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

double peakHeapMb() {
  return double(PeakHeapBytes.load(std::memory_order_relaxed)) / (1 << 20);
}

struct MetricOut {
  std::string Name;
  double Value;
  std::string Unit;
};

double ratio(double A, double B) { return B != 0 ? A / B : 0; }
double pct(double A, double B) { return 100 * ratio(A, B); }

std::string renderResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                         const std::vector<MetricOut> &Ms) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I != Ms.size(); ++I) {
    if (!validMetricName(Ms[I].Name))
      throw std::logic_error("invalid metric name " + Ms[I].Name);
    std::snprintf(Buf, sizeof Buf, "%.17g", Ms[I].Value);
    Out += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

/// Per-layer metrics of a traced run. \p U is the untraced pass, \p T the
/// traced one.
std::vector<MetricOut> layerMetrics(const SetupResult &S, const Pass &U,
                                    const Pass &T) {
  const LayerCounts &L = T.Reps.front().L;
  const double Reps = double(T.Reps.size());
  const double Loop = T.Timing.loopTotal();
  auto Share = [&](unsigned K) { return pct(T.Sp.S[K], Loop); };
  const double SetupMed = median(S.Total);
  auto SetupShare = [&](unsigned K) { return pct(median(S.Part[K]), SetupMed); };
  const double PerFrame = L.Frames ? 1.0 / double(L.Frames) : 0;
  double EarlyS = 0, LateS = 0;
  for (const Rep &R : T.Reps) {
    EarlyS += R.L.EarlyS;
    LateS += R.L.LateS;
  }

  double P50 = 0, P99 = 0;
  if (!L.Actuation.empty()) {
    std::vector<double> D(L.Actuation.begin(), L.Actuation.end());
    P50 = median(D);
    std::optional<uint64_t> Q = percentile(L.Actuation, 0.99);
    if (!Q)
      throw BenchFailure("actuation: fewer than 1000 samples for p99");
    P99 = double(*Q);
  }

  metrics::Snapshot M = metrics::snapshot();
  using metrics::Id;
  const double FastInstrs = double(M.counter(Id::SimDecodeHits) +
                                   M.counter(Id::SimBlockTraceInstrs));
  const double AllInstrs = double(
      M.counter(Id::SimDecodeHits) + M.counter(Id::SimDecodeMisses) +
      M.counter(Id::SimBlockTraceInstrs) + M.counter(Id::SimBlockColdInstrs));

  // Core host time: in the shard loop, or replayed alone (check-fleet).
  const double IsaS = L.KamiCore ? T.Sp.S[SpReplayIsa] : T.Sp.S[SpCore];
  const double IsaInstrs =
      L.KamiCore ? double(L.IsaReplayRetired) * Reps : double(L.Retired) * Reps;
  const double KamiS = L.KamiCore && L.Frames ? T.Sp.S[SpCore]
                                              : T.Sp.S[SpReplayKami];
  const double KamiCycles = L.KamiCore && L.Frames
                                ? double(L.Cycles) * Reps
                                : double(L.KamiReplayCycles) * Reps;
  const double ShardLoopSelf =
      L.Frames ? Loop - T.Sp.S[SpFork] - T.Sp.S[SpCore] - T.Sp.S[SpPoll] : 0;

  return {
      {"sim_mips", ratio(double(U.SimRetired), U.SimSeconds) / 1e6, "MIPS"},
      {"cycles_per_frame", double(L.Cycles) * PerFrame, "cycles"},
      {"actuation_cycles_p50", P50, "cycles"},
      {"actuation_cycles_p99", P99, "cycles"},
      {"bench.peak_rss_mb", peakRssMb(), "MB"},
      {"bench.raw_throughput", median(U.RawRates), "1/s"},
      {"bench.kernel_ms", median(U.KernelS) * 1e3, "ms"},
      {"bench.trace_overhead",
       ratio(T.Timing.throughputMedian(), U.Timing.throughputMedian()),
       "ratio"},
      {"compiler.compile_pct", SetupShare(SpCompile), "%"},
      {"compiler.code_bytes", double(L.CodeBytes), "bytes"},
      {"compiler.loop_pct", Share(SpUnitCompile), "%"},
      {"bedrock2.interp_pct", Share(SpReplayInterp), "%"},
      {"bedrock2.interp_steps", double(L.InterpSteps), "count"},
      {"riscv.sim_pct", pct(IsaS, Loop), "%"},
      {"riscv.mips", ratio(IsaInstrs, IsaS) / 1e6, "MIPS"},
      {"riscv.block_hit_ratio", ratio(FastInstrs, AllInstrs), "ratio"},
      {"kami.run_pct", pct(KamiS, Loop), "%"},
      {"kami.mcycles_per_s", ratio(KamiCycles, KamiS) / 1e6, "Mcycles/s"},
      {"kami.ipc", L.KamiCore ? ratio(double(L.Retired), double(L.Cycles)) : 0,
       "ratio"},
      {"devices.mmio_ops_per_frame", double(L.MmioEvents) * PerFrame, "count"},
      {"devices.replay_pct", Share(SpReplayDevices), "%"},
      {"devices.accept_ratio", ratio(double(L.Accepted), double(L.Frames)),
       "ratio"},
      {"monitor.events_per_frame", double(L.MonitorEvents) * PerFrame,
       "count"},
      {"monitor.poll_pct", Share(SpPoll), "%"},
      {"monitor.replay_pct", Share(SpReplayMonitor), "%"},
      {"traffic.generate_pct", SetupShare(SpGenerate), "%"},
      {"traffic.boot_pct", SetupShare(SpBoot), "%"},
      {"traffic.fork_pct", Share(SpFork), "%"},
      {"traffic.shard_loop_pct", pct(ShardLoopSelf, Loop), "%"},
      {"traffic.late_early_cost_ratio", ratio(LateS, EarlyS), "ratio"},
      {"verify.compilerdiff_pct", Share(SpCompilerDiff), "%"},
      {"verify.lockstep_pct", Share(SpLockstep), "%"},
      {"vc.wp_pct", Share(SpReplayWp), "%"},
      {"vc.discharge_pct", Share(SpReplayDischarge), "%"},
      {"vc.probe_pct", Share(SpReplayProbe), "%"},
      {"vc.obligations", double(L.Obligations), "count"},
      {"vc.pre_sat_ratio", ratio(double(L.PreSat), double(L.Obligations)),
       "ratio"},
      {"vc.sat_conflicts", double(L.Conflicts), "count"},
  };
}

int usage() {
  std::fprintf(stderr,
               "usage: b2bench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "workloads: soak-pipelined-long soak-isa-adversarial "
               "check-fleet vc-discharge\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Name;
  uint64_t Seed = 1;
  double Seconds = 10;
  int Trace = 0;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I];
    const char *V = Argv[I + 1];
    if (Flag == "--workload")
      Name = V;
    else if (Flag == "--seed")
      Seed = std::strtoull(V, nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = std::atof(V);
    else if (Flag == "--trace")
      Trace = std::atoi(V);
    else
      return usage();
  }
  if (Argc % 2 == 0 || !(Seconds > 0) || (Trace != 0 && Trace != 1))
    return usage();
  std::unique_ptr<Workload> W = makeWorkload(Name);
  if (!W)
    return usage();

  metrics::setEnabled(false);
  try {
    SetupResult S;
    S.addBlock(*W, Seed, 5, 0.05);
    W->prime();
    std::vector<MetricOut> Ms;
    uint64_t Attempted = 0;
    if (!Trace) {
      Pass U = runPass(*W, Seed, S, Seconds, /*Traced=*/false);
      const double Scale = KernelRefS / median(U.KernelS);
      for (double T : S.Total)
        U.Timing.SetupS.push_back(T * Scale);
      Attempted = U.Verdicts;
      Ms = {{"throughput", U.Timing.throughputMedian(), "1/s"},
            {"setup_s", U.Timing.setupMedian(), "s"},
            {"peak_heap_mb", peakHeapMb(), "MB"},
            {"pass_rate", 1.0, "ratio"}};
      std::fprintf(stderr,
                   "%s seed %llu: %zu set-ups, %zu repetitions; raw "
                   "throughput %.6g/s (IQR/median %.3f), calibrated IQR/median "
                   "%.3f, reference kernel %.2f ms\n",
                   Name.c_str(), (unsigned long long)Seed, S.Total.size(),
                   U.Reps.size(), median(U.RawRates),
                   relativeSpread(U.RawRates),
                   relativeSpread(U.Timing.rates()), median(U.KernelS) * 1e3);
    } else {
      Pass U = runPass(*W, Seed, S, Seconds / 2, /*Traced=*/false);
      Pass T = runPass(*W, Seed, S, Seconds / 2, /*Traced=*/true);
      if (T.Reps.front().Det != U.Reps.front().Det)
        throw BenchFailure("traced pass: deterministic results differ from "
                           "the untraced pass");
      Attempted = U.Verdicts + T.Verdicts;
      Ms = layerMetrics(S, U, T);
      for (const MetricOut &M : Ms)
        if (M.Name == "actuation_cycles_p50" && M.Value > 0)
          std::fprintf(stderr,
                       "actuation p50: %.0f cycles = %.3f ms at 12 MHz "
                       "(context only: the cycle model is not validated "
                       "against the FPGA)\n",
                       M.Value, M.Value / 12e3);
    }
    // Any failed unit throws, so every attempted unit passed here.
    std::printf("%s\n", renderResult(true, Attempted, 0, Ms).c_str());
    return 0;
  } catch (const BenchFailure &E) {
    std::fprintf(stderr, "b2bench: %s: FAILED: %s\n", Name.c_str(), E.what());
    std::printf("%s\n", renderResult(false, 1, 1, {}).c_str());
    return 1;
  }
}
