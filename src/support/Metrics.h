//===- support/Metrics.h - Fleet-wide metrics registry ---------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A low-overhead, thread-shardable counter/timer/histogram registry for
/// the whole verification fleet. Every worker thread accumulates into a
/// private thread-local sheet (no locks, no atomics on the hot path);
/// snapshot() merges all sheets — live threads plus a graveyard of
/// exited ones — by plain uint64 addition, which is commutative and
/// associative, so merged totals are bit-identical at any thread count
/// as long as the per-thread *work* partition is deterministic (the
/// fleet's existing contract: shards are pure functions of their index
/// and seed).
///
/// Metrics carry a determinism scope in their static descriptor:
///
///  * Det    — totals depend only on the work performed, never on the
///             thread count or scheduling. These back the bit-identity
///             acceptance checks and the CI trend gates.
///  * Nondet — wall-clock timers and anything keyed to thread-local
///             caches (warm-boot hits). Reported for observability,
///             excluded from every determinism comparison.
///
/// Hot-loop discipline: the per-instruction engines never call add()
/// per event. They keep accumulating into their existing local stats
/// structs and publish *deltas* at chunk/run boundaries, so the
/// instrumentation costs a handful of thread-local additions per
/// 100k-cycle chunk (<2% on the sim_throughput Block rows, gated by the
/// bench). The whole layer compiles out under -DMETRICS=OFF (cmake),
/// which defines B2_METRICS=0.
///
//===----------------------------------------------------------------------===//

#ifndef B2_SUPPORT_METRICS_H
#define B2_SUPPORT_METRICS_H

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

#ifndef B2_METRICS
#define B2_METRICS 1
#endif

namespace b2 {
namespace metrics {

/// The full metric table: symbol, stable dotted name (layer.subsystem
/// .what — the taxonomy DESIGN.md documents), storage kind, determinism
/// scope. Counters are scalar uint64; Timer and Hist carry a 32-bucket
/// log2 histogram plus count and sum (Timer values are nanoseconds and
/// always Nondet).
#define B2_METRIC_LIST(X)                                                      \
  /* riscv: never incremented; kept because perfbench/b2bench.cpp reads them */\
  X(SimDecodeHits, "sim.decode.hits", Counter, Det)                            \
  X(SimDecodeMisses, "sim.decode.misses", Counter, Det)                        \
  /* riscv: superblock trace engine */                                         \
  X(SimBlockTranslations, "sim.block.translations", Counter, Det)              \
  X(SimBlockKilled, "sim.block.blocks_killed", Counter, Det)                   \
  X(SimBlockFlushes, "sim.block.flushes", Counter, Det)                        \
  X(SimBlockTraceInstrs, "sim.block.trace_instrs", Counter, Det)               \
  X(SimBlockColdInstrs, "sim.block.cold_instrs", Counter, Det)                 \
  X(SimBlockSideExits, "sim.block.side_exits", Counter, Det)                   \
  X(SimBlockSideExitUntranslated, "sim.block.side_exit.untranslated",          \
    Counter, Det)                                                              \
  X(SimBlockSideExitMemGuard, "sim.block.side_exit.mem_guard", Counter, Det)   \
  X(SimBlockSideExitKilled, "sim.block.side_exit.killed", Counter, Det)        \
  X(SimBlockLinkHits, "sim.block.link_hits", Counter, Det)                     \
  X(SimBlockLinkMisses, "sim.block.link_misses", Counter, Det)                 \
  X(SimBlockMmioInline, "sim.block.mmio_inline", Counter, Det)                 \
  X(SimBlockFusedRetired, "sim.block.fused_retired", Counter, Det)             \
  X(SimBlockInvalProbes, "sim.block.inval_probes", Counter, Det)               \
  X(SimBlockWeight, "sim.block.block_weight", Hist, Det)                       \
  /* bedrock2: bytecode interpreter */                                         \
  X(InterpCompileFns, "interp.compile.functions", Counter, Det)                \
  X(InterpCompileInsnsIn, "interp.compile.insns_in", Counter, Det)             \
  X(InterpCompileInsnsOut, "interp.compile.insns_out", Counter, Det)           \
  X(InterpFuseHits, "interp.fuse.hits", Counter, Det)                          \
  X(InterpFuseLoopHeads, "interp.fuse.loop_heads", Counter, Det)               \
  X(InterpExecRuns, "interp.exec.runs", Counter, Det)                          \
  X(InterpExecSteps, "interp.exec.steps", Counter, Det)                        \
  /* traffic: soak harness + streaming monitor */                              \
  X(SoakShards, "soak.shards.run", Counter, Det)                               \
  X(SoakFramesDelivered, "soak.frames.delivered", Counter, Det)                \
  X(SoakFramesAccepted, "soak.frames.accepted", Counter, Det)                  \
  X(SoakFramesDropped, "soak.frames.dropped", Counter, Det)                    \
  X(SoakValidCommands, "soak.commands.valid", Counter, Det)                    \
  X(SoakMmioEvents, "soak.mmio.events", Counter, Det)                          \
  X(SoakMonitorEvents, "soak.monitor.events", Counter, Det)                    \
  X(SoakFifoStalls, "soak.fifo.stalls", Counter, Det)                          \
  X(SoakMonitorFrontier, "soak.monitor.frontier", Hist, Det)                   \
  /* traffic: shrink oracle + checkpoint layer */                              \
  X(ShrinkOracleRuns, "shrink.oracle.runs", Counter, Det)                      \
  X(ShrinkOracleResumed, "shrink.oracle.resumed", Counter, Det)                \
  X(ShrinkCyclesSimulated, "shrink.oracle.cycles_simulated", Counter, Det)     \
  X(ShrinkCyclesSkipped, "shrink.oracle.cycles_skipped", Counter, Det)         \
  X(ShrinkCheckpoints, "shrink.oracle.checkpoints", Counter, Det)              \
  X(ShrinkPrimeRuns, "shrink.oracle.prime_runs", Counter, Det)                 \
  X(ShrinkPrimeCycles, "shrink.oracle.prime_cycles", Counter, Det)             \
  X(CkptSnapshots, "ckpt.snapshots", Counter, Nondet)                          \
  X(CkptRestores, "ckpt.restores", Counter, Nondet)                            \
  X(CkptBytesCopied, "ckpt.bytes_copied", Counter, Nondet)                     \
  X(CkptBootHits, "ckpt.bootcache.hits", Counter, Nondet)                      \
  X(CkptBootMisses, "ckpt.bootcache.misses", Counter, Nondet)                  \
  /* verify: fleets + adequacy campaign */                                     \
  X(VerifyShards, "verify.shards.run", Counter, Det)                           \
  X(AdequacyCells, "adequacy.cells.run", Counter, Det)                         \
  X(AdequacyKills, "adequacy.cells.killed", Counter, Det)                      \
  /* vc: symbolic VC engine */                                                 \
  X(VcFuncsChecked, "vc.funcs.checked", Counter, Det)                          \
  X(VcVcsGenerated, "vc.vcs.generated", Counter, Det)                          \
  X(VcDagNodes, "vc.dag.nodes", Counter, Det)                                  \
  X(VcClauses, "vc.solver.clauses", Counter, Det)                              \
  X(VcConflicts, "vc.solver.conflicts", Counter, Det)                          \
  X(VcDecisions, "vc.solver.decisions", Counter, Det)                          \
  X(VcValid, "vc.verdict.valid", Counter, Det)                                 \
  X(VcUnknown, "vc.verdict.unknown", Counter, Det)                             \
  X(VcReplayConfirmed, "vc.replay.confirmed", Counter, Det)                    \
  X(VcReplayUnconfirmed, "vc.replay.unconfirmed", Counter, Det)                \
  /* vc: staged discharge pipeline */                                          \
  X(VcTierIntervalKills, "vc.tier.interval_kills", Counter, Det)               \
  X(VcTierRewriteKills, "vc.tier.rewrite_kills", Counter, Det)                 \
  X(VcCacheHits, "vc.cache.hits", Counter, Det)                                \
  X(VcCacheMisses, "vc.cache.misses", Counter, Det)                            \
  X(VcSliceDropped, "vc.slice.dropped_assumes", Counter, Det)                  \
  X(VcIncrementalProved, "vc.solver.incremental_proved", Counter, Det)         \
  X(VcColdSolves, "vc.solver.cold_solves", Counter, Det)                       \
  X(VcDiffMismatches, "vc.diff.mismatches", Counter, Det)                      \
  X(VerifyShardWall, "verify.shard.wall_ns", Timer, Nondet)                    \
  X(AdequacyCellWall, "adequacy.cell.wall_ns", Timer, Nondet)                  \
  X(SoakShardWall, "soak.shard.wall_ns", Timer, Nondet)

enum class Id : uint16_t {
#define B2_METRIC_X(Sym, Name, K, S) Sym,
  B2_METRIC_LIST(B2_METRIC_X)
#undef B2_METRIC_X
  NumIds
};

enum class Kind : uint8_t { Counter, Timer, Hist };
enum class Scope : uint8_t { Det, Nondet };

inline constexpr size_t NumIds = size_t(Id::NumIds);

struct Desc {
  const char *Name;
  Kind K;
  Scope S;
};

inline constexpr Desc Table[NumIds] = {
#define B2_METRIC_X(Sym, Name, K, S) {Name, Kind::K, Scope::S},
    B2_METRIC_LIST(B2_METRIC_X)
#undef B2_METRIC_X
};

inline constexpr const Desc &desc(Id I) { return Table[size_t(I)]; }

namespace detail {

constexpr bool isScalar(Kind K) { return K == Kind::Counter; }

/// Id -> slot within its storage class (scalar counters in one array,
/// timer/hist buckets in another).
inline constexpr auto Slots = [] {
  std::array<uint16_t, NumIds> A{};
  uint16_t C = 0, H = 0;
  for (size_t I = 0; I != NumIds; ++I)
    A[I] = isScalar(Table[I].K) ? C++ : H++;
  return A;
}();

inline constexpr size_t NumCounters = [] {
  size_t N = 0;
  for (const Desc &D : Table)
    if (isScalar(D.K))
      ++N;
  return N;
}();

inline constexpr size_t NumHists = NumIds - NumCounters;

} // namespace detail

/// 32-bucket log2 histogram: bucket i counts values in [2^i, 2^(i+1)),
/// value 0 lands in bucket 0, values >= 2^31 saturate into bucket 31.
/// Count and Sum are exact regardless of bucketing.
struct HistData {
  uint64_t Count = 0;
  uint64_t Sum = 0;
  std::array<uint64_t, 32> Buckets{};

  static unsigned bucketOf(uint64_t V) {
    if (V == 0)
      return 0;
    unsigned B = unsigned(std::bit_width(V)) - 1;
    return B > 31 ? 31 : B;
  }

  void record(uint64_t V) {
    ++Count;
    Sum += V;
    ++Buckets[bucketOf(V)];
  }

  void merge(const HistData &O) {
    Count += O.Count;
    Sum += O.Sum;
    for (size_t I = 0; I != Buckets.size(); ++I)
      Buckets[I] += O.Buckets[I];
  }

  bool operator==(const HistData &) const = default;
};

/// One accumulation sheet: the storage unit of both the thread-local
/// accumulators and the merged snapshot. Merging is pure addition, so
/// the merge order never changes the result.
struct Snapshot {
  std::array<uint64_t, detail::NumCounters> Counters{};
  std::array<HistData, detail::NumHists> Hists{};

  uint64_t counter(Id I) const { return Counters[detail::Slots[size_t(I)]]; }
  const HistData &hist(Id I) const {
    return Hists[detail::Slots[size_t(I)]];
  }

  void merge(const Snapshot &O) {
    for (size_t I = 0; I != Counters.size(); ++I)
      Counters[I] += O.Counters[I];
    for (size_t I = 0; I != Hists.size(); ++I)
      Hists[I].merge(O.Hists[I]);
  }

  /// Equality over the Det-scoped metrics only — the thread-count
  /// determinism contract. Nondet counters and all timers are ignored.
  bool deterministicEquals(const Snapshot &O) const;

  bool operator==(const Snapshot &) const = default;
};

/// Runtime kill-switch (default on). The bench overhead gate measures
/// the enabled-vs-disabled delta through this; disabling also freezes
/// the sheets so a measurement loop sees zero instrumentation writes.
bool enabledSlow();
void setEnabled(bool On);

/// Merged totals across every thread that ever recorded (exited threads
/// are folded into a graveyard on exit). Safe to call concurrently with
/// recording, but only quiescent-point snapshots are meaningful.
Snapshot snapshot();

/// Zeroes every live sheet and the graveyard. Call at a quiescent point
/// (no worker threads recording) — typically right before the measured
/// run whose metrics should stand alone.
void resetAll();

#if B2_METRICS

namespace detail {
extern std::atomic<bool> EnabledFlag;
extern thread_local uint32_t PauseDepth;
extern thread_local Snapshot *SheetPtr;
Snapshot &acquireSheet();
inline Snapshot &localSheet() {
  return SheetPtr ? *SheetPtr : acquireSheet();
}
} // namespace detail

inline bool enabled() {
  return detail::EnabledFlag.load(std::memory_order_relaxed);
}

/// Counter increment (Kind::Counter ids only).
inline void add(Id I, uint64_t N = 1) {
  if (!enabled() || detail::PauseDepth != 0)
    return;
  detail::localSheet().Counters[detail::Slots[size_t(I)]] += N;
}

/// Histogram/timer sample (Kind::Hist and Kind::Timer ids).
inline void record(Id I, uint64_t V) {
  if (!enabled() || detail::PauseDepth != 0)
    return;
  detail::localSheet().Hists[detail::Slots[size_t(I)]].record(V);
}

/// Suppresses recording on this thread for the scope's lifetime. Used
/// around cache-management work whose execution count depends on the
/// thread count (warm-boot capture), so Det metrics describe only the
/// deterministic per-shard work.
class PauseScope {
public:
  PauseScope() { ++detail::PauseDepth; }
  ~PauseScope() { --detail::PauseDepth; }
  PauseScope(const PauseScope &) = delete;
  PauseScope &operator=(const PauseScope &) = delete;
};

#else // !B2_METRICS

inline bool enabled() { return false; }
inline void add(Id, uint64_t = 1) {}
inline void record(Id, uint64_t) {}
class PauseScope {
public:
  PauseScope() {}
  ~PauseScope() {}
  PauseScope(const PauseScope &) = delete;
  PauseScope &operator=(const PauseScope &) = delete;
};

#endif // B2_METRICS

/// Monotonic wall clock in nanoseconds (for Timed and ad-hoc timing).
uint64_t nowNs();

/// Scoped wall-clock timer feeding a Kind::Timer metric.
class Timed {
public:
  explicit Timed(Id I) : I(I), Start(enabled() ? nowNs() : 0) {}
  ~Timed() {
    if (Start != 0)
      record(I, nowNs() - Start);
  }
  Timed(const Timed &) = delete;
  Timed &operator=(const Timed &) = delete;

private:
  Id I;
  uint64_t Start;
};

/// Renders \p S under schema b2stack-metrics-v1: Det-scoped metrics
/// under "deterministic" (bit-identical at any thread count), the rest
/// under "nondeterministic". Every registered metric appears, zeros
/// included, so two files always have the same key set.
std::string metricsJson(const Snapshot &S, const std::string &Tool);

/// snapshot() + metricsJson + support::writeFile. Returns false on I/O
/// failure.
bool writeMetricsFile(const std::string &Path, const std::string &Tool);

} // namespace metrics
} // namespace b2

#endif // B2_SUPPORT_METRICS_H
