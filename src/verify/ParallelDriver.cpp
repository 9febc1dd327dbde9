//===- verify/ParallelDriver.cpp - Sharded verification fleet ---------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/ParallelDriver.h"

#include "support/Fnv.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

using namespace b2;
using namespace b2::verify;

std::vector<uint64_t> b2::verify::fleetSeeds(uint64_t BaseSeed, size_t N) {
  std::vector<uint64_t> Seeds(N);
  uint64_t State = BaseSeed;
  for (size_t I = 0; I != N; ++I) {
    // splitmix64: the same stream for the same base seed, forever.
    State += 0x9e3779b97f4a7c15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    Seeds[I] = Z ^ (Z >> 31);
  }
  return Seeds;
}

uint64_t b2::verify::traceDigest(const riscv::MmioTrace &T) {
  support::Fnv1a H;
  for (const riscv::MmioEvent &E : T) {
    H.word(E.IsStore);
    H.word(E.Addr);
    H.word(E.Value);
    H.word(E.Size);
  }
  return H.Value;
}

FleetReport b2::verify::runShards(const std::vector<uint64_t> &Seeds,
                                  unsigned Threads, const ShardWork &Work) {
  FleetReport Report;
  Report.Threads = Threads == 0 ? 1 : Threads;
  Report.Shards.resize(Seeds.size());
  support::parallelFor(Seeds.size(), Report.Threads, [&](size_t I) {
    metrics::add(metrics::Id::VerifyShards);
    metrics::Timed T(metrics::Id::VerifyShardWall);
    ShardResult R = Work(I, Seeds[I]);
    R.Index = I;
    R.Seed = Seeds[I];
    Report.Shards[I] = std::move(R);
  });
  return Report;
}

FleetReport b2::verify::endToEndFuzzFleet(const compiler::CompiledProgram &Prog,
                                          const E2EOptions &Options,
                                          const std::vector<uint64_t> &Seeds,
                                          unsigned FramesPerScenario,
                                          unsigned Threads) {
  return runShards(Seeds, Threads, [&](size_t, uint64_t Seed) {
    E2EScenario S = fuzzScenario(Seed, FramesPerScenario);
    E2EResult E = runCompiledEndToEnd(Prog, S, Options);
    ShardResult R;
    R.Ok = E.Ok;
    R.Error = E.Error;
    R.Retired = E.Retired;
    R.Cycles = E.Cycles;
    R.TraceHash = traceDigest(E.Trace);
    return R;
  });
}

FleetReport b2::verify::compilerDiffFleet(
    const std::function<bedrock2::Program(uint64_t)> &ProgramForSeed,
    const std::string &Fn, const std::vector<Word> &Args,
    const DiffOptions &Options, const std::vector<uint64_t> &Seeds,
    unsigned Threads) {
  return runShards(Seeds, Threads, [&](size_t, uint64_t Seed) {
    bedrock2::Program P = ProgramForSeed(Seed);
    DiffResult D = diffCompilePure(P, Fn, Args, Options);
    ShardResult R;
    R.Ok = D.Ok;
    R.Error = D.Error;
    R.Retired = D.MachineRetired;
    R.TraceHash = traceDigest(D.MachineTrace);
    return R;
  });
}

FleetReport b2::verify::lockstepFleet(
    const std::function<std::vector<uint8_t>(uint64_t)> &ImageForSeed,
    DeviceFactory MakeDevice, const LockstepOptions &Options,
    const std::vector<uint64_t> &Seeds, unsigned Threads) {
  return runShards(Seeds, Threads, [&](size_t, uint64_t Seed) {
    std::vector<uint8_t> Image = ImageForSeed(Seed);
    LockstepResult L = lockstep(Image, ~Word(0), MakeDevice, Options);
    ShardResult R;
    R.Ok = L.Ok;
    R.Error = L.Error;
    R.Retired = L.Retired;
    R.Cycles = L.Cycles;
    return R;
  });
}
