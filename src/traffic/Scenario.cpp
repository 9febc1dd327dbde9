//===- traffic/Scenario.cpp - Seeded traffic scenario generators -------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "traffic/Scenario.h"

#include "devices/Net.h"
#include "support/Fnv.h"
#include "support/Rng.h"
#include "verify/FaultInjection.h"

#include <atomic>
#include <utility>

using namespace b2;
using namespace b2::traffic;

ScenarioGenerator::~ScenarioGenerator() = default;

uint64_t b2::traffic::streamDigest(const TrafficStream &S) {
  support::Fnv1a H;
  H.word(S.Frames.size());
  for (const devices::ScheduledFrame &F : S.Frames) {
    H.word(F.AtOp);
    H.word(F.Errored);
    H.word(F.Frame.size());
    for (uint8_t B : F.Frame)
      H.byte(B);
  }
  return H.Value;
}

namespace {

/// Hidden global state the TrafficGenUnseededFrame fault leaks into
/// frames. Strictly advancing, so regenerating the "same" seeded stream
/// while the fault is armed yields a different digest — which is exactly
/// the nondeterminism the stream-determinism adequacy stim detects. Only
/// touched when the fault is armed, so unrelated adequacy cells running
/// concurrently never race through it in a behavior-visible way.
std::atomic<uint64_t> UnseededCounter{0};

/// Applies the TrafficGenUnseededFrame fault to a freshly generated
/// frame: one payload byte comes from the global counter, not the seed.
void applyUnseededFault(std::vector<uint8_t> &Frame) {
  if (!fi::on(fi::Fault::TrafficGenUnseededFrame))
    return;
  uint64_t C = UnseededCounter.fetch_add(1, std::memory_order_relaxed);
  if (Frame.size() > devices::frame::CmdOffset + 1)
    Frame[devices::frame::CmdOffset + 1] = uint8_t(C);
  else if (!Frame.empty())
    Frame.back() = uint8_t(C ^ 0x5a);
}

/// Shared arrival-time stepping for the duty-cycle shape.
class ArrivalClock {
public:
  explicit ArrivalClock(const ArrivalPattern &A) : A(A), NextAtOp(A.FirstAtOp) {}

  uint64_t tick() {
    uint64_t At = NextAtOp;
    if (A.BurstLen == 0) {
      NextAtOp += A.OpSpacing;
    } else if (++InBurst >= A.BurstLen) {
      InBurst = 0;
      NextAtOp += A.GapOps;
    } else {
      NextAtOp += A.BurstSpacing;
    }
    return At;
  }

private:
  ArrivalPattern A;
  uint64_t NextAtOp;
  unsigned InBurst = 0;
};

/// Well-formed command frames only (random on/off, occasional valid
/// extra payload).
class ValidMixGen final : public ScenarioGenerator {
public:
  ValidMixGen(uint64_t Seed, const ArrivalPattern &A,
              devices::UdpFrameOptions Options = {})
      : Rng(Seed), Clock(A), Options(Options) {}

  devices::ScheduledFrame next() override {
    devices::ScheduledFrame F;
    F.AtOp = Clock.tick();
    bool On = Rng.flip();
    if (Rng.chance(1, 4)) {
      // A valid command frame with extra payload after the command byte
      // (the driver only inspects byte 0 of the UDP payload).
      std::vector<uint8_t> Payload(1 + Rng.below(32));
      Payload[0] = On ? 1 : 0;
      for (size_t I = 1; I < Payload.size(); ++I)
        Payload[I] = uint8_t(Rng.next64());
      F.Frame = devices::buildUdpFrame(Payload, Options);
    } else {
      F.Frame = devices::buildCommandFrame(On, Options);
    }
    applyUnseededFault(F.Frame);
    return F;
  }

private:
  support::Rng Rng;
  ArrivalClock Clock;
  devices::UdpFrameOptions Options;
};

/// The devices/Net packet fuzzer: valid commands mixed with frames
/// malformed at every layer, some arriving PHY-errored.
class AdversarialGen final : public ScenarioGenerator {
public:
  AdversarialGen(uint64_t Seed, const ArrivalPattern &A)
      : Fuzzer(Seed), Clock(A) {}

  devices::ScheduledFrame next() override {
    devices::PacketFuzzer::Generated G = Fuzzer.next();
    devices::ScheduledFrame F;
    F.AtOp = Clock.tick();
    F.Frame = std::move(G.Frame);
    F.Errored = G.MarkErrored;
    applyUnseededFault(F.Frame);
    return F;
  }

private:
  devices::PacketFuzzer Fuzzer;
  ArrivalClock Clock;
};

/// Merge-by-AtOp over inner generators, one lookahead frame each. Ties
/// break toward the lower generator index, so the merge is a pure
/// function of the inner streams.
class InterleaveGen final : public ScenarioGenerator {
public:
  explicit InterleaveGen(std::vector<std::unique_ptr<ScenarioGenerator>> Inner)
      : Inner(std::move(Inner)) {
    for (std::unique_ptr<ScenarioGenerator> &G : this->Inner)
      Pending.push_back(G->next());
  }

  devices::ScheduledFrame next() override {
    size_t Best = 0;
    for (size_t I = 1; I < Pending.size(); ++I)
      if (Pending[I].AtOp < Pending[Best].AtOp)
        Best = I;
    devices::ScheduledFrame F = std::move(Pending[Best]);
    Pending[Best] = Inner[Best]->next();
    return F;
  }

private:
  std::vector<std::unique_ptr<ScenarioGenerator>> Inner;
  std::vector<devices::ScheduledFrame> Pending;
};

/// Per-user identity: distinct locally administered MAC, 10.0.x.y source
/// address, and source port, all derived from the user id.
devices::UdpFrameOptions userIdentity(unsigned UserId) {
  devices::UdpFrameOptions O;
  O.SrcMac = {0x02, 0x00, 0x00, 0x00, uint8_t(UserId >> 8), uint8_t(UserId)};
  O.SrcIp = {10, 0, uint8_t(1 + (UserId >> 8)), uint8_t(2 + UserId)};
  O.SrcPort = uint16_t(4096 + UserId);
  return O;
}

} // namespace

const std::vector<ScenarioInfo> &b2::traffic::scenarioCatalog() {
  static const std::vector<ScenarioInfo> Catalog = {
      {"valid-mix", "well-formed command frames only"},
      {"adversarial", "packet-fuzzer mix: valid commands plus frames "
                      "malformed at every layer"},
      {"burst", "duty-cycle arrivals: dense bursts separated by idle gaps"},
      {"multi-user", "several seeded senders with distinct SrcIp/SrcPort, "
                     "interleaved by arrival op"},
  };
  return Catalog;
}

bool b2::traffic::isScenario(const std::string &Name) {
  for (const ScenarioInfo &S : scenarioCatalog())
    if (Name == S.Name)
      return true;
  return false;
}

TrafficStream b2::traffic::generateScenario(const std::string &Name,
                                            const ScenarioOptions &Options) {
  std::unique_ptr<ScenarioGenerator> Gen;
  if (Name == "valid-mix") {
    Gen = std::make_unique<ValidMixGen>(Options.Seed, Options.Arrival);
  } else if (Name == "adversarial") {
    Gen = std::make_unique<AdversarialGen>(Options.Seed, Options.Arrival);
  } else if (Name == "burst") {
    ArrivalPattern A = Options.Arrival;
    if (A.BurstLen == 0)
      A.BurstLen = 6; // Default duty cycle: 6 back-to-back, then idle.
    // Alternate valid and adversarial bursts so the duty cycle also
    // exercises the RecvInvalid spec alternative under pressure.
    std::vector<std::unique_ptr<ScenarioGenerator>> Inner;
    Inner.push_back(std::make_unique<ValidMixGen>(Options.Seed, A));
    ArrivalPattern B = A;
    B.FirstAtOp += A.BurstSpacing / 2 + 1;
    Inner.push_back(
        std::make_unique<AdversarialGen>(Options.Seed ^ 0xb5297a4d, B));
    Gen = std::make_unique<InterleaveGen>(std::move(Inner));
  } else if (Name == "multi-user") {
    unsigned Users = Options.Users ? Options.Users : 1;
    std::vector<std::unique_ptr<ScenarioGenerator>> Inner;
    for (unsigned U = 0; U < Users; ++U) {
      ArrivalPattern A = Options.Arrival;
      // Stagger user start times so streams genuinely interleave rather
      // than marching in lockstep.
      A.FirstAtOp += (A.OpSpacing / Users) * U;
      // One simulated user: its own seed and SrcIp / SrcPort identity.
      Inner.push_back(std::make_unique<ValidMixGen>(
          Options.Seed ^ (0x9e3779b97f4a7c15ull * (U + 1)), A,
          userIdentity(U)));
    }
    Gen = std::make_unique<InterleaveGen>(std::move(Inner));
  } else {
    return {}; // Callers check isScenario() first; empty stream otherwise.
  }

  TrafficStream S;
  S.Frames.reserve(Options.Frames);
  for (uint64_t I = 0; I < Options.Frames; ++I)
    S.Frames.push_back(Gen->next());
  return S;
}
