//===- verify/Adequacy.cpp - Checker-adequacy campaign ----------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Each checker column below carries a small battery of *directed* stimuli:
// programs, images, or scenarios constructed so that every fault owned by
// that column changes an observable the column compares. The batteries
// double as the baseline row — with no fault armed, every stimulus must
// pass on the same binary, which is the no-false-positive property.
//
//===----------------------------------------------------------------------===//

#include "verify/Adequacy.h"

#include "bedrock2/ExtSpec.h"
#include "bedrock2/Parser.h"
#include "bedrock2/Semantics.h"
#include "devices/Net.h"
#include "devices/Platform.h"
#include "isa/Build.h"
#include "isa/Encoding.h"
#include "kami/PipeEngine.h"
#include "riscv/BlockEngine.h"
#include "riscv/Machine.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "traffic/Checkpoint.h"
#include "traffic/Pcap.h"
#include "traffic/Scenario.h"
#include "traffic/Soak.h"
#include "verify/CompilerDiff.h"
#include "verify/DecodeConsistency.h"
#include "verify/EndToEnd.h"
#include "verify/Lockstep.h"
#include "verify/Refinement.h"
#include "vc/Vc.h"

#include <functional>

using namespace b2;
using namespace b2::verify;

// -- Checker names -----------------------------------------------------------

const char *b2::verify::checkerName(Checker C) {
  switch (C) {
  case Checker::CompilerDiff:
    return "CompilerDiff";
  case Checker::InterpDiff:
    return "InterpDiff";
  case Checker::Lockstep:
    return "Lockstep";
  case Checker::Refinement:
    return "Refinement";
  case Checker::EndToEnd:
    return "EndToEnd";
  case Checker::DecodeConsistency:
    return "DecodeConsistency";
  case Checker::SoakMonitor:
    return "SoakMonitor";
  case Checker::SnapDiff:
    return "SnapDiff";
  case Checker::BlockDiff:
    return "BlockDiff";
  case Checker::VcCheck:
    return "VcCheck";
  case Checker::NumCheckers:
    break;
  }
  return "?";
}

bool b2::verify::checkerByName(const std::string &Name, Checker &Out) {
  for (unsigned I = 0; I != NumCheckers; ++I)
    if (Name == checkerName(Checker(I))) {
      Out = Checker(I);
      return true;
    }
  return false;
}

namespace {

/// One directed stimulus: Run returns true iff the checker *failed* on it
/// (a kill when a fault is armed; a false positive when none is).
struct Stim {
  const char *Name;
  std::function<bool(std::string &Detail)> Run;
};

std::string truncated(std::string S) {
  constexpr size_t Max = 200;
  if (S.size() > Max) {
    S.resize(Max);
    S += "...";
  }
  return S;
}

DeviceFactory noDev() {
  return [] { return std::make_unique<riscv::NoDevice>(); };
}

// -- CompilerDiff column -----------------------------------------------------
//
// Kill criterion: the diff fails outright, OR the source side faults on a
// program that is UB-free by construction (diffCompile treats source UB as
// vacuous, so footprint-accounting faults surface through Source.ok()).

bool compilerDiffFails(const char *Src, const char *Fn,
                       const std::vector<Word> &Args, std::string &Detail,
                       std::vector<std::pair<Word, Word>> OwnRegions = {}) {
  bedrock2::ParseResult P = bedrock2::parseProgram(Src);
  if (!P.ok()) {
    Detail = "stimulus parse error: " + P.Error;
    return true;
  }
  DiffOptions O;
  O.OwnRegions = std::move(OwnRegions);
  DiffResult D = diffCompilePure(*P.Prog, Fn, Args, O);
  if (!D.Ok) {
    Detail = D.Error;
    return true;
  }
  if (!D.Source.ok()) {
    Detail = "source-side fault on UB-free stimulus: " + D.Source.Detail;
    return true;
  }
  return false;
}

std::vector<Stim> compilerDiffStims() {
  return {
      // Several simultaneously live register-allocated variables whose
      // values must stay distinct (regalloc aliasing).
      {"live-vars", [](std::string &D) {
         return compilerDiffFails(
             "fn f(a, b) -> (r) { x = a + 1; y = b + 2; z = x ^ y;"
             "  w = x + y; r = z * 31 + w * 7 + x * 3 + y; }",
             "f", {5, 9}, D);
       }},
      // A byte load of a value with bit 7 set (lbu vs. lb).
      {"byte-load", [](std::string &D) {
         return compilerDiffFails(
             "fn f() -> (r) { stackalloc b[4] {"
             "  store4(b, 0x9C); r = load1(b); } }",
             "f", {}, D);
       }},
      // A counted loop (conditional-branch offsets).
      {"loop-branches", [](std::string &D) {
         return compilerDiffFails(
             "fn f(n) -> (r) { r = 0; i = 0;"
             "  while (i < n) { r = r + i * i; i = i + 1; } }",
             "f", {6}, D);
       }},
      // Dirty stack reuse: g1 scribbles a 64-byte stretch of stack that a
      // later same-depth call's (smaller, differently-placed) stackalloc
      // frame falls inside; g2 must still read the zeros the source
      // semantics guarantee.
      {"stackalloc-zeroing", [](std::string &D) {
         return compilerDiffFails(
             "fn g1() -> (r) { stackalloc b[64] { i = 0;"
             "  while (i < 64) { store4(b + i, 0x5A5A5A5A); i = i + 4; }"
             "  r = load4(b); } }"
             "fn g2() -> (r) { stackalloc c[16] {"
             "  r = load4(c) + load4(c + 4) + load4(c + 8) + load4(c + 12);"
             "} }"
             "fn f() -> (r) { a = g1(); b = g2(); r = b; }",
             "f", {}, D);
       }},
      // A value live across a call, with a callee that needs the same
      // callee-saved register (prologue/epilogue save discipline).
      {"live-across-call", [](std::string &D) {
         return compilerDiffFails(
             "fn bottom(x) -> (r) { r = x * 2 + 1; }"
             "fn mid(x) -> (r) { m = x * 7 + 5; u = bottom(x);"
             "  r = m + u * 3; }"
             "fn f(a) -> (r) { s = a * 5 + 1; t = mid(a);"
             "  r = s * 100 + t; }",
             "f", {3}, D);
       }},
      // A constant needing the full lui+addi pair (immediate truncation).
      {"wide-immediate", [](std::string &D) {
         return compilerDiffFails("fn f(a) -> (r) { r = a + 0x12345678; }",
                                  "f", {1}, D);
       }},
      // Two adjacent static grants (OwnRegions pairs are {addr, len})
      // that must coalesce into one interval: the store touches the
      // union's last byte, so a merge that drops it faults the source
      // side of a UB-free program.
      {"adjacent-grants", [](std::string &D) {
         return compilerDiffFails(
             "fn f() -> (r) { store4(0x8004, 7); r = load4(0x8004); }", "f",
             {}, D, {{0x8000, 4}, {0x8004, 4}});
       }},
  };
}

// -- InterpDiff column -------------------------------------------------------
//
// Runs each program in ExecMode::Differential: the AST walker and the
// bytecode engine must produce bit-identical ExecResults (returns, trace,
// fault, StepsUsed, DivByZeroCount). Kill criterion: any divergence.

bool interpDiffFails(const char *Src, const char *Fn,
                     const std::vector<Word> &Args, std::string &Detail) {
  bedrock2::ParseResult P = bedrock2::parseProgram(Src);
  if (!P.ok()) {
    Detail = "stimulus parse error: " + P.Error;
    return true;
  }
  riscv::NoDevice Dev;
  bedrock2::MmioExtSpec Ext(Dev, 64 * 1024);
  // Modest fuel: a fault that breaks a loop counter turns the loop into a
  // runaway, and the OutOfFuel-vs-done divergence should surface quickly.
  bedrock2::Interp I(*P.Prog, Ext, /*Fuel=*/200'000, {},
                     bedrock2::ExecMode::Differential);
  (void)I.callFunction(Fn, Args);
  if (I.divergenceCount() != 0) {
    Detail = I.divergence();
    return true;
  }
  return false;
}

std::vector<Stim> interpDiffStims() {
  return {
      // Countdown loop: a Sub latch (`i = i - 1`) under a variable loop
      // test, covering the loop charges and assignments from Binop.
      {"countdown-loop", [](std::string &D) {
         return interpDiffFails(
             "fn f() -> (r) { r = 0; i = 8;"
             "  while (i) { r = r + i; i = i - 1; } }",
             "f", {}, D);
       }},
      // Comparison-headed loop (a Binop result feeding the loop's
      // JumpIfZero).
      {"counted-loop", [](std::string &D) {
         return interpDiffFails(
             "fn f() -> (r) { r = 0; i = 0;"
             "  while (i < 10) { r = r + 2; i = i + 1; } }",
             "f", {}, D);
       }},
      // Division and remainder by zero (DivByZeroCount bookkeeping), with
      // divisors read from a variable and from memory; all four go
      // through the one Binop handler.
      {"div-by-zero", [](std::string &D) {
         return interpDiffFails(
             "fn f(a, b) -> (r) { stackalloc p[4] {"
             "  r = a / load4(p) + a % load4(p) + a / b + a % b; } }",
             "f", {7, 0}, D);
       }},
      // Last word of an 8-byte stackalloc: a skewed base faults the
      // bytecode engine's store while the walker succeeds.
      {"alloc-edge", [](std::string &D) {
         return interpDiffFails("fn f() -> (r) { stackalloc p[8] {"
                                "  store4(p + 4, 9); r = load4(p + 4); } }",
                                "f", {}, D);
       }},
      // Nested control flow inside a counting loop (charge accounting on
      // both if-branch shapes).
      {"nested-if-loop", [](std::string &D) {
         return interpDiffFails(
             "fn f(n) -> (r) { r = 0; i = n;"
             "  while (i) { if (i & 1) { r = r + 3; } i = i - 1; } }",
             "f", {9}, D);
       }},
  };
}

// -- Lockstep column ---------------------------------------------------------
//
// Hand-assembled images (no compiler in the loop, so compiler faults
// cannot blur attribution). Every stimulus is UB-free by construction:
// simulator UB counts as a kill alongside any lockstep mismatch.

bool lockstepFails(const std::vector<isa::Instr> &P, std::string &Detail,
                   uint64_t MaxRetired = 10'000) {
  std::vector<uint8_t> Image = isa::instrencode(P);
  LockstepOptions O;
  O.MaxRetired = MaxRetired;
  O.MemoryCheckEvery = 16;
  LockstepResult R = lockstep(Image, Word(Image.size()), noDev(), O);
  if (!R.Ok) {
    Detail = R.Error;
    return true;
  }
  if (R.SimulatorHitUb) {
    Detail = std::string("simulator UB on a UB-free stimulus: ") +
             riscv::ubKindName(R.Ub);
    return true;
  }
  return false;
}

std::vector<Stim> lockstepStims() {
  using namespace isa;
  return {
      // Arithmetic right shifts of a negative value (sra and srai).
      {"shifts", [](std::string &D) {
         std::vector<Instr> P;
         materialize(0x80000000, A1, P);
         P.push_back(mkI(Opcode::Srai, A2, A1, 4));
         P.push_back(addi(A4, Zero, 9));
         P.push_back(mkR(Opcode::Sra, A3, A1, A4));
         return lockstepFails(P, D);
       }},
      // Signed branch on mixed-sign operands.
      {"signed-branch", [](std::string &D) {
         std::vector<Instr> P;
         P.push_back(addi(A1, Zero, -1));
         P.push_back(addi(A2, Zero, 1));
         P.push_back(mkB(Opcode::Blt, A1, A2, 8)); // Skip the next instr.
         P.push_back(addi(A3, Zero, 111));
         P.push_back(addi(A4, Zero, 222));
         return lockstepFails(P, D);
       }},
      // Sign-extending loads of negative halfword and byte values.
      {"signed-loads", [](std::string &D) {
         std::vector<Instr> P;
         materialize(0x00008180, A1, P);
         P.push_back(sw(Zero, A1, 0x200));
         P.push_back(mkI(Opcode::Lh, A2, Zero, 0x200));
         P.push_back(mkI(Opcode::Lb, A3, Zero, 0x201)); // Byte 0x81.
         P.push_back(mkI(Opcode::Lbu, A4, Zero, 0x201));
         return lockstepFails(P, D);
       }},
      // Signed set-less-than on mixed-sign operands.
      {"signed-slt", [](std::string &D) {
         std::vector<Instr> P;
         P.push_back(addi(A1, Zero, -1));
         P.push_back(addi(A2, Zero, 1));
         P.push_back(mkR(Opcode::Slt, A3, A1, A2));
         P.push_back(mkI(Opcode::Slti, A4, A1, 1));
         return lockstepFails(P, D);
       }},
      // A byte store into a word that already holds other live bytes.
      {"subword-store", [](std::string &D) {
         std::vector<Instr> P;
         materialize(0x11223344, A1, P);
         P.push_back(sw(Zero, A1, 0x100));
         P.push_back(addi(A2, Zero, 0x5A));
         P.push_back(mkS(Opcode::Sb, Zero, A2, 0x100));
         P.push_back(lw(A3, Zero, 0x100));
         return lockstepFails(P, D);
       }},
      // Code living in the upper half of RAM (reset-time I$ fill reach).
      {"upper-half-code", [](std::string &D) {
         std::vector<Instr> P;
         constexpr Word High = 48 * 1024;
         P.push_back(jal(Zero, High));
         P.resize(High / 4, nop());
         P.push_back(addi(A0, Zero, 41));
         P.push_back(addi(A0, A0, 1));
         return lockstepFails(P, D);
       }},
  };
}

// -- Refinement column -------------------------------------------------------

bool refinementFails(const std::vector<isa::Instr> &P,
                     const kami::PipeConfig &Pipe, uint64_t Retirements,
                     std::string &Detail) {
  RefinementOptions O;
  O.Pipe = Pipe;
  O.Retirements = Retirements;
  RefinementResult R = checkRefinement(isa::instrencode(P), noDev(), O);
  if (!R.Ok) {
    Detail = R.Error;
    return true;
  }
  return false;
}

std::vector<Stim> refinementStims() {
  using namespace isa;
  return {
      // A tight counted loop: every backward branch the BTB has not yet
      // learned mispredicts, putting a wrong-path instruction in the
      // decode latch that must be squashed.
      {"btb-mispredicts", [](std::string &D) {
         std::vector<Instr> P;
         P.push_back(addi(A0, Zero, 0));
         P.push_back(addi(A1, Zero, 6));
         P.push_back(addi(A0, A0, 1));              // Loop head.
         P.push_back(mkB(Opcode::Blt, A0, A1, -4)); // Back to the head.
         P.push_back(addi(A2, Zero, 55));           // Wrong-path fodder.
         P.push_back(addi(A3, Zero, 66));
         kami::PipeConfig Pipe;
         return refinementFails(P, Pipe, /*Retirements=*/24, D);
       }},
      // Load-use sequences under the forwarding network: a load result
      // must come from memory, never from the stale WB ALU latch.
      {"load-use-forwarding", [](std::string &D) {
         std::vector<Instr> P;
         P.push_back(addi(A1, Zero, 0x300));
         materialize(0x5A5A, A2, P);
         P.push_back(sw(A1, A2, 0));
         P.push_back(addi(A6, Zero, 99)); // Refresh the ALU latch.
         P.push_back(lw(A3, A1, 0));
         P.push_back(mkR(Opcode::Add, A4, A3, A3)); // Back-to-back use.
         P.push_back(lw(A5, A1, 0));
         P.push_back(nop());
         P.push_back(mkR(Opcode::Add, A7, A5, A5)); // One-gap use.
         kami::PipeConfig Pipe;
         Pipe.EnableForwarding = true;
         return refinementFails(P, Pipe, /*Retirements=*/16, D);
       }},
  };
}

// -- EndToEnd column ---------------------------------------------------------
//
// The ISA-simulator substrate keeps the column fast; the device models and
// the firmware — where this column's owned faults live — are identical
// across substrates.

bool e2eFails(const E2EScenario &S, std::string &Detail) {
  E2EOptions O;
  O.Core = traffic::SoakCore::IsaSim;
  O.MaxCycles = 60'000'000;
  E2EResult R = runLightbulbEndToEnd(S, O);
  if (!R.Ok) {
    Detail = R.Error.empty() ? "end-to-end check failed" : R.Error;
    return true;
  }
  return false;
}

std::vector<Stim> endToEndStims() {
  using namespace devices;
  return {
      // One valid ON command, then a headers-only 42-byte frame: exactly
      // one byte short of carrying a command, so a length overcount makes
      // the firmware actuate on it while the ground truth says ignore.
      {"on-then-runt", [](std::string &D) {
         E2EScenario S;
         S.Frames.push_back(ScheduledFrame{4000, buildCommandFrame(true)});
         S.Frames.push_back(ScheduledFrame{14000, buildUdpFrame({})});
         return e2eFails(S, D);
       }},
      // A maximum-length valid command frame (1536 bytes): one byte of
      // reported overcount crosses the driver's acceptance bound.
      {"max-length-frame", [](std::string &D) {
         std::vector<uint8_t> Payload(frame::MaxFrameLen - frame::CmdOffset);
         Payload[0] = 1; // Command: on.
         for (size_t I = 1; I != Payload.size(); ++I)
           Payload[I] = uint8_t(I * 7);
         E2EScenario S;
         S.Frames.push_back(ScheduledFrame{4000, buildUdpFrame(Payload)});
         return e2eFails(S, D);
       }},
      // ON then OFF: the minimal cross-frame sequence. Kills bugs whose
      // trigger is state leaked between frames (the cross-frame RX latch
      // eats the OFF, so the light never turns back off).
      {"on-then-off", [](std::string &D) {
         E2EScenario S;
         S.Frames.push_back(ScheduledFrame{4000, buildCommandFrame(true)});
         S.Frames.push_back(ScheduledFrame{14000, buildCommandFrame(false)});
         return e2eFails(S, D);
       }},
      // Adversarial mix from the packet fuzzer.
      {"fuzz-mix", [](std::string &D) {
         return e2eFails(fuzzScenario(/*Seed=*/0xADE4, /*NumFrames=*/5), D);
       }},
  };
}

// -- DecodeConsistency column ------------------------------------------------

std::vector<Stim> decodeConsistencyStims() {
  using namespace isa;
  return {
      // Directed instruction words; srai is the one whose I-immediate and
      // 5-bit shamt differ (funct7 = 0100000 rides in the upper bits).
      {"directed-raws", [](std::string &D) {
         const Word Raws[] = {
             0x00000013, // nop
             encode(mkI(Opcode::Srai, A0, A0, 31)),
             encode(mkI(Opcode::Srli, A0, A0, 31)),
             encode(mkI(Opcode::Slli, A0, A0, 17)),
             encode(mkR(Opcode::Sra, A0, A1, A2)),
             encode(mkR(Opcode::Slt, A0, A1, A2)),
             encode(mkI(Opcode::Lb, A0, A1, -4)),
             encode(mkS(Opcode::Sb, A0, A1, 12)),
             encode(mkB(Opcode::Blt, A0, A1, -8)),
         };
         for (Word Raw : Raws)
           if (!decodeAgrees(Raw, D))
             return true;
         return false;
       }},
      // Shared execute logic on edge operands (sign bits, shift ranges).
      {"exec-edges", [](std::string &D) {
         const Word Sra = encode(mkR(Opcode::Sra, A0, A1, A2));
         const Word Slt = encode(mkR(Opcode::Slt, A0, A1, A2));
         const Word Lb = encode(mkI(Opcode::Lb, A0, A1, 0));
         return !execAgrees(Sra, 0x80000000, 31, D) ||
                !execAgrees(Sra, 0x80000000, 1, D) ||
                !execAgrees(Slt, Word(-1), 1, D) ||
                !execAgrees(Slt, 1, Word(-1), D) ||
                !execAgrees(Lb, 0x80, 0, D) || !execAgrees(Lb, 0x7F, 0, D);
       }},
      // Randomized sweep (seeded; includes the exhaustive opcode pass).
      {"sweep", [](std::string &D) {
         std::string Report;
         uint64_t Bad = sweepDecodeConsistency(/*Samples=*/20'000,
                                               /*Seed=*/7, Report);
         if (Bad != 0) {
           D = Report;
           return true;
         }
         return false;
       }},
  };
}

// -- SoakMonitor column ------------------------------------------------------
//
// The traffic layer's own checks: seeded scenario generation must be
// reproducible, the pcap codec must round-trip byte-exactly, and the
// streaming goodHlTrace monitor must consume exactly the events the
// machine produced. Each stim is an executable statement of a property
// the soak harness's results silently depend on.

std::vector<Stim> soakMonitorStims() {
  return {
      // Same seed, same scenario options — the generated stream must be
      // identical. TrafficGenUnseededFrame taints generation with a
      // process-global counter, so the second stream diverges.
      {"stream-determinism", [](std::string &D) {
         traffic::ScenarioOptions O;
         O.Seed = 11;
         O.Frames = 24;
         uint64_t A = traffic::streamDigest(
             traffic::generateScenario("valid-mix", O));
         uint64_t B = traffic::streamDigest(
             traffic::generateScenario("valid-mix", O));
         if (A != B) {
           D = "same-seed valid-mix streams have different digests";
           return true;
         }
         return false;
       }},
      // Encode then decode a stream whose largest frame exceeds 64 bytes
      // (TrafficPcapTruncateWrite short-writes exactly those), and whose
      // schedule exercises both the timestamp mapping and the Errored
      // side-channel bit.
      {"pcap-roundtrip", [](std::string &D) {
         std::vector<devices::ScheduledFrame> In;
         In.push_back({2000, devices::buildCommandFrame(true), false});
         In.push_back(
             {5'000'000, devices::buildUdpFrame(std::vector<uint8_t>(40, 0xab)),
              false});
         In.push_back({8000, devices::buildCommandFrame(false), true});
         std::vector<devices::ScheduledFrame> Out;
         std::string Err;
         if (!traffic::decodePcap(traffic::encodePcap(In), Out, Err)) {
           D = "decode failed: " + Err;
           return true;
         }
         if (Out.size() != In.size()) {
           D = "frame count changed across the pcap round trip";
           return true;
         }
         for (size_t I = 0; I != In.size(); ++I)
           if (Out[I].AtOp != In[I].AtOp || Out[I].Errored != In[I].Errored ||
               Out[I].Frame != In[I].Frame) {
             D = "frame " + std::to_string(I) +
                 " changed across the pcap round trip";
             return true;
           }
         return false;
       }},
      // A short healthy soak on the ISA simulator: the run must pass, and
      // the streaming monitor must have consumed every MMIO event the
      // machine emitted. TrafficMonitorDropEvent silently skips events,
      // which either desynchronizes the counts or trips a spurious
      // violation — both are kills.
      {"monitor-offline-agreement", [](std::string &D) {
         compiler::CompileResult C = traffic::compileSoakFirmware();
         if (!C.ok()) {
           D = "firmware compilation failed: " + C.Error;
           return true;
         }
         traffic::ScenarioOptions G;
         G.Seed = 5;
         G.Frames = 8;
         traffic::TrafficStream S = traffic::generateScenario("valid-mix", G);
         traffic::SoakOptions O;
         O.Core = traffic::SoakCore::IsaSim;
         traffic::ShardStats R = traffic::runSoakShard(*C.Prog, S.Frames, O);
         if (!R.Ok) {
           D = R.Error.empty() ? "soak shard failed" : R.Error;
           return true;
         }
         if (R.MonitorEventsSeen != R.MmioEvents) {
           D = "streaming monitor consumed " +
               std::to_string(R.MonitorEventsSeen) + " of " +
               std::to_string(R.MmioEvents) + " trace events";
           return true;
         }
         return false;
       }},
  };
}

// -- SnapDiff column ---------------------------------------------------------
//
// The checkpoint layer's bit-identity contract, checked directly: run a
// short soak straight through, snapshot the whole machine at a chosen
// injection depth, restore the snapshot into a fresh machine, resume,
// and demand identical stats, trace hash, light history, and delivered
// frames. A deterministic fault in the *simulated system* perturbs both
// runs equally and never trips this column; only a fault in the
// checkpoint layer itself (SnapStateStaleLatch corrupts one restored SPI
// latch) makes the resumed run diverge. Kept on the ISA simulator so the
// full 38-fault matrix stays cheap; the fuzz tests cover all three cores.

bool snapDiffFails(uint64_t Seed, uint64_t Frames, size_t Depth,
                   std::string &Detail) {
  compiler::CompileResult C = traffic::compileSoakFirmware();
  if (!C.ok()) {
    Detail = "firmware compilation failed: " + C.Error;
    return true;
  }
  traffic::ScenarioOptions G;
  G.Seed = Seed;
  G.Frames = Frames;
  traffic::TrafficStream S = traffic::generateScenario("valid-mix", G);
  traffic::SoakOptions O;
  O.Core = traffic::SoakCore::IsaSim;
  traffic::SnapshotDifferential D =
      traffic::runSnapshotDifferential(*C.Prog, S.Frames, O, Depth);
  if (!D.Identical) {
    Detail = "snapshot-resumed run diverged at depth " +
             std::to_string(Depth) + ": " + D.Detail;
    return true;
  }
  return false;
}

std::vector<Stim> snapDiffStims() {
  return {
      // Restore immediately after the first injection: the longest
      // resumed tail, so any restored-state corruption has maximal time
      // to surface.
      {"resume-after-first-inject", [](std::string &D) {
         return snapDiffFails(/*Seed=*/21, /*Frames=*/8, /*Depth=*/1, D);
       }},
      // Mid-stream and late checkpoints on a different seed (latch
      // timing at the snapshot point differs per depth).
      {"resume-depth-sweep", [](std::string &D) {
         return snapDiffFails(/*Seed=*/77, /*Frames=*/8, /*Depth=*/4, D) ||
                snapDiffFails(/*Seed=*/77, /*Frames=*/8, /*Depth=*/7, D);
       }},
  };
}

// -- BlockDiff column --------------------------------------------------------
//
// Each fast engine checked in lockstep against its reference
// (ExecMode::Differential). The superblock trace engine
// (riscv/BlockEngine.h) runs hand-assembled programs against the
// reference stepper, and any mismatch in registers, pc, RAM, UB verdict,
// retirement count, or MMIO events is a kill; those stimuli are chosen so
// every engine fast path — fused addi/branch counters, fused addi/addi
// pointer bumps, inline word loads and stores, block linking, and the
// stale-superblock invalidation discipline — changes an observable the
// lockstep compares. The pipelined core's instruction-stepped engine
// (kami/PipeEngine.h) runs an MMIO loop against tick() on a shadow core,
// and any mismatch in the whole core state — cycle counts and stall
// counters, latches, BTB, labels with their cycles — or the BRAM is a
// kill.

bool blockDiffFails(const std::vector<isa::Instr> &P, std::string &Detail,
                    uint64_t MaxSteps = 20'000, uint64_t Chunk = 97) {
  std::vector<uint8_t> Image = isa::instrencode(P);
  riscv::Machine M(64 * 1024);
  M.loadImage(0, Image);
  riscv::NoDevice Dev;
  riscv::BlockEngine E(M, Dev, riscv::ExecMode::Differential);
  uint64_t Done = 0;
  while (Done < MaxSteps && !M.hasUb() && E.divergences() == 0) {
    uint64_t R = E.run(std::min<uint64_t>(Chunk, MaxSteps - Done));
    Done += R;
    if (R == 0)
      break;
  }
  if (E.divergences() != 0) {
    Detail = E.divergenceDetail();
    return true;
  }
  return false;
}

bool pipeDiffFails(const std::vector<isa::Instr> &P, std::string &Detail,
                   uint64_t Cycles = 40'000) {
  kami::Bram Mem(64 * 1024);
  Mem.loadImage(isa::instrencode(P));
  riscv::NoDevice Dev;
  kami::PipelinedCore Core(Mem, Dev);
  kami::PipeEngine E(Core, riscv::ExecMode::Differential);
  // Chunk sizes wander over 1..996 cycles, so boundaries land inside RAW
  // and MMIO stalls and the latches are rebuilt mid-flight.
  for (uint64_t Chunk = 1; Core.cycles() < Cycles && E.divergences() == 0;
       Chunk = Chunk * 7 % 997)
    E.run(Chunk);
  if (E.divergences() != 0) {
    Detail = E.divergenceDetail();
    return true;
  }
  return false;
}

std::vector<Stim> blockDiffStims() {
  using namespace isa;
  return {
      // A hot counter loop: the addi/bne pair fuses, and the branch reads
      // the register the addi just wrote — the exact shape the fused-op
      // clobber fault perturbs.
      {"hot-counter-loop", [](std::string &D) {
         std::vector<Instr> P;
         P.push_back(addi(A0, Zero, 0));
         P.push_back(addi(A1, Zero, 400));
         P.push_back(addi(A0, A0, 1));               // Loop head.
         P.push_back(mkB(Opcode::Bne, A0, A1, -4));  // Fuses with the addi.
         P.push_back(jal(Zero, 0));                  // Halt spin.
         return blockDiffFails(P, D);
       }},
      // A word-copy loop: inline lw and sw, fused addi/addi cursor bumps,
      // and a trailing counter that keeps the block hot across many
      // passes of linked execution.
      {"copy-loop", [](std::string &D) {
         std::vector<Instr> P;
         P.push_back(addi(A1, Zero, 0x400)); // Source cursor.
         P.push_back(addi(A2, Zero, 0x600)); // Destination cursor.
         P.push_back(addi(A3, Zero, 64));    // Words to copy.
         P.push_back(lw(A4, A1, 0));         // Loop head.
         P.push_back(sw(A2, A4, 0));
         P.push_back(addi(A1, A1, 4));
         P.push_back(addi(A2, A2, 4));
         P.push_back(addi(A3, A3, -1));
         P.push_back(mkB(Opcode::Bne, A3, Zero, -20));
         P.push_back(jal(Zero, 0));          // Halt spin.
         return blockDiffFails(P, D);
       }},
      // The section-5.6 hazard against a *hot, translated* loop: run the
      // loop until its superblock exists, patch the victim instruction,
      // and re-enter. The reference semantics hit FetchNotExecutable at
      // the patched word (the store revoked execute permission); a stale
      // superblock sails past it without fetching — the divergence the
      // stale-superblock fault is built to cause.
      {"patch-refetch-hot", [](std::string &D) {
         std::vector<Instr> P;
         Word NewWord = encode(addi(A0, A0, 2));
         materialize(NewWord, A4, P);        // 2 instructions.
         P.push_back(addi(A5, Zero, 0));
         P.push_back(addi(A5, A5, 1));       // Loop head (address 12).
         P.push_back(addi(A0, A0, 1));       // Victim (address 16).
         P.push_back(addi(A6, Zero, 30));
         P.push_back(mkB(Opcode::Blt, A5, A6, -12)); // 30 hot passes.
         P.push_back(sw(Zero, A4, 16));      // Patch the victim.
         P.push_back(jal(Zero, -24));        // Re-enter at the reset.
         return blockDiffFails(P, D);
       }},
      // A store sweep that descends into the loop's own body: the
      // invalidation lands on the currently executing superblock, so the
      // mid-trace self-kill (commit the completed instruction, side-exit,
      // refetch) is on the compared path.
      {"mid-trace-invalidate", [](std::string &D) {
         std::vector<Instr> P;
         P.push_back(addi(A1, Zero, 0x200)); // Sweep cursor, counts down.
         P.push_back(addi(A2, Zero, 0x5A));
         P.push_back(sw(A1, A2, 0));         // Loop head (address 8).
         P.push_back(addi(A1, A1, -4));
         P.push_back(mkB(Opcode::Bne, A1, Zero, -8));
         return blockDiffFails(P, D);
       }},
      // The pipelined core's fast engine: external loads and stores whose
      // handshake latency the recurrence charges at write-back, RAW
      // hazards on their results, RAM traffic, and a loop branch the BTB
      // learns after its first mispredictions.
      {"pipelined-mmio-loop", [](std::string &D) {
         std::vector<Instr> P;
         P.push_back(lui(A0, SWord(0x10000000))); // External, past RAM.
         P.push_back(addi(A1, Zero, 0));
         P.push_back(addi(A2, Zero, 300));
         P.push_back(lw(A3, A0, 0));              // Loop head (address 12).
         P.push_back(mkR(Opcode::Add, A4, A3, A1));
         P.push_back(sw(A0, A4, 4));
         P.push_back(sw(Zero, A1, 0x400));
         P.push_back(lw(A5, Zero, 0x400));
         P.push_back(addi(A1, A1, 1));
         P.push_back(mkB(Opcode::Bne, A1, A2, -24));
         P.push_back(jal(Zero, 0));               // Halt spin.
         return pipeDiffFails(P, D);
       }},
  };
}

// -- VcCheck column ----------------------------------------------------------
//
// The symbolic VC engine checked against the interpreter from both sides.
// A Counterexample verdict must arrive with a model the checking
// interpreter *confirms* — a SAT backend that corrupts its models
// (vc-solver-bad-model) produces unconfirmed counterexamples, which the
// engine demotes to Unknown and these stims reject. And a buggy contract
// must never verify Valid: the concrete probes behind every Valid verdict
// expose a WP generator that loses obligations (vc-wp-dropped-conjunct).
// The stims are stackalloc-free and extern-free so faults owned by other
// columns cannot perturb this column's baseline.

bool vcVerdictFails(const char *Src, const char *Fn, vc::Verdict Want,
                    bedrock2::Fault WantFault, const vc::VcOptions &Opts,
                    std::string &Detail) {
  bedrock2::ParseResult P = bedrock2::parseProgram(Src);
  if (!P.ok()) {
    Detail = "stimulus parse error: " + P.Error;
    return true;
  }
  vc::FuncReport R = vc::verifyFunction(*P.Prog, Fn, "adequacy", Opts);
  if (R.Unconfirmed != 0) {
    Detail = std::to_string(R.Unconfirmed) +
             " unconfirmed symbolic counterexample(s) on '" + Fn + "'";
    return true;
  }
  if (R.V != Want) {
    Detail = std::string("expected ") + vc::verdictName(Want) + " for '" +
             Fn + "', got " + vc::verdictName(R.V) +
             (R.CexDetail.empty() ? std::string()
                                  : " (" + R.CexDetail + ")");
    return true;
  }
  if (Want == vc::Verdict::Counterexample && R.CexFault != WantFault) {
    Detail = std::string("counterexample for '") + Fn + "' replayed to " +
             bedrock2::faultName(R.CexFault) + ", expected " +
             bedrock2::faultName(WantFault);
    return true;
  }
  return false;
}

bool vcVerdictFails(const char *Src, const char *Fn, vc::Verdict Want,
                    bedrock2::Fault WantFault, std::string &Detail) {
  return vcVerdictFails(Src, Fn, Want, WantFault, vc::VcOptions(), Detail);
}

std::vector<Stim> vcCheckStims() {
  return {
      // A magic-constant contract violation: the solver must find the one
      // input in 2^32 that triggers it, and the interpreter must confirm
      // the model. A corrupted model misses the trigger, fails replay,
      // and the verdict degrades to Unknown — a kill.
      {"counterexample-confirms", [](std::string &D) {
         return vcVerdictFails(
             "fn trig(a) -> (r) ensures (r < 2) {"
             "  r = 1; if (a == 0x1234ABCD) { r = 2; } }",
             "trig", vc::Verdict::Counterexample,
             bedrock2::Fault::PostconditionFailed, D);
       }},
      // An always-wrong postcondition: must be a confirmed counterexample.
      // A WP generator that drops the ensures obligation answers Valid
      // instead, and the seeded concrete probes behind Valid verdicts
      // contradict it.
      {"valid-probes", [](std::string &D) {
         return vcVerdictFails(
             "fn bump(a) -> (r) ensures (r == a + 1) { r = a + 2; }",
             "bump", vc::Verdict::Counterexample,
             bedrock2::Fault::PostconditionFailed, D);
       }},
      // A correct contract must stay Valid (the baseline row's guard
      // against a trigger-happy engine).
      {"valid-stays-valid", [](std::string &D) {
         return vcVerdictFails(
             "fn absdiff(a, b) -> (r)"
             "  ensures ((r == a - b) | (r == b - a)) {"
             "  if (a < b) { r = b - a; } else { r = a - b; } }",
             "absdiff", vc::Verdict::Valid, bedrock2::Fault::None, D);
       }},
      // A shared solved-obligation cache warmed by a genuinely proved
      // function, then a buggy one. A cache that loses hash
      // discrimination (vc-cache-stale-hit) answers the buggy ensures
      // with the warm entry's "proved", minting a Valid the concrete
      // probes behind every Valid verdict then contradict — a kill.
      {"cache-stale-probes", [](std::string &D) {
         vc::DischargeCache Shared;
         vc::VcOptions Opts;
         Opts.SharedCache = &Shared;
         if (vcVerdictFails(
                 "fn absdiff(a, b) -> (r)"
                 "  ensures ((r == a - b) | (r == b - a)) {"
                 "  if (a < b) { r = b - a; } else { r = a - b; } }",
                 "absdiff", vc::Verdict::Valid, bedrock2::Fault::None, Opts,
                 D))
           return true;
         return vcVerdictFails(
             "fn bump(a) -> (r) ensures (r == a + 1) { r = a + 2; }",
             "bump", vc::Verdict::Counterexample,
             bedrock2::Fault::PostconditionFailed, Opts, D);
       }},
      // Differential mode on a contract whose one solver-bound
      // obligation depends on a live requires assumption. A slicer that
      // drops live support (vc-slice-dropped-support) never changes a
      // verdict — a weaker query can only turn Unsat into Sat, and Sat
      // falls back to the cold path — so the partition audit is the one
      // checker that sees the dropped assumption intersect the kept
      // cone; its mismatch demotes the verdict from Valid.
      {"differential-slice-audit", [](std::string &D) {
         vc::VcOptions Opts;
         Opts.Discharge.Differential = true;
         return vcVerdictFails(
             "fn halfdiff(a, b) -> (r)"
             "  requires (a < b)"
             "  ensures (r == b - a) {"
             "  if (a < b) { r = b - a; } else { r = a - b; } }",
             "halfdiff", vc::Verdict::Valid, bedrock2::Fault::None, Opts,
             D);
       }},
  };
}

std::vector<Stim> columnStims(Checker C) {
  switch (C) {
  case Checker::CompilerDiff:
    return compilerDiffStims();
  case Checker::InterpDiff:
    return interpDiffStims();
  case Checker::Lockstep:
    return lockstepStims();
  case Checker::Refinement:
    return refinementStims();
  case Checker::EndToEnd:
    return endToEndStims();
  case Checker::DecodeConsistency:
    return decodeConsistencyStims();
  case Checker::SoakMonitor:
    return soakMonitorStims();
  case Checker::SnapDiff:
    return snapDiffStims();
  case Checker::BlockDiff:
    return blockDiffStims();
  case Checker::VcCheck:
    return vcCheckStims();
  case Checker::NumCheckers:
    break;
  }
  return {};
}

// -- Campaign driver ---------------------------------------------------------

CellResult runCell(const fi::FaultInfo *F, Checker C) {
  metrics::add(metrics::Id::AdequacyCells);
  metrics::Timed Wall(metrics::Id::AdequacyCellWall);
  CellResult R;
  R.FaultId = F ? F->Id : fi::Fault::NumFaults;
  R.Col = C;
  fi::FaultPlan Plan;
  if (F)
    Plan.enable(F->Id);
  fi::FaultScope Scope(Plan);
  for (const Stim &S : columnStims(C)) {
    ++R.StimuliRun;
    std::string Detail;
    if (S.Run(Detail)) {
      R.Killed = true;
      R.TimeToKill = R.StimuliRun;
      R.Detail = std::string(S.Name) + ": " + truncated(std::move(Detail));
      break;
    }
  }
  if (R.Killed)
    metrics::add(metrics::Id::AdequacyKills);
  return R;
}

const fi::FaultInfo *infoFor(fi::Fault F) {
  for (const fi::FaultInfo &I : fi::faultRegistry())
    if (I.Id == F)
      return &I;
  return nullptr;
}

} // namespace

std::vector<fi::Fault> b2::verify::quickFaultSet() {
  // One or two faults per layer; all ten owner columns exercised.
  return {
      fi::Fault::CompilerImmTruncate,
      fi::Fault::CompilerStackallocNoZero,
      fi::Fault::SimSraLogicalShift,
      fi::Fault::SimBlockStaleSuperblock,
      fi::Fault::KamiBtbNoSquash,
      fi::Fault::KamiMemWrongByteEnable,
      fi::Fault::KamiDecodeShamtWide,
      fi::Fault::DevLanRxByteOrder,
      fi::Fault::BcAllocSkew,
      fi::Fault::TrafficGenUnseededFrame,
      fi::Fault::SnapStateStaleLatch,
      fi::Fault::VcWpDroppedConjunct,
      fi::Fault::VcSolverBadModel,
      fi::Fault::VcCacheStaleHit,
      fi::Fault::VcSliceDroppedSupport,
  };
}

AdequacyReport b2::verify::runAdequacy(const AdequacyOptions &Options) {
  AdequacyReport Rep;
  Rep.Quick = Options.Quick;

  // Faults in scope, in registry order.
  std::vector<const fi::FaultInfo *> Faults;
  if (!Options.OnlyFault.empty()) {
    const fi::FaultInfo *F = fi::findFault(Options.OnlyFault);
    if (!F) {
      // An unknown name must not masquerade as an empty-but-green
      // campaign; record the error and run nothing.
      Rep.Error = "unknown fault '" + Options.OnlyFault +
                  "'; valid names are: " + fi::faultNameList();
      return Rep;
    }
    Faults.push_back(F);
  } else if (Options.Quick) {
    for (fi::Fault F : quickFaultSet())
      Faults.push_back(infoFor(F));
  } else {
    for (const fi::FaultInfo &F : fi::faultRegistry())
      Faults.push_back(&F);
  }

  struct CellSpec {
    const fi::FaultInfo *F;
    Checker C;
  };
  std::vector<CellSpec> Specs;
  // Baseline row first: every column with an empty plan.
  for (unsigned C = 0; C != NumCheckers; ++C)
    Specs.push_back({nullptr, Checker(C)});
  for (const fi::FaultInfo *F : Faults) {
    if (Options.Quick) {
      Checker Owner;
      if (checkerByName(F->Owner, Owner))
        Specs.push_back({F, Owner});
    } else {
      for (unsigned C = 0; C != NumCheckers; ++C)
        Specs.push_back({F, Checker(C)});
    }
  }

  // Every cell is a pure function of its (fault, checker) pair, and
  // results land in a pre-sized slot by index: bit-identical reports for
  // every thread count.
  std::vector<CellResult> Out(Specs.size());
  support::parallelFor(Specs.size(), Options.Threads, [&](size_t I) {
    Out[I] = runCell(Specs[I].F, Specs[I].C);
  });

  Rep.Baseline.assign(Out.begin(), Out.begin() + NumCheckers);
  Rep.Cells.assign(Out.begin() + NumCheckers, Out.end());
  return Rep;
}

bool AdequacyReport::noFalsePositives() const {
  for (const CellResult &C : Baseline)
    if (C.Killed)
      return false;
  return !Baseline.empty();
}

const CellResult *AdequacyReport::ownerCell(fi::Fault F) const {
  const fi::FaultInfo *Info = infoFor(F);
  Checker Owner;
  if (!Info || !checkerByName(Info->Owner, Owner))
    return nullptr;
  for (const CellResult &C : Cells)
    if (C.FaultId == F && C.Col == Owner)
      return &C;
  return nullptr;
}

bool AdequacyReport::allKilledByOwner() const {
  // Over the faults present in this report's cells.
  bool Any = false;
  for (const CellResult &C : Cells) {
    Any = true;
    const CellResult *Owner = ownerCell(C.FaultId);
    if (!Owner || !Owner->Killed)
      return false;
  }
  return Any;
}

std::string AdequacyReport::firstViolation() const {
  if (!Error.empty())
    return Error;
  for (const CellResult &C : Baseline)
    if (C.Killed)
      return std::string("false positive: ") + checkerName(C.Col) +
             " failed with no fault armed (" + C.Detail + ")";
  std::vector<fi::Fault> Seen;
  for (const CellResult &C : Cells) {
    bool New = true;
    for (fi::Fault F : Seen)
      if (F == C.FaultId)
        New = false;
    if (!New)
      continue;
    Seen.push_back(C.FaultId);
    const fi::FaultInfo *Info = infoFor(C.FaultId);
    const CellResult *Owner = ownerCell(C.FaultId);
    if (Info && (!Owner || !Owner->Killed))
      return std::string("fault not killed by its owner: ") + Info->Name +
             " (owner " + Info->Owner + ")";
  }
  return "";
}

std::string b2::verify::adequacyJson(const AdequacyReport &Report) {
  support::JsonWriter J;
  J.beginObject();
  J.key("schema").value("b2stack-adequacy-v1");
  J.key("quick").value(Report.Quick);
  if (!Report.Error.empty())
    J.key("error").value(Report.Error);
  J.key("no_false_positives").value(Report.noFalsePositives());
  J.key("all_killed_by_owner").value(Report.allKilledByOwner());

  J.key("checkers").beginArray();
  for (unsigned C = 0; C != NumCheckers; ++C)
    J.value(checkerName(Checker(C)));
  J.endArray();

  J.key("baseline").beginArray();
  for (const CellResult &C : Report.Baseline) {
    J.beginObject();
    J.key("checker").value(checkerName(C.Col));
    J.key("ok").value(!C.Killed);
    J.key("stimuli").value(C.StimuliRun);
    if (C.Killed)
      J.key("detail").value(C.Detail);
    J.endObject();
  }
  J.endArray();

  // Fault-major rendering, in registry order of the cells present.
  J.key("faults").beginArray();
  size_t I = 0;
  uint64_t KilledByOwner = 0, TotalKills = 0, NumFaults = 0;
  while (I != Report.Cells.size()) {
    fi::Fault F = Report.Cells[I].FaultId;
    const fi::FaultInfo *Info = infoFor(F);
    ++NumFaults;
    J.beginObject();
    if (Info) {
      J.key("name").value(Info->Name);
      J.key("layer").value(Info->Layer);
      J.key("owner").value(Info->Owner);
      J.key("summary").value(Info->Summary);
    }
    const CellResult *Owner = Report.ownerCell(F);
    J.key("killed_by_owner").value(Owner && Owner->Killed);
    if (Owner && Owner->Killed) {
      ++KilledByOwner;
      J.key("owner_time_to_kill").value(Owner->TimeToKill);
    }
    J.key("cells").beginArray();
    for (; I != Report.Cells.size() && Report.Cells[I].FaultId == F; ++I) {
      const CellResult &C = Report.Cells[I];
      TotalKills += C.Killed ? 1 : 0;
      J.beginObject();
      J.key("checker").value(checkerName(C.Col));
      J.key("killed").value(C.Killed);
      J.key("stimuli").value(C.StimuliRun);
      if (C.Killed) {
        J.key("time_to_kill").value(C.TimeToKill);
        J.key("detail").value(C.Detail);
      }
      J.endObject();
    }
    J.endArray();
    J.endObject();
  }
  J.endArray();

  J.key("totals").beginObject();
  J.key("faults").value(NumFaults);
  J.key("cells").value(uint64_t(Report.Cells.size()));
  J.key("killed_by_owner").value(KilledByOwner);
  J.key("total_kills").value(TotalKills);
  J.endObject();

  J.endObject();
  return J.str();
}
