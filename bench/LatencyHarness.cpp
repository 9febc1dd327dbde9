//===- bench/LatencyHarness.cpp - Packet-to-actuation latency ----------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "LatencyHarness.h"

#include "app/Firmware.h"
#include "devices/MemoryMap.h"
#include "devices/Net.h"
#include "traffic/Checkpoint.h"

#include <vector>

using namespace b2;
using namespace b2::bench;
using namespace b2::devices;

LatencyMeasurement b2::bench::measureResponse(const SysConfig &Config,
                                              unsigned NumPackets) {
  return measureResponse(Config,
                         Config.OptCompiler
                             ? compiler::CompilerOptions::o3()
                             : compiler::CompilerOptions::o0(),
                         NumPackets);
}

LatencyMeasurement
b2::bench::measureResponse(const SysConfig &Config,
                           const compiler::CompilerOptions &Compiler,
                           unsigned NumPackets) {
  LatencyMeasurement Out;

  app::FirmwareOptions FW;
  FW.SpiPipelining = Config.SpiPipelining;
  FW.Timeouts = Config.Timeouts;

  compiler::CompileResult C = compiler::compileProgram(
      app::buildFirmware(FW), Compiler,
      compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
      DefaultRamBytes);
  if (!C.ok()) {
    Out.Error = "compile: " + C.Error;
    return Out;
  }
  Out.CodeBytes = C.Prog->CodeBytes;

  devices::SpiConfig Spi;
  Spi.FifoDepth = Config.SpiPipelining ? 8 : 1;
  traffic::SoakMachine M(*C.Prog,
                         Config.KamiCore ? traffic::SoakCore::Pipelined
                                         : traffic::SoakCore::SpecCore,
                         DefaultRamBytes, riscv::ExecMode::Block, Spi);

  // Schedule alternating commands, spaced far enough apart that every
  // frame is handled in its own loop iteration.
  constexpr uint64_t FirstAtOp = 2500;
  constexpr uint64_t Spacing = 4000;
  std::vector<ScheduledFrame> Frames;
  for (unsigned K = 0; K != NumPackets; ++K) {
    Frames.push_back(ScheduledFrame{FirstAtOp + K * Spacing,
                                    buildCommandFrame(K % 2 == 0), false});
    M.platform().scheduleFrame(Frames.back().AtOp, Frames.back().Frame);
  }

  // Run until the scenario has drained. The pipelined SPI driver leaves
  // goodHlTrace (section 7.2.1), so a rejection by the loop's streaming
  // monitor does not end the run: the loop is resumed where it returned.
  traffic::SoakOptions Loop;
  Loop.HonorSchedule = true;
  traffic::ShardExit Exit;
  do
    Exit = traffic::runShardLoop(M, Frames.data(),
                                 Frames.data() + Frames.size(), Loop);
  while (Exit == traffic::ShardExit::Violated);
  if (Exit != traffic::ShardExit::Completed) {
    Out.Error = "the scenario did not drain within the cycle budget";
    return Out;
  }

  // One pass over the label log for the actuations (GPIO output_val
  // stores); alternating commands each produce one.
  const kami::LabelTrace &L = M.labels();
  std::vector<uint64_t> Actuations;
  for (const kami::Label &E : L)
    if (E.MethodKind == kami::Label::Kind::MmioStore &&
        E.Addr == GpioOutputVal)
      Actuations.push_back(E.Cycle);
  if (Actuations.size() < NumPackets) {
    Out.Error = "not all packets were actuated before the scenario drained";
    return Out;
  }

  // Latency per packet: cycle(actuation store) - cycle(delivery op).
  // Label index i corresponds to platform MMIO operation i+1, so the
  // label at index AtOp-1 is the operation during which the frame was
  // delivered.
  double Sum = 0;
  unsigned Counted = 0;
  size_t Next = 0;
  for (const ScheduledFrame &F : Frames) {
    if (F.AtOp - 1 >= L.size())
      break;
    uint64_t Start = L[size_t(F.AtOp - 1)].Cycle;
    // First actuation at or after the delivery.
    while (Next < Actuations.size() && Actuations[Next] < Start)
      ++Next;
    if (Next == Actuations.size())
      break;
    Sum += double(Actuations[Next] - Start);
    ++Next;
    ++Counted;
  }
  if (Counted == 0) {
    Out.Error = "no packet latencies could be attributed";
    return Out;
  }

  Out.Ok = true;
  Out.Packets = Counted;
  Out.MeanCyclesPerPacket = Sum / Counted;
  return Out;
}
