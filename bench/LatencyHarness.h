//===- bench/LatencyHarness.h - Packet-to-actuation latency -----*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement harness behind the section 7.2.1 benches: "we measured
/// that it takes 5.5 ms from the moment when the Ethernet device starts
/// handing a packet over to the processor to the actuation of the control
/// output." Here the moment of handover is the MMIO operation at which the
/// platform delivers the frame, and the actuation is the GPIO output_val
/// store; both carry cycle stamps in the label trace, so the latency is
/// exact in cycles. The system runs on traffic::SoakMachine, the stack's
/// one whole-system runner, until the scenario has drained.
///
/// A SysConfig selects one point of the paper's factor decomposition:
/// 10x ~= (1.4x SPI-interleaving x 1.2x timeouts) x 2.1x compiler x 2.7x
/// processor.
///
//===----------------------------------------------------------------------===//

#ifndef B2_BENCH_LATENCYHARNESS_H
#define B2_BENCH_LATENCYHARNESS_H

#include "compiler/Compile.h"

#include <cstdint>
#include <string>

namespace b2 {
namespace bench {

/// One point in the configuration space of section 7.2.1.
struct SysConfig {
  /// SPI hardware FIFO pipelining exploited by the driver (the FE310
  /// trick). Off in the verified system.
  bool SpiPipelining = false;
  /// Polling loops carry timeout counters. On in the verified system.
  bool Timeouts = true;
  /// gcc -O3 stand-in (inlining, constprop, DCE, caller-saved registers).
  /// Off (our baseline compiler) in the verified system.
  bool OptCompiler = false;
  /// Kami pipelined processor; false selects the FE310-like ~1-IPC core.
  bool KamiCore = true;

  static SysConfig verified() { return SysConfig(); }
  static SysConfig unverifiedPrototype() {
    SysConfig C;
    C.SpiPipelining = true;
    C.Timeouts = false;
    C.OptCompiler = true;
    C.KamiCore = false;
    return C;
  }
};

struct LatencyMeasurement {
  bool Ok = false;
  std::string Error;
  double MeanCyclesPerPacket = 0;
  uint64_t Packets = 0;
  Word CodeBytes = 0;

  /// Milliseconds at the paper's 12 MHz FPGA clock.
  double msAt12MHz() const { return MeanCyclesPerPacket / 12e6 * 1e3; }
};

/// Measures mean packet-to-actuation latency over \p NumPackets valid
/// command frames.
LatencyMeasurement measureResponse(const SysConfig &Config,
                                   unsigned NumPackets = 10);

/// Same, but with explicit compiler options (for per-pass ablations).
LatencyMeasurement measureResponse(const SysConfig &Config,
                                   const compiler::CompilerOptions &Compiler,
                                   unsigned NumPackets);

} // namespace bench
} // namespace b2

#endif // B2_BENCH_LATENCYHARNESS_H
