//===- devices/Platform.h - MMIO bus and demo platform ---------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The demo platform of Figure 2: an MMIO bus routing the SPI controller
/// (with the LAN9250 behind it) and the GPIO block (with the lightbulb
/// power switch behind it). The platform implements the ISA semantics'
/// external-interaction parameter (riscv::MmioDevice), so one platform
/// instance can back the ISA simulator, the spec core, or the pipelined
/// core.
///
/// Frame arrival is scripted per scenario and delivered deterministically
/// as a function of the platform's MMIO access count — never of simulated
/// cycles — so that software-level and hardware-level simulations of the
/// same program observe identical device behavior (the precondition of
/// the lockstep and refinement checkers).
///
//===----------------------------------------------------------------------===//

#ifndef B2_DEVICES_PLATFORM_H
#define B2_DEVICES_PLATFORM_H

#include "devices/Gpio.h"
#include "devices/Lan9250.h"
#include "devices/MemoryMap.h"
#include "devices/Spi.h"
#include "riscv/Mmio.h"
#include "support/Snapshot.h"

#include <cstdint>
#include <vector>

namespace b2 {
namespace devices {

/// A scheduled frame arrival: \p Frame is injected into the LAN9250 once
/// the platform has served \p AtOp MMIO accesses.
struct ScheduledFrame {
  uint64_t AtOp = 0;
  std::vector<uint8_t> Frame;
  bool Errored = false;
  friend bool operator==(const ScheduledFrame &,
                         const ScheduledFrame &) = default;
};

/// The demo platform: SPI + LAN9250 + GPIO on one MMIO bus.
class Platform final : public riscv::MmioDevice {
public:
  explicit Platform(const SpiConfig &SpiCfg = SpiConfig(),
                    const Lan9250::Config &LanCfg = Lan9250::Config());

  // -- riscv::MmioDevice -------------------------------------------------------

  bool isMmio(Word Addr, unsigned Size) const override {
    (void)Size;
    return isMmioAddr(Addr);
  }

  Word load(Word Addr, unsigned Size) override;
  void store(Word Addr, unsigned Size, Word Value) override;

  // -- Scenario ---------------------------------------------------------------

  /// Schedules \p Frame for delivery after \p AtOp MMIO accesses. Frames
  /// arriving before the driver enables reception are dropped, as on real
  /// hardware.
  void scheduleFrame(uint64_t AtOp, std::vector<uint8_t> Frame,
                     bool Errored = false);

  /// Injects a frame immediately. Returns whether the NIC accepted it.
  bool injectNow(std::vector<uint8_t> Frame, bool Errored = false) {
    bool Accepted = Nic.injectFrame(Frame, Errored);
    if (Accepted)
      Accepted_.push_back(ScheduledFrame{OpCount, std::move(Frame), Errored});
    return Accepted;
  }

  /// Frames the NIC actually accepted, in delivery order (the ground
  /// truth the end-to-end checker compares actuations against).
  const std::vector<ScheduledFrame> &acceptedFrames() const {
    return Accepted_;
  }

  uint64_t opCount() const { return OpCount; }

  Gpio &gpio() { return GpioBlock; }
  const Gpio &gpio() const { return GpioBlock; }
  Lan9250 &nic() { return Nic; }
  Spi &spi() { return SpiCtrl; }

  // -- Snapshot/restore ------------------------------------------------------

  /// Whole-platform checkpoint: every device plus the op counter and the
  /// delivery schedule cursor. The accepted-frame ground truth is kept
  /// as an append-only delta chain so frequent checkpoints stay O(new
  /// frames); the pending schedule (set up once per run) is copied flat
  /// and is empty in backpressure mode.
  struct Snapshot {
    Lan9250::Snapshot Nic;
    Spi::Snapshot SpiCtrl;
    Gpio::Snapshot GpioBlock;
    uint64_t OpCount;
    std::vector<ScheduledFrame> Pending;
    size_t NextPending;
    support::ChainTracker<ScheduledFrame>::Snap Accepted;
  };

  Snapshot snapshot();
  void restore(const Snapshot &S);

private:
  Lan9250 Nic;
  Spi SpiCtrl;
  Gpio GpioBlock;
  uint64_t OpCount = 0;
  std::vector<ScheduledFrame> Pending; ///< Sorted by AtOp; consumed front
                                       ///< to back.
  size_t NextPending = 0;
  std::vector<ScheduledFrame> Accepted_; ///< Frames the NIC accepted.
  support::ChainTracker<ScheduledFrame> AcceptedChain;

  void deliverDue();
};

} // namespace devices
} // namespace b2

#endif // B2_DEVICES_PLATFORM_H
