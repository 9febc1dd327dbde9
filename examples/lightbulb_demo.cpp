//===- examples/lightbulb_demo.cpp - The verified IoT lightbulb ---------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// The paper's demo system (Figure 2), end to end: the lightbulb firmware
// is compiled from Bedrock2 to RV32IM, placed at address 0 of the
// pipelined processor's memory, and driven with UDP command packets
// through the LAN9250 model. The observed MMIO trace is checked against
// goodHlTrace, and the physical lightbulb state is reported.
//
//===----------------------------------------------------------------------===//

#include "app/Firmware.h"
#include "app/LightbulbSpec.h"
#include "devices/Net.h"
#include "tracespec/Matcher.h"
#include "verify/EndToEnd.h"

#include <cstdio>

using namespace b2;
using namespace b2::verify;

int main() {
  std::printf("== verified IoT lightbulb demo ==\n\n");

  // A small scripted day in the life of the lightbulb: on, off, a
  // malformed packet from an attacker, then on again.
  E2EScenario S;
  std::vector<uint8_t> Evil = devices::buildCommandFrame(true);
  Evil[12] = 0x86; // Wrong ethertype: must be ignored.
  S.Frames.push_back({2000, devices::buildCommandFrame(true), false});
  S.Frames.push_back({4500, devices::buildCommandFrame(false), false});
  S.Frames.push_back({7000, Evil, false});
  S.Frames.push_back({9500, devices::buildCommandFrame(true), false});

  E2EOptions O;
  O.Core = traffic::SoakCore::Pipelined;
  E2EResult R = runLightbulbEndToEnd(S, O);

  std::printf("scenario: 4 frames (3 valid commands, 1 malformed)\n");
  std::printf("accepted by NIC: %zu\n", R.AcceptedFrames);
  std::printf("cycles simulated: %llu (%.2f ms at 12 MHz)\n",
              (unsigned long long)R.Cycles,
              double(R.Cycles) / 12e6 * 1e3);
  std::printf("instructions retired: %llu\n",
              (unsigned long long)R.Retired);
  std::printf("MMIO events observed: %zu\n\n", R.Trace.size());

  std::printf("lightbulb state changes:");
  for (bool B : R.LightHistory)
    std::printf(" %s", B ? "ON" : "off");
  std::printf("\nexpected from valid commands:");
  for (bool B : R.ExpectedLights)
    std::printf(" %s", B ? "ON" : "off");
  std::printf("\n\n");

  std::printf("end2end_lightbulb conclusion:\n");
  std::printf("  prefix_of(KamiLabelSeqR(trace), goodHlTrace): %s\n",
              R.PrefixAccepted ? "HOLDS" : "VIOLATED");
  std::printf("  lightbulb follows exactly the valid commands: %s\n",
              R.GroundTruthOk ? "HOLDS" : "VIOLATED");
  if (!R.Ok)
    std::printf("  failure detail: %s\n", R.Error.c_str());

  return R.Ok ? 0 : 1;
}
