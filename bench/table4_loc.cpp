//===- bench/table4_loc.cpp - Table 4: lines of code ---------------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// Regenerates Table 4 ("Lines of code") for this repository. The paper
// splits each layer into implementation (m), interface (n), interesting
// proof (p) and low-insight proof (q), and reports the proof overhead
// (m+n+p+q)/m. In the executable reproduction, the role of the proofs is
// played by the checking harnesses and the test suites, so the analogous
// split is implementation / interface / checking-harness / tests, with
// the same overhead quotient computed over them.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "LocCounter.h"

#include <cstdio>

using namespace b2;
using namespace b2::bench;

int main() {
  std::printf("== table 4: lines of code per layer ==\n\n");

  struct Row {
    const char *Layer;
    std::vector<std::string> Impl;
    std::vector<std::string> Interface;
    std::vector<std::string> Checking;
    std::vector<std::string> Tests;
    const char *PaperOverhead;
  };
  Row Rows[] = {
      {"lightbulb app + drivers",
       {"src/app/Firmware.cpp", "src/app/Firmware.h"},
       {"src/app/LightbulbSpec.cpp", "src/app/LightbulbSpec.h"},
       {"src/verify/EndToEnd.cpp", "src/verify/EndToEnd.h"},
       {"tests/test_app.cpp", "tests/test_endtoend.cpp"},
       "10.1 (imagined: 1.9)"},
      {"program logic (source semantics)",
       {"src/bedrock2/Semantics.cpp", "src/bedrock2/Ast.cpp",
        "src/bedrock2/Bytecode.cpp", "src/bedrock2/Bytecode.h"},
       {"src/bedrock2/Semantics.h", "src/bedrock2/Ast.h",
        "src/bedrock2/ExtSpec.h"},
       {},
       {"tests/test_bedrock2.cpp"},
       "- (pure proof layer in the paper)"},
      {"compiler",
       {"src/compiler"},
       {"src/riscv"},
       {"src/verify/CompilerDiff.cpp", "src/verify/CompilerDiff.h"},
       {"tests/test_compiler.cpp", "tests/test_riscv.cpp",
        "tests/RandomProgram.h"},
       "10.8 (imagined: 3.6)"},
      {"SW/HW interface",
       {"src/kami"},
       {"src/kami/Decode.h", "src/kami/Labels.h"},
       {"src/verify/Lockstep.cpp", "src/verify/Refinement.cpp",
        "src/verify/DecodeConsistency.cpp"},
       {"tests/test_kami.cpp", "tests/test_verify.cpp"},
       "- (pure proof layer in the paper)"},
      {"trace predicates / end-to-end",
       {"src/tracespec"},
       {},
       {},
       {"tests/test_tracespec.cpp"},
       "-"},
      {"devices (outside the paper's table)",
       {"src/devices"},
       {},
       {},
       {"tests/test_devices.cpp"},
       "-"},
  };

  Table T({"layer", "impl m", "iface n", "checking p", "tests q",
           "(m+n+p+q)/m", "paper overhead"});
  LocCount TM, TN, TP, TQ;
  for (const Row &R : Rows) {
    LocCount M = countSources(R.Impl);
    LocCount N = countSources(R.Interface);
    LocCount P = countSources(R.Checking);
    LocCount Q = countSources(R.Tests);
    TM += M;
    TN += N;
    TP += P;
    TQ += Q;
    double Overhead =
        double(M.Code + N.Code + P.Code + Q.Code) / double(M.Code);
    T.row({R.Layer, std::to_string(M.Code), std::to_string(N.Code),
           std::to_string(P.Code), std::to_string(Q.Code),
           fixed(Overhead, 1), R.PaperOverhead});
  }
  double Total =
      double(TM.Code + TN.Code + TP.Code + TQ.Code) / double(TM.Code);
  T.row({"TOTAL", std::to_string(TM.Code), std::to_string(TN.Code),
         std::to_string(TP.Code), std::to_string(TQ.Code), fixed(Total, 1),
         "paper: 48294 proof lines on 19606 impl"});
  T.print();

  std::printf("\nreading: the paper's overhead factors (10.1x app, 10.8x "
              "compiler) measure *proof*\nlines per implementation line; "
              "this repository's analogue measures checking-harness\nand "
              "test lines. The paper's thesis (section 7.3.2) is that most "
              "proof overhead is\naccidental; the executable reproduction's "
              "much smaller quotient is consistent with\nthat: dropping "
              "machine-checked certainty removes exactly the low-insight "
              "bulk.\n");
  return 0;
}
