//===- examples/stale_instructions.cpp - The XAddrs discipline ----------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// Section 5.6's "Dealing with Stale Instructions", demonstrated: a
// self-modifying program overwrites an instruction in memory, but the
// processor's eagerly-filled instruction cache keeps executing the stale
// version. The software-oriented ISA semantics flag the fetch as
// undefined behavior via the XAddrs discipline — exactly the condition
// that licenses the hardware's behavior. Run both models side by side and
// watch them diverge precisely at the flagged instruction.
//
//===----------------------------------------------------------------------===//

#include "isa/Build.h"
#include "isa/Disasm.h"
#include "isa/Encoding.h"
#include "kami/PipelinedCore.h"
#include "riscv/BlockEngine.h"
#include "riscv/Machine.h"
#include "riscv/Step.h"

#include <cstdio>

using namespace b2;
using namespace b2::isa;

int main() {
  std::printf("== stale instructions and the XAddrs discipline ==\n\n");

  // The program overwrites the instruction at PC 16 with `addi a1, zero,
  // 99`, then falls into it. The I$ still holds the original `addi a1,
  // zero, 7`.
  Word NewInstr = encode(addi(A1, Zero, 99));
  std::vector<Instr> P;
  std::vector<Instr> Materialize;
  materialize(NewInstr, A0, Materialize); // lui+addi into a0.
  P.insert(P.end(), Materialize.begin(), Materialize.end());
  while (P.size() < 3)
    P.push_back(nop());
  P.push_back(sw(Zero, A0, 16)); // pc 12: overwrite pc 16 in memory.
  P.push_back(addi(A1, Zero, 7)); // pc 16: the victim.
  P.push_back(jal(Zero, 0));      // pc 20: park.

  std::printf("program:\n%s\n", disasmListing(P, 0).c_str());
  std::vector<uint8_t> Image = instrencode(P);

  // Hardware: executes the stale instruction from the I$.
  kami::Bram Mem(4096);
  Mem.loadImage(Image);
  riscv::NoDevice DevA;
  kami::PipelinedCore Core(Mem, DevA);
  Core.runUntilRetired(6, 100000);
  std::printf("pipelined core: a1 = %u (stale instruction executed)\n",
              Core.getReg(A1));
  std::printf("  memory word at 16 is now %s\n",
              disasm(decode(Mem.readWord(16))).c_str());
  std::printf("  i$ word at 16 is still   %s\n\n",
              disasm(decode(Core.icache().fetch(16))).c_str());

  // Software semantics: the fetch at 16 is undefined behavior.
  riscv::Machine M(4096);
  M.loadImage(0, Image);
  riscv::NoDevice DevB;
  riscv::run(M, DevB, 100);
  std::printf("ISA semantics: %s at pc 16 -> %s (%s)\n",
              M.hasUb() ? "flagged UB" : "no UB",
              riscv::ubKindName(M.ubKind()), M.ubDetail().c_str());

  // Sharper variant: the victim heads a hot loop, so the block engine
  // has translated it into a superblock before the store patches it.
  // The store removes the word from XAddrs, which kills the superblock,
  // and the refetch must be flagged on both engines — never a silent
  // replay of the stale trace. The reference stepper is the second
  // witness: it keeps no translations at all.
  std::printf("\n-- with the victim inside a translated hot loop --\n");
  std::vector<Instr> P2;
  materialize(NewInstr, A0, P2);
  while (P2.size() < 2)
    P2.push_back(nop());
  P2.push_back(addi(A2, Zero, 100));            // pc 8: iteration count.
  P2.push_back(addi(A3, Zero, 0));              // pc 12.
  P2.push_back(addi(A1, Zero, 7));              // pc 16: the victim.
  P2.push_back(addi(A3, A3, 1));                // pc 20.
  P2.push_back(mkB(Opcode::Bne, A3, A2, -8));   // pc 24: back to pc 16.
  P2.push_back(sw(Zero, A0, 16));               // pc 28: overwrite pc 16.
  P2.push_back(jal(Zero, -16));                 // pc 32: back into pc 16.
  std::vector<uint8_t> Image2 = instrencode(P2);

  riscv::Machine Ref(4096), Blk(4096);
  Ref.loadImage(0, Image2);
  Blk.loadImage(0, Image2);
  riscv::NoDevice DevC, DevD;
  riscv::BlockEngine E(Blk, DevD, riscv::ExecMode::Block);
  riscv::run(Ref, DevC, 1000);
  E.run(1000);
  for (const riscv::Machine *X : {&Ref, &Blk})
    std::printf("%s: a1 = %u, %s (%s)\n",
                X == &Ref ? "reference stepper" : "block engine     ",
                X->getReg(A1), riscv::ubKindName(X->ubKind()),
                X->ubDetail().c_str());
  std::printf("  block engine: %llu superblock(s) translated, %llu killed "
              "by the store\n",
              (unsigned long long)E.stats().BlocksTranslated,
              (unsigned long long)E.stats().BlocksKilled);

  std::printf("\nthe compiler-correctness proof obligates compiled code "
              "never to reach this state:\nevery store removes its "
              "addresses from XAddrs, and fetching outside XAddrs is UB "
              "(section 5.6).\n");

  bool Demo = Core.getReg(A1) == 7 &&
              M.ubKind() == riscv::UbKind::FetchNotExecutable &&
              E.stats().BlocksKilled > 0;
  for (const riscv::Machine *X : {&Ref, &Blk})
    Demo = Demo && X->ubKind() == riscv::UbKind::FetchNotExecutable &&
           X->getPc() == 16 && X->getReg(A1) == 7;
  return Demo ? 0 : 1;
}
