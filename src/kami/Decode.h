//===- kami/Decode.h - Hardware-side instruction decode --------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hardware model's instruction decoder. This is *deliberately* an
/// independent implementation from isa/Encoding.h: in the paper, the Kami
/// processor and the riscv-coq specification were developed independently
/// and "proving Kami's RISC-V specification equivalent to the one used by
/// the compiler" surfaced real specification bugs (section 5.5). The C++
/// analogue of that equivalence proof is verify/DecodeConsistency, a
/// differential checker over all (sampled) instruction words.
///
/// Decoding here is structured the way hardware describes it: extract all
/// fields unconditionally, then derive control signals. The decoded form
/// is shared between the single-cycle spec processor and the pipelined
/// implementation — the paper exploits the same sharing so that ISA fixes
/// do not disturb the refinement proof (section 5.7).
///
//===----------------------------------------------------------------------===//

#ifndef B2_KAMI_DECODE_H
#define B2_KAMI_DECODE_H

#include "isa/Instr.h"
#include "support/Word.h"
#include "verify/FaultInjection.h"

namespace b2 {
namespace kami {

/// Instruction classes as the datapath sees them.
enum class InstClass : uint8_t {
  Illegal,
  Alu,    ///< Register-register ALU (including RV32M).
  AluImm, ///< Register-immediate ALU.
  Lui,
  Auipc,
  Jal,
  Jalr,
  Branch,
  Load,
  Store,
  Fence,
  System, ///< ecall/ebreak: the hardware treats them as no-ops (the
          ///< software semantics call them UB; see kami/SpecCore.cpp).
};

/// Control signals and operands extracted by the decode stage.
struct DecodedInst {
  InstClass Cls = InstClass::Illegal;
  uint8_t Rd = 0;
  uint8_t Rs1 = 0;
  uint8_t Rs2 = 0;
  Word Imm = 0;       ///< Sign-extended immediate (format-dependent).
  uint8_t Funct3 = 0; ///< Raw funct3 field.
  bool AluAlt = false;///< funct7[5]: selects sub/sra.
  bool MulDiv = false;///< funct7 == 0000001: RV32M operation.

  friend bool operator==(const DecodedInst &, const DecodedInst &) = default;

  bool readsRs1() const {
    switch (Cls) {
    case InstClass::Alu:
    case InstClass::AluImm:
    case InstClass::Jalr:
    case InstClass::Branch:
    case InstClass::Load:
    case InstClass::Store:
      return true;
    default:
      return false;
    }
  }

  bool readsRs2() const {
    switch (Cls) {
    case InstClass::Alu:
    case InstClass::Branch:
    case InstClass::Store:
      return true;
    default:
      return false;
    }
  }

  bool writesRd() const {
    switch (Cls) {
    case InstClass::Alu:
    case InstClass::AluImm:
    case InstClass::Lui:
    case InstClass::Auipc:
    case InstClass::Jal:
    case InstClass::Jalr:
    case InstClass::Load:
      return Rd != 0;
    default:
      return false;
    }
  }

  /// True for instructions that can redirect the PC.
  bool isControl() const {
    return Cls == InstClass::Jal || Cls == InstClass::Jalr ||
           Cls == InstClass::Branch;
  }
};

/// Decodes \p Raw the hardware way.
DecodedInst decodeInst(Word Raw);

/// Converts a hardware decode to the software-side representation, for the
/// decode-consistency differential checker. Illegal instructions map to
/// Opcode::Invalid.
isa::Instr toIsa(const DecodedInst &D);

// -- Shared combinational execute logic -------------------------------------
//
// Inline: every core model calls these once per instruction.

/// Register-register / register-immediate ALU result. Independent
/// implementation from riscv/Step.cpp's ALU (checked for agreement by the
/// property tests).
inline Word execAlu(const DecodedInst &D, Word A, Word B) {
  if (D.MulDiv && D.Cls == InstClass::Alu) {
    switch (D.Funct3) {
    case 0:
      return A * B;
    case 1: // mulh
      return Word((SDWord(SWord(A)) * SDWord(SWord(B))) >> 32);
    case 2: // mulhsu
      return Word((SDWord(SWord(A)) * SDWord(DWord(B))) >> 32);
    case 3: // mulhu
      return Word((DWord(A) * DWord(B)) >> 32);
    case 4: // div
      if (B == 0)
        return ~Word(0);
      if (A == 0x80000000u && B == ~Word(0))
        return A;
      return Word(SWord(A) / SWord(B));
    case 5: // divu
      return B == 0 ? ~Word(0) : A / B;
    case 6: // rem
      if (B == 0)
        return A;
      if (A == 0x80000000u && B == ~Word(0))
        return 0;
      return Word(SWord(A) % SWord(B));
    default: // remu
      return B == 0 ? A : A % B;
    }
  }
  bool Alt = D.AluAlt && (D.Cls == InstClass::Alu || D.Funct3 == 5);
  switch (D.Funct3) {
  case 0:
    return Alt ? A - B : A + B;
  case 1:
    return A << (B & 31);
  case 2:
    if (fi::on(fi::Fault::KamiSltAsUnsigned))
      return A < B ? 1 : 0;
    return SWord(A) < SWord(B) ? 1 : 0;
  case 3:
    return A < B ? 1 : 0;
  case 4:
    return A ^ B;
  case 5: {
    unsigned Sh = B & 31;
    if (!Alt)
      return A >> Sh;
    // Arithmetic right shift implemented the hardware way: replicate the
    // sign bit.
    Word Fill = (A & 0x80000000u) && Sh ? (~Word(0) << (32 - Sh)) : 0;
    return (A >> Sh) | Fill;
  }
  case 6:
    return A | B;
  default:
    return A & B;
  }
}

/// Branch condition evaluation.
inline bool execBranchTaken(uint8_t Funct3, Word A, Word B) {
  switch (Funct3) {
  case 0:
    return A == B;
  case 1:
    return A != B;
  case 4:
    return SWord(A) < SWord(B);
  case 5:
    return SWord(A) >= SWord(B);
  case 6:
    return A < B;
  case 7:
    return A >= B;
  default:
    return false; // Illegal branch funct3s never issue.
  }
}

/// Access size in bytes of a load or store with \p Funct3 (b/bu 1, h/hu 2,
/// w 4).
inline unsigned memAccessSize(uint8_t Funct3) {
  return Funct3 == 2 ? 4 : (Funct3 & 1) ? 2 : 1;
}

/// Load-result extension (byte/halfword sign/zero extension).
inline Word execLoadExtend(uint8_t Funct3, Word Raw) {
  switch (Funct3) {
  case 0:
    if (fi::on(fi::Fault::KamiLoadNoSignExtend))
      return Raw & 0xFF;
    return support::signExtend(Raw & 0xFF, 8);
  case 1:
    return support::signExtend(Raw & 0xFFFF, 16);
  case 4:
    return Raw & 0xFF;
  case 5:
    return Raw & 0xFFFF;
  default:
    return Raw;
  }
}

/// The execute datapath: the one definition of each instruction class's
/// semantics, shared by the spec core, the pipelined core's EX stage and
/// its fast engine. Evaluates \p D at \p Pc with operands \p A and \p B
/// and reports the effect to \p Out: Out.result(V) is the value rd
/// receives (ALU result or link value; reported only by classes that
/// write rd), Out.jump(T) a next pc other than Pc + 4, and
/// Out.load(Addr) / Out.store(Addr, Data) a memory access. Returns what
/// the memory call returns, true for the rest.
template <typename Sink>
inline bool datapath(const DecodedInst &D, Word Pc, Word A, Word B,
                     Sink &Out) {
  switch (D.Cls) {
  case InstClass::Illegal:
  case InstClass::Fence:
  case InstClass::System:
    return true; // Arbitrary-but-deterministic hardware behavior: no-op.
  case InstClass::Lui:
    Out.result(D.Imm);
    return true;
  case InstClass::Auipc:
    Out.result(Pc + D.Imm);
    return true;
  case InstClass::Jal:
    Out.result(Pc + 4);
    Out.jump(Pc + D.Imm);
    return true;
  case InstClass::Jalr:
    Out.result(Pc + 4);
    Out.jump((A + D.Imm) & ~Word(1));
    return true;
  case InstClass::Branch:
    if (execBranchTaken(D.Funct3, A, B))
      Out.jump(Pc + D.Imm);
    return true;
  case InstClass::Load:
    return Out.load(A + D.Imm);
  case InstClass::Store:
    return Out.store(A + D.Imm, B);
  case InstClass::Alu:
    Out.result(execAlu(D, A, B));
    return true;
  case InstClass::AluImm:
    Out.result(execAlu(D, A, D.Imm));
    return true;
  }
  return true;
}

} // namespace kami
} // namespace b2

#endif // B2_KAMI_DECODE_H
