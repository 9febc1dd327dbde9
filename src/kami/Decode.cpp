//===- kami/Decode.cpp - Hardware-side instruction decode ------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "kami/Decode.h"

#include "verify/FaultInjection.h"

using namespace b2;
using namespace b2::kami;
using namespace b2::support;

namespace {

// Immediate muxes, written as a hardware decoder would: slice and
// concatenate fixed bit positions.
Word immFieldI(Word R) { return signExtend(R >> 20, 12); }
Word immFieldS(Word R) {
  return signExtend(((R >> 25) << 5) | ((R >> 7) & 0x1F), 12);
}
Word immFieldB(Word R) {
  Word V = (((R >> 31) & 1) << 12) | (((R >> 7) & 1) << 11) |
           (((R >> 25) & 0x3F) << 5) | (((R >> 8) & 0xF) << 1);
  return signExtend(V, 13);
}
Word immFieldU(Word R) { return R & 0xFFFFF000u; }
Word immFieldJ(Word R) {
  Word V = (((R >> 31) & 1) << 20) | (((R >> 12) & 0xFF) << 12) |
           (((R >> 20) & 1) << 11) | (((R >> 21) & 0x3FF) << 1);
  return signExtend(V, 21);
}

} // namespace

DecodedInst b2::kami::decodeInst(Word Raw) {
  DecodedInst D;
  Word Major = Raw & 0x7F;
  D.Rd = uint8_t((Raw >> 7) & 0x1F);
  D.Funct3 = uint8_t((Raw >> 12) & 0x7);
  D.Rs1 = uint8_t((Raw >> 15) & 0x1F);
  D.Rs2 = uint8_t((Raw >> 20) & 0x1F);
  Word Funct7 = (Raw >> 25) & 0x7F;
  D.AluAlt = (Funct7 & 0x20) != 0;
  D.MulDiv = Funct7 == 0x01;

  switch (Major) {
  case 0x37:
    D.Cls = InstClass::Lui;
    D.Imm = immFieldU(Raw);
    D.Rs1 = D.Rs2 = 0;
    break;
  case 0x17:
    D.Cls = InstClass::Auipc;
    D.Imm = immFieldU(Raw);
    D.Rs1 = D.Rs2 = 0;
    break;
  case 0x6F:
    D.Cls = InstClass::Jal;
    D.Imm = Word(immFieldJ(Raw));
    D.Rs1 = D.Rs2 = 0;
    break;
  case 0x67:
    D.Cls = D.Funct3 == 0 ? InstClass::Jalr : InstClass::Illegal;
    D.Imm = immFieldI(Raw);
    D.Rs2 = 0;
    break;
  case 0x63:
    // funct3 2 and 3 do not encode branches.
    D.Cls = (D.Funct3 == 2 || D.Funct3 == 3) ? InstClass::Illegal
                                             : InstClass::Branch;
    D.Imm = immFieldB(Raw);
    D.Rd = 0;
    break;
  case 0x03:
    // Legal load widths: b, h, w, bu, hu.
    D.Cls = (D.Funct3 == 3 || D.Funct3 >= 6) ? InstClass::Illegal
                                             : InstClass::Load;
    D.Imm = immFieldI(Raw);
    D.Rs2 = 0;
    break;
  case 0x23:
    D.Cls = D.Funct3 <= 2 ? InstClass::Store : InstClass::Illegal;
    D.Imm = immFieldS(Raw);
    D.Rd = 0;
    break;
  case 0x13:
    D.Cls = InstClass::AluImm;
    D.Imm = immFieldI(Raw);
    D.Rs2 = 0;
    // Shift immediates constrain funct7.
    if (D.Funct3 == 1 && Funct7 != 0)
      D.Cls = InstClass::Illegal;
    if (D.Funct3 == 5 && Funct7 != 0 && Funct7 != 0x20)
      D.Cls = InstClass::Illegal;
    // Shift amounts are the 5-bit rs2 field, zero-extended.
    if ((D.Funct3 == 1 || D.Funct3 == 5) &&
        !fi::on(fi::Fault::KamiDecodeShamtWide))
      D.Imm = (Raw >> 20) & 0x1F;
    break;
  case 0x33:
    if (Funct7 == 0x01) {
      D.Cls = InstClass::Alu; // RV32M: all 8 funct3 values are legal.
    } else if (Funct7 == 0x00) {
      D.Cls = InstClass::Alu;
    } else if (Funct7 == 0x20 && (D.Funct3 == 0 || D.Funct3 == 5)) {
      D.Cls = InstClass::Alu; // sub / sra.
    } else {
      D.Cls = InstClass::Illegal;
    }
    break;
  case 0x0F:
    D.Cls = D.Funct3 == 0 ? InstClass::Fence : InstClass::Illegal;
    D.Imm = immFieldI(Raw);
    break;
  case 0x73:
    D.Cls = (Raw == 0x00000073 || Raw == 0x00100073) ? InstClass::System
                                                     : InstClass::Illegal;
    D.Rd = D.Rs1 = D.Rs2 = 0;
    D.Funct3 = 0;
    D.Imm = (Raw >> 20) & 1; // 0 = ecall, 1 = ebreak.
    break;
  default:
    D.Cls = InstClass::Illegal;
    break;
  }
  return D;
}

isa::Instr b2::kami::toIsa(const DecodedInst &D) {
  using isa::Opcode;
  isa::Instr I;
  I.Rd = D.Rd;
  I.Rs1 = D.Rs1;
  I.Rs2 = D.Rs2;
  I.Imm = SWord(D.Imm);
  switch (D.Cls) {
  case InstClass::Illegal:
    I = isa::Instr();
    return I;
  case InstClass::Lui:
    I.Op = Opcode::Lui;
    return I;
  case InstClass::Auipc:
    I.Op = Opcode::Auipc;
    return I;
  case InstClass::Jal:
    I.Op = Opcode::Jal;
    return I;
  case InstClass::Jalr:
    I.Op = Opcode::Jalr;
    return I;
  case InstClass::Branch: {
    static const Opcode Map[8] = {Opcode::Beq,  Opcode::Bne,  Opcode::Invalid,
                                  Opcode::Invalid, Opcode::Blt, Opcode::Bge,
                                  Opcode::Bltu, Opcode::Bgeu};
    I.Op = Map[D.Funct3];
    return I;
  }
  case InstClass::Load: {
    static const Opcode Map[8] = {Opcode::Lb,  Opcode::Lh,      Opcode::Lw,
                                  Opcode::Invalid, Opcode::Lbu, Opcode::Lhu,
                                  Opcode::Invalid, Opcode::Invalid};
    I.Op = Map[D.Funct3];
    return I;
  }
  case InstClass::Store: {
    static const Opcode Map[8] = {Opcode::Sb,      Opcode::Sh,
                                  Opcode::Sw,      Opcode::Invalid,
                                  Opcode::Invalid, Opcode::Invalid,
                                  Opcode::Invalid, Opcode::Invalid};
    I.Op = Map[D.Funct3];
    return I;
  }
  case InstClass::AluImm: {
    static const Opcode Map[8] = {Opcode::Addi, Opcode::Slli, Opcode::Slti,
                                  Opcode::Sltiu, Opcode::Xori, Opcode::Srli,
                                  Opcode::Ori,  Opcode::Andi};
    I.Op = Map[D.Funct3];
    if (D.Funct3 == 5 && D.AluAlt)
      I.Op = Opcode::Srai;
    return I;
  }
  case InstClass::Alu: {
    if (D.MulDiv) {
      static const Opcode Map[8] = {Opcode::Mul,  Opcode::Mulh,
                                    Opcode::Mulhsu, Opcode::Mulhu,
                                    Opcode::Div,  Opcode::Divu,
                                    Opcode::Rem,  Opcode::Remu};
      I.Op = Map[D.Funct3];
      return I;
    }
    static const Opcode Map[8] = {Opcode::Add, Opcode::Sll, Opcode::Slt,
                                  Opcode::Sltu, Opcode::Xor, Opcode::Srl,
                                  Opcode::Or,  Opcode::And};
    I.Op = Map[D.Funct3];
    if (D.Funct3 == 0 && D.AluAlt)
      I.Op = Opcode::Sub;
    if (D.Funct3 == 5 && D.AluAlt)
      I.Op = Opcode::Sra;
    return I;
  }
  case InstClass::Fence:
    I.Op = Opcode::Fence;
    I.Rs2 = 0; // The rs2 field bits belong to the fence immediate.
    return I;
  case InstClass::System:
    I.Op = D.Imm ? Opcode::Ebreak : Opcode::Ecall;
    I.Imm = 0;
    return I;
  }
  return I;
}
