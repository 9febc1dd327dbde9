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

/// Register-register / register-immediate ALU result. Independent
/// implementation from riscv/Step.cpp's ALU (checked for agreement by the
/// property tests).
Word execAlu(const DecodedInst &D, Word A, Word B);

/// Branch condition evaluation.
bool execBranchTaken(uint8_t Funct3, Word A, Word B);

/// Load-result extension (byte/halfword sign/zero extension).
Word execLoadExtend(uint8_t Funct3, Word Raw);

} // namespace kami
} // namespace b2

#endif // B2_KAMI_DECODE_H
