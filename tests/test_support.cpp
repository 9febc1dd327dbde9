//===- tests/test_support.cpp - support library unit tests -------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Args.h"
#include "support/Fnv.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "support/Word.h"

#include <gtest/gtest.h>

using namespace b2;
using namespace b2::support;

TEST(Word, BitsExtractsInclusiveRanges) {
  EXPECT_EQ(bits(0xDEADBEEF, 31, 28), 0xDu);
  EXPECT_EQ(bits(0xDEADBEEF, 3, 0), 0xFu);
  EXPECT_EQ(bits(0xDEADBEEF, 31, 0), 0xDEADBEEFu);
  EXPECT_EQ(bits(0x00000080, 7, 7), 1u);
}

TEST(Word, BitExtractsSingleBits) {
  EXPECT_EQ(bit(0x80000000u, 31), 1u);
  EXPECT_EQ(bit(0x80000000u, 30), 0u);
  EXPECT_EQ(bit(1, 0), 1u);
}

TEST(Word, SignExtendWidens) {
  EXPECT_EQ(signExtend(0xFFF, 12), 0xFFFFFFFFu);
  EXPECT_EQ(signExtend(0x7FF, 12), 0x7FFu);
  EXPECT_EQ(signExtend(0x800, 12), 0xFFFFF800u);
  EXPECT_EQ(signExtend(0x80, 8), 0xFFFFFF80u);
  EXPECT_EQ(signExtend(0xDEADBEEF, 32), 0xDEADBEEFu);
  // Bits above the width are ignored.
  EXPECT_EQ(signExtend(0xFFFFF001, 12), 1u);
}

TEST(Word, FitsSignedBoundaries) {
  EXPECT_TRUE(fitsSigned(2047, 12));
  EXPECT_FALSE(fitsSigned(2048, 12));
  EXPECT_TRUE(fitsSigned(-2048, 12));
  EXPECT_FALSE(fitsSigned(-2049, 12));
  EXPECT_TRUE(fitsSigned(0, 1));
  EXPECT_TRUE(fitsSigned(-1, 1));
  EXPECT_FALSE(fitsSigned(1, 1));
}

TEST(Word, IsAlignedPowersOfTwo) {
  EXPECT_TRUE(isAligned(0, 4));
  EXPECT_TRUE(isAligned(8, 4));
  EXPECT_FALSE(isAligned(2, 4));
  EXPECT_TRUE(isAligned(2, 2));
  EXPECT_TRUE(isAligned(3, 1));
}

TEST(Word, RiscvDivisionConventions) {
  EXPECT_EQ(divu(10, 3), 3u);
  EXPECT_EQ(divu(10, 0), 0xFFFFFFFFu);
  EXPECT_EQ(remu(10, 3), 1u);
  EXPECT_EQ(remu(10, 0), 10u);
  EXPECT_EQ(divs(0x80000000u, 0xFFFFFFFFu), 0x80000000u); // Overflow.
  EXPECT_EQ(rems(0x80000000u, 0xFFFFFFFFu), 0u);
  EXPECT_EQ(divs(7, 0), 0xFFFFFFFFu);
  EXPECT_EQ(rems(7, 0), 7u);
  EXPECT_EQ(divs(Word(-7), 2), Word(-3)); // Truncating division.
  EXPECT_EQ(rems(Word(-7), 2), Word(-1));
}

TEST(Word, ShiftsMaskAmountTo5Bits) {
  EXPECT_EQ(shiftL(1, 33), 2u);
  EXPECT_EQ(shiftRL(0x80000000u, 32), 0x80000000u); // shamt 0.
  EXPECT_EQ(shiftRA(0x80000000u, 4), 0xF8000000u);
  EXPECT_EQ(shiftRA(0x40000000u, 4), 0x04000000u);
  EXPECT_EQ(shiftRA(0xFFFFFFFFu, 31), 0xFFFFFFFFu);
}

TEST(Word, MulhuuMatches64BitProduct) {
  EXPECT_EQ(mulhuu(0xFFFFFFFFu, 0xFFFFFFFFu), 0xFFFFFFFEu);
  EXPECT_EQ(mulhuu(0x10000u, 0x10000u), 1u);
  EXPECT_EQ(mulhuu(2, 3), 0u);
}

TEST(Fnv1a, MatchesTheReferenceAndZeroExtendsNarrowWords) {
  Fnv1a A;
  A.byte('a');
  EXPECT_EQ(A.Value, 0xaf63dc4c8601ec8cull); // FNV-1a-64 of "a".
  // word(V) mixes V's eight-byte zero extension whatever V's width.
  for (uint64_t V : {0ull, 1ull, 0xffull, 0x10024000ull, 0xdeadbeefull}) {
    Fnv1a Bytes, Wide, Narrow;
    for (int I = 0; I < 8; ++I)
      Bytes.byte(uint8_t(V >> (I * 8)));
    Wide.word(V);
    Narrow.word(uint32_t(V));
    EXPECT_EQ(Wide.Value, Bytes.Value) << V;
    EXPECT_EQ(Narrow.Value, Bytes.Value) << V;
    if (V <= 0xff) {
      Fnv1a Byte;
      Byte.word(uint8_t(V));
      EXPECT_EQ(Byte.Value, Bytes.Value) << V;
    }
  }
  Fnv1a True, One;
  True.word(true);
  One.word(uint64_t(1));
  EXPECT_EQ(True.Value, One.Value);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next64(), B.next64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDifferent = false;
  for (int I = 0; I != 10; ++I)
    AnyDifferent |= A.next64() != B.next64();
  EXPECT_TRUE(AnyDifferent);
}

TEST(Rng, BelowStaysBelow) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng R(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 2000; ++I) {
    uint64_t V = R.range(3, 5);
    EXPECT_GE(V, 3u);
    EXPECT_LE(V, 5u);
    SawLo |= V == 3;
    SawHi |= V == 5;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Format, Hex32) {
  EXPECT_EQ(hex32(0), "0x00000000");
  EXPECT_EQ(hex32(0xDEADBEEF), "0xdeadbeef");
}

TEST(Format, JoinAndPad) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(padLeft("x", 3), "  x");
  EXPECT_EQ(padRight("x", 3), "x  ");
  EXPECT_EQ(padLeft("xyzw", 3), "xyzw");
}

TEST(Args, ParseUnsignedAcceptsPlainDecimalInRange) {
  uint64_t V = 7;
  EXPECT_TRUE(parseUnsigned("0", 0, 10, V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUnsigned("10", 0, 10, V));
  EXPECT_EQ(V, 10u);
  EXPECT_TRUE(parseUnsigned("18446744073709551615", 0, UINT64_MAX, V));
  EXPECT_EQ(V, UINT64_MAX);
}

TEST(Args, ParseUnsignedRejectsJunkAndOutOfRange) {
  for (const char *Bad : {"", "abc", "-1", "+1", " 1", "1 ", "12x", "1.5",
                          "0x10", "18446744073709551616",
                          "99999999999999999999"}) {
    uint64_t V = 7;
    EXPECT_FALSE(parseUnsigned(Bad, 0, UINT64_MAX, V)) << "'" << Bad << "'";
    EXPECT_EQ(V, 7u) << "'" << Bad << "'";
  }
  uint64_t V = 7;
  EXPECT_FALSE(parseUnsigned("0", 1, 10, V));
  EXPECT_FALSE(parseUnsigned("11", 1, 10, V));
  EXPECT_FALSE(parseUnsigned(nullptr, 0, 10, V));
  EXPECT_EQ(V, 7u);
}
