//===- support/Args.cpp - Command-line numeric flags -----------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Args.h"

#include <cstdio>

using namespace b2;

bool b2::support::parseUnsigned(const char *Text, uint64_t Min, uint64_t Max,
                                uint64_t &Out) {
  if (Text == nullptr || *Text == '\0')
    return false;
  uint64_t V = 0;
  for (const char *P = Text; *P != '\0'; ++P) {
    if (*P < '0' || *P > '9')
      return false;
    unsigned Digit = unsigned(*P - '0');
    if (V > (UINT64_MAX - Digit) / 10)
      return false; // Beyond uint64_t.
    V = V * 10 + Digit;
  }
  if (V < Min || V > Max)
    return false;
  Out = V;
  return true;
}

bool b2::support::parseNumericFlag(const char *Tool, const char *Flag,
                                   const char *Text, uint64_t Min,
                                   uint64_t Max, uint64_t &Out) {
  if (parseUnsigned(Text, Min, Max, Out))
    return true;
  std::fprintf(stderr, "%s: %s wants an integer in [%llu, %llu], got '%s'\n",
               Tool, Flag, (unsigned long long)Min, (unsigned long long)Max,
               Text ? Text : "");
  return false;
}
