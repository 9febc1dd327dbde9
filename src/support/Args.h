//===- support/Args.h - Command-line numeric flags --------------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one numeric-flag parser of the command-line tools. A checking tool
/// must never turn a bad number into a vacuous run (`--frames abc` read
/// as zero frames checks nothing and passes) or a crash (`--frames -1`
/// read as a huge count). Every numeric flag goes through
/// parseNumericFlag, which accepts only plain decimal digits inside the
/// flag's range and otherwise reports a usage error naming the flag and
/// its range.
///
//===----------------------------------------------------------------------===//

#ifndef B2_SUPPORT_ARGS_H
#define B2_SUPPORT_ARGS_H

#include <cstdint>

namespace b2 {
namespace support {

/// Parses \p Text as a decimal integer in [\p Min, \p Max]. Rejects an
/// empty string, signs, whitespace, any non-digit, and values outside the
/// range or beyond uint64_t. Leaves \p Out untouched on rejection.
bool parseUnsigned(const char *Text, uint64_t Min, uint64_t Max,
                   uint64_t &Out);

/// parseUnsigned for flag \p Flag of tool \p Tool: on rejection prints
/// "TOOL: FLAG wants an integer in [MIN, MAX], got 'TEXT'" to stderr and
/// returns false, so the caller exits with its usage status.
bool parseNumericFlag(const char *Tool, const char *Flag, const char *Text,
                      uint64_t Min, uint64_t Max, uint64_t &Out);

} // namespace support
} // namespace b2

#endif // B2_SUPPORT_ARGS_H
