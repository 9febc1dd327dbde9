//===- support/Fnv.h - FNV-1a fingerprints ---------------------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 64-bit FNV-1a, the fingerprint of traces, traffic streams and cache
/// keys. The state is a plain value, so a fingerprint can be folded as
/// data streams past and checkpointed mid-stream.
///
//===----------------------------------------------------------------------===//

#ifndef B2_SUPPORT_FNV_H
#define B2_SUPPORT_FNV_H

#include <cstdint>
#include <type_traits>

namespace b2 {
namespace support {

struct Fnv1a {
  static constexpr uint64_t Prime = 0x100000001b3ull;
  uint64_t Value = 0xcbf29ce484222325ull;

  void byte(uint8_t B) {
    Value ^= B;
    Value *= Prime;
  }

  /// Mixes \p V zero-extended to eight bytes, least significant first.
  /// Mixing a zero byte only multiplies by the prime, so the high bytes a
  /// narrower \p T leaves zero cost one multiply between them.
  template <typename T> void word(T V) {
    static_assert(std::is_unsigned_v<T>, "zero-extension needs unsigned");
    for (unsigned I = 0; I < sizeof(T); ++I)
      byte(uint8_t(uint64_t(V) >> (I * 8)));
    constexpr uint64_t ZeroBytes = [] {
      uint64_t P = 1;
      for (unsigned I = sizeof(T); I < 8; ++I)
        P *= Prime;
      return P;
    }();
    Value *= ZeroBytes;
  }
};

} // namespace support
} // namespace b2

#endif // B2_SUPPORT_FNV_H
