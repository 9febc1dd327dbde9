//===- kami/MemSystem.cpp - Shared memory/MMIO routing ---------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "kami/MemSystem.h"

using namespace b2;
using namespace b2::kami;

Word MemPort::loadExternal(Word Addr, unsigned Size, uint64_t Cycle,
                           LabelTrace &Labels) {
  Word V = Device.isMmio(Addr, Size) ? Device.load(Addr, Size) : 0;
  Labels.push_back(Label{Label::Kind::MmioLoad, Addr, V, uint8_t(Size),
                         Cycle});
  return V;
}

void MemPort::storeExternal(Word Addr, unsigned Size, Word Value,
                            uint64_t Cycle, LabelTrace &Labels) {
  Word Sent = Size == 4 ? Value : (Value & ((Word(1) << (8 * Size)) - 1));
  if (Device.isMmio(Addr, Size))
    Device.store(Addr, Size, Sent);
  Labels.push_back(Label{Label::Kind::MmioStore, Addr, Sent, uint8_t(Size),
                         Cycle});
}
