//===- host/Disk.cpp -------------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "host/Disk.h"

#include <algorithm>
#include <cassert>

using namespace dgsim;

Disk::Disk(Simulator &Sim, DiskConfig Config,
           PeriodicBatch<CpuLoadModel> *LoadBatch)
    : Config(Config), BackgroundLoad(Sim, Config.Background, LoadBatch) {
  assert(Config.ReadRate > 0.0 && Config.WriteRate > 0.0 &&
         "disks need positive throughput");
}

double Disk::busyFraction() const {
  double Share = (TransferRate + LocalRate) / Config.ReadRate;
  return std::clamp(backgroundBusy() + Share, 0.0, 1.0);
}

BitRate Disk::availableReadRate(unsigned Readers) const {
  assert(Readers >= 1 && "need at least one reader");
  BitRate Free = Config.ReadRate * (1.0 - backgroundBusy()) - LocalRate;
  return std::max(Free / static_cast<double>(Readers), 0.0);
}

BitRate Disk::availableWriteRate(unsigned Writers) const {
  assert(Writers >= 1 && "need at least one writer");
  BitRate Free = Config.WriteRate * (1.0 - backgroundBusy()) - LocalRate;
  return std::max(Free / static_cast<double>(Writers), 0.0);
}

void Disk::removeTransferLoad(BitRate Rate) {
  TransferRate -= Rate;
  if (TransferRate < 0.0)
    TransferRate = 0.0;
}

void Disk::removeLocalLoad(BitRate Rate) {
  LocalRate -= Rate;
  if (LocalRate < 0.0)
    LocalRate = 0.0;
}
