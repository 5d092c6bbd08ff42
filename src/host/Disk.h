//===- host/Disk.h - Storage device with background I/O --------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A storage device whose throughput is shared between grid transfers and a
/// stochastic local I/O workload.
///
/// The paper's third system factor, P^{I/O} (the "percentage of I/O idles"
/// as reported by sysstat's iostat), is the idle fraction of this device.
/// Background utilisation follows the same clipped OU process as CPU load;
/// grid transfers additionally register themselves so the device can report
/// a busy fraction that includes them, which is what iostat would show.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_HOST_DISK_H
#define DGSIM_HOST_DISK_H

#include "host/CpuLoadModel.h"
#include "sim/Simulator.h"
#include "support/Units.h"

namespace dgsim {

/// Parameters of a disk.
struct DiskConfig {
  /// Peak sequential read throughput, bits/second of payload.
  BitRate ReadRate = 400e6; // ~50 MB/s, 2005-era IDE/early SATA.
  /// Peak sequential write throughput, bits/second of payload.
  BitRate WriteRate = 320e6;
  /// Background utilisation process (reuses the CPU OU machinery).
  CpuLoadConfig Background;
};

/// A live disk attached to a simulator.
class Disk {
public:
  Disk(Simulator &Sim, DiskConfig Config,
       PeriodicBatch<CpuLoadModel> *LoadBatch = nullptr);

  Disk(const Disk &) = delete;
  Disk &operator=(const Disk &) = delete;

  /// \returns background (local workload) utilisation in [0, 1].
  double backgroundBusy() const { return BackgroundLoad.load(); }

  /// \returns total busy fraction including grid transfers, clipped to 1.
  /// This is what the sysstat/iostat sensor reports.
  double busyFraction() const;

  /// \returns idle fraction, the paper's P^{I/O} factor.
  double idleFraction() const { return 1.0 - busyFraction(); }

  /// Read bandwidth available to one more grid transfer, given \p Readers
  /// concurrent reading transfers would share it, bits/second.
  BitRate availableReadRate(unsigned Readers = 1) const;

  /// Write bandwidth available to one more grid transfer.
  BitRate availableWriteRate(unsigned Writers = 1) const;

  /// Transfer registration, used for busyFraction accounting.  \p Rate is
  /// the payload rate currently moving through this device.
  void addTransferLoad(BitRate Rate) { TransferRate += Rate; }
  void removeTransferLoad(BitRate Rate);

  /// Local-job reservation (backups, analysis scratch I/O): shows up in
  /// busyFraction *and* reduces the bandwidth available to transfers,
  /// unlike addTransferLoad which is pure accounting.
  void addLocalLoad(BitRate Rate) { LocalRate += Rate; }
  void removeLocalLoad(BitRate Rate);

  /// \returns the current local-job reservation, bits/second.
  BitRate localLoad() const { return LocalRate; }

  const DiskConfig &config() const { return Config; }

private:
  DiskConfig Config;
  CpuLoadModel BackgroundLoad;
  BitRate TransferRate = 0.0;
  BitRate LocalRate = 0.0;
};

} // namespace dgsim

#endif // DGSIM_HOST_DISK_H
