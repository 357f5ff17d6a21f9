// DeviceMetrics: the drive models' traffic accounting, the basis of the
// paper's Table I:
//   WA  = (flush + compaction) bytes / user bytes  (LSM-tree amplification)
//   AWA = device physical writes / logical writes   (SMR auxiliary ampl.)
//   MWA = WA * AWA                                   (multiplicative)
// The counters live in a MetricsRegistry (shared with the engine and server
// when the stack wires one in, private otherwise) under the sealdb_device_*
// and sealdb_smr_* families; Drive::metrics() hands them to readers, and
// the METRICS exposition and bench deltas read the same counters.
//
// One registry carries at most one device's metrics (a stack owns exactly
// one drive). A FaultInjectionDrive wrapper has no counters of its own: it
// increments the fault counters of its target's DeviceMetrics, and the
// target the traffic ones.
#pragma once

#include <memory>

#include "obs/metrics.h"

namespace sealdb::smr {

class DeviceMetrics {
 public:
  // A null registry gets a private one (standalone drives in unit tests).
  explicit DeviceMetrics(std::shared_ptr<obs::MetricsRegistry> registry);

  // Host-visible traffic.
  obs::Counter* logical_read;   // bytes
  obs::Counter* logical_write;  // bytes
  // Media traffic (includes band read-modify-write).
  obs::Counter* physical_read;   // bytes
  obs::Counter* physical_write;  // bytes

  obs::Counter* read_ops;
  obs::Counter* write_ops;
  obs::Counter* rmw_ops;
  obs::Counter* seeks;

  obs::TimeCounter* busy;      // total simulated device busy time
  obs::TimeCounter* position;  // seek + rotational share of busy

  // Fault injection (FaultInjectionDrive increments these).
  obs::Counter* read_errors;
  obs::Counter* write_errors;
  obs::Counter* torn_writes;
  obs::Counter* crashes;

  // Writes rejected because they would shingle over valid data. The SEALDB
  // allocator's guard discipline keeps this at zero; a nonzero value is a
  // placement bug.
  obs::Counter* guard_violations;

  // The paper's AWA over a byte count pair; 1.0 before any write.
  static double Awa(uint64_t logical_write, uint64_t physical_write);

  const std::shared_ptr<obs::MetricsRegistry>& registry() const {
    return registry_;
  }

 private:
  std::shared_ptr<obs::MetricsRegistry> registry_;
};

}  // namespace sealdb::smr
