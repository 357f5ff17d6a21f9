#include "smr/latency_model.h"

#include <cmath>

namespace sealdb::smr {

LatencyParams LatencyParams::Hdd() {
  LatencyParams p;
  p.read_bandwidth = 169.0 * 1e6;
  p.write_bandwidth = 155.0 * 1e6;
  return p;
}

LatencyParams LatencyParams::Smr() {
  LatencyParams p;
  p.read_bandwidth = 165.0 * 1e6;
  p.write_bandwidth = 148.0 * 1e6;
  // Slightly quicker random reads (70 vs 64 IOPS in Table II).
  p.max_seek_s = 0.0172;
  return p;
}

LatencyParams LatencyParams::TimeScaled(uint64_t factor) const {
  LatencyParams p = *this;
  if (factor <= 1) return p;
  const double f = static_cast<double>(factor);
  p.min_seek_s /= f;
  p.max_seek_s /= f;
  p.rotation_s /= f;
  p.command_overhead_s /= f;
  return p;
}

double LatencyModel::SeekTime(uint64_t from, uint64_t to) const {
  const uint64_t d = from > to ? from - to : to - from;
  if (d == 0) return 0.0;
  const double frac = static_cast<double>(d) / static_cast<double>(capacity_);
  return params_.min_seek_s +
         (params_.max_seek_s - params_.min_seek_s) * std::sqrt(frac);
}

double LatencyModel::AccessCached(uint64_t nbytes, bool is_write) const {
  const double bw =
      is_write ? params_.write_bandwidth : params_.read_bandwidth;
  return params_.command_overhead_s + static_cast<double>(nbytes) / bw;
}

LatencyModel::AccessTime LatencyModel::Access(uint64_t offset,
                                              uint64_t nbytes, bool is_write) {
  double t = params_.command_overhead_s;

  double position = 0.0;
  if (offset != head_pos_) {
    // Non-sequential: pay seek plus average (half-revolution) rotational
    // latency to reach the target sector.
    position = SeekTime(head_pos_, offset) + params_.rotation_s / 2.0;
    if (is_write) position *= params_.write_position_factor;
    t += position;
  }

  const double bw =
      is_write ? params_.write_bandwidth : params_.read_bandwidth;
  t += static_cast<double>(nbytes) / bw;

  head_pos_ = offset + nbytes;
  return {t, position};
}

}  // namespace sealdb::smr
