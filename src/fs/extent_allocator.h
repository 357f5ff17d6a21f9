// ExtentAllocator: placement policy deciding where file data lands on the
// drive. The three policies reproduce the paper's three systems:
//   Ext4Allocator         block-group scattering (LevelDB on ext4)
//   BandAlignedAllocator  one dedicated band per allocation (SMRDB)
//   DynamicBandAllocator  the paper's free-space-list policy (src/core/)
#pragma once

#include <cstdint>

#include "fs/extent.h"
#include "util/status.h"

namespace sealdb::fs {

class ExtentAllocator {
 public:
  virtual ~ExtentAllocator() = default;

  // Allocate `size` bytes (the allocator may round up internally; the
  // returned extent length is >= size). Returns NoSpace when full.
  virtual Status Allocate(uint64_t size, Extent* out) = 0;

  // Allocate preferring placement at exactly `goal` (used when growing a
  // file: ext4's "goal block" heuristic keeps a file's extents adjacent).
  // Default: ignore the goal.
  virtual Status AllocateNear(uint64_t size, uint64_t goal, Extent* out) {
    (void)goal;
    return Allocate(size, out);
  }

  // Allocate with a trailing guard reserved unconditionally. Needed for
  // long-lived APPEND-mode files (the WAL) on shingled media: their
  // tail tracks are written long after later allocations land behind them,
  // so the shingle-overlap window after the extent must stay dead for the
  // extent's whole lifetime. Allocators for media without the constraint
  // simply fall back to Allocate.
  virtual Status AllocateGuarded(uint64_t size, Extent* out) {
    return Allocate(size, out);
  }

  // Return an extent (including its guard) to the allocator. A release the
  // allocator can prove wrong — outside its managed range, or overlapping
  // space that is already free (a double free) — returns InvalidArgument
  // with the allocator state untouched; callers count it rather than crash.
  virtual Status Free(const Extent& e) = 0;

  // Give back the unused tail of `*e`, shrinking it to `new_length`
  // (rounded up to the allocator's granularity). Used when a set turns out
  // smaller than its reservation.
  virtual void Shrink(Extent* e, uint64_t new_length) = 0;

  // Recovery: mark `e` (including guard) as in use. REQUIRES: called only
  // before any Allocate, with non-overlapping extents.
  virtual Status Reserve(const Extent& e) = 0;

  // Bytes currently handed out (excluding guards).
  virtual uint64_t allocated_bytes() const = 0;
};

}  // namespace sealdb::fs
