// Key comparison interface. The engine orders user keys with a Comparator;
// the default is bytewise (memcmp) order.
#pragma once

#include <string>

#include "util/slice.h"

namespace sealdb {

class Comparator {
 public:
  virtual ~Comparator() = default;

  // Three-way comparison: <0 iff a < b, 0 iff a == b, >0 iff a > b.
  virtual int Compare(const Slice& a, const Slice& b) const = 0;

  // Name of this comparator (diagnostics; the store does not persist it,
  // since bytewise is the only ordering in use).
  virtual const char* Name() const = 0;

  // If *start < limit, change *start to a short string in [start, limit).
  // Used to shrink SSTable index entries.
  virtual void FindShortestSeparator(std::string* start,
                                     const Slice& limit) const = 0;

  // Change *key to a short string >= *key.
  virtual void FindShortSuccessor(std::string* key) const = 0;
};

// Singleton bytewise comparator; never deleted.
const Comparator* BytewiseComparator();

}  // namespace sealdb
