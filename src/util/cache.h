// Sharded LRU cache with reference counting, used for the table cache
// (block caching is the BufferPool's, src/buf/). Entries are pinned while
// handles are outstanding.
#pragma once

#include <cstdint>
#include <memory>

#include "util/slice.h"

namespace sealdb {

class Cache {
 public:
  Cache() = default;
  virtual ~Cache() = default;

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  // Opaque handle to an entry stored in the cache.
  struct Handle {};

  // Insert a mapping from key->value with the specified charge against the
  // cache capacity. Returns a handle; caller must call Release() when done.
  // `deleter` runs when the entry is evicted and unreferenced.
  virtual Handle* Insert(const Slice& key, void* value, size_t charge,
                         void (*deleter)(const Slice& key, void* value)) = 0;

  // Returns nullptr if no mapping, else a handle the caller must Release().
  virtual Handle* Lookup(const Slice& key) = 0;

  virtual void Release(Handle* handle) = 0;

  virtual void* Value(Handle* handle) = 0;

  // Drop the mapping if present; the entry dies once unreferenced.
  virtual void Erase(const Slice& key) = 0;
};

// Create a cache with a fixed size capacity (in charge units).
std::unique_ptr<Cache> NewLRUCache(size_t capacity);

}  // namespace sealdb
