// Fast non-cryptographic hash used by bloom filters and shard routing.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sealdb {

uint32_t Hash(const char* data, size_t n, uint32_t seed);

}  // namespace sealdb
