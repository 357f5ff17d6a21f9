// File naming scheme inside the FileStore namespace:
//   <dbname>/<number>.log     write-ahead log
//   <dbname>/<number>.ldb     SSTable
// Which tables are live is not a file: each live table carries a FileStore
// tag (its level and key range), written by the commit record that
// installed it (lsm/version_set.h).
#pragma once

#include <cstdint>
#include <string>

#include "util/slice.h"

namespace sealdb {

enum FileType {
  kLogFile,
  kTableFile,
};

std::string LogFileName(const std::string& dbname, uint64_t number);
std::string TableFileName(const std::string& dbname, uint64_t number);

// If filename is a sealdb file, store the type of the file in *type.
// The number encoded in the filename is stored in *number.
// Returns true if the filename was successfully parsed.
bool ParseFileName(const std::string& filename, uint64_t* number,
                   FileType* type);

}  // namespace sealdb
