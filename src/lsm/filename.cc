#include "lsm/filename.h"

#include <cassert>
#include <cstdio>

#include "util/logging.h"

namespace sealdb {

static std::string MakeFileName(const std::string& dbname, uint64_t number,
                                const char* suffix) {
  char buf[100];
  std::snprintf(buf, sizeof(buf), "/%06llu.%s",
                static_cast<unsigned long long>(number), suffix);
  return dbname + buf;
}

std::string LogFileName(const std::string& dbname, uint64_t number) {
  assert(number > 0);
  return MakeFileName(dbname, number, "log");
}

std::string TableFileName(const std::string& dbname, uint64_t number) {
  assert(number > 0);
  return MakeFileName(dbname, number, "ldb");
}

// Owned filenames have the form dbname/[0-9]+.(log|ldb).
bool ParseFileName(const std::string& filename, uint64_t* number,
                   FileType* type) {
  // Strip any directory prefix.
  size_t slash = filename.rfind('/');
  Slice rest(filename);
  if (slash != std::string::npos) {
    rest.remove_prefix(slash + 1);
  }

  // Avoid strtoull() to keep filename format independent of the
  // current locale
  uint64_t num;
  if (!ConsumeDecimalNumber(&rest, &num)) {
    return false;
  }
  if (rest == Slice(".log")) {
    *type = kLogFile;
  } else if (rest == Slice(".ldb")) {
    *type = kTableFile;
  } else {
    return false;
  }
  *number = num;
  return true;
}

}  // namespace sealdb
