#include "lsm/version_edit.h"

#include "util/coding.h"

namespace sealdb {

void EncodeTableTag(std::string* dst, int level, const FileMetaData& f) {
  PutVarint32(dst, static_cast<uint32_t>(level));
  PutLengthPrefixedSlice(dst, f.smallest.Encode());
  PutLengthPrefixedSlice(dst, f.largest.Encode());
}

bool DecodeTableTag(Slice tag, int* level, FileMetaData* f) {
  uint32_t v;
  Slice smallest, largest;
  if (!GetVarint32(&tag, &v) || v >= 64 ||
      !GetLengthPrefixedSlice(&tag, &smallest) ||
      !GetLengthPrefixedSlice(&tag, &largest) || !tag.empty() ||
      smallest.size() < 8 || largest.size() < 8) {
    return false;  // an internal key holds at least its 8-byte trailer
  }
  *level = static_cast<int>(v);
  return f->smallest.DecodeFrom(smallest) && f->largest.DecodeFrom(largest);
}

}  // namespace sealdb
