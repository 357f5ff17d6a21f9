// Small formatting helpers for diagnostics: number/escaped-string appends
// and numeric parsing used by file-name parsing.
#pragma once

#include <cstdint>
#include <string>

#include "util/slice.h"

namespace sealdb {

// Append a human-readable printout of "num" to *str.
void AppendNumberTo(std::string* str, uint64_t num);

// Append a human-readable printout of "value" to *str, escaping any
// non-printable characters.
void AppendEscapedStringTo(std::string* str, const Slice& value);

std::string NumberToString(uint64_t num);
std::string EscapeString(const Slice& value);

// Parse a human-readable number from "*in" into *val, advancing "*in" past
// the consumed digits. Returns false if no digits were consumed.
bool ConsumeDecimalNumber(Slice* in, uint64_t* val);

}  // namespace sealdb
