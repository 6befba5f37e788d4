// Primitive encoders/decoders for the tablet file format and wire protocol.
//
// All multi-byte integers are little-endian. Varints use the LEB128-style
// 7-bits-per-byte encoding. Decoders take a Slice cursor and consume from it.
#ifndef LITTLETABLE_UTIL_CODING_H_
#define LITTLETABLE_UTIL_CODING_H_

#include <cstdint>
#include <string>

#include "util/slice.h"

namespace lt {

void PutFixed16(std::string* dst, uint16_t value);
void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);
void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);
/// Appends a varint length followed by the bytes of `value`.
void PutLengthPrefixedSlice(std::string* dst, const Slice& value);

void EncodeFixed32(char* dst, uint32_t value);
void EncodeFixed64(char* dst, uint64_t value);
/// Writes the varint encoding of `value` at `dst` (at most 10 bytes) and
/// returns the byte past it. Inline: row and chunk encoders call it per
/// cell.
inline char* EncodeVarint64(char* dst, uint64_t value) {
  unsigned char* p = reinterpret_cast<unsigned char*>(dst);
  while (value >= 0x80) {
    *p++ = static_cast<unsigned char>(value) | 0x80;
    value >>= 7;
  }
  *p++ = static_cast<unsigned char>(value);
  return reinterpret_cast<char*>(p);
}
uint32_t DecodeFixed32(const char* p);
uint64_t DecodeFixed64(const char* p);

/// Each GetX consumes the decoded bytes from `input` and returns false on
/// truncated or malformed input (leaving `input` unspecified).
bool GetFixed16(Slice* input, uint16_t* value);
bool GetFixed32(Slice* input, uint32_t* value);
bool GetFixed64(Slice* input, uint64_t* value);
bool GetVarint32(Slice* input, uint32_t* value);
/// Inline, with one-byte varints (small ints, short lengths) decoded
/// before the loop: row and chunk decoders call it per cell.
inline bool GetVarint64(Slice* input, uint64_t* value) {
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(input->data());
  const unsigned char* limit = p + input->size();
  if (p < limit && *p < 0x80) {
    *value = *p;
    input->remove_prefix(1);
    return true;
  }
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && p < limit; shift += 7) {
    uint64_t byte = *p++;
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      input->remove_prefix(static_cast<size_t>(
          p - reinterpret_cast<const unsigned char*>(input->data())));
      *value = result;
      return true;
    }
  }
  return false;
}
bool GetLengthPrefixedSlice(Slice* input, Slice* result);

/// ZigZag maps signed integers to unsigned so small magnitudes stay small.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace lt

#endif  // LITTLETABLE_UTIL_CODING_H_
