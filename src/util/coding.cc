#include "util/coding.h"

#include <cstring>

namespace lt {

void EncodeFixed32(char* dst, uint32_t value) {
  unsigned char* b = reinterpret_cast<unsigned char*>(dst);
  b[0] = static_cast<unsigned char>(value);
  b[1] = static_cast<unsigned char>(value >> 8);
  b[2] = static_cast<unsigned char>(value >> 16);
  b[3] = static_cast<unsigned char>(value >> 24);
}

void EncodeFixed64(char* dst, uint64_t value) {
  unsigned char* b = reinterpret_cast<unsigned char*>(dst);
  for (int i = 0; i < 8; i++) b[i] = static_cast<unsigned char>(value >> (8 * i));
}

uint32_t DecodeFixed32(const char* p) {
  const unsigned char* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

uint64_t DecodeFixed64(const char* p) {
  const unsigned char* b = reinterpret_cast<const unsigned char*>(p);
  uint64_t v = 0;
  for (int i = 7; i >= 0; i--) v = (v << 8) | b[i];
  return v;
}

void PutFixed16(std::string* dst, uint16_t value) {
  char buf[2];
  buf[0] = static_cast<char>(value);
  buf[1] = static_cast<char>(value >> 8);
  dst->append(buf, 2);
}

void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  EncodeFixed32(buf, value);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  EncodeFixed64(buf, value);
  dst->append(buf, 8);
}

void PutVarint32(std::string* dst, uint32_t value) {
  unsigned char buf[5];
  int n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<unsigned char>(value) | 0x80;
    value >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), n);
}

void PutVarint64(std::string* dst, uint64_t value) {
  char buf[10];
  dst->append(buf, EncodeVarint64(buf, value) - buf);
}

void PutLengthPrefixedSlice(std::string* dst, const Slice& value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

bool GetFixed16(Slice* input, uint16_t* value) {
  if (input->size() < 2) return false;
  const unsigned char* b =
      reinterpret_cast<const unsigned char*>(input->data());
  *value = static_cast<uint16_t>(b[0] | (b[1] << 8));
  input->remove_prefix(2);
  return true;
}

bool GetFixed32(Slice* input, uint32_t* value) {
  if (input->size() < 4) return false;
  *value = DecodeFixed32(input->data());
  input->remove_prefix(4);
  return true;
}

bool GetFixed64(Slice* input, uint64_t* value) {
  if (input->size() < 8) return false;
  *value = DecodeFixed64(input->data());
  input->remove_prefix(8);
  return true;
}

bool GetVarint32(Slice* input, uint32_t* value) {
  uint64_t v;
  if (!GetVarint64(input, &v) || v > UINT32_MAX) return false;
  *value = static_cast<uint32_t>(v);
  return true;
}

bool GetLengthPrefixedSlice(Slice* input, Slice* result) {
  uint64_t len;
  if (!GetVarint64(input, &len)) return false;
  if (input->size() < len) return false;
  *result = Slice(input->data(), len);
  input->remove_prefix(len);
  return true;
}

}  // namespace lt
