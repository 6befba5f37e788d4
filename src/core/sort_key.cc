#include "core/sort_key.h"

namespace lt {

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;

}  // namespace

char* PutSortKeyDouble(char* p, double d) {
  uint64_t bits;
  memcpy(&bits, &d, 8);
  // Negative doubles order by descending magnitude bits: flip them all.
  bits = (bits & kSignBit) ? ~bits : bits ^ kSignBit;
  bits = __builtin_bswap64(bits);
  memcpy(p, &bits, 8);
  return p + 8;
}

char* PutSortKeyBytes(char* p, Slice s) {
  const char* src = s.data();
  const char* const end = src + s.size();
  while (src < end) {
    const void* zero = memchr(src, 0, static_cast<size_t>(end - src));
    const char* stop = zero ? static_cast<const char*>(zero) : end;
    memcpy(p, src, static_cast<size_t>(stop - src));
    p += stop - src;
    if (!zero) break;
    *p++ = '\0';
    *p++ = '\xff';
    src = stop + 1;
  }
  *p++ = '\0';
  *p++ = '\x01';
  return p;
}

void AppendSortKeyCell(std::string* dst, const Value& v) {
  const size_t start = dst->size();
  if (v.is_bytes()) {
    dst->resize(start + MaxSortKeyBytesLen(v.bytes().size()));
    char* end = PutSortKeyBytes(dst->data() + start, v.bytes());
    dst->resize(static_cast<size_t>(end - dst->data()));
    return;
  }
  dst->resize(start + kSortKeyWordBytes);
  if (v.is_double()) {
    PutSortKeyDouble(dst->data() + start, v.dbl());
  } else {
    PutSortKeyInt(dst->data() + start, v.AsInt());
  }
}

void EncodeSortKey(std::string* dst, const Schema& schema, const Row& key) {
  for (size_t c = 0; c < schema.num_key_columns(); c++) {
    AppendSortKeyCell(dst, key[c]);
  }
}

void EncodeSortKeyPrefix(std::string* dst, const Schema& schema,
                         const Key& prefix) {
  const size_t n = prefix.size() < schema.num_key_columns()
                       ? prefix.size()
                       : schema.num_key_columns();
  for (size_t c = 0; c < n; c++) AppendSortKeyCell(dst, prefix[c]);
}

}  // namespace lt
