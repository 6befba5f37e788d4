// Sort keys: a row's primary-key cells as one byte string whose memcmp
// order is the schema's key order (Schema::CompareKeys). The merge cursor
// that answers every query (§3.2) compares these strings instead of typed
// Values, and cursors over columnar blocks write them straight from the
// decoded column arrays.
//
// Each key cell is encoded by its value, in schema key order:
//
//   int32, int64, timestamp  8 bytes, big-endian, sign bit flipped
//   string, blob             the bytes, each 0x00 written as 0x00 0xFF,
//                            then the terminator 0x00 0x01
//   double                   8 bytes, big-endian, IEEE bits made
//                            order-preserving (key columns are never doubles
//                            under Schema::Validate; a VectorCursor without
//                            a schema encodes every cell of its rows)
//
// Every cell encoding is order-preserving and prefix-free, so comparing
// whole keys (or a key against an encoded key prefix, over the prefix's
// length) with memcmp gives the cell-by-cell order. The last key column is
// always `ts`, so the timestamp is always the key's last 8 bytes.
//
// Sort keys live only in memory: nothing on disk or on the wire uses them.
#ifndef LITTLETABLE_CORE_SORT_KEY_H_
#define LITTLETABLE_CORE_SORT_KEY_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "core/schema.h"
#include "util/slice.h"

namespace lt {

/// Width of an encoded integer, timestamp or double key cell.
constexpr size_t kSortKeyWordBytes = 8;

/// Writes the 8-byte encoding of integer cell `v` at `p`; returns the byte
/// past it.
inline char* PutSortKeyInt(char* p, int64_t v) {
  const uint64_t u = __builtin_bswap64(static_cast<uint64_t>(v) ^
                                       (uint64_t{1} << 63));
  memcpy(p, &u, 8);
  return p + 8;
}

/// Reads an 8-byte integer cell encoding at `p`.
inline int64_t GetSortKeyInt(const char* p) {
  uint64_t u;
  memcpy(&u, p, 8);
  return static_cast<int64_t>(__builtin_bswap64(u) ^ (uint64_t{1} << 63));
}

/// Writes the 8-byte encoding of double cell `d` at `p`; returns the byte
/// past it.
char* PutSortKeyDouble(char* p, double d);

/// Largest encoding of an n-byte string or blob cell.
inline size_t MaxSortKeyBytesLen(size_t n) { return 2 * n + 2; }

/// Writes the escaped, terminated encoding of bytes cell `s` at `p` (room
/// for MaxSortKeyBytesLen(s.size()) bytes); returns the byte past it.
char* PutSortKeyBytes(char* p, Slice s);

/// Appends the encoding of one key cell, chosen by the value's arm.
void AppendSortKeyCell(std::string* dst, const Value& v);

/// Appends the sort key of `key`'s first num_key_columns cells (a full row
/// works too: cells past the key are ignored).
void EncodeSortKey(std::string* dst, const Schema& schema, const Row& key);

/// Appends the encoding of a key prefix: its first
/// min(prefix.size(), num_key_columns) cells, as
/// Schema::CompareKeyToPrefix reads them.
void EncodeSortKeyPrefix(std::string* dst, const Schema& schema,
                         const Key& prefix);

/// The timestamp of a sort key: its last 8 bytes. Requires a full key.
inline Timestamp SortKeyTs(Slice key) {
  return GetSortKeyInt(key.data() + key.size() - kSortKeyWordBytes);
}

/// Three-way comparison of a full sort key against an encoded key prefix,
/// equal to Schema::CompareKeyToPrefix on the decoded cells: 0 means the
/// key starts with the prefix.
inline int CompareSortKeyToPrefix(Slice key, Slice prefix) {
  const size_t n = key.size() < prefix.size() ? key.size() : prefix.size();
  return memcmp(key.data(), prefix.data(), n);
}

}  // namespace lt

#endif  // LITTLETABLE_CORE_SORT_KEY_H_
