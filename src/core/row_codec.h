// Row and key serialization against a schema. Rows are stored in tablet
// blocks as the concatenation of their cell encodings in schema order; keys
// appear standalone in block indexes and Bloom filters.
#ifndef LITTLETABLE_CORE_ROW_CODEC_H_
#define LITTLETABLE_CORE_ROW_CODEC_H_

#include <string>

#include "core/schema.h"

namespace lt {

/// Appends the encoding of all cells of `row` to `dst`.
void EncodeRow(std::string* dst, const Schema& schema, const Row& row);

/// Decodes one row, consuming from `input`, with DecodeValue's statuses.
/// On error *out holds the cells before the failing one.
Status DecodeRow(Slice* input, const Schema& schema, Row* out);

/// Appends the encoding of the leading `key.size()` key columns.
void EncodeKey(std::string* dst, const Schema& schema, const Key& key);

/// Decodes a full primary key (all key columns).
Status DecodeKey(Slice* input, const Schema& schema, Key* out);

/// Approximate in-memory footprint of a row, used for MemTablet accounting.
size_t ApproximateRowBytes(const Row& row);

}  // namespace lt

#endif  // LITTLETABLE_CORE_ROW_CODEC_H_
