#include "core/row_codec.h"

namespace lt {

void EncodeRow(std::string* dst, const Schema& schema, const Row& row) {
  for (size_t i = 0; i < schema.num_columns(); i++) {
    EncodeValue(dst, row[i], schema.columns()[i].type);
  }
}

Status DecodeRow(Slice* input, const Schema& schema, Row* out) {
  out->clear();
  out->reserve(schema.num_columns());
  for (const Column& column : schema.columns()) {
    LT_RETURN_IF_ERROR(DecodeCellInto(input, column.type, out));
  }
  return Status::OK();
}

void EncodeKey(std::string* dst, const Schema& schema, const Key& key) {
  for (size_t i = 0; i < key.size(); i++) {
    EncodeValue(dst, key[i], schema.columns()[i].type);
  }
}

Status DecodeKey(Slice* input, const Schema& schema, Key* out) {
  out->clear();
  out->reserve(schema.num_key_columns());
  for (size_t i = 0; i < schema.num_key_columns(); i++) {
    LT_RETURN_IF_ERROR(DecodeCellInto(input, schema.columns()[i].type, out));
  }
  return Status::OK();
}

size_t ApproximateRowBytes(const Row& row) {
  size_t total = sizeof(Row) + row.size() * sizeof(Value);
  for (const Value& v : row) {
    if (v.is_bytes()) total += v.bytes().capacity();
  }
  return total;
}

}  // namespace lt
