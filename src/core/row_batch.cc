#include "core/row_batch.h"

#include <limits>

#include "core/row_codec.h"
#include "core/sort_key.h"

namespace lt {

Status RowBatch::AppendRow(const Schema& schema, const Row& row) {
  if (!schema.RowMatches(row)) {
    return Status::InvalidArgument("row does not match table schema");
  }
  const size_t keys_before = keys_.size();
  const size_t rows_before = rows_.size();
  EncodeSortKey(&keys_, schema, row);
  EncodeRow(&rows_, schema, row);
  constexpr size_t kMaxOffset = std::numeric_limits<uint32_t>::max();
  if (keys_.size() > kMaxOffset || rows_.size() > kMaxOffset) {
    keys_.resize(keys_before);
    rows_.resize(rows_before);
    return Status::InvalidArgument("insert batch too large");
  }
  size_t charge = RowChargeBase(row.size());
  for (const Value& v : row) {
    if (v.is_bytes()) charge += RowChargeBytesCell(v.bytes().size());
  }
  FinishRow(row[schema.ts_index()].AsInt(), charge);
  return Status::OK();
}

}  // namespace lt
