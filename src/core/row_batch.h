// RowBatch: the one form rows take on the insert path (§3.2), from a
// kInsert body to the MemTablet. Each row is its sort key
// (core/sort_key.h) plus its EncodeRow bytes, with its timestamp and its
// flush charge, and the batch remembers the schema version its rows were
// encoded under. Nothing between the wire and the tablet builds a Row.
//
// The rows' EncodeRow bytes lie back to back in one buffer, so a batch
// parsed from a kInsert body holds that body's canonical row section.
#ifndef LITTLETABLE_CORE_ROW_BATCH_H_
#define LITTLETABLE_CORE_ROW_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/schema.h"
#include "util/slice.h"

namespace lt {

/// The flush charge of a row: the bytes ApproximateRowBytes reports for a
/// Row copied from it. `base` is RowChargeBase(columns), and each string or
/// blob cell adds RowChargeBytesCell(its length).
inline size_t RowChargeBase(size_t columns) {
  return sizeof(Row) + columns * sizeof(Value);
}
/// A copied std::string holds its bytes inline up to 15 and exactly
/// otherwise, so its capacity is max(length, 15).
inline size_t RowChargeBytesCell(size_t len) { return len < 15 ? 15 : len; }

class RowBatch {
 public:
  /// Empties the batch for rows encoded under schema version `version`.
  void Reset(uint32_t version) {
    version_ = version;
    keys_.clear();
    rows_.clear();
    entries_.clear();
  }

  uint32_t schema_version() const { return version_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  Slice sort_key(size_t i) const {
    const uint32_t begin = i == 0 ? 0 : entries_[i - 1].key_end;
    return Slice(keys_.data() + begin, entries_[i].key_end - begin);
  }
  /// Row i's EncodeRow bytes.
  Slice row(size_t i) const {
    const uint32_t begin = i == 0 ? 0 : entries_[i - 1].row_end;
    return Slice(rows_.data() + begin, entries_[i].row_end - begin);
  }
  Timestamp ts(size_t i) const { return entries_[i].ts; }
  size_t charge(size_t i) const { return entries_[i].charge; }

  /// Every row's EncodeRow bytes, back to back.
  const std::string& row_bytes() const { return rows_; }

  /// Appends `row`, which must match `schema` (the schema of this batch's
  /// version); InvalidArgument otherwise, leaving the batch unchanged.
  Status AppendRow(const Schema& schema, const Row& row);

  // Building a row in place: append its sort key to *mutable_keys() and
  // its EncodeRow bytes to *mutable_rows(), then FinishRow records it.
  std::string* mutable_keys() { return &keys_; }
  std::string* mutable_rows() { return &rows_; }
  void FinishRow(Timestamp ts, size_t charge) {
    entries_.push_back(Entry{static_cast<uint32_t>(keys_.size()),
                             static_cast<uint32_t>(rows_.size()),
                             static_cast<uint32_t>(charge), ts});
  }

 private:
  struct Entry {
    uint32_t key_end;  // Offsets one past the row's bytes in keys_/rows_.
    uint32_t row_end;
    uint32_t charge;
    Timestamp ts;
  };

  uint32_t version_ = 0;
  std::string keys_;
  std::string rows_;
  std::vector<Entry> entries_;
};

}  // namespace lt

#endif  // LITTLETABLE_CORE_ROW_BATCH_H_
