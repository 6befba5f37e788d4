// Cursors: ordered row streams. A query opens one cursor per overlapping
// tablet (in-memory and on-disk), merge-sorts them into a single stream
// ordered by primary key (§3.2), and filters rows whose timestamps fall
// outside the query's bounds or past the table's TTL.
#ifndef LITTLETABLE_CORE_CURSOR_H_
#define LITTLETABLE_CORE_CURSOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/row_codec.h"
#include "core/schema.h"

namespace lt {

/// An ordered stream of rows. A freshly created cursor is already positioned
/// on its first row (Valid() is false for an empty stream). All rows stream
/// in the cursor's scan direction by primary key.
///
/// Positioning reads only key cells: merge ordering, trailing key bounds and
/// the timestamp filter all look at sort_key(), so a cursor over columnar
/// blocks decodes nothing else while it steps, and builds no Value for the
/// cells it does read. The full row comes only on demand, through ReadRow
/// or AppendEncodedRow, for the rows a caller keeps.
class Cursor {
 public:
  virtual ~Cursor() = default;

  virtual bool Valid() const = 0;
  /// The current row's key cells as one memcmp-ordered sort key
  /// (core/sort_key.h), valid until the next Next(). Requires Valid().
  virtual Slice sort_key() const = 0;
  /// Copies the full current row into *out. Requires Valid().
  virtual Status ReadRow(Row* out) = 0;
  /// Appends the current row's EncodeRow bytes under `schema` (the schema
  /// the cursor's rows conform to) to *out. On error *out is unchanged.
  /// Requires Valid().
  virtual Status AppendEncodedRow(const Schema& schema, std::string* out) = 0;
  /// Advances to the next row in scan direction.
  virtual Status Next() = 0;
  /// First error encountered, if any (an erroring cursor becomes invalid).
  virtual Status status() const = 0;
};

/// A cursor over an in-memory vector of rows, already sorted ascending by
/// key; iterates in `direction`. It encodes each row's sort key as it
/// steps onto the row, over `schema`'s key columns. Without a schema the
/// sort key covers every cell of the row: that orders distinct keys just
/// as the key cells alone do, since each cell encoding is prefix-free, but
/// its last 8 bytes are then not `ts` (SortKeyTs does not apply), so it
/// suits only merges of VectorCursors whose reader takes no ts from the
/// key.
///
/// Position is a signed int64_t rather than size_t on purpose: the
/// one-before-the-start state of a descending scan over an empty (or
/// exhausted) vector is pos_ == -1, which a size_t would wrap to 2^64-1 and
/// (since any size_t comparison against rows_.size() would also have to
/// wrap) make indistinguishable from a huge in-range index. The invariant
/// is -1 <= pos_ <= rows_.size(): Valid() is exactly 0 <= pos_ < size, and
/// Next() clamps at the sentinels so repeated calls past the end cannot
/// overflow. Rows_ is bounded far below 2^63 (it holds a query result), so
/// the cast to int64_t never truncates.
class VectorCursor final : public Cursor {
 public:
  VectorCursor(std::vector<Row> rows, Direction direction,
               const Schema* schema = nullptr)
      : rows_(std::move(rows)), direction_(direction), schema_(schema) {
    pos_ = direction_ == Direction::kAscending
               ? 0
               : static_cast<int64_t>(rows_.size()) - 1;
    EncodeKey();
  }

  bool Valid() const override {
    return pos_ >= 0 && pos_ < static_cast<int64_t>(rows_.size());
  }
  Slice sort_key() const override { return sort_key_; }
  Status ReadRow(Row* out) override {
    *out = row();
    return Status::OK();
  }
  Status AppendEncodedRow(const Schema& schema, std::string* out) override {
    EncodeRow(out, schema, row());
    return Status::OK();
  }
  Status Next() override {
    if (Valid()) pos_ += direction_ == Direction::kAscending ? 1 : -1;
    EncodeKey();
    return Status::OK();
  }
  Status status() const override { return Status::OK(); }

 private:
  const Row& row() const { return rows_[static_cast<size_t>(pos_)]; }
  /// Writes the current row's sort key into sort_key_, if Valid().
  void EncodeKey();

  std::vector<Row> rows_;
  Direction direction_;
  const Schema* schema_;
  int64_t pos_;
  std::string sort_key_;
};

/// Merge-sorts N child cursors via an N-way tournament heap: heap_ holds
/// the indices of the still-valid children, ordered by a memcmp of their
/// current sort keys (direction-adjusted), so advancing costs O(log N)
/// comparisons. Children must share the direction and never produce
/// duplicate keys (LittleTable enforces key uniqueness at insert, §3.4.4).
class MergingCursor final : public Cursor {
 public:
  /// `schema` is the schema of the children's rows; the merge itself reads
  /// only their sort keys, so it does not consult it.
  MergingCursor(const Schema* schema, std::vector<std::unique_ptr<Cursor>> children,
                Direction direction);

  bool Valid() const override { return !heap_.empty(); }
  Slice sort_key() const override { return keys_[heap_[0]]; }
  Status ReadRow(Row* out) override { return top()->ReadRow(out); }
  Status AppendEncodedRow(const Schema& schema, std::string* out) override {
    return top()->AppendEncodedRow(schema, out);
  }
  Status Next() override;
  Status status() const override { return status_; }

 private:
  Cursor* top() const { return children_[heap_[0]].get(); }
  /// True if child a's current row precedes child b's in scan direction.
  bool Before(size_t a, size_t b) const;
  /// Restores the heap property below heap_[i].
  void SiftDown(size_t i);
  void Fail(Status s);

  std::vector<std::unique_ptr<Cursor>> children_;
  Direction direction_;
  std::vector<size_t> heap_;  // Indices into children_; heap_[0] is next.
  std::vector<Slice> keys_;   // Current sort key of each valid child.
  Status status_;
};

}  // namespace lt

#endif  // LITTLETABLE_CORE_CURSOR_H_
