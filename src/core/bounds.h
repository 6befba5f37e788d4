// Query bounds: every LittleTable query is an ordered scan of the rows
// inside a two-dimensional bounding box (§3.1) — primary keys or prefixes
// thereof in one dimension, timestamps in the other. Bounds may be inclusive
// or exclusive; results stream in ascending or descending key order with an
// optional row limit. A result that hits the server's row cap says so, and
// the caller pages on from its last row (§3.5): QueryResult, ContinueAfter
// and QueryAllPages are that protocol's one home.
#ifndef LITTLETABLE_CORE_BOUNDS_H_
#define LITTLETABLE_CORE_BOUNDS_H_

#include <cstdint>
#include <limits>
#include <optional>

#include "core/schema.h"
#include "util/clock.h"
#include "util/status.h"

namespace lt {

enum class Direction : uint8_t { kAscending = 0, kDescending = 1 };

/// One end of the key dimension: a (possibly partial) key prefix plus
/// inclusivity. An absent bound is unbounded on that side.
struct KeyBound {
  Key prefix;
  bool inclusive = true;
};

/// The 2-D bounding box plus scan direction and limit.
struct QueryBounds {
  std::optional<KeyBound> min_key;
  std::optional<KeyBound> max_key;
  /// Timestamp range; defaults cover all time. Inclusive flags apply to the
  /// respective endpoint.
  Timestamp min_ts = std::numeric_limits<Timestamp>::min();
  Timestamp max_ts = std::numeric_limits<Timestamp>::max();
  bool min_ts_inclusive = true;
  bool max_ts_inclusive = true;
  Direction direction = Direction::kAscending;
  /// 0 = unlimited (the server still applies its own cap, §3.5).
  uint64_t limit = 0;

  /// Column indexes (into the current schema) the caller will read; empty
  /// means all columns. A decode hint, not a result shape: rows keep every
  /// column, but cells outside the projection may carry the column's
  /// default value instead of the stored one — columnar (format 2) tablets
  /// skip decoding those chunks entirely, which is where wide-row scans win
  /// (rows still in memory, or in row-wise tablets, keep their real
  /// values). Key columns are always materialized regardless. The
  /// projection crosses the wire with the rest of the bounds
  /// (wire::EncodeBounds), so a remote query decodes and ships only the
  /// referenced chunks' values, the other cells as defaults.
  std::vector<uint32_t> projection;

  /// Convenience: both key bounds set to the same prefix (rows beginning
  /// with that prefix), i.e. the Figure 1 "rectangle" key range.
  static QueryBounds ForPrefix(Key prefix) {
    QueryBounds b;
    b.min_key = KeyBound{prefix, true};
    b.max_key = KeyBound{std::move(prefix), true};
    return b;
  }

  /// True if `ts` satisfies the timestamp dimension.
  bool TsInRange(Timestamp ts) const {
    if (min_ts_inclusive ? ts < min_ts : ts <= min_ts) return false;
    if (max_ts_inclusive ? ts > max_ts : ts >= max_ts) return false;
    return true;
  }

  /// True if the timespan [lo, hi] could contain matching timestamps
  /// (tablet-selection test, §3.2).
  bool TsOverlaps(Timestamp lo, Timestamp hi) const {
    if (min_ts_inclusive ? hi < min_ts : hi <= min_ts) return false;
    if (max_ts_inclusive ? lo > max_ts : lo >= max_ts) return false;
    return true;
  }

  /// True if a row's key columns satisfy the key dimension.
  bool KeyInRange(const Schema& schema, const Row& row) const {
    if (min_key) {
      int c = schema.CompareKeyToPrefix(row, min_key->prefix);
      if (min_key->inclusive ? c < 0 : c <= 0) return false;
    }
    if (max_key) {
      int c = schema.CompareKeyToPrefix(row, max_key->prefix);
      if (max_key->inclusive ? c > 0 : c >= 0) return false;
    }
    return true;
  }

  /// Full membership test (both dimensions). The timestamp checked is the
  /// row's ts key column.
  bool Matches(const Schema& schema, const Row& row) const {
    return TsInRange(row[schema.ts_index()].AsInt()) &&
           KeyInRange(schema, row);
  }

  /// §3.5 continuation: moves the start bound, in the scan direction, just
  /// past `last`'s key (exclusive), so re-submitting returns the rows after
  /// it.
  void ContinueAfter(const Schema& schema, const Row& last) {
    KeyBound past{schema.KeyOf(last), /*inclusive=*/false};
    (direction == Direction::kAscending ? min_key : max_key) = std::move(past);
  }
};

/// The result of a query: rows in scan order, plus the §3.5 more-available
/// flag the client uses to paginate with continuation queries.
struct QueryResult {
  std::vector<Row> rows;
  bool more_available = false;
  /// Rows the engine decoded to produce this result (Figure 9 numerator).
  uint64_t rows_scanned = 0;
};

/// The §3.5 paging loop: `fetch(page, &result)` answers one page, and each
/// page that says more-available is followed by one continued past its
/// last row, until the result is complete, `bounds.limit` rows (0 = all)
/// are in *rows, or a page makes no progress.
template <typename Fetch>
Status QueryAllPages(const Schema& schema, const QueryBounds& bounds,
                     std::vector<Row>* rows, const Fetch& fetch) {
  rows->clear();
  QueryBounds page = bounds;
  const uint64_t want = bounds.limit;
  while (true) {
    if (want > 0) page.limit = want - rows->size();
    QueryResult result;
    LT_RETURN_IF_ERROR(fetch(page, &result));
    if (result.rows.empty()) return Status::OK();
    for (Row& row : result.rows) rows->push_back(std::move(row));
    if (!result.more_available) return Status::OK();
    if (want > 0 && rows->size() >= want) return Status::OK();
    page.ContinueAfter(schema, rows->back());
  }
}

}  // namespace lt

#endif  // LITTLETABLE_CORE_BOUNDS_H_
