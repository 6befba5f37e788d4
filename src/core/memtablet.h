// MemTablet: the in-memory tablet (§3.2).
//
// Newly inserted rows are stored once each, as their sort key
// (core/sort_key.h) followed by their EncodeRow bytes, in arena blocks that
// never move; an ordered index of pointers to those entries, compared with
// memcmp on the sort key, keeps them in primary-key order. When a filling
// tablet reaches the configured size or age limit, the table marks it
// read-only (seals it) and queues it for flushing. With
// application-driven timespans (§3.4.3), several MemTablets fill at once —
// one per time period — and each remembers its period and creation time so
// the flush scheduler can apply the 10-minute age bound.
//
// Thread safety: guarded externally by the owning Table's mutex. An entry
// never changes once inserted, so a MemTabletCursor, which copies its
// entry pointers under that mutex and pins the tablet, reads them without
// it.
#ifndef LITTLETABLE_CORE_MEMTABLET_H_
#define LITTLETABLE_CORE_MEMTABLET_H_

#include <memory>
#include <set>
#include <vector>

#include "core/bounds.h"
#include "core/cursor.h"
#include "core/periods.h"
#include "core/schema.h"
#include "core/sort_key.h"

namespace lt {

class MemTablet {
 public:
  MemTablet(uint64_t id, std::shared_ptr<const Schema> schema, Period period,
            Timestamp created_at);
  MemTablet(const MemTablet&) = delete;
  MemTablet& operator=(const MemTablet&) = delete;

  /// Inserts a row (which must match the schema). Returns false if a row
  /// with the same primary key is already present.
  bool Insert(const Row& row);

  /// Inserts one encoded row: its sort key, its EncodeRow bytes under the
  /// schema, its timestamp and its flush charge (RowChargeBase and
  /// RowChargeBytesCell). Returns false if the key is already present.
  bool Insert(Slice sort_key, Slice row, Timestamp ts, size_t charge);

  /// True if a row with exactly this full sort key exists.
  bool ContainsKey(Slice sort_key) const;

  uint64_t id() const { return id_; }
  const std::shared_ptr<const Schema>& schema() const { return schema_; }
  const Period& period() const { return period_; }
  Timestamp created_at() const { return created_at_; }
  bool sealed() const { return sealed_; }
  void Seal() { sealed_ = true; }

  size_t num_rows() const { return index_.size(); }
  bool empty() const { return index_.empty(); }
  /// Approximate footprint of the rows as Row copies, for the flush size
  /// trigger: Σ ApproximateRowBytes of the inserted rows.
  size_t ApproximateBytes() const { return approx_bytes_; }

  /// Timespan of rows actually inserted (undefined when empty).
  Timestamp min_ts() const { return min_ts_; }
  Timestamp max_ts() const { return max_ts_; }

  /// Calls fn(sort_key, encoded_row) for every row in ascending key order
  /// (the flush path; requires sealed).
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (const Entry* e : index_) fn(e->key(), e->row());
  }

 private:
  friend class MemTabletCursor;

  /// One stored row: the header, then key_len sort-key bytes, then
  /// row_len EncodeRow bytes.
  struct Entry {
    uint32_t key_len;
    uint32_t row_len;
    const char* data() const { return reinterpret_cast<const char*>(this + 1); }
    Slice key() const { return Slice(data(), key_len); }
    Slice row() const { return Slice(data() + key_len, row_len); }
  };
  /// Probe for a key prefix (as EncodeSortKeyPrefix writes it): entries
  /// starting with the prefix compare equal to it.
  struct PrefixProbe {
    Slice prefix;
  };
  struct EntryLess {
    using is_transparent = void;
    bool operator()(const Entry* a, const Entry* b) const {
      return a->key().compare(b->key()) < 0;
    }
    bool operator()(const Entry* a, Slice key) const {
      return a->key().compare(key) < 0;
    }
    bool operator()(Slice key, const Entry* b) const {
      return key.compare(b->key()) < 0;
    }
    bool operator()(const Entry* a, const PrefixProbe& p) const {
      return CompareSortKeyToPrefix(a->key(), p.prefix) < 0;
    }
    bool operator()(const PrefixProbe& p, const Entry* b) const {
      return CompareSortKeyToPrefix(b->key(), p.prefix) > 0;
    }
  };

  /// Copies a row into the arena.
  const Entry* NewEntry(Slice sort_key, Slice row);

  uint64_t id_;
  std::shared_ptr<const Schema> schema_;
  Period period_;
  Timestamp created_at_;
  bool sealed_ = false;
  size_t approx_bytes_ = 0;
  Timestamp min_ts_ = 0;
  Timestamp max_ts_ = 0;
  std::vector<std::unique_ptr<char[]>> blocks_;  // The arena.
  char* block_next_ = nullptr;
  size_t block_left_ = 0;
  size_t block_bytes_ = 0;  // Size of the newest block.
  std::set<const Entry*, EntryLess> index_;
};

/// A cursor over the rows of one MemTablet within a query's key bounds,
/// in the bounds' direction. It snapshots the matching entry pointers at
/// construction (under the lock that guards the tablet) and pins the
/// tablet, so it copies no rows and later inserts stay invisible to it.
/// Timestamp filtering happens downstream, as for every cursor.
class MemTabletCursor final : public Cursor {
 public:
  MemTabletCursor(std::shared_ptr<const MemTablet> mt,
                  const QueryBounds& bounds);

  /// Rows in the snapshot (the query's rows_scanned share).
  size_t size() const { return entries_.size(); }

  bool Valid() const override { return pos_ < entries_.size(); }
  Slice sort_key() const override { return entries_[pos_]->key(); }
  Status ReadRow(Row* out) override;
  /// The tablet's rows are encoded under `schema` already: a MemTablet
  /// always holds the table's current schema, since schema changes flush
  /// every MemTablet first.
  Status AppendEncodedRow(const Schema& schema, std::string* out) override;
  Status Next() override {
    if (Valid()) pos_++;
    return Status::OK();
  }
  Status status() const override { return Status::OK(); }

 private:
  std::shared_ptr<const MemTablet> mt_;
  std::vector<const MemTablet::Entry*> entries_;  // In scan order.
  size_t pos_ = 0;
};

}  // namespace lt

#endif  // LITTLETABLE_CORE_MEMTABLET_H_
