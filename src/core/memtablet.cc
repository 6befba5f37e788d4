#include "core/memtablet.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "core/row_batch.h"
#include "core/row_codec.h"

namespace lt {

namespace {

// Arena blocks start small, so the many tiny MemTablets of a quiet table
// stay small, and double up to this size.
constexpr size_t kFirstBlockBytes = 1024;
constexpr size_t kMaxBlockBytes = 64 * 1024;

}  // namespace

MemTablet::MemTablet(uint64_t id, std::shared_ptr<const Schema> schema,
                     Period period, Timestamp created_at)
    : id_(id),
      schema_(std::move(schema)),
      period_(period),
      created_at_(created_at) {}

bool MemTablet::Insert(const Row& row) {
  thread_local RowBatch one;  // Reused: its buffers keep their capacity.
  one.Reset(schema_->version());
  if (!one.AppendRow(*schema_, row).ok()) return false;
  return Insert(one.sort_key(0), one.row(0), one.ts(0), one.charge(0));
}

bool MemTablet::Insert(Slice sort_key, Slice row, Timestamp ts,
                       size_t charge) {
  auto it = index_.lower_bound(sort_key);
  if (it != index_.end() && (*it)->key() == sort_key) return false;
  index_.emplace_hint(it, NewEntry(sort_key, row));
  approx_bytes_ += charge;
  if (index_.size() == 1) {
    min_ts_ = max_ts_ = ts;
  } else {
    if (ts < min_ts_) min_ts_ = ts;
    if (ts > max_ts_) max_ts_ = ts;
  }
  return true;
}

const MemTablet::Entry* MemTablet::NewEntry(Slice sort_key, Slice row) {
  constexpr size_t kAlign = alignof(Entry);
  const size_t need =
      (sizeof(Entry) + sort_key.size() + row.size() + kAlign - 1) &
      ~(kAlign - 1);
  if (need > block_left_) {
    const size_t grown = blocks_.empty()
                             ? kFirstBlockBytes
                             : std::min(kMaxBlockBytes, 2 * block_bytes_);
    const size_t bytes = std::max(need, grown);
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(bytes));
    block_next_ = blocks_.back().get();
    block_left_ = block_bytes_ = bytes;
  }
  const Entry* e = new (block_next_) Entry{
      static_cast<uint32_t>(sort_key.size()), static_cast<uint32_t>(row.size())};
  char* p = block_next_ + sizeof(Entry);
  memcpy(p, sort_key.data(), sort_key.size());
  memcpy(p + sort_key.size(), row.data(), row.size());
  block_next_ += need;
  block_left_ -= need;
  return e;
}

bool MemTablet::ContainsKey(Slice sort_key) const {
  return index_.find(sort_key) != index_.end();
}

MemTabletCursor::MemTabletCursor(std::shared_ptr<const MemTablet> mt,
                                 const QueryBounds& bounds)
    : mt_(std::move(mt)) {
  const Schema& schema = *mt_->schema();
  const auto& index = mt_->index_;
  // Seek to the first row satisfying the min-key bound, then take rows
  // until the max-key bound fails.
  auto it = index.begin();
  std::string prefix;
  if (bounds.min_key) {
    const KeyBound& kb = *bounds.min_key;
    EncodeSortKeyPrefix(&prefix, schema, kb.prefix);
    MemTablet::PrefixProbe probe{prefix};
    it = kb.inclusive ? index.lower_bound(probe) : index.upper_bound(probe);
  }
  if (bounds.max_key) {
    prefix.clear();
    EncodeSortKeyPrefix(&prefix, schema, bounds.max_key->prefix);
  }
  for (; it != index.end(); ++it) {
    if (bounds.max_key) {
      const int c = CompareSortKeyToPrefix((*it)->key(), prefix);
      if (bounds.max_key->inclusive ? c > 0 : c >= 0) break;
    }
    entries_.push_back(*it);
  }
  if (bounds.direction == Direction::kDescending) {
    std::reverse(entries_.begin(), entries_.end());
  }
}

Status MemTabletCursor::ReadRow(Row* out) {
  Slice in = entries_[pos_]->row();
  return DecodeRow(&in, *mt_->schema(), out);
}

Status MemTabletCursor::AppendEncodedRow(const Schema&, std::string* out) {
  const Slice row = entries_[pos_]->row();
  out->append(row.data(), row.size());
  return Status::OK();
}

}  // namespace lt
