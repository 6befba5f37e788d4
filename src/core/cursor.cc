#include "core/cursor.h"

#include <utility>

#include "core/sort_key.h"

namespace lt {

void VectorCursor::EncodeKey() {
  sort_key_.clear();
  if (!Valid()) return;
  const Row& r = row();
  const size_t n = schema_ ? schema_->num_key_columns() : r.size();
  for (size_t c = 0; c < n; c++) AppendSortKeyCell(&sort_key_, r[c]);
}

MergingCursor::MergingCursor(const Schema* /*schema*/,
                             std::vector<std::unique_ptr<Cursor>> children,
                             Direction direction)
    : children_(std::move(children)), direction_(direction) {
  for (const auto& c : children_) {
    if (!c->status().ok()) {
      status_ = c->status();
      return;
    }
  }
  keys_.resize(children_.size());
  heap_.reserve(children_.size());
  for (size_t i = 0; i < children_.size(); i++) {
    if (!children_[i]->Valid()) continue;
    keys_[i] = children_[i]->sort_key();
    heap_.push_back(i);
  }
  // Floyd build-heap: O(N), vs. O(N log N) for N pushes.
  for (size_t i = heap_.size() / 2; i-- > 0;) SiftDown(i);
}

bool MergingCursor::Before(size_t a, size_t b) const {
  int cmp = keys_[a].compare(keys_[b]);
  if (direction_ == Direction::kDescending) cmp = -cmp;
  return cmp < 0;
}

void MergingCursor::SiftDown(size_t i) {
  const size_t n = heap_.size();
  while (true) {
    size_t best = i;
    size_t left = 2 * i + 1, right = 2 * i + 2;
    if (left < n && Before(heap_[left], heap_[best])) best = left;
    if (right < n && Before(heap_[right], heap_[best])) best = right;
    if (best == i) return;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void MergingCursor::Fail(Status s) {
  status_ = std::move(s);
  heap_.clear();
}

Status MergingCursor::Next() {
  if (heap_.empty()) return status_;
  Cursor* child = top();
  Status s = child->Next();
  if (!s.ok()) {
    Fail(s);
    return status_;
  }
  if (!child->status().ok()) {
    Fail(child->status());
    return status_;
  }
  if (child->Valid()) {
    keys_[heap_[0]] = child->sort_key();
    SiftDown(0);  // Re-place the advanced child by its new key.
  } else {
    heap_[0] = heap_.back();  // Exhausted: drop it from the tournament.
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0);
  }
  return Status::OK();
}

}  // namespace lt
