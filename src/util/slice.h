// Slice: a non-owning view over a byte range, plus small helpers.
//
// Functionally equivalent to std::string_view but named in the storage-engine
// tradition and extended with byte-oriented helpers used by the tablet format.
#ifndef LITTLETABLE_UTIL_SLICE_H_
#define LITTLETABLE_UTIL_SLICE_H_

#include <cassert>
#include <cstddef>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

namespace lt {

/// A pointer + length view over externally owned bytes.
class Slice {
 public:
  Slice() : data_(""), size_(0) {}
  Slice(const char* d, size_t n) : data_(d), size_(n) {}
  Slice(const std::string& s) : data_(s.data()), size_(s.size()) {}  // NOLINT
  Slice(const char* s) : data_(s), size_(strlen(s)) {}               // NOLINT
  Slice(std::string_view s) : data_(s.data()), size_(s.size()) {}    // NOLINT

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  char operator[](size_t n) const {
    assert(n < size_);
    return data_[n];
  }

  /// Drops the first n bytes from this slice.
  void remove_prefix(size_t n) {
    assert(n <= size_);
    data_ += n;
    size_ -= n;
  }

  std::string ToString() const { return std::string(data_, size_); }
  std::string_view view() const { return std::string_view(data_, size_); }

  /// Three-way comparison: <0, ==0, >0 in memcmp order.
  int compare(const Slice& b) const {
    const size_t min_len = size_ < b.size_ ? size_ : b.size_;
    int r = memcmp(data_, b.data_, min_len);
    if (r == 0) {
      if (size_ < b.size_) r = -1;
      else if (size_ > b.size_) r = +1;
    }
    return r;
  }

  bool starts_with(const Slice& prefix) const {
    return size_ >= prefix.size_ &&
           memcmp(data_, prefix.data_, prefix.size_) == 0;
  }

 private:
  const char* data_;
  size_t size_;
};

inline bool operator==(const Slice& a, const Slice& b) {
  return a.size() == b.size() && memcmp(a.data(), b.data(), a.size()) == 0;
}
/// Hashes a Slice's bytes, for unordered containers of slices.
struct SliceHash {
  size_t operator()(const Slice& s) const {
    return std::hash<std::string_view>()(s.view());
  }
};

inline bool operator!=(const Slice& a, const Slice& b) { return !(a == b); }

}  // namespace lt

#endif  // LITTLETABLE_UTIL_SLICE_H_
