// Typed cell values and the column type system (§3.1, §3.5).
//
// LittleTable supports 32- and 64-bit integers, double-precision floats,
// timestamps, variable-length strings, and byte arrays (blobs). There are no
// NULLs: every column has a default, and applications that need a sentinel
// use one explicitly (the paper's example is -1).
#ifndef LITTLETABLE_CORE_VALUE_H_
#define LITTLETABLE_CORE_VALUE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "util/clock.h"
#include "util/coding.h"
#include "util/slice.h"
#include "util/status.h"

namespace lt {

/// Column types. kTimestamp is distinct from kInt64 so schema validation can
/// require the final primary-key column to be a timestamp named "ts".
enum class ColumnType : uint8_t {
  kInt32 = 1,
  kInt64 = 2,
  kDouble = 3,
  kTimestamp = 4,
  kString = 5,
  kBlob = 6,
};

const char* ColumnTypeName(ColumnType t);
Status ColumnTypeFromName(const std::string& name, ColumnType* out);

/// A single typed cell. The stored representation is one of int32, int64,
/// double, or string; timestamps ride in the int64 arm and blobs in the
/// string arm, with the column's declared type disambiguating.
class Value {
 public:
  Value() : v_(int64_t{0}) {}
  static Value Int32(int32_t v) { return Value(v); }
  static Value Int64(int64_t v) { return Value(v); }
  static Value Double(double v) { return Value(v); }
  static Value Ts(Timestamp t) { return Value(static_cast<int64_t>(t)); }
  static Value String(std::string s) { return Value(std::move(s)); }
  static Value Blob(std::string s) { return Value(std::move(s)); }
  /// Constructs arm T (int32_t, int64_t, double or std::string) from
  /// `args` in place, so a decoder can build a cell straight into a Row:
  /// row.emplace_back(std::in_place_type<int64_t>, v).
  template <typename T, typename... Args>
  explicit Value(std::in_place_type_t<T> arm, Args&&... args)
      : v_(arm, std::forward<Args>(args)...) {}

  bool is_i32() const { return std::holds_alternative<int32_t>(v_); }
  bool is_i64() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_bytes() const { return std::holds_alternative<std::string>(v_); }

  int32_t i32() const { return std::get<int32_t>(v_); }
  int64_t i64() const { return std::get<int64_t>(v_); }
  double dbl() const { return std::get<double>(v_); }
  const std::string& bytes() const { return std::get<std::string>(v_); }

  /// The value as an integer regardless of 32/64 storage (for timestamps and
  /// widening reads); requires an integer arm.
  int64_t AsInt() const { return is_i32() ? i32() : i64(); }

  /// True if this runtime representation is valid for a declared type.
  bool MatchesType(ColumnType t) const;

  /// Three-way comparison; both values must match the same column type.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }

  /// Debug/SQL rendering.
  std::string ToString(ColumnType t) const;

 private:
  explicit Value(int32_t v) : v_(v) {}
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}

  std::variant<int32_t, int64_t, double, std::string> v_;
};

/// A row is a vector of cells in schema column order; a key is the vector of
/// primary-key cells (a prefix of the row, by construction of the schema).
using Row = std::vector<Value>;
using Key = std::vector<Value>;

/// Appends the encoding of `v` (as type `t`) to `dst`. Integers and
/// timestamps are zigzag varints, doubles are fixed64 bit patterns, strings
/// and blobs are length-prefixed.
void EncodeValue(std::string* dst, const Value& v, ColumnType t);

/// Decodes one value of type `t`, consuming from `input`, and appends it to
/// *row, built in place. The one cell decoder: row, key and value decoders
/// all call it. Inline, since row decoders call it per cell.
inline Status DecodeCellInto(Slice* input, ColumnType t, Row* row) {
  uint64_t u;
  switch (t) {
    case ColumnType::kInt32: {
      if (!GetVarint64(input, &u)) return Status::Corruption("bad int32 cell");
      const int64_t v = ZigZagDecode(u);
      if (v < INT32_MIN || v > INT32_MAX) {
        return Status::Corruption("int32 cell out of range");
      }
      row->emplace_back(std::in_place_type<int32_t>, static_cast<int32_t>(v));
      return Status::OK();
    }
    case ColumnType::kInt64:
    case ColumnType::kTimestamp:
      if (!GetVarint64(input, &u)) return Status::Corruption("bad int64 cell");
      row->emplace_back(std::in_place_type<int64_t>, ZigZagDecode(u));
      return Status::OK();
    case ColumnType::kDouble: {
      if (!GetFixed64(input, &u)) return Status::Corruption("bad double cell");
      double d;
      __builtin_memcpy(&d, &u, 8);
      row->emplace_back(std::in_place_type<double>, d);
      return Status::OK();
    }
    case ColumnType::kString:
    case ColumnType::kBlob:
      if (!GetVarint64(input, &u) || input->size() < u) {
        return Status::Corruption("bad bytes cell");
      }
      row->emplace_back(std::in_place_type<std::string>, input->data(),
                        static_cast<size_t>(u));
      input->remove_prefix(static_cast<size_t>(u));
      return Status::OK();
  }
  return Status::Corruption("unknown column type in cell");
}

/// Decodes one value of type `t`, consuming from `input`.
Status DecodeValue(Slice* input, ColumnType t, Value* out);

/// Returns the default value for a column type (0 / 0.0 / epoch / empty).
Value DefaultValueFor(ColumnType t);

}  // namespace lt

#endif  // LITTLETABLE_CORE_VALUE_H_
