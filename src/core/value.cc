#include "core/value.h"

#include <cassert>
#include <cstdio>

#include "util/coding.h"

namespace lt {

const char* ColumnTypeName(ColumnType t) {
  switch (t) {
    case ColumnType::kInt32: return "int32";
    case ColumnType::kInt64: return "int64";
    case ColumnType::kDouble: return "double";
    case ColumnType::kTimestamp: return "timestamp";
    case ColumnType::kString: return "string";
    case ColumnType::kBlob: return "blob";
  }
  return "unknown";
}

Status ColumnTypeFromName(const std::string& name, ColumnType* out) {
  if (name == "int32") *out = ColumnType::kInt32;
  else if (name == "int64") *out = ColumnType::kInt64;
  else if (name == "double") *out = ColumnType::kDouble;
  else if (name == "timestamp") *out = ColumnType::kTimestamp;
  else if (name == "string") *out = ColumnType::kString;
  else if (name == "blob") *out = ColumnType::kBlob;
  else return Status::InvalidArgument("unknown column type: " + name);
  return Status::OK();
}

bool Value::MatchesType(ColumnType t) const {
  switch (t) {
    case ColumnType::kInt32: return is_i32();
    case ColumnType::kInt64:
    case ColumnType::kTimestamp: return is_i64();
    case ColumnType::kDouble: return is_double();
    case ColumnType::kString:
    case ColumnType::kBlob: return is_bytes();
  }
  return false;
}

int Value::Compare(const Value& other) const {
  if (is_bytes()) {
    assert(other.is_bytes());
    int r = Slice(bytes()).compare(Slice(other.bytes()));
    return r < 0 ? -1 : (r > 0 ? 1 : 0);
  }
  if (is_double()) {
    assert(other.is_double());
    double a = dbl(), b = other.dbl();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  int64_t a = AsInt(), b = other.AsInt();
  return a < b ? -1 : (a > b ? 1 : 0);
}

std::string Value::ToString(ColumnType t) const {
  char buf[64];
  switch (t) {
    case ColumnType::kInt32:
    case ColumnType::kInt64:
    case ColumnType::kTimestamp:
      snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(AsInt()));
      return buf;
    case ColumnType::kDouble:
      snprintf(buf, sizeof(buf), "%.17g", dbl());
      return buf;
    case ColumnType::kString:
      return "'" + bytes() + "'";
    case ColumnType::kBlob: {
      std::string out = "x'";
      for (unsigned char c : bytes()) {
        snprintf(buf, sizeof(buf), "%02x", c);
        out += buf;
      }
      out += "'";
      return out;
    }
  }
  return "?";
}

void EncodeValue(std::string* dst, const Value& v, ColumnType t) {
  switch (t) {
    case ColumnType::kInt32:
      PutVarint64(dst, ZigZagEncode(v.i32()));
      break;
    case ColumnType::kInt64:
    case ColumnType::kTimestamp:
      PutVarint64(dst, ZigZagEncode(v.AsInt()));
      break;
    case ColumnType::kDouble: {
      uint64_t bits;
      double d = v.dbl();
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, 8);
      PutFixed64(dst, bits);
      break;
    }
    case ColumnType::kString:
    case ColumnType::kBlob:
      PutLengthPrefixedSlice(dst, v.bytes());
      break;
  }
}

Status DecodeValue(Slice* input, ColumnType t, Value* out) {
  Row cell;
  LT_RETURN_IF_ERROR(DecodeCellInto(input, t, &cell));
  *out = std::move(cell[0]);
  return Status::OK();
}

Value DefaultValueFor(ColumnType t) {
  switch (t) {
    case ColumnType::kInt32: return Value::Int32(0);
    case ColumnType::kInt64: return Value::Int64(0);
    case ColumnType::kTimestamp: return Value::Ts(0);
    case ColumnType::kDouble: return Value::Double(0.0);
    case ColumnType::kString: return Value::String("");
    case ColumnType::kBlob: return Value::Blob("");
  }
  return Value();
}

}  // namespace lt
