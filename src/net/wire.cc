#include "net/wire.h"

#include <algorithm>
#include <cstring>

#include "core/row_codec.h"
#include "core/sort_key.h"
#include "util/coding.h"

namespace lt {
namespace wire {

std::string Frame(MsgType type, const std::string& body) {
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(body.size() + 1));
  out.push_back(static_cast<char>(type));
  out += body;
  return out;
}

void EncodeKeyPrefix(std::string* dst, const Schema& schema, const Key& key) {
  PutVarint32(dst, static_cast<uint32_t>(key.size()));
  for (size_t i = 0; i < key.size(); i++) {
    EncodeValue(dst, key[i], schema.columns()[i].type);
  }
}

Status DecodeKeyPrefix(Slice* in, const Schema& schema, Key* out) {
  uint32_t n;
  if (!GetVarint32(in, &n) || n > schema.num_key_columns()) {
    return Status::Corruption("bad key prefix length");
  }
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    LT_RETURN_IF_ERROR(DecodeCellInto(in, schema.columns()[i].type, out));
  }
  return Status::OK();
}

Status ParseInsertRows(Slice* in, const Schema& schema, Timestamp now,
                       RowBatch* batch) {
  const size_t num_columns = schema.num_columns();
  uint32_t count;
  if (!GetVarint32(in, &count) || count > 10u * 1000 * 1000 ||
      count > in->size() / num_columns) {
    return Status::InvalidArgument("bad row count");
  }
  batch->Reset(schema.version());
  std::string* keys = batch->mutable_keys();
  std::string* rows = batch->mutable_rows();
  // A canonical cell is never longer than the cell it was parsed from.
  rows->reserve(in->size());
  const std::vector<Column>& columns = schema.columns();
  const size_t num_keys = schema.num_key_columns();
  const size_t ts_index = schema.ts_index();
  char buf[10];
  for (uint32_t r = 0; r < count; r++) {
    size_t charge = RowChargeBase(num_columns);
    Timestamp ts = 0;
    for (size_t c = 0; c < num_columns; c++) {
      const ColumnType type = columns[c].type;
      uint64_t u;
      switch (type) {
        case ColumnType::kInt32:
        case ColumnType::kInt64:
        case ColumnType::kTimestamp: {
          if (!GetVarint64(in, &u)) return Status::InvalidArgument("bad row");
          int64_t v = ZigZagDecode(u);
          if (type == ColumnType::kInt32 && (v < INT32_MIN || v > INT32_MAX)) {
            return Status::InvalidArgument("bad row");
          }
          if (c == ts_index) {
            // A client may omit a row's timestamp entirely, in which case
            // the server sets it to the current time (§3.1).
            if (v == kOmittedTimestamp) {
              v = now;
              u = ZigZagEncode(now);
            }
            ts = v;
          }
          rows->append(buf, static_cast<size_t>(EncodeVarint64(buf, u) - buf));
          if (c < num_keys) keys->append(buf, static_cast<size_t>(
                                                  PutSortKeyInt(buf, v) - buf));
          break;
        }
        case ColumnType::kDouble: {
          if (in->size() < 8) return Status::InvalidArgument("bad row");
          rows->append(in->data(), 8);
          if (c < num_keys) {
            double d;
            memcpy(&d, in->data(), 8);
            keys->append(buf,
                         static_cast<size_t>(PutSortKeyDouble(buf, d) - buf));
          }
          in->remove_prefix(8);
          break;
        }
        case ColumnType::kString:
        case ColumnType::kBlob: {
          if (!GetVarint64(in, &u) || in->size() < u) {
            return Status::InvalidArgument("bad row");
          }
          const Slice bytes(in->data(), static_cast<size_t>(u));
          rows->append(buf, static_cast<size_t>(EncodeVarint64(buf, u) - buf));
          rows->append(bytes.data(), bytes.size());
          if (c < num_keys) {
            const size_t at = keys->size();
            keys->resize(at + MaxSortKeyBytesLen(bytes.size()));
            char* end = PutSortKeyBytes(keys->data() + at, bytes);
            keys->resize(static_cast<size_t>(end - keys->data()));
          }
          charge += RowChargeBytesCell(bytes.size());
          in->remove_prefix(bytes.size());
          break;
        }
        default:
          return Status::InvalidArgument("bad row");
      }
    }
    batch->FinishRow(ts, charge);
  }
  return Status::OK();
}

void EncodeChunkHeader(std::string* dst, const ChunkHeader& header) {
  dst->push_back(static_cast<char>(header.flags));
  PutVarint32(dst, header.version);
  PutVarint32(dst, header.count);
}

Status DecodeChunkHeader(Slice* in, ChunkHeader* header) {
  if (in->empty()) return Status::Corruption("bad chunk");
  header->flags = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  if (!GetVarint32(in, &header->version) || !GetVarint32(in, &header->count)) {
    return Status::Corruption("bad chunk");
  }
  return Status::OK();
}

Status DecodeChunkRows(Slice* in, const Schema& schema,
                       const ChunkHeader& header, std::vector<Row>* rows) {
  if (header.version != schema.version()) {
    return Status::Aborted("schema changed mid-query");
  }
  const size_t fit = in->size() / std::max<size_t>(1, schema.num_columns());
  const size_t want = rows->size() + std::min<size_t>(header.count, fit);
  if (want > rows->capacity()) {
    rows->reserve(std::max(want, 2 * rows->capacity()));
  }
  for (uint32_t i = 0; i < header.count; i++) {
    LT_RETURN_IF_ERROR(DecodeRow(in, schema, &rows->emplace_back()));
  }
  return Status::OK();
}

void EncodeRowResult(std::string* dst, const Schema& schema, const Row* row) {
  dst->push_back(row != nullptr ? 1 : 0);
  PutVarint32(dst, schema.version());
  if (row != nullptr) EncodeRow(dst, schema, *row);
}

Status DecodeRowResult(Slice in, const Schema& schema, Row* row, bool* found) {
  if (in.empty()) return Status::Corruption("bad row result");
  const bool has_row = in[0] != 0;
  in.remove_prefix(1);
  uint32_t version;
  if (!GetVarint32(&in, &version)) return Status::Corruption("bad row result");
  if (version != schema.version()) {
    return Status::Aborted("schema changed mid-query");
  }
  if (has_row) LT_RETURN_IF_ERROR(DecodeRow(&in, schema, row));
  *found = has_row;
  return Status::OK();
}

void EncodeBounds(std::string* dst, const Schema& schema,
                  const QueryBounds& bounds) {
  uint8_t flags = 0;
  if (bounds.min_key) flags |= 0x01;
  if (bounds.min_key && bounds.min_key->inclusive) flags |= 0x02;
  if (bounds.max_key) flags |= 0x04;
  if (bounds.max_key && bounds.max_key->inclusive) flags |= 0x08;
  if (bounds.min_ts_inclusive) flags |= 0x10;
  if (bounds.max_ts_inclusive) flags |= 0x20;
  if (bounds.direction == Direction::kDescending) flags |= 0x40;
  if (!bounds.projection.empty()) flags |= kBoundsProjected;
  dst->push_back(static_cast<char>(flags));
  if (bounds.min_key) EncodeKeyPrefix(dst, schema, bounds.min_key->prefix);
  if (bounds.max_key) EncodeKeyPrefix(dst, schema, bounds.max_key->prefix);
  PutVarint64(dst, ZigZagEncode(bounds.min_ts));
  PutVarint64(dst, ZigZagEncode(bounds.max_ts));
  PutVarint64(dst, bounds.limit);
  if (bounds.projection.empty()) return;
  PutVarint32(dst, static_cast<uint32_t>(bounds.projection.size()));
  for (uint32_t c : bounds.projection) PutVarint32(dst, c);
}

Status DecodeBounds(Slice* in, const Schema& schema, QueryBounds* out) {
  if (in->empty()) return Status::Corruption("bounds truncated");
  uint8_t flags = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  *out = QueryBounds();
  if (flags & 0x01) {
    KeyBound kb;
    kb.inclusive = flags & 0x02;
    LT_RETURN_IF_ERROR(DecodeKeyPrefix(in, schema, &kb.prefix));
    out->min_key = std::move(kb);
  }
  if (flags & 0x04) {
    KeyBound kb;
    kb.inclusive = flags & 0x08;
    LT_RETURN_IF_ERROR(DecodeKeyPrefix(in, schema, &kb.prefix));
    out->max_key = std::move(kb);
  }
  uint64_t zz_min, zz_max;
  if (!GetVarint64(in, &zz_min) || !GetVarint64(in, &zz_max) ||
      !GetVarint64(in, &out->limit)) {
    return Status::Corruption("bounds truncated");
  }
  out->min_ts = ZigZagDecode(zz_min);
  out->max_ts = ZigZagDecode(zz_max);
  out->min_ts_inclusive = flags & 0x10;
  out->max_ts_inclusive = flags & 0x20;
  out->direction =
      (flags & 0x40) ? Direction::kDescending : Direction::kAscending;
  if (!(flags & kBoundsProjected)) return Status::OK();
  // The count is checked before it sizes the vector, and every index
  // against the schema, so a hostile request can neither allocate from an
  // unchecked count nor name a column that does not exist.
  uint32_t count;
  if (!GetVarint32(in, &count) || count > schema.num_columns()) {
    return Status::Corruption("bad projection count");
  }
  out->projection.reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    uint32_t c;
    if (!GetVarint32(in, &c) || c >= schema.num_columns()) {
      return Status::Corruption("bad projection column");
    }
    out->projection.push_back(c);
  }
  return Status::OK();
}

ErrCode CodeForStatus(const Status& s) {
  switch (s.code()) {
    case Status::Code::kNotFound: return ErrCode::kNotFound;
    case Status::Code::kAlreadyExists: return ErrCode::kAlreadyExists;
    case Status::Code::kInvalidArgument: return ErrCode::kInvalidArgument;
    case Status::Code::kCorruption: return ErrCode::kCorruption;
    case Status::Code::kIOError: return ErrCode::kIOError;
    // Server-side kUnavailable means overload (e.g. flush backlog at the
    // hard cap): tell the client to back off.
    case Status::Code::kUnavailable: return ErrCode::kServerBusy;
    default: return ErrCode::kGeneric;
  }
}

Status StatusForCode(ErrCode code, const std::string& message) {
  switch (code) {
    case ErrCode::kNotFound: return Status::NotFound(message);
    case ErrCode::kAlreadyExists: return Status::AlreadyExists(message);
    case ErrCode::kInvalidArgument: return Status::InvalidArgument(message);
    case ErrCode::kSchemaChanged: return Status::Aborted(message);
    case ErrCode::kCorruption: return Status::Corruption(message);
    case ErrCode::kIOError: return Status::IOError(message);
    case ErrCode::kServerBusy:
      return Status::Unavailable(message.empty() ? "server busy" : message);
    case ErrCode::kShuttingDown:
      return Status::Unavailable(message.empty() ? "server shutting down"
                                                 : message);
    case ErrCode::kBadRequest:
      return Status::InvalidArgument(message.empty() ? "bad request"
                                                     : message);
    case ErrCode::kWrongShard:
      // Routing staleness is retryable after a shard-map refresh; Aborted
      // keeps it distinct from connection errors so a plain Client never
      // blind-retries it.
      return Status::Aborted(message.empty() ? "wrong shard" : message);
    case ErrCode::kResourceExhausted:
      // Same retry class as kServerBusy (back off, try again); the message
      // keeps the quota-vs-busy distinction visible to callers.
      return Status::Unavailable(message.empty() ? "resource exhausted"
                                                 : message);
    case ErrCode::kCancelled:
      // Aborted, not Unavailable: the client cancelled it; a blind retry
      // would resurrect the very work the caller just killed.
      return Status::Aborted(message.empty() ? "query cancelled" : message);
    case ErrCode::kGeneric: break;
  }
  return Status::NetworkError(message);
}

}  // namespace wire
}  // namespace lt
