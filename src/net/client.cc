#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/row_codec.h"
#include "util/coding.h"

namespace lt {

using wire::ErrCode;
using wire::MsgType;

Status Client::Connect(const std::string& host, uint16_t port,
                       std::unique_ptr<Client>* out) {
  return Connect(host, port, ClientOptions(), out);
}

Status Client::Connect(const std::string& host, uint16_t port,
                       const ClientOptions& options,
                       std::unique_ptr<Client>* out) {
  std::unique_ptr<Client> client(new Client(options));
  client->host_ = host;
  client->port_ = port;
  LT_RETURN_IF_ERROR(client->Ping());
  *out = std::move(client);
  return Status::OK();
}

Client::Client(const ClientOptions& options)
    : opts_(options),
      transport_(options.transport ? options.transport
                                   : net::Transport::Tcp()),
      retry_clock_(options.clock ? options.clock : SystemClock::Instance()),
      rng_(options.backoff_seed) {}

Status Client::EnsureConnectedLocked(int connect_timeout_ms) {
  if (conn_) return Status::OK();
  std::unique_ptr<net::Connection> conn;
  LT_RETURN_IF_ERROR(
      transport_->Connect(host_, port_, connect_timeout_ms, &conn));
  conn->set_read_timeout_ms(opts_.read_timeout_ms);
  conn->set_write_timeout_ms(opts_.write_timeout_ms);
  conn_ = std::move(conn);
  connect_count_.fetch_add(1, std::memory_order_relaxed);
  return BindTenantLocked();
}

Status Client::BindTenantLocked() {
  if (opts_.network_id == 0) return Status::OK();
  std::string req;
  PutVarint64(&req, static_cast<uint64_t>(opts_.network_id));
  MsgType type;
  std::string body;
  Status s = RoundTrip(MsgType::kSetTenant, req, &type, &body);
  if (!s.ok()) return s;
  // kError here means a pre-tenant server: it has no quotas to attribute
  // to, so the binding is moot — carry on unbound rather than failing
  // every connect against an older peer.
  return Status::OK();
}

bool IsConnectionError(const Status& s) {
  return s.IsNetworkError() || s.IsUnavailable() || s.IsDeadlineExceeded();
}

int64_t BackoffDelayMs(int initial_ms, int max_ms, int attempt) {
  int64_t delay = initial_ms;
  for (int i = 0; i < attempt && delay < max_ms; i++) delay *= 2;
  return std::min<int64_t>(delay, max_ms);
}

void SleepBackoff(const std::function<void(int64_t)>& sleep, int64_t ms) {
  if (sleep) {
    sleep(ms);
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
}

void Client::Backoff(int attempt) {
  int64_t delay =
      BackoffDelayMs(opts_.backoff_initial_ms, opts_.backoff_max_ms, attempt);
  if (delay <= 0) return;
  {
    // Uniform jitter in [delay/2, delay] decorrelates clients retrying
    // against a recovering server. rng_ is guarded by mu_; the sleep
    // itself happens unlocked.
    std::lock_guard<std::mutex> lock(mu_);
    delay = delay / 2 + static_cast<int64_t>(rng_.Uniform(
                            static_cast<uint64_t>(delay / 2 + 1)));
  }
  SleepBackoff(opts_.backoff_sleep, delay);
}

template <typename Fn>
Status Client::WithRetries(Fn&& fn) {
  // The total deadline caps the whole logical request — every attempt and
  // every backoff sleep — so a caller with an end-to-end budget is not held
  // for max_retries * (timeout + backoff).
  const Timestamp deadline =
      opts_.total_deadline_ms > 0
          ? retry_clock_->Now() + opts_.total_deadline_ms * 1000
          : 0;
  Status s;
  for (int attempt = 0;; attempt++) {
    {
      // mu_ covers one whole attempt (connect + round trip) but is
      // released before the backoff sleep — otherwise one failing request
      // would stall every other thread's call on this Client for up to
      // max_retries * (timeout + backoff).
      std::lock_guard<std::mutex> lock(mu_);
      s = EnsureConnectedLocked(opts_.connect_timeout_ms);
      if (s.ok()) {
        s = fn();
        if (s.ok() || !IsConnectionError(s)) return s;
        // The connection may be desynced (half-read frame) — drop it so
        // the next attempt starts from a clean handshake.
        conn_.reset();
      } else if (!IsConnectionError(s)) {
        return s;
      }
    }
    if (attempt >= opts_.max_retries) return s;
    if (deadline != 0 && retry_clock_->Now() >= deadline) return s;
    Backoff(attempt);
  }
}

Status Client::ReadFrame(MsgType* type, std::string* body) {
  char len_buf[4];
  LT_RETURN_IF_ERROR(conn_->ReadAll(len_buf, 4));
  uint32_t len = DecodeFixed32(len_buf);
  if (len == 0 || len > wire::kMaxFrameBytes) {
    return Status::NetworkError("bad frame length");
  }
  std::string payload(len, '\0');
  Status s = conn_->ReadAll(payload.data(), len);
  if (!s.ok()) {
    // A close after the header is a torn frame, not a clean goodbye.
    if (s.IsUnavailable()) {
      return Status::NetworkError("connection closed mid-frame");
    }
    return s;
  }
  *type = static_cast<MsgType>(payload[0]);
  body->assign(payload, 1, payload.size() - 1);
  return Status::OK();
}

Status Client::ErrorFromBody(Slice body) {
  if (body.empty()) return Status::NetworkError("malformed error frame");
  ErrCode code = static_cast<ErrCode>(body[0]);
  body.remove_prefix(1);
  Slice message;
  GetLengthPrefixedSlice(&body, &message);
  return wire::StatusForCode(code, message.ToString());
}

Status Client::RoundTrip(MsgType type, const std::string& body,
                         MsgType* resp_type, std::string* resp_body) {
  LT_RETURN_IF_ERROR(EnsureConnectedLocked(opts_.connect_timeout_ms));
  std::string frame = wire::Frame(type, body);
  Status s = conn_->WriteAll(frame.data(), frame.size());
  if (s.ok()) s = ReadFrame(resp_type, resp_body);
  if (!s.ok()) conn_.reset();
  return s;
}

Status Client::AckRoundTrip(MsgType type, const std::string& body) {
  MsgType resp_type;
  std::string resp_body;
  LT_RETURN_IF_ERROR(RoundTrip(type, body, &resp_type, &resp_body));
  if (resp_type == MsgType::kError) return ErrorFromBody(resp_body);
  return Status::OK();
}

Status Client::PingLocked() {
  MsgType type;
  std::string body;
  LT_RETURN_IF_ERROR(RoundTrip(MsgType::kPing, "", &type, &body));
  if (type == MsgType::kError) return ErrorFromBody(body);
  if (type != MsgType::kOk) return Status::NetworkError("bad ping response");
  return Status::OK();
}

Status Client::Ping() {
  return WithRetries([&] { return PingLocked(); });
}

Status Client::Ping(int deadline_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  LT_RETURN_IF_ERROR(EnsureConnectedLocked(deadline_ms));
  conn_->set_read_timeout_ms(deadline_ms);
  conn_->set_write_timeout_ms(deadline_ms);
  Status s = PingLocked();
  if (conn_) {
    // RoundTrip resets conn_ on failure, so a surviving connection is the
    // one whose deadlines we tightened — restore them.
    conn_->set_read_timeout_ms(opts_.read_timeout_ms);
    conn_->set_write_timeout_ms(opts_.write_timeout_ms);
  }
  return s;
}

Status Client::Call(MsgType type, const std::string& body,
                    MsgType* resp_type, std::string* resp_body) {
  std::lock_guard<std::mutex> lock(mu_);
  return RoundTrip(type, body, resp_type, resp_body);
}

Status Client::CallStream(
    MsgType type, const std::string& body,
    const std::function<Status(MsgType, Slice, bool*)>& on_frame) {
  std::lock_guard<std::mutex> lock(mu_);
  return CallStreamLocked(type, body, on_frame);
}

Status Client::CallStreamLocked(
    MsgType type, const std::string& body,
    const std::function<Status(MsgType, Slice, bool*)>& on_frame) {
  LT_RETURN_IF_ERROR(EnsureConnectedLocked(opts_.connect_timeout_ms));
  std::string frame = wire::Frame(type, body);
  Status s = conn_->WriteAll(frame.data(), frame.size());
  while (s.ok()) {
    MsgType rt;
    // One buffer per frame: reusing one across frames made perfbench
    // `scan` about 8% slower.
    std::string rb;
    s = ReadFrame(&rt, &rb);
    if (!s.ok()) break;
    bool done = false;
    s = on_frame(rt, Slice(rb), &done);
    // An error leaves undrained frames on the wire; the connection is
    // desynced, so it is dropped below.
    if (s.ok() && done) return Status::OK();
  }
  conn_.reset();
  return s;
}

Status Client::ListTables(std::vector<std::string>* names) {
  return WithRetries([&] {
    MsgType type;
    std::string body;
    LT_RETURN_IF_ERROR(RoundTrip(MsgType::kListTables, "", &type, &body));
    if (type == MsgType::kError) return ErrorFromBody(body);
    if (type != MsgType::kTableList) {
      return Status::NetworkError("unexpected response");
    }
    Slice in(body);
    uint32_t count;
    if (!GetVarint32(&in, &count)) return Status::Corruption("bad table list");
    names->clear();
    for (uint32_t i = 0; i < count; i++) {
      Slice name;
      if (!GetLengthPrefixedSlice(&in, &name)) {
        return Status::Corruption("bad table list");
      }
      names->push_back(name.ToString());
    }
    return Status::OK();
  });
}

Status Client::CreateTable(const std::string& table, const Schema& schema,
                           Timestamp ttl) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string req;
  PutLengthPrefixedSlice(&req, table);
  schema.EncodeTo(&req);
  PutVarint64(&req, static_cast<uint64_t>(ttl));
  return AckRoundTrip(MsgType::kCreateTable, req);
}

Status Client::DropTable(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  schema_cache_.erase(table);
  std::string req;
  PutLengthPrefixedSlice(&req, table);
  return AckRoundTrip(MsgType::kDropTable, req);
}

Status Client::GetTableInfo(const std::string& table, Schema* schema,
                            Timestamp* ttl) {
  return WithRetries([&] {
    auto r = FetchSchemaLocked(table, ttl);
    if (r.ok()) *schema = **r;
    return r.status();
  });
}

Result<std::shared_ptr<const Schema>> Client::FetchSchemaLocked(
    const std::string& table, Timestamp* ttl) {
  std::string req;
  PutLengthPrefixedSlice(&req, table);
  MsgType type;
  std::string body;
  LT_RETURN_IF_ERROR(RoundTrip(MsgType::kGetTable, req, &type, &body));
  if (type == MsgType::kError) return ErrorFromBody(body);
  if (type != MsgType::kTableInfo) {
    return Status::NetworkError("unexpected response");
  }
  Slice in(body);
  Schema schema;
  LT_RETURN_IF_ERROR(Schema::DecodeFrom(&in, &schema));
  uint64_t ttl_u;
  if (!GetVarint64(&in, &ttl_u)) return Status::Corruption("bad table info");
  if (ttl != nullptr) *ttl = static_cast<Timestamp>(ttl_u);
  auto shared = std::make_shared<const Schema>(std::move(schema));
  schema_cache_[table] = shared;
  return shared;
}

Result<std::shared_ptr<const Schema>> Client::SchemaLocked(
    const std::string& table) {
  auto it = schema_cache_.find(table);
  if (it != schema_cache_.end()) return it->second;
  return FetchSchemaLocked(table, nullptr);
}

Result<std::shared_ptr<const Schema>> Client::TableSchema(
    const std::string& table) {
  std::shared_ptr<const Schema> schema;
  Status s = WithRetries([&]() -> Status {
    auto r = SchemaLocked(table);
    if (!r.ok()) return r.status();
    schema = std::move(*r);
    return Status::OK();
  });
  if (!s.ok()) return s;
  return schema;
}

void Client::InvalidateSchema(const std::string& table) {
  schema_cache_.erase(table);
}

Status Client::Insert(const std::string& table, const std::vector<Row>& rows) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int attempt = 0; attempt < 2; attempt++) {
    LT_ASSIGN_OR_RETURN(std::shared_ptr<const Schema> schema,
                        SchemaLocked(table));
    std::string req;
    PutLengthPrefixedSlice(&req, table);
    PutVarint32(&req, schema->version());
    PutVarint32(&req, static_cast<uint32_t>(rows.size()));
    for (const Row& row : rows) {
      if (!schema->RowMatches(row)) {
        return Status::InvalidArgument("row does not match table schema");
      }
      EncodeRow(&req, *schema, row);
    }
    MsgType type;
    std::string body;
    LT_RETURN_IF_ERROR(RoundTrip(MsgType::kInsert, req, &type, &body));
    if (type == MsgType::kOk) return Status::OK();
    if (type != MsgType::kError) {
      return Status::NetworkError("unexpected response");
    }
    if (wire::HasErrCode(body, ErrCode::kSchemaChanged) && attempt == 0) {
      InvalidateSchema(table);
      continue;  // Refetch and retry once.
    }
    return ErrorFromBody(body);
  }
  return Status::Aborted("schema changed repeatedly");
}

Status Client::Query(const std::string& table, const QueryBounds& bounds,
                     QueryResult* result) {
  return WithRetries([&] { return QueryLocked(table, bounds, result); });
}

Status Client::QueryLocked(const std::string& table, const QueryBounds& bounds,
                           QueryResult* result) {
  for (int attempt = 0;; attempt++) {
    LT_ASSIGN_OR_RETURN(std::shared_ptr<const Schema> schema,
                        SchemaLocked(table));
    std::string req;
    PutLengthPrefixedSlice(&req, table);
    PutVarint32(&req, schema->version());
    wire::EncodeBounds(&req, *schema, bounds);
    result->rows.clear();
    result->more_available = false;
    Status reply;  // The server's kError, which ends the stream in sync.
    bool schema_changed = false;
    LT_RETURN_IF_ERROR(CallStreamLocked(
        MsgType::kQuery, req, [&](MsgType type, Slice body, bool* done) {
          if (type == MsgType::kError) {
            schema_changed = wire::HasErrCode(body, ErrCode::kSchemaChanged);
            reply = ErrorFromBody(body);
            *done = true;
            return Status::OK();
          }
          if (type != MsgType::kQueryChunk) {
            return Status::NetworkError("unexpected response");
          }
          wire::ChunkHeader h;
          LT_RETURN_IF_ERROR(wire::DecodeChunkHeader(&body, &h));
          LT_RETURN_IF_ERROR(
              wire::DecodeChunkRows(&body, *schema, h, &result->rows));
          if (h.flags & wire::kChunkFinal) {
            result->more_available = h.flags & wire::kChunkMoreAvailable;
            *done = true;
          }
          return Status::OK();
        }));
    if (!schema_changed || attempt > 0) return reply;
    InvalidateSchema(table);
  }
}

Status Client::QueryPage(const std::string& table, QueryBounds* bounds,
                         QueryResult* result) {
  LT_ASSIGN_OR_RETURN(std::shared_ptr<const Schema> schema,
                      TableSchema(table));
  LT_RETURN_IF_ERROR(Query(table, *bounds, result));
  if (result->more_available && !result->rows.empty()) {
    bounds->ContinueAfter(*schema, result->rows.back());
  }
  return Status::OK();
}

Status Client::QueryAll(const std::string& table, const QueryBounds& bounds,
                        std::vector<Row>* rows) {
  rows->clear();
  LT_ASSIGN_OR_RETURN(std::shared_ptr<const Schema> schema,
                      TableSchema(table));
  return QueryAllPages(*schema, bounds, rows,
                       [&](const QueryBounds& page, QueryResult* result) {
                         return Query(table, page, result);
                       });
}

Status Client::LatestRow(const std::string& table, const Key& prefix,
                         Row* row, bool* found) {
  return WithRetries(
      [&] { return LatestRowLocked(table, prefix, row, found); });
}

Status Client::LatestRowLocked(const std::string& table, const Key& prefix,
                               Row* row, bool* found) {
  *found = false;
  for (int attempt = 0; attempt < 2; attempt++) {
    LT_ASSIGN_OR_RETURN(std::shared_ptr<const Schema> schema,
                        SchemaLocked(table));
    std::string req;
    PutLengthPrefixedSlice(&req, table);
    PutVarint32(&req, schema->version());
    wire::EncodeKeyPrefix(&req, *schema, prefix);
    MsgType type;
    std::string body;
    LT_RETURN_IF_ERROR(RoundTrip(MsgType::kLatestRow, req, &type, &body));
    if (type == MsgType::kError) {
      if (wire::HasErrCode(body, ErrCode::kSchemaChanged) && attempt == 0) {
        InvalidateSchema(table);
        continue;
      }
      return ErrorFromBody(body);
    }
    if (type != MsgType::kRowResult) {
      return Status::NetworkError("unexpected response");
    }
    Status s = wire::DecodeRowResult(body, *schema, row, found);
    if (!s.IsAborted()) return s;
    InvalidateSchema(table);  // The reply was encoded under a newer schema.
  }
  return Status::Aborted("schema changed repeatedly");
}

Status Client::FlushThrough(const std::string& table, Timestamp ts) {
  // Idempotent: flushing through the same timestamp twice is a no-op.
  return WithRetries([&] {
    std::string req;
    PutLengthPrefixedSlice(&req, table);
    PutVarint64(&req, ZigZagEncode(ts));
    return AckRoundTrip(MsgType::kFlushThrough, req);
  });
}

Status Client::AppendColumn(const std::string& table, const Column& column) {
  std::lock_guard<std::mutex> lock(mu_);
  InvalidateSchema(table);
  std::string req;
  PutLengthPrefixedSlice(&req, table);
  PutLengthPrefixedSlice(&req, column.name);
  req.push_back(static_cast<char>(column.type));
  EncodeValue(&req, column.default_value, column.type);
  return AckRoundTrip(MsgType::kAppendColumn, req);
}

Status Client::WidenColumn(const std::string& table,
                           const std::string& column) {
  std::lock_guard<std::mutex> lock(mu_);
  InvalidateSchema(table);
  std::string req;
  PutLengthPrefixedSlice(&req, table);
  PutLengthPrefixedSlice(&req, column);
  return AckRoundTrip(MsgType::kWidenColumn, req);
}

Status Client::SetTtl(const std::string& table, Timestamp ttl) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string req;
  PutLengthPrefixedSlice(&req, table);
  PutVarint64(&req, static_cast<uint64_t>(ttl));
  return AckRoundTrip(MsgType::kSetTtl, req);
}

Status Client::Stats(const std::string& table, ServerStats* stats) {
  return WithRetries([&] {
    std::string req;
    PutLengthPrefixedSlice(&req, table);
    MsgType type;
    std::string body;
    LT_RETURN_IF_ERROR(RoundTrip(MsgType::kStatsV2, req, &type, &body));
    if (type == MsgType::kError) return ErrorFromBody(body);
    if (type != MsgType::kStatsV2Result) {
      return Status::NetworkError("unexpected response");
    }
    Slice in(body);
    uint32_t count;
    if (!GetVarint32(&in, &count)) {
      return Status::Corruption("bad stats reply");
    }
    stats->counters.clear();
    stats->histograms.clear();
    for (uint32_t i = 0; i < count; i++) {
      Slice name;
      uint64_t value;
      if (!GetLengthPrefixedSlice(&in, &name) || !GetVarint64(&in, &value)) {
        return Status::Corruption("bad stats reply");
      }
      stats->counters[name.ToString()] = value;
    }
    uint32_t nhist;
    if (!GetVarint32(&in, &nhist)) {
      return Status::Corruption("bad stats reply");
    }
    for (uint32_t i = 0; i < nhist; i++) {
      Slice name;
      HistogramQuantiles q;
      if (!GetLengthPrefixedSlice(&in, &name) ||
          !GetVarint64(&in, &q.count) || !GetVarint64(&in, &q.p50) ||
          !GetVarint64(&in, &q.p90) || !GetVarint64(&in, &q.p99) ||
          !GetVarint64(&in, &q.p999) || !GetVarint64(&in, &q.max)) {
        return Status::Corruption("bad stats reply");
      }
      stats->histograms[name.ToString()] = q;
    }
    return Status::OK();
  });
}

}  // namespace lt
