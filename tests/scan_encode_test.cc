// Differential and corruption coverage for the scan encode path. The
// server streams each returned row as bytes encoded straight from a
// columnar block's decoded column arrays (QueryStream::NextEncoded →
// Cursor::AppendEncodedRow → BlockReader::AppendEncodedRow), never through
// a materialized Row. Those bytes must equal EncodeRow over Table::Query's
// rows for every direction, projection, limit and page size, on a table
// that mixes on-disk tablets of formats 0, 1 and 2, a tablet written under
// an older schema (the translation fallback) and MemTablet rows — in
// process and, chunk frame by chunk frame, over the wire.
//
// The projection travels in the kQuery request, so Client::QueryAll (with
// server-side paging) and SQL through ClientBackend must answer exactly as
// the engine does in process, and a mutated projected kQuery body must get
// a reply or an explicit error.
//
// Injected faults — an int32 cell out of range, a chunk whose arm does not
// match its column type, an undecodable chunk — must fail the encode path
// with exactly the Corruption RowAt returns, and the server must answer
// them with an error frame, never a partial chunk.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/block.h"
#include "core/db.h"
#include "core/row_codec.h"
#include "core/sort_key.h"
#include "core/table.h"
#include "core/tablet_reader.h"
#include "core/tablet_writer.h"
#include "env/mem_env.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "sim/sim_transport.h"
#include "sql/backend.h"
#include "sql/executor.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/lzmini.h"

namespace lt {
namespace {

using sim::SimTransport;
using sim::SimTransportOptions;
using wire::ErrCode;
using wire::MsgType;

constexpr uint16_t kPort = 7412;

// ---------------------------------------------------------------------------
// Raw wire access: one query, its frames as sent.

struct WireFrame {
  MsgType type;
  std::string body;  // Without the length and type bytes.
  std::string raw;   // The whole frame as it arrived.
};

class WireHarness {
 public:
  /// `row_cap` is the server's default_query_row_cap (0 = none); a small
  /// one makes Client::QueryAll page.
  WireHarness(DB* db, std::shared_ptr<SimClock> clock, uint64_t row_cap = 0)
      : clock_(clock) {
    SimTransportOptions topts;
    topts.clock = clock;
    transport_ = std::make_unique<SimTransport>(topts);
    ServerOptions sopts;
    sopts.port = kPort;
    sopts.transport = transport_.get();
    sopts.clock = clock;
    sopts.poll_interval_ms = 5;
    sopts.default_query_row_cap = row_cap;
    server_ = std::make_unique<LittleTableServer>(db, sopts);
    EXPECT_TRUE(server_->Start().ok());
    EXPECT_TRUE(transport_->Connect("sim", kPort, 1000, &conn_).ok());
    conn_->set_read_timeout_ms(5000);
    conn_->set_write_timeout_ms(5000);
  }
  ~WireHarness() {
    conn_.reset();
    server_->Stop();
  }

  /// Sends one query and collects frames up to the final chunk or an
  /// error frame.
  Status Query(const std::string& table, const Schema& schema,
               const QueryBounds& bounds, std::vector<WireFrame>* frames) {
    return Send(QueryBody(table, schema, bounds), frames);
  }

  /// Sends `body` as a kQuery request, collecting frames as Query does.
  Status Send(const std::string& body, std::vector<WireFrame>* frames) {
    frames->clear();
    const std::string f = wire::Frame(MsgType::kQuery, body);
    LT_RETURN_IF_ERROR(conn_->WriteAll(f.data(), f.size()));
    while (true) {
      WireFrame frame;
      char len_buf[4];
      LT_RETURN_IF_ERROR(conn_->ReadAll(len_buf, 4));
      const uint32_t len = DecodeFixed32(len_buf);
      if (len == 0 || len > wire::kMaxFrameBytes) {
        return Status::NetworkError("bad frame length");
      }
      frame.raw.assign(len_buf, 4);
      frame.raw.resize(4 + len);
      LT_RETURN_IF_ERROR(conn_->ReadAll(frame.raw.data() + 4, len));
      frame.type = static_cast<MsgType>(frame.raw[4]);
      frame.body = frame.raw.substr(5);
      const bool last =
          frame.type != MsgType::kQueryChunk ||
          (!frame.body.empty() && (frame.body[0] & wire::kChunkFinal));
      frames->push_back(std::move(frame));
      if (last) return Status::OK();
    }
  }

  /// A Client over the same simulated transport.
  std::unique_ptr<Client> NewClient() {
    ClientOptions copts;
    copts.transport = transport_.get();
    copts.clock = clock_;
    std::unique_ptr<Client> client;
    EXPECT_TRUE(Client::Connect("sim", kPort, copts, &client).ok());
    return client;
  }

  LittleTableServer* server() { return server_.get(); }

  static std::string QueryBody(const std::string& table, const Schema& schema,
                               const QueryBounds& bounds) {
    std::string body;
    PutLengthPrefixedSlice(&body, table);
    PutVarint32(&body, schema.version());
    wire::EncodeBounds(&body, schema, bounds);
    return body;
  }

 private:
  std::shared_ptr<SimClock> clock_;
  std::unique_ptr<SimTransport> transport_;
  std::unique_ptr<LittleTableServer> server_;
  std::unique_ptr<net::Connection> conn_;
};

/// One parsed kQueryChunk.
struct Chunk {
  uint8_t flags = 0;
  uint32_t version = 0;
  uint32_t count = 0;
  std::string rows;  // The encoded rows, exactly `count` of them.
};

/// Parses a chunk body, requiring its rows to decode under `schema` and to
/// use up the body exactly — a partial row would fail here.
void ParseChunk(const std::string& body, const Schema& schema, Chunk* out) {
  Slice in(body);
  ASSERT_FALSE(in.empty());
  out->flags = static_cast<uint8_t>(in[0]);
  in.remove_prefix(1);
  ASSERT_TRUE(GetVarint32(&in, &out->version));
  ASSERT_TRUE(GetVarint32(&in, &out->count));
  out->rows.assign(in.data(), in.size());
  for (uint32_t i = 0; i < out->count; i++) {
    Row row;
    ASSERT_TRUE(DecodeRow(&in, schema, &row).ok()) << "row " << i;
  }
  EXPECT_TRUE(in.empty()) << in.size() << " trailing bytes in chunk";
}

// ---------------------------------------------------------------------------
// The mixed table.

// v1 schema: key (net, dev, ts) with a string key column; every cell type
// among the values. v2 widens w32 and appends `extra`.
Schema MixSchemaV1() {
  return Schema({Column("net", ColumnType::kInt64),
                 Column("dev", ColumnType::kString),
                 Column("ts", ColumnType::kTimestamp),
                 Column("i32", ColumnType::kInt32),
                 Column("w32", ColumnType::kInt32),
                 Column("i64", ColumnType::kInt64),
                 Column("d", ColumnType::kDouble),
                 Column("s", ColumnType::kString),
                 Column("b", ColumnType::kBlob)},
                /*num_key_columns=*/3);
}

constexpr int kRowsPerTablet = 300;
constexpr size_t kExtraColumn = 9;  // Appended by the v2 schema.

// Row j of source `src` (0 = the v1 tablet, 1-3 = the format 0-2 tablets,
// 4 = MemTablet rows). Sources differ in ts only, so their keys never
// collide while (net, dev) cycle through the same values: every source's
// rows interleave in key order and the merge alternates between cursors.
Row MixRow(int src, int j, Timestamp t0, bool v2) {
  const std::string tag(static_cast<size_t>(j % 11),
                        static_cast<char>('a' + src));
  Row r = {Value::Int64(j % 3),
           Value::String("dev-" + std::to_string(j % 5)),
           Value::Ts(t0 + j * 8 + src),
           Value::Int32(j * 7919 - 1000000),
           v2 ? Value::Int64(-(int64_t{j} << 34)) : Value::Int32(-j),
           Value::Int64(int64_t{j} << 33),
           Value::Double(j * 0.25 - 3.5),
           Value::String(tag),
           Value::Blob(std::string(static_cast<size_t>(j % 4), '\xfe') + tag)};
  if (v2) r.push_back(Value::String("x" + std::to_string(j * src)));
  return r;
}

class ScanEncodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<SimClock>(100 * kMicrosPerWeek);
    t0_ = clock_->Now() - kMicrosPerHour;

    TableOptions opts;
    opts.block_bytes = 2048;  // Many blocks per tablet.
    std::unique_ptr<Table> t;
    ASSERT_TRUE(Table::Create(&env_, clock_, "/db/mix", "mix", MixSchemaV1(),
                              opts, &t)
                    .ok());
    Fill(t.get(), 0, /*v2=*/false);
    ASSERT_TRUE(t->FlushAll().ok());
    ASSERT_TRUE(t->WidenColumn("w32").ok());
    ASSERT_TRUE(t->AppendColumn(Column("extra", ColumnType::kString,
                                       Value::String("dflt")))
                    .ok());
    // format_version applies to fresh flushes, so a reopen per version
    // gives one current-schema tablet of each format.
    for (uint32_t f = 0; f <= kTabletFormatLatest; f++) {
      opts.format_version = f;
      t.reset();
      ASSERT_TRUE(Table::Open(&env_, clock_, "/db/mix", opts, &t).ok());
      Fill(t.get(), static_cast<int>(f) + 1, /*v2=*/true);
      ASSERT_TRUE(t->FlushAll().ok());
    }
    t.reset();

    DbOptions dopts;
    dopts.background_maintenance = false;
    ASSERT_TRUE(DB::Open(&env_, clock_, "/db", dopts, &db_).ok());
    table_ = db_->GetTable("mix");
    ASSERT_NE(table_, nullptr);
    Fill(table_.get(), 4, /*v2=*/true);
    ASSERT_EQ(table_->NumDiskTablets(), 4u);
    ASSERT_GT(table_->NumMemTablets(), 0u);
    schema_ = table_->schema();
    ASSERT_EQ(schema_->num_columns(), kExtraColumn + 1);
  }

  void TearDown() override {
    table_.reset();
    db_.reset();
  }

  void Fill(Table* t, int src, bool v2) {
    std::vector<Row> rows;
    for (int j = 0; j < kRowsPerTablet; j++) {
      rows.push_back(MixRow(src, j, t0_, v2));
    }
    ASSERT_TRUE(t->InsertBatch(rows).ok());
  }

  /// EncodeRow over Table::Query's rows: the reference bytes.
  std::string Expected(const QueryBounds& b, size_t* count, bool* more) {
    QueryResult result;
    Status s = table_->Query(b, &result);
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::string bytes;
    for (const Row& r : result.rows) EncodeRow(&bytes, *schema_, r);
    *count = result.rows.size();
    *more = result.more_available;
    return bytes;
  }

  /// Drains a QueryStream through NextEncoded with the given scan budget.
  std::string Streamed(const QueryBounds& b, uint64_t scan_cap, size_t* count,
                       bool* more) {
    std::unique_ptr<QueryStream> qs;
    Status s = table_->NewQueryStream(b, &qs);
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::string bytes;
    *count = 0;
    if (!s.ok()) return bytes;
    while (true) {
      bool have = false, exhausted = false;
      s = qs->NextEncoded(scan_cap, &bytes, &have, &exhausted);
      EXPECT_TRUE(s.ok()) << s.ToString();
      if (!s.ok()) break;
      if (have) (*count)++;
      if (exhausted) break;
    }
    *more = qs->more_available();
    return bytes;
  }

  /// Pages through the whole result `page` rows at a time, resuming each
  /// page past the last key of the previous one, as Client::QueryPage does.
  std::string Paged(QueryBounds b, uint64_t page) {
    b.limit = page;
    std::string all;
    // Every page but the last holds `page` rows; the bound only keeps a
    // broken stream from paging forever.
    const uint64_t max_pages = 5 * kRowsPerTablet / page + 2;
    for (uint64_t pages = 0; pages < max_pages; pages++) {
      size_t n = 0;
      bool more = false;
      const std::string bytes = Streamed(b, 0, &n, &more);
      all += bytes;
      if (!more || n == 0) return all;
      Slice in(bytes);
      Row last;
      for (size_t i = 0; i < n; i++) {
        if (!DecodeRow(&in, *schema_, &last).ok()) {
          ADD_FAILURE() << "page bytes do not decode";
          return all;
        }
      }
      KeyBound resume{schema_->KeyOf(last), /*inclusive=*/false};
      if (b.direction == Direction::kAscending) {
        b.min_key = std::move(resume);
      } else {
        b.max_key = std::move(resume);
      }
    }
    ADD_FAILURE() << "paging did not finish";
    return all;
  }

  /// The differential matrix: direction × projection × bounds × limit.
  std::vector<std::pair<std::string, QueryBounds>> Cases() const {
    std::vector<std::pair<std::string, QueryBounds>> cases;
    const std::vector<std::vector<uint32_t>> projections = {
        {}, {3, 6, kExtraColumn}, {5, 7, 8}};
    for (Direction dir : {Direction::kAscending, Direction::kDescending}) {
      for (size_t p = 0; p < projections.size(); p++) {
        for (int shape = 0; shape < 3; shape++) {
          for (uint64_t limit : {0, 1, 37, 100000}) {
            QueryBounds b;
            if (shape == 1) {
              // A ts window with an exclusive edge: the filter drops rows
              // the cursors step over.
              b.min_ts = t0_ + 301;
              b.max_ts = t0_ + 1703;
              b.max_ts_inclusive = false;
            } else if (shape == 2) {
              // A two-cell key prefix: trailing bounds on the string key.
              b = QueryBounds::ForPrefix(
                  {Value::Int64(1), Value::String("dev-2")});
            }
            b.direction = dir;
            b.projection = projections[p];
            b.limit = limit;
            cases.emplace_back(
                std::string(dir == Direction::kAscending ? "asc" : "desc") +
                    " proj=" + std::to_string(p) +
                    " shape=" + std::to_string(shape) +
                    " limit=" + std::to_string(limit),
                b);
          }
        }
      }
    }
    return cases;
  }

  MemEnv env_;
  std::shared_ptr<SimClock> clock_;
  Timestamp t0_ = 0;
  std::unique_ptr<DB> db_;
  std::shared_ptr<Table> table_;
  std::shared_ptr<const Schema> schema_;
};

TEST_F(ScanEncodeTest, StreamedBytesEqualEncodeRowOverQueryRows) {
  for (const auto& [name, b] : Cases()) {
    SCOPED_TRACE(name);
    size_t want_n = 0;
    bool want_more = false;
    const std::string want = Expected(b, &want_n, &want_more);
    if (b.limit != 1) {
      ASSERT_GT(want_n, 1u);
    }
    // Scan budgets 1 and 7 make the stream yield mid-scan, between
    // filtered rows, without changing what it returns.
    for (uint64_t cap : {0, 1, 7}) {
      SCOPED_TRACE("scan_cap=" + std::to_string(cap));
      size_t n = 0;
      bool more = false;
      EXPECT_EQ(Streamed(b, cap, &n, &more), want);
      EXPECT_EQ(n, want_n);
      EXPECT_EQ(more, want_more);
    }
    if (b.limit == 0) {
      for (uint64_t page : {7, 128}) {
        SCOPED_TRACE("page=" + std::to_string(page));
        EXPECT_EQ(Paged(b, page), want);
      }
    }
  }
}

// The same matrix over the wire: every kQueryChunk frame the server sends
// is byte-for-byte wire::Frame over (flags, schema version, count, the
// EncodeRow bytes of the next `count` reference rows). The projection
// travels in the request, so projected cases carry the column defaults
// the reference rows carry.
TEST_F(ScanEncodeTest, WireChunksCarryEncodeRowBytes) {
  WireHarness wire(db_.get(), clock_);
  for (const auto& [name, b] : Cases()) {
    SCOPED_TRACE(name);
    size_t want_n = 0;
    bool want_more = false;
    const std::string want = Expected(b, &want_n, &want_more);
    std::vector<WireFrame> frames;
    ASSERT_TRUE(wire.Query("mix", *schema_, b, &frames).ok());
    std::string got;
    size_t got_n = 0;
    for (size_t i = 0; i < frames.size(); i++) {
      ASSERT_EQ(frames[i].type, MsgType::kQueryChunk);
      Chunk c;
      ParseChunk(frames[i].body, *schema_, &c);
      EXPECT_EQ(c.version, schema_->version());
      const bool final = i + 1 == frames.size();
      EXPECT_EQ((c.flags & wire::kChunkFinal) != 0, final);
      if (final) {
        EXPECT_EQ((c.flags & wire::kChunkMoreAvailable) != 0, want_more);
      }
      std::string body(1, static_cast<char>(c.flags));
      PutVarint32(&body, c.version);
      PutVarint32(&body, c.count);
      body += want.substr(got.size(), c.rows.size());
      EXPECT_EQ(frames[i].raw, wire::Frame(MsgType::kQueryChunk, body));
      got += c.rows;
      got_n += c.count;
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(got_n, want_n);
  }
}

// Client::QueryAll over the wire returns exactly Table::Query's rows for
// the same bounds, projection included: projected cells outside the
// projection come back as the defaults the engine returns. A server row
// cap of 53 makes every larger result page.
TEST_F(ScanEncodeTest, ClientQueryAllMatchesTableQuery) {
  WireHarness wire(db_.get(), clock_, /*row_cap=*/53);
  std::unique_ptr<Client> client = wire.NewClient();
  ASSERT_NE(client, nullptr);
  for (const auto& [name, b] : Cases()) {
    SCOPED_TRACE(name);
    size_t want_n = 0;
    bool want_more = false;
    const std::string want = Expected(b, &want_n, &want_more);
    std::vector<Row> rows;
    Status s = client->QueryAll("mix", b, &rows);
    ASSERT_TRUE(s.ok()) << s.ToString();
    std::string got;
    for (const Row& r : rows) EncodeRow(&got, *schema_, r);
    EXPECT_EQ(rows.size(), want_n);
    EXPECT_EQ(got, want);
  }
}

// A SELECT of two value columns pushes its projection down; through
// ClientBackend it crosses the wire and must answer exactly as DbBackend.
TEST_F(ScanEncodeTest, SqlOverWireEqualsEmbedded) {
  WireHarness wire(db_.get(), clock_, /*row_cap=*/53);
  std::unique_ptr<Client> client = wire.NewClient();
  ASSERT_NE(client, nullptr);
  sql::DbBackend local(db_.get());
  sql::ClientBackend remote(client.get(), clock_);
  sql::SqlSession local_session(&local), remote_session(&remote);
  for (const std::string stmt :
       {"SELECT i64, s FROM mix WHERE ts >= 0",
        "SELECT d, b FROM mix WHERE net = 1 ORDER BY KEY DESC LIMIT 100"}) {
    SCOPED_TRACE(stmt);
    auto want = local_session.Execute(stmt);
    auto got = remote_session.Execute(stmt);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_GT(want->rows.size(), 1u);
    EXPECT_EQ(got->columns, want->columns);
    ASSERT_EQ(got->rows.size(), want->rows.size());
    for (size_t i = 0; i < want->rows.size(); i++) {
      ASSERT_EQ(got->rows[i].size(), 2u);
      for (size_t c = 0; c < 2; c++) {
        EXPECT_EQ(got->rows[i][c].ToString(want->types[c]),
                  want->rows[i][c].ToString(want->types[c]))
            << "row " << i << " column " << c;
      }
    }
  }
}

// Unprojected bounds keep their bytes; a projection sets flag 0x80 and
// appends its count and indexes after the limit, and decodes back.
TEST(WireBoundsTest, ProjectionOnlyAppends) {
  const Schema schema = MixSchemaV1();
  QueryBounds b;
  std::string plain;
  wire::EncodeBounds(&plain, schema, b);
  // Flags (both ts bounds inclusive), zigzag INT64_MIN, zigzag INT64_MAX,
  // limit 0.
  const std::string want = std::string("\x30") + std::string(9, '\xff') +
                           "\x01\xfe" + std::string(8, '\xff') + "\x01" +
                           std::string(1, '\0');
  EXPECT_EQ(plain, want);

  b.projection = {3, 7};
  std::string projected;
  wire::EncodeBounds(&projected, schema, b);
  std::string expect = want;
  expect[0] = static_cast<char>(expect[0] | wire::kBoundsProjected);
  expect += "\x02\x03\x07";
  EXPECT_EQ(projected, expect);
  Slice in(projected);
  QueryBounds back;
  ASSERT_TRUE(wire::DecodeBounds(&in, schema, &back).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(back.projection, b.projection);
}

// Checks that `out` holds one complete reply to a kQuery: kQueryChunk
// frames whose rows decode under `schema`, the last one final, or a single
// error frame — and nothing after it.
void ExpectValidQueryReply(const std::string& out, const Schema& schema) {
  Slice in(out);
  bool done = false;
  while (!done) {
    uint32_t len;
    ASSERT_TRUE(GetFixed32(&in, &len)) << "no terminal frame";
    ASSERT_GE(len, 1u);
    ASSERT_LE(len, in.size());
    const MsgType type = static_cast<MsgType>(in[0]);
    const std::string body(in.data() + 1, len - 1);
    in.remove_prefix(len);
    if (type == MsgType::kError) {
      ASSERT_FALSE(body.empty());
      done = true;
      continue;
    }
    ASSERT_EQ(type, MsgType::kQueryChunk);
    Chunk c;
    ParseChunk(body, schema, &c);
    done = (c.flags & wire::kChunkFinal) != 0;
  }
  EXPECT_TRUE(in.empty()) << in.size() << " bytes after the terminal frame";
}

// The error a kQuery with undecodable bounds gets: the existing
// schema-changed-or-bad-bounds reply.
void ExpectBadBounds(const std::string& out) {
  Slice in(out);
  uint32_t len;
  ASSERT_TRUE(GetFixed32(&in, &len));
  ASSERT_EQ(len, in.size());
  ASSERT_EQ(static_cast<MsgType>(in[0]), MsgType::kError);
  ASSERT_GE(len, 2u);
  EXPECT_EQ(static_cast<ErrCode>(in[1]), ErrCode::kSchemaChanged);
}

// The mutation matrix over a projected kQuery body, driven through the
// server's dispatch in process: every truncation, every bit flip, and the
// projection count and index pushed out of range. Each must get a valid
// reply or an explicit error — never a crash, a hang, or (under ASan) an
// allocation sized from an unchecked count.
TEST_F(ScanEncodeTest, ProjectedQueryBodyMutationsGetReplyOrError) {
  WireHarness wire(db_.get(), clock_);
  LittleTableServer* server = wire.server();
  QueryBounds b = QueryBounds::ForPrefix({Value::Int64(1)});
  b.min_ts = t0_ + 100;
  b.limit = 9;
  b.projection = {3, 6, kExtraColumn};
  const std::string body = WireHarness::QueryBody("mix", *schema_, b);
  // The projection is the body's tail: count, then one byte per index.
  const size_t proj_at = body.size() - 1 - b.projection.size();
  ASSERT_EQ(static_cast<uint8_t>(body[proj_at]), b.projection.size());

  std::string out;
  server->Handle(MsgType::kQuery, body, &out);
  ExpectValidQueryReply(out, *schema_);
  ASSERT_NE(static_cast<MsgType>(out[4]), MsgType::kError);

  for (size_t len = 0; len < body.size(); len++) {
    SCOPED_TRACE("truncated to " + std::to_string(len));
    out.clear();
    server->Handle(MsgType::kQuery, Slice(body.data(), len), &out);
    ExpectValidQueryReply(out, *schema_);
  }
  for (size_t pos = 0; pos < body.size(); pos++) {
    for (int bit = 0; bit < 8; bit++) {
      SCOPED_TRACE("flip byte " + std::to_string(pos) + " bit " +
                   std::to_string(bit));
      std::string bad = body;
      bad[pos] ^= static_cast<char>(1u << bit);
      out.clear();
      server->Handle(MsgType::kQuery, bad, &out);
      ExpectValidQueryReply(out, *schema_);
    }
  }

  // Count and index out of range, over dispatch and over the streaming
  // path a connection's kQuery takes.
  const uint32_t ncols = static_cast<uint32_t>(schema_->num_columns());
  auto with_tail = [&](std::initializer_list<uint32_t> tail) {
    std::string bad = body.substr(0, proj_at);
    for (uint32_t v : tail) PutVarint32(&bad, v);
    return bad;
  };
  struct Mutant {
    std::string name;
    std::string body;
    bool valid;
  };
  const std::vector<Mutant> mutants = {
      {"count=0", with_tail({0}), true},
      {"count=columns", with_tail({ncols, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}), true},
      {"count=columns+1",
       with_tail({ncols + 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9}), false},
      {"count=2^32-1", with_tail({0xffffffffu, 3}), false},
      {"count past the body", with_tail({5, 3}), false},
      {"index=columns", with_tail({2, 3, ncols}), false},
      {"index=2^32-1", with_tail({1, 0xffffffffu}), false},
  };
  std::vector<WireFrame> frames;
  for (const Mutant& m : mutants) {
    SCOPED_TRACE(m.name);
    // The decoder itself: the verdict, and no reservation past the schema.
    Slice in(m.body);
    Slice table;
    uint32_t version;
    ASSERT_TRUE(GetLengthPrefixedSlice(&in, &table) &&
                GetVarint32(&in, &version));
    QueryBounds decoded;
    EXPECT_EQ(wire::DecodeBounds(&in, *schema_, &decoded).ok(), m.valid);
    EXPECT_LE(decoded.projection.capacity(), ncols);
    out.clear();
    server->Handle(MsgType::kQuery, m.body, &out);
    ExpectValidQueryReply(out, *schema_);
    ASSERT_TRUE(wire.Send(m.body, &frames).ok());
    ASSERT_FALSE(frames.empty());
    if (m.valid) {
      EXPECT_EQ(frames.back().type, MsgType::kQueryChunk);
      EXPECT_NE(static_cast<MsgType>(out[4]), MsgType::kError);
    } else {
      ExpectBadBounds(out);
      ASSERT_EQ(frames.size(), 1u);
      ExpectBadBounds(frames[0].raw);
    }
  }
  // The connection still serves a well-formed query.
  ASSERT_TRUE(wire.Send(body, &frames).ok());
  EXPECT_EQ(frames.back().type, MsgType::kQueryChunk);
}

// ---------------------------------------------------------------------------
// Injected faults.

// The schema faulty tablets are written under: (net, dev, ts) -> (n, x).
Schema FaultSchema(ColumnType n_type, ColumnType x_type) {
  return Schema({Column("net", ColumnType::kInt64),
                 Column("dev", ColumnType::kInt64),
                 Column("ts", ColumnType::kTimestamp),
                 Column("n", n_type),
                 Column("x", x_type)},
                /*num_key_columns=*/3);
}

constexpr int kFaultRows = 1200;
constexpr int kFirstBadN = 700;  // Rows from here hold n beyond int32.

// Rewrites tablet `path` with `schema` as its footer schema and `mutate`
// applied to each block image (length kept), re-sealing every block CRC,
// the index CRCs and the footer checksum: the faults reach the chunk
// decoders instead of being stopped by a checksum.
void RewriteTablet(Env* env, const std::string& path, const Schema& schema,
                   const std::function<void(size_t, std::string*)>& mutate) {
  std::string file;
  ASSERT_TRUE(ReadFileToString(env, path, &file).ok());
  ASSERT_GE(file.size(), kTabletTrailerSize);
  Slice trailer(file.data() + file.size() - kTabletTrailerSize,
                kTabletTrailerSize);
  uint32_t footer_crc;
  uint64_t footer_size, footer_offset, magic;
  ASSERT_TRUE(GetFixed32(&trailer, &footer_crc));
  ASSERT_TRUE(GetFixed64(&trailer, &footer_size));
  ASSERT_TRUE(GetFixed64(&trailer, &footer_offset));
  ASSERT_TRUE(GetFixed64(&trailer, &magic));
  ASSERT_EQ(magic, kTabletMagicV3);
  Slice stored(file.data() + footer_offset,
               file.size() - kTabletTrailerSize - footer_offset);
  ASSERT_FALSE(stored.empty());
  std::string footer;
  Slice footer_body(stored.data() + 1, stored.size() - 1);
  if (stored[0] == 1) {
    ASSERT_TRUE(lzmini::Decompress(footer_body, &footer).ok());
  } else {
    footer.assign(footer_body.data(), footer_body.size());
  }
  Slice f(footer);
  Schema old_schema;
  ASSERT_TRUE(Schema::DecodeFrom(&f, &old_schema).ok());
  uint64_t nblocks;
  ASSERT_TRUE(GetVarint64(&f, &nblocks));
  std::string new_footer;
  schema.EncodeTo(&new_footer);
  PutVarint64(&new_footer, nblocks);
  std::string out = file.substr(0, footer_offset);
  for (uint64_t i = 0; i < nblocks; i++) {
    uint64_t offset;
    uint32_t stored_len, payload_len, rows, crc;
    Slice key;
    ASSERT_TRUE(GetVarint64(&f, &offset) && GetVarint32(&f, &stored_len) &&
                GetVarint32(&f, &payload_len) && GetVarint32(&f, &rows) &&
                GetLengthPrefixedSlice(&f, &key) && GetFixed32(&f, &crc));
    std::string image = out.substr(offset + 4, stored_len - 4);
    mutate(i, &image);
    ASSERT_EQ(image.size(), stored_len - 4u);
    const std::string sealed = StoreBlockV2(image);
    out.replace(offset, stored_len, sealed);
    PutVarint64(&new_footer, offset);
    PutVarint32(&new_footer, stored_len);
    PutVarint32(&new_footer, payload_len);
    PutVarint32(&new_footer, rows);
    PutLengthPrefixedSlice(&new_footer, key);
    PutFixed32(&new_footer,
               crc32c::Mask(crc32c::Value(sealed.data(), sealed.size())));
  }
  new_footer.append(f.data(), f.size());  // Stats, keys, Bloom: verbatim.
  std::string stored_footer(1, '\0');     // Marker 0: stored raw.
  stored_footer += new_footer;
  out += stored_footer;
  PutFixed32(&out, crc32c::Mask(crc32c::Value(stored_footer.data(),
                                              stored_footer.size())));
  PutFixed64(&out, new_footer.size());
  PutFixed64(&out, footer_offset);
  PutFixed64(&out, magic);
  ASSERT_TRUE(WriteStringToFile(env, out, path, false).ok());
}

// Block level, on key columns: SortKeyAt fails exactly where and how
// RowAt fails on the key cells — an int32 key cell out of range, a key
// chunk whose arm does not match its column type, an undecodable key
// chunk — and otherwise writes EncodeSortKey over RowAt's key cells, in
// columnar and row-wise blocks. RowAt is the reference because it is the
// decode every query result goes through. A columnar row fails at its
// first bad cell in column order, and the key columns come first. A
// row-wise block is read through a second reader whose schema has only the
// key columns: a misread key cell there can shift the later cells, so the
// full-row RowAt may fail where the key cells decode.
TEST(ScanEncodeKeyFaultTest, SortKeyAtFailsExactlyAsRowAt) {
  const Schema written = FaultSchema(ColumnType::kInt64, ColumnType::kInt64);
  auto with_dev = [](ColumnType dev_type) {
    return Schema({Column("net", ColumnType::kInt64),
                   Column("dev", dev_type),
                   Column("ts", ColumnType::kTimestamp),
                   Column("n", ColumnType::kInt64),
                   Column("x", ColumnType::kInt64)},
                  /*num_key_columns=*/3);
  };
  struct KeyFault {
    const char* name;
    Schema read_as;
    std::string message;  // Empty: any Corruption.
    bool fill_dev_chunk;
  };
  // The messages are the columnar ones; row-wise blocks fail in
  // DecodeValue with its own.
  const KeyFault faults[] = {
      {"none", written, "", false},
      {"int32", with_dev(ColumnType::kInt32), "int32 cell out of range", false},
      {"mismatch", with_dev(ColumnType::kString),
       "chunk encoding does not match column type", false},
      {"chunk", written, "", true},
  };
  for (uint32_t format : {0u, 2u}) {
    BlockBuilder builder(&written, format);
    for (int i = 0; i < 64; i++) {
      const int64_t dev = i < 40 ? i : (int64_t{1} << 40) + i;
      builder.Add({Value::Int64(1), Value::Int64(dev), Value::Ts(1000 + i),
                   Value::Int64(i), Value::Int64(-i)});
    }
    const std::string image = builder.Finish();
    for (const KeyFault& fault : faults) {
      if (format == 0 && fault.fill_dev_chunk) continue;
      SCOPED_TRACE(std::string(fault.name) + " format " +
                   std::to_string(format));
      BlockReader reader;
      if (format == 0) {
        ASSERT_TRUE(BlockReader::Parse(&fault.read_as, image, &reader).ok());
      } else {
        std::string bytes = image;
        if (fault.fill_dev_chunk) {
          BlockContents bc;
          ASSERT_TRUE(BlockContents::ParseColumnar(bytes, &bc).ok());
          const BlockContents::ChunkRef& ref = bc.chunks[1];
          std::fill_n(bytes.begin() + ref.offset, ref.stored_len, '\xff');
        }
        ASSERT_TRUE(
            BlockReader::ParseColumnar(&fault.read_as, bytes, &reader).ok());
      }
      const Schema key_schema(
          std::vector<Column>(fault.read_as.columns().begin(),
                              fault.read_as.columns().begin() + 3),
          /*num_key_columns=*/3);
      BlockReader keys;
      if (format == 0) {
        ASSERT_TRUE(BlockReader::Parse(&key_schema, image, &keys).ok());
      }
      BlockReader& ref = format == 0 ? keys : reader;
      size_t failures = 0;
      for (size_t i = 0; i < reader.num_rows(); i++) {
        Row row;
        const Status want = ref.RowAt(i, &row);
        std::string sort_key;
        const Status got = reader.SortKeyAt(i, &sort_key);
        ASSERT_EQ(got.ToString(), want.ToString()) << "row " << i;
        if (want.ok()) {
          std::string expect;
          EncodeSortKey(&expect, fault.read_as, row);
          ASSERT_EQ(sort_key, expect) << "row " << i;
          continue;
        }
        EXPECT_TRUE(want.IsCorruption()) << want.ToString();
        if (format == 2 && !fault.message.empty()) {
          EXPECT_EQ(want.message(), fault.message);
        }
        failures++;
      }
      EXPECT_EQ(failures > 0, std::string(fault.name) != "none");
    }
  }
}

struct Fault {
  std::string table;
  Schema footer_schema;  // What the rewritten tablet claims.
  std::string message;   // RowAt's Corruption message; empty = any.
  uint32_t bad_column;   // Projecting it away hides the fault.
};

class ScanEncodeFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<SimClock>(100 * kMicrosPerWeek);
    const Schema written = FaultSchema(ColumnType::kInt64, ColumnType::kInt64);
    faults_ = {
        {"int32", FaultSchema(ColumnType::kInt32, ColumnType::kInt64),
         "int32 cell out of range", 3},
        {"mismatch", FaultSchema(ColumnType::kInt64, ColumnType::kDouble),
         "chunk encoding does not match column type", 4},
        {"chunk", written, "", 4},
    };
    for (const Fault& fault : faults_) {
      const std::string dir = "/fdb/" + fault.table;
      TableOptions opts;
      opts.block_bytes = 512;
      std::unique_ptr<Table> t;
      ASSERT_TRUE(
          Table::Create(&env_, clock_, dir, fault.table, written, opts, &t)
              .ok());
      // x is pseudo-random so its chunks stay raw (lzmini cannot shrink
      // them) and a filled chunk is a run of unterminated varints.
      std::vector<Row> rows;
      uint64_t x = 88172645463325252ull;
      for (int i = 0; i < kFaultRows; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const int64_t n = i < kFirstBadN ? i : (int64_t{1} << 40) + i;
        rows.push_back({Value::Int64(1), Value::Int64(i % 7),
                        Value::Ts(clock_->Now() - kMicrosPerHour + i),
                        Value::Int64(n),
                        Value::Int64(static_cast<int64_t>(x))});
      }
      ASSERT_TRUE(t->InsertBatch(rows).ok());
      ASSERT_TRUE(t->FlushAll().ok());
      t.reset();
      std::vector<std::string> children;
      ASSERT_TRUE(env_.GetChildren(dir, &children).ok());
      std::string tab;
      for (const std::string& c : children) {
        if (c.size() > 4 && c.substr(c.size() - 4) == ".tab") tab = c;
      }
      ASSERT_FALSE(tab.empty());
      paths_.push_back(dir + "/" + tab);
      const bool fill_chunk = fault.table == "chunk";
      RewriteTablet(&env_, paths_.back(), fault.footer_schema,
                    [&](size_t block, std::string* image) {
                      if (!fill_chunk || block != 3) return;
                      BlockContents bc;
                      ASSERT_TRUE(
                          BlockContents::ParseColumnar(*image, &bc).ok());
                      const BlockContents::ChunkRef& ref = bc.chunks[4];
                      ASSERT_EQ(ref.compression, 0);
                      std::fill_n(image->begin() + ref.offset, ref.stored_len,
                                  '\xff');
                    });
    }
    DbOptions dopts;
    dopts.background_maintenance = false;
    ASSERT_TRUE(DB::Open(&env_, clock_, "/fdb", dopts, &db_).ok());
  }

  MemEnv env_;
  std::shared_ptr<SimClock> clock_;
  std::vector<Fault> faults_;
  std::vector<std::string> paths_;
  std::unique_ptr<DB> db_;
};

// Cursor level, row by row in both directions: AppendEncodedRow fails
// exactly where and how ReadRow (RowAt) does, leaves the output untouched
// when it fails, and otherwise writes EncodeRow's bytes.
TEST_F(ScanEncodeFaultTest, EncodeFailsExactlyAsRowAt) {
  for (size_t k = 0; k < faults_.size(); k++) {
    const Fault& fault = faults_[k];
    SCOPED_TRACE(fault.table);
    std::shared_ptr<TabletReader> reader;
    ASSERT_TRUE(TabletReader::Open(&env_, paths_[k], &reader).ok());
    ASSERT_TRUE(reader->Load().ok());
    const Schema& schema = reader->tablet_schema();
    for (Direction dir : {Direction::kAscending, Direction::kDescending}) {
      QueryBounds b;
      b.direction = dir;
      std::unique_ptr<Cursor> c;
      ASSERT_TRUE(reader->NewCursor(b, &schema, nullptr, &c).ok());
      size_t failures = 0;
      while (c->Valid()) {
        Row row;
        const Status want = c->ReadRow(&row);
        std::string got = "prefix";
        const Status s = c->AppendEncodedRow(schema, &got);
        ASSERT_EQ(s.ToString(), want.ToString());
        if (want.ok()) {
          std::string expect = "prefix";
          EncodeRow(&expect, schema, row);
          ASSERT_EQ(got, expect);
        } else {
          EXPECT_TRUE(want.IsCorruption()) << want.ToString();
          if (!fault.message.empty()) {
            EXPECT_EQ(want.message(), fault.message);
          }
          EXPECT_EQ(got, "prefix");
          failures++;
        }
        ASSERT_TRUE(c->Next().ok());
      }
      EXPECT_GT(failures, 0u);
    }
  }
}

// Table level: NextEncoded fails with Table::Query's status; a projection
// that leaves the faulty column out never touches it and matches exactly.
TEST_F(ScanEncodeFaultTest, StreamFailsAsQueryAndProjectionAvoidsFault) {
  for (const Fault& fault : faults_) {
    SCOPED_TRACE(fault.table);
    std::shared_ptr<Table> table = db_->GetTable(fault.table);
    ASSERT_NE(table, nullptr);
    QueryResult result;
    const Status want = table->Query(QueryBounds{}, &result);
    ASSERT_TRUE(want.IsCorruption()) << want.ToString();
    if (!fault.message.empty()) {
      EXPECT_EQ(want.message(), fault.message);
    }

    std::unique_ptr<QueryStream> qs;
    ASSERT_TRUE(table->NewQueryStream(QueryBounds{}, &qs).ok());
    std::string bytes;
    Status s;
    while (true) {
      bool have = false, exhausted = false;
      const size_t before = bytes.size();
      s = qs->NextEncoded(0, &bytes, &have, &exhausted);
      if (!s.ok()) {
        EXPECT_EQ(bytes.size(), before);  // No partial row.
        break;
      }
      ASSERT_FALSE(exhausted);
    }
    EXPECT_EQ(s.ToString(), want.ToString());

    QueryBounds projected;
    projected.projection = {fault.bad_column == 3 ? 4u : 3u};
    QueryResult ok_rows;
    ASSERT_TRUE(table->Query(projected, &ok_rows).ok());
    ASSERT_EQ(ok_rows.rows.size(), static_cast<size_t>(kFaultRows));
    // The unprojected cell is the tablet schema's default, so the rows
    // encode under the schema the tablet claims.
    std::string want_bytes;
    for (const Row& r : ok_rows.rows) {
      EncodeRow(&want_bytes, fault.footer_schema, r);
    }
    ASSERT_TRUE(table->NewQueryStream(projected, &qs).ok());
    std::string got_bytes;
    while (true) {
      bool have = false, exhausted = false;
      ASSERT_TRUE(qs->NextEncoded(0, &got_bytes, &have, &exhausted).ok());
      if (exhausted) break;
    }
    EXPECT_EQ(got_bytes, want_bytes);
  }
}

// Over the wire: complete chunks of good rows, then an error frame carrying
// RowAt's Corruption — never a chunk holding part of the failed chunk.
TEST_F(ScanEncodeFaultTest, ServerAnswersErrorFrameNeverPartialChunk) {
  WireHarness wire(db_.get(), clock_);
  for (const Fault& fault : faults_) {
    SCOPED_TRACE(fault.table);
    std::shared_ptr<Table> table = db_->GetTable(fault.table);
    QueryResult result;
    const Status want = table->Query(QueryBounds{}, &result);
    ASSERT_TRUE(want.IsCorruption());
    // The encoded rows before the fault: what the stream yields up to its
    // error.
    std::unique_ptr<QueryStream> qs;
    ASSERT_TRUE(table->NewQueryStream(QueryBounds{}, &qs).ok());
    std::string good_bytes;
    while (true) {
      bool have = false, exhausted = false;
      if (!qs->NextEncoded(0, &good_bytes, &have, &exhausted).ok()) break;
      ASSERT_FALSE(exhausted);
    }
    qs.reset();

    for (int rep = 0; rep < 2; rep++) {  // The server stays usable.
      std::vector<WireFrame> frames;
      ASSERT_TRUE(
          wire.Query(fault.table, *table->schema(), QueryBounds{}, &frames)
              .ok());
      ASSERT_FALSE(frames.empty());
      std::string got;
      for (size_t i = 0; i + 1 < frames.size(); i++) {
        ASSERT_EQ(frames[i].type, MsgType::kQueryChunk);
        Chunk c;
        ParseChunk(frames[i].body, *table->schema(), &c);
        EXPECT_EQ(c.flags & wire::kChunkFinal, 0);
        // These rows are far below the chunk byte target, so every chunk
        // sent is a full 512-row one: none carries the failed chunk's rows.
        EXPECT_EQ(c.count, 512u);
        got += c.rows;
      }
      // Whatever arrived before the error is a prefix of the good rows.
      ASSERT_LE(got.size(), good_bytes.size());
      EXPECT_EQ(got, good_bytes.substr(0, got.size()));
      const WireFrame& last = frames.back();
      ASSERT_EQ(last.type, MsgType::kError);
      ASSERT_FALSE(last.body.empty());
      EXPECT_EQ(static_cast<ErrCode>(last.body[0]), ErrCode::kCorruption);
      Slice in(last.body.data() + 1, last.body.size() - 1);
      Slice message;
      ASSERT_TRUE(GetLengthPrefixedSlice(&in, &message));
      EXPECT_EQ(message.ToString(), want.message());
    }
  }
}

}  // namespace
}  // namespace lt
