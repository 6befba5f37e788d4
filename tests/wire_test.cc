// The protocol codecs in net/wire: the kQueryChunk header and rows, the
// kRowResult body and the kInsert body parser, fed every truncation and
// every single-bit flip of valid bodies (the sanitizer CI job runs this,
// so an over-read is a fault, not a wrong answer), the flush charge of an
// inserted row, and the chunk layout a routed kQuery gets from
// LittleTableServer::Handle.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/db.h"
#include "core/row_codec.h"
#include "core/sort_key.h"
#include "env/mem_env.h"
#include "net/server.h"
#include "net/wire.h"
#include "tests/test_util.h"
#include "util/coding.h"

namespace lt {
namespace {

Schema MixedSchema() {
  return Schema({Column("name", ColumnType::kString),
                 Column("ts", ColumnType::kTimestamp),
                 Column("n", ColumnType::kInt32),
                 Column("rate", ColumnType::kDouble),
                 Column("payload", ColumnType::kBlob)},
                /*num_key_columns=*/2);
}

Row MixedRow(int i) {
  return {Value::String("dev-" + std::to_string(i)), Value::Ts(1000 + i),
          Value::Int32(-i), Value::Double(i * 0.25),
          Value::Blob(std::string(i % 5, static_cast<char>(0xf0 + i)))};
}

// Runs `decode` over an exact-size heap copy of `bytes`, so that reading
// one byte past the end is a sanitizer fault.
template <typename Decode>
Status OnExactCopy(const std::string& bytes, const Decode& decode) {
  std::unique_ptr<char[]> copy(new char[bytes.size()]);
  memcpy(copy.get(), bytes.data(), bytes.size());
  return decode(Slice(copy.get(), bytes.size()));
}

// Calls `check` on every proper truncation and every single-bit flip.
template <typename Check>
void ForEachMutation(const std::string& body, const Check& check) {
  for (size_t n = 0; n < body.size(); n++) check(body.substr(0, n));
  for (size_t i = 0; i < body.size(); i++) {
    for (int bit = 0; bit < 8; bit++) {
      std::string flipped = body;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      check(flipped);
    }
  }
}

TEST(WireCodecTest, ChunkBodyMutationsFailCleanly) {
  const Schema schema = MixedSchema();
  std::vector<Row> sent;
  for (int i = 0; i < 6; i++) sent.push_back(MixedRow(i));
  std::string body;
  wire::EncodeChunkHeader(
      &body, {wire::kChunkFinal | wire::kChunkMoreAvailable, schema.version(),
              static_cast<uint32_t>(sent.size())});
  for (const Row& row : sent) EncodeRow(&body, schema, row);

  // Decodes a whole chunk body; returns the header it read.
  auto decode = [&](Slice in, wire::ChunkHeader* h, std::vector<Row>* rows) {
    LT_RETURN_IF_ERROR(wire::DecodeChunkHeader(&in, h));
    return wire::DecodeChunkRows(&in, schema, *h, rows);
  };
  wire::ChunkHeader h;
  std::vector<Row> rows;
  ASSERT_TRUE(
      OnExactCopy(body, [&](Slice in) { return decode(in, &h, &rows); }).ok());
  EXPECT_EQ(h.flags, wire::kChunkFinal | wire::kChunkMoreAvailable);
  EXPECT_EQ(rows, sent);

  size_t failures = 0;
  ForEachMutation(body, [&](const std::string& mutated) {
    wire::ChunkHeader mh;
    std::vector<Row> got;
    const Status s = OnExactCopy(
        mutated, [&](Slice in) { return decode(in, &mh, &got); });
    // A flip inside the version varint names another schema version,
    // which is the schema-changed answer, not corruption.
    const bool version_changed =
        s.IsAborted() && mh.version != schema.version();
    EXPECT_TRUE(s.ok() || s.IsCorruption() || version_changed)
        << s.ToString();
    if (!s.ok()) failures++;
  });
  EXPECT_GT(failures, body.size());  // Every truncation fails at least.

  // A count the body cannot hold fails before it sizes the vector.
  std::string lying;
  wire::EncodeChunkHeader(&lying, {wire::kChunkFinal, 1, 100u * 1000 * 1000});
  EncodeRow(&lying, schema, sent[0]);
  rows.clear();
  rows.shrink_to_fit();
  EXPECT_TRUE(decode(Slice(lying), &h, &rows).IsCorruption());
  EXPECT_LT(rows.capacity(), 16u);
}

TEST(WireCodecTest, RowResultMutationsFailCleanly) {
  const Schema schema = MixedSchema();
  const Row sent = MixedRow(3);
  for (bool found : {true, false}) {
    SCOPED_TRACE(found ? "found" : "not found");
    std::string body;
    wire::EncodeRowResult(&body, schema, found ? &sent : nullptr);
    Row row;
    bool got_found = !found;
    ASSERT_TRUE(OnExactCopy(body, [&](Slice in) {
                  return wire::DecodeRowResult(in, schema, &row, &got_found);
                }).ok());
    EXPECT_EQ(got_found, found);
    if (found) {
      EXPECT_EQ(row, sent);
    }

    ForEachMutation(body, [&](const std::string& mutated) {
      Row out;
      bool f = false;
      const Status s = OnExactCopy(mutated, [&](Slice in) {
        return wire::DecodeRowResult(in, schema, &out, &f);
      });
      // The version varint is the body's second byte.
      const bool version_byte =
          mutated.size() == body.size() && mutated[1] != body[1];
      EXPECT_TRUE(s.ok() || s.IsCorruption() ||
                  (s.IsAborted() && version_byte))
          << s.ToString();
    });
  }
}

// Every column type, a string key, and the ts a client may omit.
Schema InsertSchema() {
  return Schema({Column("name", ColumnType::kString),
                 Column("ts", ColumnType::kTimestamp),
                 Column("n", ColumnType::kInt32),
                 Column("big", ColumnType::kInt64),
                 Column("rate", ColumnType::kDouble),
                 Column("payload", ColumnType::kBlob)},
                /*num_key_columns=*/2);
}

Row InsertRow(int i, size_t name_len, size_t payload_len) {
  return {Value::String(std::string(name_len, static_cast<char>('a' + i))),
          Value::Ts(1000 + i), Value::Int32(-i),
          Value::Int64((int64_t{1} << 40) * i), Value::Double(i * 0.25),
          Value::Blob(std::string(payload_len, static_cast<char>(0xf0 + i)))};
}

// A DB on MemEnv and a SimClock, with a server to Handle requests.
struct InsertFixture {
  InsertFixture() : clock(std::make_shared<SimClock>(100 * kMicrosPerWeek)) {
    DbOptions opts;
    opts.background_maintenance = false;
    EXPECT_TRUE(DB::Open(&env, clock, "/db", opts, &db).ok());
    server = std::make_unique<LittleTableServer>(db.get(), 0);
  }

  /// Sends a kInsert with `rows_section` (row count, then rows) for
  /// `table`; returns the reply frame's type.
  wire::MsgType Insert(const std::string& table, const std::string& rows_section,
                       std::string* reply_body = nullptr) {
    std::string req;
    PutLengthPrefixedSlice(&req, table);
    PutVarint32(&req, db->GetTable(table)->schema()->version());
    req += rows_section;
    std::string out;
    server->Handle(wire::MsgType::kInsert, Slice(req), &out);
    EXPECT_GE(out.size(), 5u);
    if (reply_body) *reply_body = out.substr(5);
    return static_cast<wire::MsgType>(out[4]);
  }

  MemEnv env;
  std::shared_ptr<SimClock> clock;
  std::unique_ptr<DB> db;
  std::unique_ptr<LittleTableServer> server;
};

// A kInsert body's row section parses in one pass to EncodeRow's bytes and
// sort keys of the decoded rows, with the omitted ts replaced by the
// server's clock. Every truncation and bit flip either parses or fails
// with the reply's InvalidArgument, and through the server a rejected body
// changes nothing: no batch is ever partly applied.
TEST(WireCodecTest, InsertBodyMutationsFailCleanly) {
  InsertFixture f;
  ASSERT_TRUE(f.db->CreateTable("ins", InsertSchema()).ok());
  std::shared_ptr<Table> table = f.db->GetTable("ins");
  const Schema& schema = *table->schema();
  std::vector<Row> sent;
  for (int i = 0; i < 6; i++) sent.push_back(InsertRow(i, 3 + i, i % 4));
  sent[3][1] = Value::Ts(wire::kOmittedTimestamp);
  std::string section;
  PutVarint32(&section, static_cast<uint32_t>(sent.size()));
  for (const Row& row : sent) EncodeRow(&section, schema, row);

  RowBatch batch;
  ASSERT_TRUE(OnExactCopy(section, [&](Slice in) {
                return wire::ParseInsertRows(&in, schema, f.clock->Now(),
                                             &batch);
              }).ok());
  ASSERT_EQ(batch.size(), sent.size());
  EXPECT_EQ(batch.schema_version(), schema.version());
  for (size_t i = 0; i < sent.size(); i++) {
    Row want = sent[i];
    if (i == 3) want[1] = Value::Ts(f.clock->Now());
    Slice bytes = batch.row(i);
    Row got;
    ASSERT_TRUE(DecodeRow(&bytes, schema, &got).ok());
    EXPECT_TRUE(bytes.empty());
    EXPECT_EQ(got, want);
    std::string encoded, key;
    EncodeRow(&encoded, schema, want);
    EncodeSortKey(&key, schema, want);
    EXPECT_EQ(batch.row(i), Slice(encoded));
    EXPECT_EQ(batch.sort_key(i), Slice(key));
    EXPECT_EQ(batch.ts(i), want[1].AsInt());
    EXPECT_EQ(batch.charge(i), ApproximateRowBytes(got));
  }

  auto row_count = [&] {
    QueryResult all;
    EXPECT_TRUE(table->Query(QueryBounds{}, &all).ok());
    return all.rows.size();
  };
  ASSERT_EQ(f.Insert("ins", section), wire::MsgType::kOk);
  ASSERT_EQ(row_count(), sent.size());

  size_t failures = 0, acks = 0;
  ForEachMutation(section, [&](const std::string& mutated) {
    RowBatch b;
    const Status s = OnExactCopy(mutated, [&](Slice in) {
      return wire::ParseInsertRows(&in, schema, f.clock->Now(), &b);
    });
    EXPECT_TRUE(s.ok() || (s.IsInvalidArgument() &&
                           (s.message() == "bad row" ||
                            s.message() == "bad row count")))
        << s.ToString();
    if (!s.ok()) failures++;
    // Against an empty table, so that only the body decides the answer.
    table->DiscardMem();
    std::string reply;
    const wire::MsgType type = f.Insert("ins", mutated, &reply);
    const bool acked = type == wire::MsgType::kOk;
    if (acked) acks++;
    EXPECT_EQ(row_count(), acked ? b.size() : 0);
    if (!s.ok()) {
      EXPECT_FALSE(acked);
      EXPECT_TRUE(wire::HasErrCode(reply, wire::ErrCode::kInvalidArgument));
    }
  });
  EXPECT_GT(failures, section.size());  // Every truncation fails at least.
  EXPECT_GT(acks, 0u);
}

// A row costs a MemTablet's flush trigger what a Row copy of it costs
// (ApproximateRowBytes: strings of up to 15 bytes live inline), whether it
// arrives as a kInsert body or as a Row batch, so seal and flush cadence
// do not depend on the path.
TEST(WireCodecTest, InsertChargesWhatRowCopiesCost) {
  InsertFixture f;
  const Schema schema = InsertSchema();
  ASSERT_TRUE(f.db->CreateTable("wire", schema).ok());
  ASSERT_TRUE(f.db->CreateTable("rows", schema).ok());
  std::vector<Row> rows;
  const size_t lens[] = {0, 15, 16, 90};
  for (int i = 0; i < 8; i++) {
    rows.push_back(InsertRow(i, lens[i % 4], lens[(i + 1) % 4]));
  }
  std::string section;
  PutVarint32(&section, static_cast<uint32_t>(rows.size()));
  size_t want = 0;
  for (const Row& row : rows) {
    const size_t at = section.size();
    EncodeRow(&section, schema, row);
    Slice in(section.data() + at, section.size() - at);
    Row decoded;
    ASSERT_TRUE(DecodeRow(&in, schema, &decoded).ok());
    want += ApproximateRowBytes(decoded);
  }
  ASSERT_EQ(f.Insert("wire", section), wire::MsgType::kOk);
  ASSERT_TRUE(f.db->GetTable("rows")->InsertBatch(rows).ok());
  EXPECT_EQ(f.db->GetTable("wire")->ApproxMemBytes(), want);
  EXPECT_EQ(f.db->GetTable("rows")->ApproxMemBytes(), want);
}

// A routed kQuery (LittleTableServer::Handle, the cluster delegation hook)
// answers in chunks of 512 rows; only the last carries kChunkFinal, and
// kChunkMoreAvailable when the row limit cut the scan; an empty result is
// one empty final chunk. The rows are Table::Query's.
TEST(WireCodecTest, RoutedQueryChunkLayout) {
  MemEnv env;
  auto clock = std::make_shared<SimClock>(100 * kMicrosPerWeek);
  DbOptions opts;
  opts.background_maintenance = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, clock, "/db", opts, &db).ok());
  LittleTableServer server(db.get(), 0);
  const Schema schema = testutil::UsageSchema();

  struct Case {
    int rows;
    uint64_t limit;
    std::vector<uint32_t> chunks;
    bool more;
  };
  const Case cases[] = {
      {0, 0, {0}, false},          {1, 0, {1}, false},
      {512, 0, {512}, false},      {513, 0, {512, 1}, false},
      {1024, 0, {512, 512}, false}, {1024, 600, {512, 88}, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::to_string(c.rows) + " rows, limit " +
                 std::to_string(c.limit));
    const std::string name =
        "t" + std::to_string(c.rows) + "_" + std::to_string(c.limit);
    ASSERT_TRUE(db->CreateTable(name, schema).ok());
    std::shared_ptr<Table> table = db->GetTable(name);
    std::vector<Row> batch;
    for (int i = 0; i < c.rows; i++) {
      batch.push_back(testutil::UsageRow(1, i, 1000 + i, i, 0.5));
    }
    if (!batch.empty()) {
      ASSERT_TRUE(table->InsertBatch(batch).ok());
    }

    QueryBounds bounds;
    bounds.limit = c.limit;
    std::string req;
    PutLengthPrefixedSlice(&req, name);
    PutVarint32(&req, schema.version());
    wire::EncodeBounds(&req, schema, bounds);
    std::string out;
    server.Handle(wire::MsgType::kQuery, Slice(req), &out);

    std::vector<uint32_t> chunks;
    std::vector<Row> rows;
    Slice in(out);
    while (!in.empty()) {
      uint32_t len;
      ASSERT_TRUE(GetFixed32(&in, &len));
      ASSERT_LE(len, in.size());
      Slice body(in.data() + 1, len - 1);
      ASSERT_EQ(static_cast<wire::MsgType>(in[0]),
                wire::MsgType::kQueryChunk);
      in.remove_prefix(len);
      wire::ChunkHeader h;
      ASSERT_TRUE(wire::DecodeChunkHeader(&body, &h).ok());
      ASSERT_TRUE(wire::DecodeChunkRows(&body, schema, h, &rows).ok());
      EXPECT_TRUE(body.empty());
      const bool last = in.empty();
      EXPECT_EQ((h.flags & wire::kChunkFinal) != 0, last);
      EXPECT_EQ((h.flags & wire::kChunkMoreAvailable) != 0, last && c.more);
      chunks.push_back(h.count);
    }
    EXPECT_EQ(chunks, c.chunks);
    QueryResult want;
    ASSERT_TRUE(table->Query(bounds, &want).ok());
    EXPECT_EQ(rows, want.rows);
    EXPECT_EQ(want.more_available, c.more);
  }
}

}  // namespace
}  // namespace lt
