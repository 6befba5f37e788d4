// The query-protocol codecs in net/wire: the kQueryChunk header and rows
// and the kRowResult body, decoded from every truncation and every
// single-bit flip of valid bodies (the sanitizer CI job runs this, so an
// over-read is a fault, not a wrong answer), and the chunk layout a routed
// kQuery gets from LittleTableServer::Handle.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/db.h"
#include "core/row_codec.h"
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
