// End-to-end tests for the wire protocol, server, and client: round trips,
// streaming query chunks, §3.5 continuation pagination, server-assigned
// timestamps, schema-change retry, and error mapping.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

#include "core/db.h"
#include "env/mem_env.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/stats_text.h"
#include "tests/test_util.h"
#include "util/coding.h"

namespace lt {
namespace {

using testutil::UsageRow;
using testutil::UsageSchema;

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<SimClock>(100 * kMicrosPerWeek);
    DbOptions opts;
    opts.background_maintenance = false;
    opts.table_defaults.merge.min_tablet_age = 0;
    ASSERT_TRUE(DB::Open(&env_, clock_, "/srv", opts, &db_).ok());
    server_ = std::make_unique<LittleTableServer>(db_.get(), 0);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(Client::Connect("127.0.0.1", server_->port(), &client_).ok());
  }

  void TearDown() override {
    client_.reset();
    server_->Stop();
  }

  MemEnv env_;
  std::shared_ptr<SimClock> clock_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<LittleTableServer> server_;
  std::unique_ptr<Client> client_;
};

TEST_F(NetTest, PingAndEmptyListTables) {
  ASSERT_TRUE(client_->Ping().ok());
  std::vector<std::string> names;
  ASSERT_TRUE(client_->ListTables(&names).ok());
  EXPECT_TRUE(names.empty());
}

TEST_F(NetTest, CreateInsertQueryRoundTrip) {
  ASSERT_TRUE(client_->CreateTable("usage", UsageSchema(), 0).ok());
  std::vector<std::string> names;
  ASSERT_TRUE(client_->ListTables(&names).ok());
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "usage");

  Timestamp t = clock_->Now();
  std::vector<Row> rows;
  for (int i = 0; i < 10; i++) rows.push_back(UsageRow(1, i, t + i, i * 7, 0.5));
  ASSERT_TRUE(client_->Insert("usage", rows).ok());

  std::vector<Row> got;
  ASSERT_TRUE(client_->QueryAll("usage", QueryBounds{}, &got).ok());
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got[3][3].i64(), 21);
}

TEST_F(NetTest, GetTableInfoReturnsSchemaAndTtl) {
  ASSERT_TRUE(
      client_->CreateTable("usage", UsageSchema(), 2 * kMicrosPerWeek).ok());
  Schema schema;
  Timestamp ttl = 0;
  ASSERT_TRUE(client_->GetTableInfo("usage", &schema, &ttl).ok());
  EXPECT_EQ(schema.num_columns(), 5u);
  EXPECT_EQ(schema.num_key_columns(), 3u);
  EXPECT_EQ(ttl, 2 * kMicrosPerWeek);
}

TEST_F(NetTest, ErrorsMapToStatuses) {
  EXPECT_TRUE(client_->DropTable("nope").IsNotFound());
  std::vector<Row> rows = {UsageRow(1, 1, 1, 1, 1)};
  EXPECT_TRUE(client_->Insert("nope", rows).IsNotFound());
  ASSERT_TRUE(client_->CreateTable("usage", UsageSchema(), 0).ok());
  EXPECT_TRUE(
      client_->CreateTable("usage", UsageSchema(), 0).IsAlreadyExists());
  // Duplicate key insert maps back to AlreadyExists.
  ASSERT_TRUE(client_->Insert("usage", rows).ok());
  EXPECT_TRUE(client_->Insert("usage", rows).IsAlreadyExists());
}

TEST_F(NetTest, StatsReplyCarriesCacheAndTableCounters) {
  ASSERT_TRUE(client_->CreateTable("usage", UsageSchema(), 0).ok());
  Timestamp t = clock_->Now();
  std::vector<Row> rows;
  for (int i = 0; i < 50; i++) rows.push_back(UsageRow(1, i, t + i, i, 0.5));
  ASSERT_TRUE(client_->Insert("usage", rows).ok());
  // Flush so queries hit disk tablets and exercise the block cache, then
  // query twice: the second pass should be served from the cache.
  ASSERT_TRUE(db_->FlushAll().ok());
  std::vector<Row> got;
  ASSERT_TRUE(client_->QueryAll("usage", QueryBounds{}, &got).ok());
  ASSERT_TRUE(client_->QueryAll("usage", QueryBounds{}, &got).ok());

  // Server-wide stats (empty table name): no table's counters.
  ServerStats server_stats;
  ASSERT_TRUE(client_->Stats("", &server_stats).ok());
  std::map<std::string, uint64_t>& stats = server_stats.counters;
  ASSERT_TRUE(stats.count("cache.hits"));
  ASSERT_TRUE(stats.count("cache.capacity_bytes"));
  EXPECT_EQ(stats["cache.capacity_bytes"], 64ull << 20);
  EXPECT_EQ(stats.count("table.queries"), 0u);

  // Per-table stats ride along with the cache's.
  ASSERT_TRUE(client_->Stats("usage", &server_stats).ok());
  EXPECT_EQ(stats["table.rows_inserted"], 50u);
  EXPECT_EQ(stats["table.queries"], 2u);
  EXPECT_GT(stats["table.block_cache_misses"], 0u);
  EXPECT_GT(stats["table.block_cache_hits"], 0u);
  EXPECT_GT(stats["cache.hits"], 0u);
  EXPECT_GT(stats["cache.charge_bytes"], 0u);

  EXPECT_TRUE(client_->Stats("nope", &server_stats).IsNotFound());
}

TEST_F(NetTest, StatsV2ReturnsLatencyQuantiles) {
  ASSERT_TRUE(client_->CreateTable("usage", UsageSchema(), 0).ok());
  Timestamp t = clock_->Now();
  std::vector<Row> rows;
  for (int i = 0; i < 50; i++) rows.push_back(UsageRow(1, i, t + i, i, 0.5));
  ASSERT_TRUE(client_->Insert("usage", rows).ok());
  ASSERT_TRUE(db_->FlushAll().ok());
  std::vector<Row> got;
  ASSERT_TRUE(client_->QueryAll("usage", QueryBounds{}, &got).ok());
  ASSERT_TRUE(client_->QueryAll("usage", QueryBounds{}, &got).ok());

  // Per-table kStatsV2: counters ride along and per-table latency
  // histograms report nonzero quantiles for the operations just performed.
  ServerStats stats;
  ASSERT_TRUE(client_->Stats("usage", &stats).ok());
  EXPECT_EQ(stats.counters["table.rows_inserted"], 50u);
  EXPECT_EQ(stats.counters["table.queries"], 2u);
  ASSERT_TRUE(stats.histograms.count("table.insert_micros"));
  ASSERT_TRUE(stats.histograms.count("table.query_micros"));
  const HistogramQuantiles& ins = stats.histograms["table.insert_micros"];
  EXPECT_EQ(ins.count, 1u);  // One InsertBatch.
  EXPECT_GE(ins.p50, 1u);    // Sub-microsecond records clamp to 1.
  EXPECT_GE(ins.p99, ins.p50);
  EXPECT_GE(ins.max, ins.p999);
  const HistogramQuantiles& qry = stats.histograms["table.query_micros"];
  EXPECT_EQ(qry.count, 2u);
  EXPECT_GE(qry.p50, 1u);
  EXPECT_GE(qry.p99, 1u);
  ASSERT_TRUE(stats.histograms.count("table.flush_micros"));
  EXPECT_GE(stats.histograms["table.flush_micros"].count, 1u);

  // Server-wide kStatsV2: per-opcode request histograms.
  ServerStats server_stats;
  ASSERT_TRUE(client_->Stats("", &server_stats).ok());
  EXPECT_GT(server_stats.counters["server.requests"], 0u);
  EXPECT_GT(server_stats.counters["server.connections"], 0u);
  ASSERT_TRUE(server_stats.histograms.count("server.op.insert.micros"));
  EXPECT_EQ(server_stats.histograms["server.op.insert.micros"].count, 1u);
  ASSERT_TRUE(server_stats.histograms.count("server.op.query.micros"));
  EXPECT_GE(server_stats.histograms["server.op.query.micros"].count, 2u);
  EXPECT_EQ(server_stats.histograms.count("table.query_micros"), 0u);

  // Unknown tables map to NotFound.
  ServerStats bad;
  EXPECT_TRUE(client_->Stats("nope", &bad).IsNotFound());
}

TEST_F(NetTest, RenderStatsTextPrometheusFormat) {
  ServerStats stats;
  stats.counters["server.requests"] = 17;
  stats.counters["table.rows_inserted"] = 50;
  HistogramQuantiles q;
  q.count = 2;
  q.p50 = 120;
  q.p90 = 450;
  q.p99 = 451;
  q.p999 = 451;
  q.max = 452;
  stats.histograms["table.query_micros"] = q;

  std::string text = RenderStatsText(stats, "usage");
  // Counters: table-scoped metrics get the table label, server-wide do not.
  EXPECT_NE(text.find("littletable_server_requests 17\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("littletable_table_rows_inserted{table=\"usage\"} 50\n"),
            std::string::npos)
      << text;
  // Histograms: _count, per-quantile lines, _max.
  EXPECT_NE(
      text.find("littletable_table_query_micros_count{table=\"usage\"} 2\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("littletable_table_query_micros{table=\"usage\","
                      "quantile=\"0.99\"} 451\n"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("littletable_table_query_micros_max{table=\"usage\"} 452\n"),
      std::string::npos)
      << text;

  // Without a table name there is no label set at all on counters.
  std::string bare = RenderStatsText(stats);
  EXPECT_NE(bare.find("littletable_table_rows_inserted 50\n"),
            std::string::npos)
      << bare;
  EXPECT_NE(bare.find("littletable_table_query_micros{quantile=\"0.5\"} 120\n"),
            std::string::npos)
      << bare;
}

TEST_F(NetTest, ServerAssignsOmittedTimestamps) {
  ASSERT_TRUE(client_->CreateTable("usage", UsageSchema(), 0).ok());
  Row row = UsageRow(1, 1, wire::kOmittedTimestamp, 42, 0);
  ASSERT_TRUE(client_->Insert("usage", {row}).ok());
  std::vector<Row> got;
  ASSERT_TRUE(client_->QueryAll("usage", QueryBounds{}, &got).ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0][2].AsInt(), clock_->Now());
}

TEST_F(NetTest, QueryStreamsChunksAndPaginates) {
  // More rows than one chunk (512) and more than the server row limit hit
  // via client-side bounds.limit to exercise continuation.
  ASSERT_TRUE(client_->CreateTable("usage", UsageSchema(), 0).ok());
  Timestamp t = clock_->Now();
  std::vector<Row> rows;
  for (int i = 0; i < 1500; i++) rows.push_back(UsageRow(1, i, t, i, 0));
  ASSERT_TRUE(client_->Insert("usage", rows).ok());

  std::vector<Row> got;
  ASSERT_TRUE(client_->QueryAll("usage", QueryBounds{}, &got).ok());
  ASSERT_EQ(got.size(), 1500u);
  for (int i = 0; i < 1500; i++) EXPECT_EQ(got[i][1].i64(), i);

  // Bounded page with a limit: exactly one server round.
  QueryBounds b;
  b.limit = 100;
  QueryResult page;
  ASSERT_TRUE(client_->Query("usage", b, &page).ok());
  EXPECT_EQ(page.rows.size(), 100u);
  EXPECT_TRUE(page.more_available);
}

TEST_F(NetTest, ContinuationAcrossServerRowLimit) {
  // Force a small server cap so QueryAll must re-submit (§3.5).
  TableOptions topts;
  topts.server_row_limit = 64;
  ASSERT_TRUE(db_->CreateTable("capped", UsageSchema(), &topts).ok());
  auto table = db_->GetTable("capped");
  Timestamp t = clock_->Now();
  std::vector<Row> rows;
  for (int i = 0; i < 500; i++) rows.push_back(UsageRow(1, i, t, i, 0));
  ASSERT_TRUE(table->InsertBatch(rows).ok());

  std::vector<Row> got;
  ASSERT_TRUE(client_->QueryAll("capped", QueryBounds{}, &got).ok());
  ASSERT_EQ(got.size(), 500u);
  for (int i = 0; i < 500; i++) EXPECT_EQ(got[i][1].i64(), i);

  // Descending continuation too.
  QueryBounds desc;
  desc.direction = Direction::kDescending;
  ASSERT_TRUE(client_->QueryAll("capped", desc, &got).ok());
  ASSERT_EQ(got.size(), 500u);
  for (int i = 0; i < 500; i++) EXPECT_EQ(got[i][1].i64(), 499 - i);
}

TEST_F(NetTest, BoundedQueryOverWire) {
  ASSERT_TRUE(client_->CreateTable("usage", UsageSchema(), 0).ok());
  Timestamp t = clock_->Now();
  std::vector<Row> rows;
  for (int net = 0; net < 4; net++) {
    for (int m = 0; m < 20; m++) rows.push_back(UsageRow(net, 0, t + m, m, 0));
  }
  ASSERT_TRUE(client_->Insert("usage", rows).ok());
  QueryBounds b = QueryBounds::ForPrefix({Value::Int64(2)});
  b.min_ts = t + 5;
  b.max_ts = t + 9;
  std::vector<Row> got;
  ASSERT_TRUE(client_->QueryAll("usage", b, &got).ok());
  ASSERT_EQ(got.size(), 5u);
  for (const Row& r : got) EXPECT_EQ(r[0].i64(), 2);
}

TEST_F(NetTest, LatestRowOverWire) {
  ASSERT_TRUE(client_->CreateTable("usage", UsageSchema(), 0).ok());
  Timestamp t = clock_->Now();
  ASSERT_TRUE(client_->Insert("usage", {UsageRow(1, 7, t, 1, 0),
                                        UsageRow(1, 7, t + 60, 2, 0)}).ok());
  Row row;
  bool found = false;
  ASSERT_TRUE(client_
                  ->LatestRow("usage", {Value::Int64(1), Value::Int64(7)},
                              &row, &found)
                  .ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(row[3].i64(), 2);
  ASSERT_TRUE(
      client_->LatestRow("usage", {Value::Int64(9)}, &row, &found).ok());
  EXPECT_FALSE(found);
}

TEST_F(NetTest, FlushThroughMakesDataDurable) {
  ASSERT_TRUE(client_->CreateTable("usage", UsageSchema(), 0).ok());
  Timestamp t = clock_->Now();
  ASSERT_TRUE(client_->Insert("usage", {UsageRow(1, 1, t, 5, 0)}).ok());
  auto table = db_->GetTable("usage");
  EXPECT_EQ(table->NumDiskTablets(), 0u);
  ASSERT_TRUE(client_->FlushThrough("usage", t).ok());
  EXPECT_EQ(table->NumDiskTablets(), 1u);
}

TEST_F(NetTest, SchemaEvolutionWithStaleClientRetries) {
  ASSERT_TRUE(client_->CreateTable("usage", UsageSchema(), 0).ok());
  Timestamp t = clock_->Now();
  ASSERT_TRUE(client_->Insert("usage", {UsageRow(1, 1, t, 1, 0)}).ok());

  // A second client evolves the schema; the first client's cache is stale.
  std::unique_ptr<Client> admin;
  ASSERT_TRUE(Client::Connect("127.0.0.1", server_->port(), &admin).ok());
  ASSERT_TRUE(admin
                  ->AppendColumn("usage", Column("packets", ColumnType::kInt64,
                                                 Value::Int64(-1)))
                  .ok());

  // Stale query: client transparently refreshes and succeeds, with rows
  // translated to the new schema.
  std::vector<Row> got;
  ASSERT_TRUE(client_->QueryAll("usage", QueryBounds{}, &got).ok());
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].size(), 6u);
  EXPECT_EQ(got[0][5].i64(), -1);

  // Stale insert: refreshed schema has 6 columns, so the old-shape row is
  // rejected by the client-side schema check after refresh.
  EXPECT_FALSE(client_->Insert("usage", {UsageRow(1, 2, t + 1, 2, 0)}).ok());
  Row wide = UsageRow(1, 2, t + 1, 2, 0);
  wide.push_back(Value::Int64(9));
  ASSERT_TRUE(client_->Insert("usage", {wide}).ok());

  // Widen over the wire.
  // Widening against a missing table maps to NotFound.
  ASSERT_TRUE(admin->WidenColumn("nope", "packets").IsNotFound());
  ASSERT_TRUE(admin->SetTtl("usage", 5 * kMicrosPerWeek).ok());
  Schema schema;
  Timestamp ttl;
  ASSERT_TRUE(client_->GetTableInfo("usage", &schema, &ttl).ok());
  EXPECT_EQ(ttl, 5 * kMicrosPerWeek);
}

TEST_F(NetTest, ManyConcurrentClients) {
  // §5.1.4's observation that the server shares almost no state between
  // tables: N clients each writing their own table concurrently.
  const int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; c++) {
    ASSERT_TRUE(client_
                    ->CreateTable("t" + std::to_string(c), UsageSchema(), 0)
                    .ok());
  }
  Timestamp t = clock_->Now();
  for (int c = 0; c < kClients; c++) {
    threads.emplace_back([&, c] {
      std::unique_ptr<Client> cl;
      if (!Client::Connect("127.0.0.1", server_->port(), &cl).ok()) {
        failures++;
        return;
      }
      std::string table = "t" + std::to_string(c);
      for (int batch = 0; batch < 20; batch++) {
        std::vector<Row> rows;
        for (int i = 0; i < 32; i++) {
          rows.push_back(UsageRow(c, batch * 32 + i, t + batch * 32 + i, i, 0));
        }
        if (!cl->Insert(table, rows).ok()) {
          failures++;
          return;
        }
      }
      std::vector<Row> got;
      if (!cl->QueryAll(table, QueryBounds{}, &got).ok() ||
          got.size() != 20 * 32) {
        failures++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(NetTest, ClientDetectsServerStop) {
  ASSERT_TRUE(client_->Ping().ok());
  server_->Stop();
  EXPECT_FALSE(client_->Ping().ok());
}

TEST_F(NetTest, FinishedConnectionThreadsAreReaped) {
  // Without reaping, the server retains one dead std::thread per connection
  // ever accepted, growing without bound on a long-lived server.
  for (int i = 0; i < 30; i++) {
    std::unique_ptr<Client> c;
    ASSERT_TRUE(Client::Connect("127.0.0.1", server_->port(), &c).ok());
    ASSERT_TRUE(c->Ping().ok());
    c.reset();  // Disconnect; the serving thread exits shortly after.
  }
  // Each new accept reaps threads that announced completion. Threads from
  // just-closed connections may still be winding down, so poke until the
  // count settles.
  size_t tracked = 0;
  for (int attempt = 0; attempt < 100; attempt++) {
    std::unique_ptr<Client> c;
    ASSERT_TRUE(Client::Connect("127.0.0.1", server_->port(), &c).ok());
    ASSERT_TRUE(c->Ping().ok());
    c.reset();
    tracked = server_->NumConnThreads();
    if (tracked < 10) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LT(tracked, 10u);
}

// Reads one response frame off a raw socket and returns its payload (type
// byte + body). Fails the test on any framing error.
std::string ReadRawFrame(net::Socket* sock) {
  char len_buf[4];
  EXPECT_TRUE(sock->ReadAll(len_buf, 4).ok());
  uint32_t len = DecodeFixed32(len_buf);
  EXPECT_GT(len, 0u);
  EXPECT_LE(len, wire::kMaxFrameBytes);
  std::string payload(len, '\0');
  EXPECT_TRUE(sock->ReadAll(payload.data(), len).ok());
  return payload;
}

TEST_F(NetTest, PipelinedRequestsAnswerInOrder) {
  // A raw client writes a burst of requests without reading between them;
  // the server executes them one at a time per connection and writes the
  // responses back in request order, so the alternating request types must
  // come back as alternating response types.
  net::Socket raw;
  ASSERT_TRUE(net::Connect("127.0.0.1", server_->port(), &raw).ok());
  constexpr int kDepth = 64;
  std::string burst;
  for (int i = 0; i < kDepth; i++) {
    burst += wire::Frame(
        i % 2 == 0 ? wire::MsgType::kPing : wire::MsgType::kListTables, "");
  }
  ASSERT_TRUE(raw.WriteAll(burst.data(), burst.size()).ok());
  for (int i = 0; i < kDepth; i++) {
    std::string payload = ReadRawFrame(&raw);
    ASSERT_FALSE(payload.empty());
    const uint8_t type = static_cast<uint8_t>(payload[0]);
    EXPECT_EQ(type, static_cast<uint8_t>(i % 2 == 0
                                             ? wire::MsgType::kOk
                                             : wire::MsgType::kTableList))
        << "response " << i << " out of order";
  }
}

TEST_F(NetTest, UnknownOpcodeRejectedWithoutDroppingConnection) {
  // Frames whose type byte names no request — including bytes >= 0x80,
  // which a signed-char read would turn into negative enum values — get a
  // kBadRequest error. The framing is intact, so the connection survives.
  net::Socket raw;
  ASSERT_TRUE(net::Connect("127.0.0.1", server_->port(), &raw).ok());
  // 13 is the retired kStats opcode.
  for (uint8_t op : {0x00, 0x0d, 0x3f, 0x7f, 0x80, 0xcc, 0xff}) {
    std::string frame =
        wire::Frame(static_cast<wire::MsgType>(op), "junk body");
    ASSERT_TRUE(raw.WriteAll(frame.data(), frame.size()).ok());
    std::string payload = ReadRawFrame(&raw);
    ASSERT_GE(payload.size(), 2u);
    EXPECT_EQ(static_cast<uint8_t>(payload[0]),
              static_cast<uint8_t>(wire::MsgType::kError));
    EXPECT_EQ(static_cast<uint8_t>(payload[1]),
              static_cast<uint8_t>(wire::ErrCode::kBadRequest))
        << "opcode " << static_cast<int>(op);
  }
  // The same connection still serves well-formed requests.
  std::string ping = wire::Frame(wire::MsgType::kPing, "");
  ASSERT_TRUE(raw.WriteAll(ping.data(), ping.size()).ok());
  std::string payload = ReadRawFrame(&raw);
  ASSERT_FALSE(payload.empty());
  EXPECT_EQ(static_cast<uint8_t>(payload[0]),
            static_cast<uint8_t>(wire::MsgType::kOk));
}

TEST_F(NetTest, StatsExposeFlushFailureCounters) {
  ASSERT_TRUE(client_->CreateTable("usage", UsageSchema(), 0).ok());
  ServerStats v2;
  ASSERT_TRUE(client_->Stats("usage", &v2).ok());
  std::map<std::string, uint64_t>& stats = v2.counters;
  ASSERT_TRUE(stats.count("table.flush_failures"));
  ASSERT_TRUE(stats.count("table.flush_retries"));
  ASSERT_TRUE(stats.count("table.merge_failures"));
  EXPECT_EQ(stats["table.flush_failures"], 0u);

  std::string text = RenderStatsText(v2, "usage");
  EXPECT_NE(
      text.find("littletable_table_flush_failures{table=\"usage\"} 0\n"),
      std::string::npos)
      << text;
}

// ----- Fault-tolerant wire layer: real-TCP smoke tests. -----
//
// The deterministic versions of the robustness cases (hung server, restart
// + reconnect, torn frames, retry/backoff policy) run over SimTransport in
// sim_test.cc. What stays here are the cases that exercise real kernel
// socket machinery and server threading: drain, connection caps, idle
// disconnects.

int64_t CounterValue(LittleTableServer* server, const std::string& name) {
  for (const auto& [key, value] : server->metrics().CounterValues()) {
    if (key == name) return value;
  }
  return 0;
}

// An Env whose random-access reads block while a gate is closed. Lets the
// drain test hold a query provably in flight while the server shuts down,
// with no reliance on timing.
class GateEnv final : public Env {
 public:
  explicit GateEnv(Env* base) : base_(base) {}

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = false;
    }
    cv_.notify_all();
  }
  // Blocks until at least one reader is parked at the closed gate.
  void WaitForBlockedReader() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return waiting_ > 0; });
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    std::unique_ptr<RandomAccessFile> file;
    LT_RETURN_IF_ERROR(base_->NewRandomAccessFile(fname, &file));
    result->reset(new GatedFile(std::move(file), this));
    return Status::OK();
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return base_->NewWritableFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status RenameFile(const std::string& src, const std::string& dst) override {
    return base_->RenameFile(src, dst);
  }
  Status CreateDirIfMissing(const std::string& dirname) override {
    return base_->CreateDirIfMissing(dirname);
  }
  Status GetChildren(const std::string& dirname,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dirname, result);
  }

 private:
  class GatedFile final : public RandomAccessFile {
   public:
    GatedFile(std::unique_ptr<RandomAccessFile> base, GateEnv* env)
        : base_(std::move(base)), env_(env) {}
    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      {
        std::unique_lock<std::mutex> lock(env_->mu_);
        if (env_->closed_) {
          env_->waiting_++;
          env_->cv_.notify_all();
          env_->cv_.wait(lock, [this] { return !env_->closed_; });
          env_->waiting_--;
        }
      }
      return base_->Read(offset, n, result, scratch);
    }
    Status Size(uint64_t* size) const override { return base_->Size(size); }

   private:
    std::unique_ptr<RandomAccessFile> base_;
    GateEnv* const env_;
  };

  Env* const base_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  int waiting_ = 0;
};

TEST(NetRobustnessTest, StopDrainsInFlightQueryAndRejectsNewFrames) {
  MemEnv mem;
  GateEnv env(&mem);
  auto clock = std::make_shared<SimClock>(100 * kMicrosPerWeek);
  DbOptions dopts;
  dopts.background_maintenance = false;
  dopts.block_cache_bytes = 0;  // Every block read hits the gated env.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, clock, "/srv", dopts, &db).ok());
  ASSERT_TRUE(db->CreateTable("usage", UsageSchema(), nullptr).ok());
  auto table = db->GetTable("usage");
  std::vector<Row> rows;
  Timestamp t = clock->Now();
  for (int i = 0; i < 2000; i++) rows.push_back(UsageRow(1, i, t + i, i, 0.5));
  ASSERT_TRUE(table->InsertBatch(rows).ok());
  ASSERT_TRUE(db->FlushAll().ok());

  ServerOptions sopts;
  sopts.poll_interval_ms = 10;
  LittleTableServer server(db.get(), sopts);
  ASSERT_TRUE(server.Start().ok());

  std::unique_ptr<Client> querier;
  ASSERT_TRUE(Client::Connect("127.0.0.1", server.port(), &querier).ok());
  // Close the gate so the query parks mid-scan; it is provably in flight
  // when Stop() begins, with no reliance on timing.
  env.CloseGate();
  std::atomic<bool> query_ok{false};
  std::atomic<size_t> got_rows{0};
  std::thread query_thread([&] {
    std::vector<Row> got;
    Status s = querier->QueryAll("usage", QueryBounds{}, &got);
    query_ok = s.ok();
    got_rows = got.size();
  });
  env.WaitForBlockedReader();
  std::thread stop_thread([&] { server.Stop(); });
  // Give Stop() a moment to enter the drain phase (draining_ is set before
  // it waits on active requests).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // A fresh request during the drain is turned away with kShuttingDown.
  ClientOptions copts;
  copts.max_retries = 0;
  std::unique_ptr<Client> late;
  Status s = Client::Connect("127.0.0.1", server.port(), copts, &late);
  EXPECT_FALSE(s.ok());
  if (!s.ok()) {
    EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
    EXPECT_NE(s.ToString().find("shutting down"), std::string::npos)
        << s.ToString();
  }

  // Release the parked query; the drain lets it run to completion.
  env.OpenGate();
  query_thread.join();
  stop_thread.join();
  // The in-flight query completed in full despite the concurrent Stop().
  EXPECT_TRUE(query_ok.load());
  EXPECT_EQ(got_rows.load(), 2000u);
  EXPECT_EQ(server.NumConnThreads(), 0u);
  EXPECT_GE(CounterValue(&server, "server.shutdown_rejects"), 1);
}

TEST(NetRobustnessTest, ConnectionCapRejectsWithServerBusy) {
  MemEnv env;
  auto clock = std::make_shared<SimClock>(100 * kMicrosPerWeek);
  DbOptions dopts;
  dopts.background_maintenance = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, clock, "/srv", dopts, &db).ok());
  ServerOptions sopts;
  sopts.max_connections = 1;
  LittleTableServer server(db.get(), sopts);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copts;
  copts.max_retries = 0;
  std::unique_ptr<Client> holder;
  ASSERT_TRUE(Client::Connect("127.0.0.1", server.port(), copts, &holder).ok());

  std::unique_ptr<Client> extra;
  Status s = Client::Connect("127.0.0.1", server.port(), copts, &extra);
  EXPECT_FALSE(s.ok());
  if (!s.ok()) {
    EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
    EXPECT_NE(s.ToString().find("busy"), std::string::npos) << s.ToString();
  }
  EXPECT_GE(CounterValue(&server, "server.busy_rejects"), 1);

  // Freeing the slot lets the next client in (once the server reaps the
  // finished connection thread).
  holder.reset();
  bool connected = false;
  for (int attempt = 0; attempt < 200 && !connected; attempt++) {
    std::unique_ptr<Client> next;
    connected = Client::Connect("127.0.0.1", server.port(), copts, &next).ok();
    if (!connected) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(connected);
  server.Stop();
}

TEST(NetRobustnessTest, IdleServerReapsClosedConnections) {
  // Regression: finished connections used to be reaped only from the
  // accept path, so a server that stopped receiving connects accumulated
  // zombies forever. The event loop now reaps them on its own tick:
  // ConnectionCount() must converge to zero with no further accepts.
  MemEnv env;
  auto clock = std::make_shared<SimClock>(100 * kMicrosPerWeek);
  DbOptions dopts;
  dopts.background_maintenance = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, clock, "/srv", dopts, &db).ok());
  ServerOptions sopts;
  sopts.poll_interval_ms = 10;
  LittleTableServer server(db.get(), sopts);
  ASSERT_TRUE(server.Start().ok());

  {
    std::vector<std::unique_ptr<Client>> clients;
    for (int i = 0; i < 8; i++) {
      std::unique_ptr<Client> c;
      ASSERT_TRUE(Client::Connect("127.0.0.1", server.port(), &c).ok());
      ASSERT_TRUE(c->Ping().ok());
      clients.push_back(std::move(c));
    }
    EXPECT_EQ(server.ConnectionCount(), 8u);
  }  // All eight close here; the server sees only EOFs, never an accept.

  bool drained = false;
  for (int i = 0; i < 500 && !drained; i++) {
    drained = server.ConnectionCount() == 0;
    if (!drained) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(drained) << "still tracking " << server.ConnectionCount()
                       << " connections";
  server.Stop();
}

TEST(NetRobustnessTest, BusyRejectReachesASlowReader) {
  // Regression: the inline kServerBusy reject used poll_interval_ms as its
  // write deadline, so with a fast housekeeping tick a client that was not
  // already parked in read() could lose the frame to a 1 ms timeout. The
  // reject now gets the io_timeout_ms deadline like any response write: a
  // client that connects and only starts reading later must still receive
  // the complete frame.
  MemEnv env;
  auto clock = std::make_shared<SimClock>(100 * kMicrosPerWeek);
  DbOptions dopts;
  dopts.background_maintenance = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, clock, "/srv", dopts, &db).ok());
  ServerOptions sopts;
  sopts.max_connections = 1;
  sopts.poll_interval_ms = 1;  // Far shorter than the reader's delay.
  sopts.io_timeout_ms = 5000;
  LittleTableServer server(db.get(), sopts);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copts;
  copts.max_retries = 0;
  std::unique_ptr<Client> holder;
  ASSERT_TRUE(Client::Connect("127.0.0.1", server.port(), copts, &holder).ok());

  net::Socket raw;
  ASSERT_TRUE(net::Connect("127.0.0.1", server.port(), &raw).ok());
  // Dawdle for many poll intervals before reading the reject.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::string payload = ReadRawFrame(&raw);
  ASSERT_GE(payload.size(), 2u);
  EXPECT_EQ(static_cast<uint8_t>(payload[0]),
            static_cast<uint8_t>(wire::MsgType::kError));
  EXPECT_EQ(static_cast<uint8_t>(payload[1]),
            static_cast<uint8_t>(wire::ErrCode::kServerBusy));
  EXPECT_GE(CounterValue(&server, "server.busy_rejects"), 1);
  server.Stop();
}

TEST(NetRobustnessTest, IdleConnectionsAreDisconnected) {
  MemEnv env;
  auto clock = std::make_shared<SimClock>(100 * kMicrosPerWeek);
  DbOptions dopts;
  dopts.background_maintenance = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, clock, "/srv", dopts, &db).ok());
  ServerOptions sopts;
  sopts.idle_timeout_ms = 100;
  sopts.poll_interval_ms = 10;
  LittleTableServer server(db.get(), sopts);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copts;
  copts.max_retries = 0;
  std::unique_ptr<Client> client;
  ASSERT_TRUE(Client::Connect("127.0.0.1", server.port(), copts, &client).ok());
  ASSERT_TRUE(client->Ping().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  // The server hung up on the idle connection; without retries the next
  // request surfaces the dead socket.
  EXPECT_FALSE(client->Ping().ok());
  EXPECT_GE(CounterValue(&server, "server.idle_disconnects"), 1);
  server.Stop();
}

TEST(NetRobustnessTest, RetryingClientSurvivesIdleDisconnect) {
  MemEnv env;
  auto clock = std::make_shared<SimClock>(100 * kMicrosPerWeek);
  DbOptions dopts;
  dopts.background_maintenance = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, clock, "/srv", dopts, &db).ok());
  ServerOptions sopts;
  sopts.idle_timeout_ms = 100;
  sopts.poll_interval_ms = 10;
  LittleTableServer server(db.get(), sopts);
  ASSERT_TRUE(server.Start().ok());

  std::unique_ptr<Client> client;
  ASSERT_TRUE(Client::Connect("127.0.0.1", server.port(), &client).ok());
  ASSERT_TRUE(client->Ping().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  // With the default retry policy the client reconnects transparently.
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_GE(client->connect_count(), 2u);
  server.Stop();
}

}  // namespace
}  // namespace lt
