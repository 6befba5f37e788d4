// Google-benchmark microbenchmarks for the engine's hot paths: row codec,
// block build/parse, lzmini, CRC32C, bytes-column chunk decode, MemTablet
// insert, tablet write/scan, the merge cursor, the response chunk encode,
// a scan over loopback TCP, and the uniqueness fast paths. These are
// regression guards rather than paper figures; the figure reproductions
// live in the bench_fig* binaries.
#include <benchmark/benchmark.h>

#include "core/column_codec.h"
#include "core/db.h"
#include "core/table.h"
#include "core/tablet_reader.h"
#include "core/tablet_writer.h"
#include "env/mem_env.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/lzmini.h"
#include "util/random.h"

namespace lt {
namespace {

Schema BenchSchema() {
  return Schema({Column("network", ColumnType::kInt64),
                 Column("device", ColumnType::kInt64),
                 Column("ts", ColumnType::kTimestamp),
                 Column("payload", ColumnType::kBlob)},
                3);
}

Row BenchRow(Random* rng, uint64_t i, size_t payload) {
  return {Value::Int64(static_cast<int64_t>(i >> 8)),
          Value::Int64(static_cast<int64_t>(i & 0xff)),
          Value::Ts(static_cast<Timestamp>(1700000000000000ull + i)),
          Value::Blob(rng->Bytes(payload))};
}

void BM_RowEncodeDecode(benchmark::State& state) {
  Schema schema = BenchSchema();
  Random rng(1);
  Row row = BenchRow(&rng, 42, state.range(0));
  for (auto _ : state) {
    std::string buf;
    EncodeRow(&buf, schema, row);
    Slice in(buf);
    Row out;
    benchmark::DoNotOptimize(DecodeRow(&in, schema, &out));
  }
  state.SetBytesProcessed(state.iterations() * (state.range(0) + 24));
}
BENCHMARK(BM_RowEncodeDecode)->Arg(64)->Arg(1024);

// Rows shaped like perfbench's usage table: 11 columns (ints, timestamps,
// doubles, an int32) and one 60-90 B string tag.
Schema UsageBenchSchema() {
  return Schema({Column("network", ColumnType::kInt64),
                 Column("device", ColumnType::kInt64),
                 Column("ts", ColumnType::kTimestamp),
                 Column("prev_ts", ColumnType::kTimestamp),
                 Column("sent_bytes", ColumnType::kInt64),
                 Column("recv_bytes", ColumnType::kInt64),
                 Column("packets", ColumnType::kInt64),
                 Column("rate", ColumnType::kDouble),
                 Column("peak_rate", ColumnType::kDouble),
                 Column("clients", ColumnType::kInt32),
                 Column("tag", ColumnType::kString)},
                3);
}

Row UsageBenchRow(Random* rng, int64_t network, int64_t device, int64_t ts,
                  char tag) {
  return {Value::Int64(network), Value::Int64(device), Value::Ts(ts),
          Value::Ts(ts - 20000000),
          Value::Int64(static_cast<int64_t>(rng->Uniform(1ull << 40))),
          Value::Int64(static_cast<int64_t>(rng->Uniform(1ull << 40))),
          Value::Int64(static_cast<int64_t>(rng->Uniform(1ull << 30))),
          Value::Double(rng->NextDouble() * 1e6),
          Value::Double(rng->NextDouble() * 2e6),
          Value::Int32(static_cast<int32_t>(rng->Uniform(64))),
          Value::String(std::string(60 + rng->Uniform(31), tag))};
}

// DecodeRow alone, on usage-shaped rows, each decoded into a fresh Row as
// Client::Query does.
void BM_DecodeRow(benchmark::State& state) {
  const Schema schema = UsageBenchSchema();
  Random rng(11);
  std::string encoded;
  const int kRows = 256;
  for (int i = 0; i < kRows; i++) {
    const int64_t ts = 1700000000000000 + int64_t{i} * 20000000;
    EncodeRow(&encoded, schema,
              UsageBenchRow(&rng, i / 64, i, ts, static_cast<char>('a' + i % 26)));
  }
  for (auto _ : state) {
    Slice in(encoded);
    for (int i = 0; i < kRows; i++) {
      Row row;
      if (!DecodeRow(&in, schema, &row).ok()) abort();
      benchmark::DoNotOptimize(row.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_DecodeRow);

void BM_Crc32c(benchmark::State& state) {
  Random rng(2);
  std::string data = rng.Bytes(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(65536);

void BM_LzminiCompress(benchmark::State& state) {
  // Structured, compressible input (like real row data with shared key
  // prefixes).
  std::string input;
  for (int i = 0; i < 1000; i++) {
    input += "network-42/device-" + std::to_string(i % 40) + "/v=" +
             std::to_string(i);
  }
  for (auto _ : state) {
    std::string out;
    lzmini::Compress(input, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * input.size());
}
BENCHMARK(BM_LzminiCompress);

void BM_LzminiDecompress(benchmark::State& state) {
  std::string input;
  for (int i = 0; i < 1000; i++) {
    input += "network-42/device-" + std::to_string(i % 40) + "/v=" +
             std::to_string(i);
  }
  std::string compressed;
  lzmini::Compress(input, &compressed);
  for (auto _ : state) {
    std::string out;
    benchmark::DoNotOptimize(lzmini::Decompress(compressed, &out));
  }
  state.SetBytesProcessed(state.iterations() * input.size());
}
BENCHMARK(BM_LzminiDecompress);

// One bytes column chunk of a 64 kB block's worth of 75 B values, decoded
// per iteration. Arg 0: a dictionary of 16 repeating values; arg 1: plain
// bytes, every value distinct. per_value is the time per decoded cell.
void BM_DecodeChunk(benchmark::State& state) {
  const bool plain = state.range(0) != 0;
  constexpr size_t kLen = 75;
  constexpr uint32_t kValues = 64 * 1024 / (kLen + 1);
  Random rng(6);
  std::vector<std::string> tags;
  for (int i = 0; i < 16; i++) tags.push_back(rng.Bytes(kLen));
  ColumnValues cells;
  for (uint32_t i = 0; i < kValues; i++) {
    cells.AppendBytes(plain ? rng.Bytes(kLen) : tags[i % tags.size()]);
  }
  const ChunkEncoding enc =
      plain ? ChunkEncoding::kPlainBytes : ChunkEncoding::kDict;
  if (ChooseBytesEncoding(cells) != enc) abort();
  std::string chunk;
  EncodeBytesChunk(cells, enc, &chunk);
  for (auto _ : state) {
    ColumnValues out;
    if (!DecodeChunk(chunk, enc, kValues, &out).ok()) abort();
    benchmark::DoNotOptimize(out.spans.data());
  }
  state.SetItemsProcessed(state.iterations() * kValues);
  state.counters["per_value"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kValues,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DecodeChunk)->Arg(0)->Arg(1);

void BM_MemTabletInsert(benchmark::State& state) {
  auto schema = std::make_shared<const Schema>(BenchSchema());
  Random rng(3);
  uint64_t i = 0;
  auto mt = std::make_unique<MemTablet>(1, schema, Period{0, 1LL << 60}, 0);
  for (auto _ : state) {
    if (!mt->Insert(BenchRow(&rng, i++, 64))) abort();
    if (mt->num_rows() > 100000) {
      state.PauseTiming();
      mt = std::make_unique<MemTablet>(1, schema, Period{0, 1LL << 60}, 0);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTabletInsert);

// MemTablet insert in perfbench ingest's arrival order: 6144 devices
// polled in order each 10 s tick, so arrival is tick-major while keys are
// device-major, and each insert lands in a different place of the index
// instead of at its end.
void BM_MemTabletInsertInterleaved(benchmark::State& state) {
  auto schema = std::make_shared<const Schema>(BenchSchema());
  Random rng(3);
  constexpr uint64_t kDevices = 6144;
  uint64_t i = 0;
  auto mt = std::make_unique<MemTablet>(1, schema, Period{0, 1LL << 60}, 0);
  for (auto _ : state) {
    const uint64_t device = i % kDevices;
    const uint64_t tick = i / kDevices;
    i++;
    Row row = {Value::Int64(static_cast<int64_t>(device >> 8)),
               Value::Int64(static_cast<int64_t>(device)),
               Value::Ts(static_cast<Timestamp>(1700000000000000ull +
                                                tick * 10000000)),
               Value::Blob(rng.Bytes(64))};
    if (!mt->Insert(std::move(row))) abort();
    if (mt->num_rows() > 100000) {
      state.PauseTiming();
      mt = std::make_unique<MemTablet>(1, schema, Period{0, 1LL << 60}, 0);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTabletInsertInterleaved);

void BM_TabletScan(benchmark::State& state) {
  MemEnv env;
  Schema schema = BenchSchema();
  Random rng(4);
  TabletWriter writer(&env, "/bm.tab", &schema, {});
  const int kRows = 50000;
  for (int i = 0; i < kRows; i++) {
    if (!writer.Add(BenchRow(&rng, i, 64)).ok()) abort();
  }
  TabletMeta meta;
  if (!writer.Finish(&meta).ok()) abort();
  std::shared_ptr<TabletReader> reader;
  if (!TabletReader::Open(&env, "/bm.tab", &reader).ok()) abort();

  for (auto _ : state) {
    std::unique_ptr<Cursor> c;
    if (!reader->NewCursor(QueryBounds{}, &schema, nullptr, &c).ok()) abort();
    uint64_t n = 0;
    while (c->Valid()) {
      n++;
      if (!c->Next().ok()) abort();
    }
    if (n != kRows) abort();
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_TabletScan);

// MergingCursor::Next over TabletCursors in perfbench's scan shape: each
// of `fan_in` tablets is a time slice across every device, holding about
// 7 consecutive rows per device, so the merge takes a short run from one
// child and then moves to the next. The block cache holds every block, so
// this is positioning (sort keys from the column arrays) and the heap.
void BM_MergeNext(benchmark::State& state) {
  const int fan_in = static_cast<int>(state.range(0));
  constexpr int kRunLength = 7;
  const int devices = 64 * 1024 / (kRunLength * fan_in);
  const Schema schema({Column("network", ColumnType::kInt64),
                       Column("device", ColumnType::kInt64),
                       Column("ts", ColumnType::kTimestamp),
                       Column("bytes", ColumnType::kInt64)},
                      3);
  MemEnv env;
  auto cache = std::make_shared<Cache>(256ull << 20);
  std::vector<std::shared_ptr<TabletReader>> readers;
  for (int k = 0; k < fan_in; k++) {
    const std::string fname = "/merge" + std::to_string(k) + ".tab";
    TabletWriter writer(&env, fname, &schema, {});
    for (int d = 0; d < devices; d++) {
      for (int t = 0; t < kRunLength; t++) {
        const int64_t tick = int64_t{k} * kRunLength + t;
        if (!writer
                 .Add({Value::Int64(d / 64), Value::Int64(d),
                       Value::Ts(1700000000000000 + tick * 20000000),
                       Value::Int64(tick * 1500 + d)})
                 .ok()) {
          abort();
        }
      }
    }
    TabletMeta meta;
    if (!writer.Finish(&meta).ok()) abort();
    std::shared_ptr<TabletReader> reader;
    if (!TabletReader::Open(&env, fname, &reader, cache).ok()) abort();
    readers.push_back(std::move(reader));
  }
  const uint64_t want = static_cast<uint64_t>(fan_in) * devices * kRunLength;
  for (auto _ : state) {
    std::vector<std::unique_ptr<Cursor>> children;
    for (const auto& reader : readers) {
      std::unique_ptr<Cursor> c;
      if (!reader->NewCursor(QueryBounds{}, &schema, nullptr, &c).ok()) {
        abort();
      }
      children.push_back(std::move(c));
    }
    MergingCursor merged(&schema, std::move(children), Direction::kAscending);
    uint64_t n = 0;
    while (merged.Valid()) {
      n++;
      if (!merged.Next().ok()) abort();
    }
    if (n != want) abort();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * want));
}
BENCHMARK(BM_MergeNext)->Arg(1)->Arg(8)->Arg(43);

// The "response chunk encode" rung: QueryStream to kQueryChunk row bytes,
// as the server streams a scan. Args: fan-in (disk tablets, each a time
// slice across every series, so the merge alternates between all of them)
// and projected (1 = key columns plus `bytes`). The block cache holds the
// whole table, so after the first pass this is merge, positioning and
// encode; per_row is the time per returned row.
Schema EncodeBenchSchema() {
  return Schema({Column("network", ColumnType::kInt64),
                 Column("device", ColumnType::kInt64),
                 Column("ts", ColumnType::kTimestamp),
                 Column("bytes", ColumnType::kInt64),
                 Column("rate", ColumnType::kDouble),
                 Column("tag", ColumnType::kString)},
                3);
}

constexpr int kEncodeBenchDevices = 256;
constexpr int kEncodeBenchRows = 64 * 1024;

// Fills `table` with EncodeBenchTableRows(fan_in) rows of
// EncodeBenchSchema, one flushed tablet per time slice: `fan_in` tablets,
// each across every series.
void FillEncodeBenchTable(Table* table, Timestamp t0, int fan_in) {
  const int ticks = kEncodeBenchRows / kEncodeBenchDevices / fan_in;
  for (int k = 0; k < fan_in; k++) {
    std::vector<Row> batch;
    for (int t = 0; t < ticks; t++) {
      for (int d = 0; d < kEncodeBenchDevices; d++) {
        const int64_t tick = int64_t{t} * fan_in + k;
        batch.push_back({Value::Int64(d / 64), Value::Int64(d),
                         Value::Ts(t0 + tick), Value::Int64(tick * 1500 + d),
                         Value::Double(tick * 0.5),
                         Value::String("tag-" + std::to_string(d % 16) +
                                       "-abcdefghijklmnopqrstuvwxyz")});
      }
    }
    if (!table->InsertBatch(batch).ok() || !table->FlushAll().ok()) abort();
  }
}

uint64_t EncodeBenchTableRows(int fan_in) {
  return uint64_t{kEncodeBenchRows} / kEncodeBenchDevices / fan_in *
         kEncodeBenchDevices * fan_in;
}

void BM_QueryStreamEncode(benchmark::State& state) {
  const int fan_in = static_cast<int>(state.range(0));
  const bool projected = state.range(1) != 0;
  MemEnv env;
  auto clock = std::make_shared<SimClock>(1000 * kMicrosPerWeek);
  TableOptions opts;
  opts.block_cache_bytes = 256ull << 20;
  std::unique_ptr<Table> table;
  if (!Table::Create(&env, clock, "/bm", "bm", EncodeBenchSchema(), opts,
                     &table)
           .ok()) {
    abort();
  }
  FillEncodeBenchTable(table.get(), clock->Now() - kMicrosPerHour, fan_in);
  QueryBounds bounds;
  if (projected) bounds.projection = {3};
  std::string chunk;
  uint64_t rows = 0;
  for (auto _ : state) {
    std::unique_ptr<QueryStream> qs;
    if (!table->NewQueryStream(bounds, &qs).ok()) abort();
    while (true) {
      bool have = false, exhausted = false;
      if (!qs->NextEncoded(0, &chunk, &have, &exhausted).ok()) abort();
      if (have) rows++;
      if (exhausted) break;
      if (chunk.size() >= 64 * 1024) chunk.clear();
    }
  }
  if (rows != state.iterations() * EncodeBenchTableRows(fan_in)) abort();
  state.SetItemsProcessed(static_cast<int64_t>(rows));
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(rows),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_QueryStreamEncode)
    ->ArgsProduct({{1, 8, 43}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// The same table (fan-in 8) scanned end to end: a server on loopback TCP,
// Client::Query decoding every row. Arg: projected (1 = key columns plus
// `bytes`), which the request carries to the server.
void BM_QueryOverWire(benchmark::State& state) {
  const bool projected = state.range(0) != 0;
  constexpr int kFanIn = 8;
  MemEnv env;
  auto clock = std::make_shared<SimClock>(1000 * kMicrosPerWeek);
  DbOptions dopts;
  dopts.background_maintenance = false;
  dopts.block_cache_bytes = 256ull << 20;
  std::unique_ptr<DB> db;
  if (!DB::Open(&env, clock, "/bm", dopts, &db).ok() ||
      !db->CreateTable("bm", EncodeBenchSchema()).ok()) {
    abort();
  }
  FillEncodeBenchTable(db->GetTable("bm").get(),
                       clock->Now() - kMicrosPerHour, kFanIn);
  LittleTableServer server(db.get(), 0);
  std::unique_ptr<Client> client;
  if (!server.Start().ok() ||
      !Client::Connect("127.0.0.1", server.port(), &client).ok()) {
    abort();
  }
  QueryBounds bounds;
  if (projected) bounds.projection = {3};
  uint64_t rows = 0;
  for (auto _ : state) {
    QueryResult result;
    if (!client->Query("bm", bounds, &result).ok()) abort();
    rows += result.rows.size();
  }
  if (rows != state.iterations() * EncodeBenchTableRows(kFanIn)) abort();
  client.reset();
  server.Stop();
  state.SetItemsProcessed(static_cast<int64_t>(rows));
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(rows),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_QueryOverWire)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_TableInsertBatch(benchmark::State& state) {
  MemEnv env;
  auto clock = std::make_shared<SimClock>(1000 * kMicrosPerWeek);
  TableOptions opts;
  std::unique_ptr<Table> table;
  if (!Table::Create(&env, clock, "/bm", "bm", BenchSchema(), opts, &table)
           .ok()) {
    abort();
  }
  Random rng(5);
  uint64_t i = 0;
  for (auto _ : state) {
    std::vector<Row> batch;
    for (int k = 0; k < 128; k++) batch.push_back(BenchRow(&rng, i++, 64));
    if (!table->InsertBatch(batch).ok()) abort();
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_TableInsertBatch);

// The kInsert path minus the socket: kInsert bodies of range(0) usage-shaped
// rows, in perfbench ingest's arrival order (6144 devices polled in order
// each 10 s tick), through LittleTableServer::Handle — body parse, group
// commit, MemTablet insert, and the flushes that sealed tablets trigger.
// Building each body is not timed.
void BM_InsertWireBatch(benchmark::State& state) {
  MemEnv env;
  const Timestamp start = 1700000000000000;
  auto clock = std::make_shared<SimClock>(start);
  DbOptions opts;
  opts.background_maintenance = false;
  std::unique_ptr<DB> db;
  if (!DB::Open(&env, clock, "/db", opts, &db).ok()) abort();
  const Schema schema = UsageBenchSchema();
  if (!db->CreateTable("usage", schema).ok()) abort();
  const uint32_t version = db->GetTable("usage")->schema()->version();
  LittleTableServer server(db.get(), 0);
  Random rng(13);
  constexpr int64_t kDevices = 6144;
  const int rows = static_cast<int>(state.range(0));
  int64_t next = 0;
  std::string body, out;
  for (auto _ : state) {
    state.PauseTiming();
    body.clear();
    PutLengthPrefixedSlice(&body, "usage");
    PutVarint32(&body, version);
    PutVarint32(&body, static_cast<uint32_t>(rows));
    for (int k = 0; k < rows; k++, next++) {
      const int64_t device = next % kDevices;
      const int64_t ts = start + (next / kDevices) * 10000000;
      EncodeRow(&body, schema,
                UsageBenchRow(&rng, device / 64, device, ts,
                              static_cast<char>('a' + device % 26)));
    }
    clock->Set(start + (next / kDevices) * 10000000);
    out.clear();
    state.ResumeTiming();
    server.Handle(wire::MsgType::kInsert, Slice(body), &out);
    if (out.size() < 5 ||
        static_cast<wire::MsgType>(out[4]) != wire::MsgType::kOk) {
      abort();
    }
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_InsertWireBatch)->Arg(512)->Iterations(1000);

}  // namespace
}  // namespace lt

BENCHMARK_MAIN();
