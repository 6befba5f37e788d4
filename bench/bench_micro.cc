// Google-benchmark microbenchmarks for the engine's hot paths: row codec,
// block build/parse, lzmini, CRC32C, MemTablet insert, tablet write/scan,
// the response chunk encode, and the uniqueness fast paths. These are
// regression guards rather than paper figures; the figure reproductions
// live in the bench_fig* binaries.
#include <benchmark/benchmark.h>

#include "core/table.h"
#include "core/tablet_reader.h"
#include "core/tablet_writer.h"
#include "env/mem_env.h"
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

void BM_QueryStreamEncode(benchmark::State& state) {
  const int fan_in = static_cast<int>(state.range(0));
  const bool projected = state.range(1) != 0;
  constexpr int kDevices = 256;
  constexpr int kRows = 64 * 1024;
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
  const Timestamp t0 = clock->Now() - kMicrosPerHour;
  const int ticks = kRows / kDevices / fan_in;
  for (int k = 0; k < fan_in; k++) {
    std::vector<Row> batch;
    for (int t = 0; t < ticks; t++) {
      for (int d = 0; d < kDevices; d++) {
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
  if (rows != static_cast<uint64_t>(state.iterations()) * ticks * kDevices *
                  fan_in) {
    abort();
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(rows),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_QueryStreamEncode)
    ->ArgsProduct({{1, 8, 43}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

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

}  // namespace
}  // namespace lt

BENCHMARK_MAIN();
