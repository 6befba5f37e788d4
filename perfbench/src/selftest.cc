// Self-tests for the benchmark's own code:
//   - the percentile rule and nearest-rank percentiles;
//   - the result emitter (prints a result line plus the values it must hold;
//     run.py --selftest parses the line with a JSON parser and compares);
//   - the timing Transport and Env decorators pass traffic through
//     unchanged: the same rows come back with and without them.
// Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "instance.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    failures++;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; i++) v.push_back(i);
  Check(Percentile(v, 50) == 50, "p50 of 1..100");
  Check(Percentile(v, 99) == 99, "p99 of 1..100");
  Check(Percentile(v, 100) == 100, "p100 of 1..100");
  Check(Percentile(v, 0) == 1, "p0 of 1..100");
  Check(Percentile({}, 50) == 0, "empty percentile");
  Check(Percentile({7}, 99) == 7, "single sample");

  // At least ten samples strictly beyond the reported percentile.
  Check(TailPercentileFor(0) == 50, "tail of 0");
  Check(TailPercentileFor(99) == 50, "tail of 99");
  Check(TailPercentileFor(100) == 90, "tail of 100");
  Check(TailPercentileFor(999) == 90, "tail of 999");
  Check(TailPercentileFor(1000) == 99, "tail of 1000");
  Check(TailPercentileFor(9999) == 99, "tail of 9999");
  Check(TailPercentileFor(10000) == 99.9, "tail of 10000");

  std::vector<double> shuffled = {5, 3, 9, 1, 7};
  Summary s = Summarize(&shuffled);
  Check(s.count == 5 && s.p50 == 5 && s.p99 == 9 && s.tail_pct == 50 &&
            s.tail == 5,
        "summary of 5 samples");
}

// The emitter half of the round trip: a result line with awkward values,
// followed by the values as plain text for run.py to compare against.
void EmitRoundTrip() {
  struct M {
    const char* name;
    double value;
    const char* unit;
  };
  const M metrics[] = {
      {"rows_per_s", 123456.78901234567, "rows/s"},
      {"op_p50_us", 0.000123456789012345, "us"},
      {"setup_s", 1e-9, "s"},
      {"space_amp", 3.0, "ratio"},
      {"net.transport.bytes_per_op", 1.7976931348623157e308, "B"},
      {"util.cache.hit_ratio", 0.1 + 0.2, "%"},
  };
  JsonObject o;
  for (const M& m : metrics) o.Metric(m.name, m.value, m.unit);
  std::printf("ROUNDTRIP %s\n", ResultLine(true, 1000, 3, o).c_str());
  for (const M& m : metrics) {
    std::printf("EXPECT %s %.17g %s\n", m.name, m.value, m.unit);
  }
  Check(JsonQuote("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"", "json quoting");
}

struct Seen {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool ok = true;
};

// Inserts two batches, flushes, queries them back over the wire, then
// reads them again from a reopened DB.
Seen RoundTripRows(bool traced) {
  Seen seen;
  Instance inst(traced);
  lt::Status s = inst.Start();
  inst.SetTracing(true);
  std::unique_ptr<lt::Client> client;
  if (s.ok()) s = inst.Connect(&client);
  if (s.ok()) s = client->CreateTable(kTable, UsageSchema(), 0);
  Generator gen(42, 60 * lt::kMicrosPerSecond);
  for (uint64_t tick = 0; s.ok() && tick < 2; tick++) {
    std::vector<lt::Row> rows;
    for (uint64_t d = 0; d < 300; d++) rows.push_back(gen.MakeRow(d, tick));
    inst.AdvanceClockTo(gen.TickStart(tick + 1));
    s = client->Insert(kTable, rows);
  }
  if (s.ok()) s = client->FlushThrough(kTable, gen.TickStart(2));
  std::vector<lt::Row> wire_rows;
  if (s.ok()) s = client->QueryAll(kTable, lt::QueryBounds(), &wire_rows);
  if (!s.ok()) {
    std::fprintf(stderr, "round trip (traced=%d): %s\n", traced,
                 s.ToString().c_str());
    seen.ok = false;
    return seen;
  }
  for (const lt::Row& r : wire_rows) {
    seen.rows++;
    seen.hash += RowHash(r, HashMask::All());
  }
  if (traced) {
    Check(inst.server_net()->Totals().write_bytes > 0 &&
              inst.client_net()->Totals().write_bytes > 0,
          "timing transport counted traffic");
    Check(inst.timing_env()->Totals().append_bytes > 0,
          "timing env counted appends");
  }
  client.reset();
  inst.Shutdown();
  std::unique_ptr<lt::DB> db;
  Check(inst.Reopen(&db).ok(), "reopen");
  if (db) {
    lt::QueryResult res;
    Check(db->GetTable(kTable)->Query(lt::QueryBounds(), &res).ok(),
          "query after reopen");
    uint64_t hash = 0;
    for (const lt::Row& r : res.rows) hash += RowHash(r, HashMask::All());
    Check(res.rows.size() == seen.rows && hash == seen.hash,
          "reopened rows match wire rows");
    if (traced) {
      Check(inst.timing_env()->Totals().read_bytes > 0,
            "timing env counted reads");
    }
  }
  return seen;
}

void TestDecoratorsPassThrough() {
  Seen plain = RoundTripRows(false);
  Seen timed = RoundTripRows(true);
  Check(plain.ok && timed.ok, "round trips ran");
  Check(plain.rows == 600, "plain round trip returned every row");
  Check(plain.rows == timed.rows && plain.hash == timed.hash,
        "decorated round trip returns the same rows");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::EmitRoundTrip();
  perfbench::TestDecoratorsPassThrough();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d self-test check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::fprintf(stderr, "self-tests passed\n");
  return 0;
}
