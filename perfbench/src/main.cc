// ltbench: the LittleTable end-to-end benchmark.
//
//   ltbench --workload ingest|dashboard|scan --seed N --seconds S --trace 0|1
//           [--rev REV]
//   ltbench --list-metrics
//
// Starts a LittleTableServer (default options, loopback TCP) over a DB on
// SimDiskEnv/MemEnv, sets it up several times (setup_s is the median),
// runs the workload for S seconds, checks every response and then reads
// the whole table back from a reopened DB. With --trace 1 the window is
// split: S/2 seconds on an untraced instance, then S/2 on a traced one.
// Prints the run record (config, workload shape, every metric with unit
// and sample count) as a JSON line, a readable table on stderr, and as the
// last stdout line the result: {"correct", "attempted", "failed",
// "metrics"} — end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "instance.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

using lt::Status;
using SteadyClock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string rev = "unknown";
  bool list_metrics = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; i++) {
    std::string k = argv[i];
    auto next = [&](std::string* v) {
      if (i + 1 >= argc) return false;
      *v = argv[++i];
      return true;
    };
    std::string v;
    if (k == "--list-metrics") {
      a->list_metrics = true;
    } else if (k == "--workload" && next(&v)) {
      a->workload = v;
    } else if (k == "--seed" && next(&v)) {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds" && next(&v)) {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace" && next(&v)) {
      a->trace = v == "1";
    } else if (k == "--rev" && next(&v)) {
      a->rev = v;
    } else {
      std::fprintf(stderr, "ltbench: bad argument %s\n", k.c_str());
      return false;
    }
  }
  return a->list_metrics ||
         (MakeWorkload(a->workload, 1) != nullptr && a->seconds > 0);
}

// ---------------------------------------------------------------------------
// The metric catalog: every metric the benchmark can print, its unit, and
// what it should move (the layer-to-metric predictions).

struct MetricDef {
  const char* name;
  const char* unit;
  const char* means;
  // Printed in the result line (the metrics BENCHMARK.json gates); the
  // others go only into the run record. Every per-layer metric is printed.
  bool result = false;
};

const std::vector<MetricDef>& EndToEndCatalog() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "median set-up: server start, table creation, preload, "
                       "warm-up until the first timed op", true},
      {"rows_per_s", "rows/s", "headline rows per second, median over the "
                               "window's 1 s slices: acked inserts (ingest), "
                               "returned + inserted (dashboard), delivered "
                               "(scan)", true},
      {"op_p50_us", "us",
       "median of the headline op: insert batch (ingest), query from due "
       "time (dashboard), scan page (scan)",
       true},
      {"op_p90_us", "us", "headline op, p90 (>= 10 samples beyond it at "
                          "every workload's sample count)"},
      {"op_tail_us", "us", "headline op at the highest percentile with >= 10 "
                           "samples beyond it (the record names it)"},
      {"space_amp", "ratio", "Table::DiskBytes after the final flush / user "
                             "row bytes inserted", true},
      {"write_amp", "ratio", "bytes appended through the Env / user row "
                             "bytes inserted (preload included)", true},
      {"rss_mb", "MB", "median over the timed window of RSS minus the "
                       "bytes MemEnv holds as disk", true},
      {"rss_peak_mb", "MB", "peak RSS minus the bytes MemEnv holds as disk"},
      {"rows_per_s_mean", "rows/s", "headline rows / window length"},
      {"insert_rows_per_s", "rows/s", "acked rows per second"},
      {"insert_p50_us", "us", "insert batch send to ack, median"},
      {"insert_p99_us", "us", "insert batch send to ack, p99"},
      {"query_p50_us", "us", "dashboard query from due time, median"},
      {"query_p99_us", "us", "dashboard query from due time, p99"},
      {"scan_rows_per_s", "rows/s", "rows delivered to clients by scans"},
      {"failed_frac", "ratio", "failed, shed or refused ops / ops attempted"},
      {"gen.late_p99_us", "us", "open-loop generator lateness, p99"},
      {"gen.backlog", "count", "open-loop ops still unsent at window end"},
  };
  return defs;
}

const std::vector<MetricDef>& LayerCatalog() {
  static const std::vector<MetricDef> defs = {
      {"net.transport.write_us_per_op", "us",
       "socket write time (server + client) per client op; moves "
       "scan_rows_per_s on scan, query_p50_us on dashboard"},
      {"net.transport.read_us_per_op", "us",
       "server non-blocking socket read time per client op"},
      {"net.transport.client_wait_us_per_op", "us",
       "client time blocked reading responses per op"},
      {"net.transport.syscalls_per_op", "count", "transport calls per op"},
      {"net.transport.bytes_per_op", "B", "server bytes in + out per op"},
      {"net.server.queue_wait_us", "us",
       "admission queue wait p50 (kStatsV2); moves query_p99_us on dashboard"},
      {"net.server.worker_busy_us_per_op", "us",
       "worker busy time per server request"},
      {"net.server.event_loop_lag_us", "us", "event-loop lag p99"},
      {"net.server.stream_pauses_per_scan", "count",
       "stream parks per server query; moves scan_rows_per_s on scan"},
      {"net.admission.shed_count", "count",
       "queries shed + busy rejects; moves failed_frac"},
      {"net.admission.scans_queued_peak", "count", "peak admission queue"},
      {"core.row_codec.encode_ns_per_row", "ns",
       "EncodeRow replay; moves insert_p50_us on ingest"},
      {"core.row_codec.decode_ns_per_row", "ns", "DecodeRow replay"},
      {"core.table.insert_us", "us",
       "Table insert mean; moves insert_* on ingest"},
      {"core.table.insert_group_size", "count", "batches per group commit"},
      {"core.table.flush_us_per_mb", "us", "flush time per MB flushed"},
      {"core.table.merge_us_per_mb", "us", "merge time per MB written"},
      {"core.table.maintenance_busy_frac", "ratio",
       "flush + merge time completed in the window / window length (one "
       "maintenance thread); near 1 the flushes fall behind and inserts "
       "wait: moves insert_p50_us on ingest"},
      {"core.table.block_read_us", "us", "cache-miss block read mean"},
      {"core.table.scan_efficiency", "ratio", "rows returned / rows scanned"},
      {"core.table.tablets_considered_per_query", "count",
       "QueryTrace; moves query_p50_us on dashboard"},
      {"core.table.tablets_pruned_frac", "ratio", "pruned / considered"},
      {"core.table.blocks_read_per_query", "count", "QueryTrace blocks read"},
      {"core.memtablet.insert_ns_per_row", "ns",
       "MemTablet::Insert replay; moves insert_rows_per_s on ingest, nothing "
       "on scan"},
      {"core.memtablet.rows_inserted", "count",
       "rows inserted in the traced window (about zero on scan)"},
      {"core.block.build_ns_per_row", "ns",
       "BlockBuilder Add + Finish replay; moves insert_rows_per_s on ingest"},
      {"core.block.parse_ns_per_block", "ns",
       "LoadBlockV2 + ParseColumnar replay; moves scan_rows_per_s on scan"},
      {"core.column_codec.decode_ns_per_value.delta_delta", "ns",
       "DecodeChunk replay per value"},
      {"core.column_codec.decode_ns_per_value.zigzag", "ns", "as above"},
      {"core.column_codec.decode_ns_per_value.xor", "ns", "as above"},
      {"core.column_codec.decode_ns_per_value.dict", "ns", "as above"},
      {"core.column_codec.decode_ns_per_value.plain_bytes", "ns",
       "as above (0 when the encoding is not in use)"},
      {"core.column_codec.chunks_skipped_frac", "ratio",
       "chunks a projection skipped / chunks touched"},
      {"core.cursor.merge_next_ns_per_row", "ns",
       "MergingCursor::Next replay at the run's fan-in; moves scan_rows_per_s "
       "on scan, query_p50_us on dashboard"},
      {"core.cursor.fan_in", "count", "fan-in the merge replay used"},
      {"core.tablet_writer.write_ns_per_row", "ns", "TabletWriter replay"},
      {"core.tablet_reader.scan_ns_per_row_cold", "ns",
       "tablet scan replay, empty cache"},
      {"core.tablet_reader.scan_ns_per_row_warm", "ns",
       "tablet scan replay, cache warm"},
      {"util.cache.hit_ratio", "ratio",
       "block cache hits / lookups in the window (high on dashboard, near 0 "
       "on scan); moves query_p50_us on dashboard"},
      {"util.cache.lookup_hit_ns", "ns", "Cache::Lookup replay, hit"},
      {"util.cache.lookup_miss_ns", "ns", "Cache::Lookup replay, miss"},
      {"util.lzmini.compress_mb_per_s", "MB/s",
       "replay on the run's chunks; moves insert_rows_per_s on ingest"},
      {"util.lzmini.decompress_mb_per_s", "MB/s",
       "replay; moves scan_rows_per_s on scan, nothing on dashboard"},
      {"util.lzmini.decompress_mb", "MB",
       "bytes decompressed in the window (tablet reads x raw/stored)"},
      {"util.lzmini.query_decompress_mb", "MB",
       "the queries' share of it (about zero on ingest)"},
      {"util.crc32c.crc_mb_per_s", "MB/s",
       "replay on the run's block images; moves scan_rows_per_s on scan"},
      {"util.crc32c.crc_mb", "MB", "block bytes read + written in the window"},
      {"env.sim_disk.sim_disk_us_per_row", "us",
       "simulated-disk time per row moved (kept apart from CPU time)"},
      {"env.sim_disk.seeks_per_query", "count", "simulated seeks per query"},
      {"env.sim_disk.bytes_read_per_row", "B", "disk bytes read per row moved"},
      {"env.sim_disk.bytes_written_per_row", "B",
       "disk bytes written per row moved; moves write_amp on ingest"},
      {"env.sim_disk.read_us_per_op", "us", "CPU time per Env read call"},
      {"env.sim_disk.append_us_per_op", "us", "CPU time per Env append call"},
      {"trace.overhead_frac", "ratio",
       "headline change of the traced window against an untraced window of "
       "the same seed and length on an instance built without tracing "
       "(op_p50_us on ingest and dashboard, rows_per_s on scan); positive = "
       "tracing costs"},
  };
  return defs;
}

std::string UnitOf(const std::string& name) {
  for (const auto* cat : {&EndToEndCatalog(), &LayerCatalog()}) {
    for (const MetricDef& d : *cat) {
      if (name == d.name) return d.unit;
    }
  }
  return "";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return (v[(v.size() - 1) / 2] + v[v.size() / 2]) / 2;
}

// Rows moved in each whole second of the window. An operation's rows are
// spread evenly over the time it was in flight, so large operations (64k-
// row scan pages) do not make the per-second counts jump by whole pages.
std::vector<double> SliceRates(const Window& w, double seconds) {
  const size_t slices = std::max<size_t>(1, static_cast<size_t>(seconds));
  std::vector<double> rows(slices, 0);
  for (const Window::Done& d : w.done) {
    const double span = d.done_s - d.sent_s;
    for (size_t i = static_cast<size_t>(std::max(0.0, d.sent_s));
         i < slices && static_cast<double>(i) < d.done_s; i++) {
      const double lo = std::max(d.sent_s, static_cast<double>(i));
      const double hi = std::min(d.done_s, static_cast<double>(i + 1));
      rows[i] += span <= 0 ? static_cast<double>(d.rows)
                           : static_cast<double>(d.rows) * (hi - lo) / span;
    }
  }
  return rows;
}

// Rows per second as the median over the window's whole seconds: one
// stall (a merge, a descheduled thread) moves it less than a plain mean.
double SliceMedianRate(const Window& w, double seconds) {
  return Median(SliceRates(w, seconds));
}

// ---------------------------------------------------------------------------
// Sampling during the timed windows: RSS minus the bytes MemEnv holds, and
// the admission queue's peak.

uint64_t RssBytes() {
  long pages_resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f) {
    long size = 0;
    if (std::fscanf(f, "%ld %ld", &size, &pages_resident) != 2) {
      pages_resident = 0;
    }
    std::fclose(f);
  }
  return static_cast<uint64_t>(pages_resident) *
         static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

class Monitor {
 public:
  explicit Monitor(Instance* inst) : inst_(inst) {
    queued_ = inst->server()->metrics().GetGauge("server.scans_queued");
    thread_ = std::thread([this] { Loop(); });
  }
  ~Monitor() { Stop(); }
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  double peak_rss_mb() const { return peak_rss_ / 1e6; }
  double median_rss_mb() const { return Median(rss_) / 1e6; }
  int64_t peak_queued() const { return peak_queued_; }

 private:
  void Loop() {
    while (!stop_.load()) {
      Sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    Sample();
  }
  void Sample() {
    const double rss = static_cast<double>(RssBytes());
    const double disk = static_cast<double>(inst_->mem()->TotalBytes());
    peak_rss_ = std::max(peak_rss_, rss - disk);
    rss_.push_back(rss - disk);
    peak_queued_ = std::max(peak_queued_, queued_->Value());
  }

  Instance* const inst_;
  lt::Gauge* queued_;
  std::atomic<bool> stop_{false};
  double peak_rss_ = 0;
  std::vector<double> rss_;  // Samples, owned by the sampling thread.
  int64_t peak_queued_ = 0;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Layer counters around the traced window.

struct LayerSnap {
  std::map<std::string, uint64_t> table;
  std::map<std::string, lt::HistogramSnapshot> hist;
  lt::Cache::Stats cache;
  int64_t sim_us = 0, seeks = 0, sim_read = 0, sim_written = 0;
  EnvTotals env;
  IoTotals snet, cnet;
  QueryTraceSink::Totals qt;
  lt::ServerStats server;
};

Status Snap(Instance* inst, lt::Client* stats_client, LayerSnap* s) {
  auto table = inst->table();
  table->stats().ForEachCounter(
      [&](const char* name, uint64_t v) { s->table[name] = v; });
  table->stats().ForEachHistogram([&](const char* name,
                                      const lt::LatencyHistogram& h) {
    s->hist[name] = h.Snapshot();
  });
  s->cache = inst->db()->block_cache()->GetStats();
  s->sim_us = inst->sim()->SimElapsedMicros();
  s->seeks = inst->sim()->seek_count();
  s->sim_read = inst->sim()->bytes_read();
  s->sim_written = inst->sim()->bytes_written();
  s->env = inst->timing_env()->Totals();
  s->snet = inst->server_net()->Totals();
  s->cnet = inst->client_net()->Totals();
  s->qt = inst->traces()->totals();
  return stats_client->Stats(kTable, &s->server);
}

double Div(double a, double b) { return b == 0 ? 0 : a / b; }

std::map<std::string, double> LayerMetrics(const LayerSnap& a,
                                           const LayerSnap& b,
                                           const Window& w,
                                           const ReplayResult& replay,
                                           double overhead) {
  std::map<std::string, double> m = replay.metrics;
  const double ops = static_cast<double>(w.ops());
  auto dt = [&](const char* name) {
    return static_cast<double>(b.table.at(name) - a.table.at(name));
  };
  auto dsum = [&](const char* name) {
    return static_cast<double>(b.hist.at(name).sum - a.hist.at(name).sum);
  };
  auto dcount = [&](const char* name) {
    return static_cast<double>(b.hist.at(name).count - a.hist.at(name).count);
  };
  auto dserver = [&](const char* name) {
    auto ib = b.server.counters.find(name);
    auto ia = a.server.counters.find(name);
    if (ib == b.server.counters.end()) return 0.0;
    uint64_t before = ia == a.server.counters.end() ? 0 : ia->second;
    return static_cast<double>(ib->second - before);
  };
  auto hist_end = [&](const char* name) {
    auto it = b.server.histograms.find(name);
    return it == b.server.histograms.end() ? lt::HistogramQuantiles()
                                           : it->second;
  };

  const IoTotals sn = b.snet - a.snet, cn = b.cnet - a.cnet;
  m["net.transport.write_us_per_op"] =
      Div((sn.write_ns + cn.write_ns) / 1e3, ops);
  m["net.transport.read_us_per_op"] = Div(sn.read_ns / 1e3, ops);
  m["net.transport.client_wait_us_per_op"] =
      Div((cn.read_ns + cn.wait_ns) / 1e3, ops);
  m["net.transport.syscalls_per_op"] =
      Div(static_cast<double>(sn.read_calls + sn.write_calls + cn.read_calls +
                              cn.write_calls + cn.wait_calls),
          ops);
  m["net.transport.bytes_per_op"] =
      Div(static_cast<double>(sn.read_bytes + sn.write_bytes), ops);

  const double server_queries = dt("table.queries");
  m["net.server.queue_wait_us"] =
      static_cast<double>(hist_end("server.queue_wait_micros").p50);
  m["net.server.worker_busy_us_per_op"] =
      Div(dserver("server.worker_busy_micros"), dserver("server.requests"));
  m["net.server.event_loop_lag_us"] =
      static_cast<double>(hist_end("server.event_loop.lag_micros").p99);
  m["net.server.stream_pauses_per_scan"] =
      Div(dserver("server.stream_pauses"), server_queries);
  m["net.admission.shed_count"] =
      dserver("server.query_shed") + dserver("server.busy_rejects");

  m["core.table.insert_us"] =
      Div(dsum("table.insert_micros"), dcount("table.insert_micros"));
  m["core.table.insert_group_size"] =
      Div(dt("table.insert_batches"), dt("table.insert_groups"));
  m["core.table.flush_us_per_mb"] =
      Div(dsum("table.flush_micros"), dt("table.bytes_flushed") / 1e6);
  m["core.table.merge_us_per_mb"] =
      Div(dsum("table.merge_micros"), dt("table.bytes_merge_written") / 1e6);
  m["core.table.maintenance_busy_frac"] =
      Div((dsum("table.flush_micros") + dsum("table.merge_micros")) / 1e6,
          w.elapsed_s);
  m["core.table.block_read_us"] =
      Div(dsum("table.block_read_micros"), dcount("table.block_read_micros"));
  const QueryTraceSink::Totals q = {
      b.qt.queries - a.qt.queries,
      b.qt.rows_scanned - a.qt.rows_scanned,
      b.qt.rows_returned - a.qt.rows_returned,
      b.qt.tablets_considered - a.qt.tablets_considered,
      b.qt.tablets_pruned - a.qt.tablets_pruned,
      b.qt.blocks_read - a.qt.blocks_read,
      b.qt.cache_hits - a.qt.cache_hits};
  m["core.table.scan_efficiency"] = Div(static_cast<double>(q.rows_returned),
                                        static_cast<double>(q.rows_scanned));
  m["core.table.tablets_considered_per_query"] =
      Div(static_cast<double>(q.tablets_considered),
          static_cast<double>(q.queries));
  m["core.table.tablets_pruned_frac"] =
      Div(static_cast<double>(q.tablets_pruned),
          static_cast<double>(q.tablets_considered));
  m["core.table.blocks_read_per_query"] =
      Div(static_cast<double>(q.blocks_read), static_cast<double>(q.queries));

  m["core.memtablet.rows_inserted"] = dt("table.rows_inserted");
  const double skipped = dt("table.column_chunks_skipped");
  m["core.column_codec.chunks_skipped_frac"] =
      Div(skipped, skipped + dt("table.column_chunks_decoded"));

  const double hits = static_cast<double>(b.cache.hits - a.cache.hits);
  const double misses = static_cast<double>(b.cache.misses - a.cache.misses);
  m["util.cache.hit_ratio"] = Div(hits, hits + misses);

  const EnvTotals e = b.env - a.env;
  const double decompress_mb =
      static_cast<double>(e.read_bytes) * replay.raw_per_stored / 1e6;
  const double query_misses =
      static_cast<double>(q.blocks_read - q.cache_hits);
  m["util.lzmini.decompress_mb"] = decompress_mb;
  m["util.lzmini.query_decompress_mb"] =
      decompress_mb *
      std::min(1.0, Div(query_misses, dt("table.block_cache_misses")));
  m["util.crc32c.crc_mb"] =
      static_cast<double>(e.read_bytes + e.append_bytes) / 1e6;

  const double rows_moved =
      static_cast<double>(w.rows_inserted + w.rows_returned);
  m["env.sim_disk.sim_disk_us_per_row"] =
      Div(static_cast<double>(b.sim_us - a.sim_us), rows_moved);
  m["env.sim_disk.seeks_per_query"] =
      Div(static_cast<double>(b.seeks - a.seeks), server_queries);
  m["env.sim_disk.bytes_read_per_row"] =
      Div(static_cast<double>(b.sim_read - a.sim_read), rows_moved);
  m["env.sim_disk.bytes_written_per_row"] =
      Div(static_cast<double>(b.sim_written - a.sim_written), rows_moved);
  m["env.sim_disk.read_us_per_op"] =
      Div(e.read_ns / 1e3, static_cast<double>(e.read_calls));
  m["env.sim_disk.append_us_per_op"] =
      Div(e.append_ns / 1e3, static_cast<double>(e.append_calls));
  m["trace.overhead_frac"] = overhead;
  return m;
}

// ---------------------------------------------------------------------------

struct Readback {
  uint64_t rows = 0;
  uint64_t hash_sum = 0;
  bool ordered = true;
  Status status;
};

// Reads every row of the reopened table in key order.
Readback ReadAll(lt::DB* db) {
  Readback r;
  auto table = db->GetTable(kTable);
  if (!table) {
    r.status = Status::NotFound("table missing after reopen");
    return r;
  }
  const lt::Schema schema = UsageSchema();
  lt::QueryBounds bounds;
  lt::Row prev, row;
  // Each stream stops at the table's row cap; continue past the last key
  // returned, as a paging client does.
  for (bool more = true; more;) {
    std::unique_ptr<lt::QueryStream> qs;
    r.status = table->NewQueryStream(bounds, &qs);
    if (!r.status.ok()) return r;
    while (true) {
      bool have = false, exhausted = false;
      r.status = qs->Next(0, &row, &have, &exhausted);
      if (!r.status.ok()) return r;
      if (exhausted) break;
      if (!have) continue;
      if (r.rows > 0 && schema.CompareKeys(prev, row) >= 0) r.ordered = false;
      r.rows++;
      r.hash_sum += RowHash(row, HashMask::All());
      prev.swap(row);
    }
    more = qs->more_available() && r.rows > 0;
    if (more) bounds.min_key = lt::KeyBound{schema.KeyOf(prev), false};
  }
  return r;
}

// One line per metric: name, unit, where it is printed ("result" for the
// result line, "record" for the run record only) and what it means.
int ListMetrics() {
  std::printf("# end-to-end (untraced run, --trace 0)\n");
  for (const MetricDef& d : EndToEndCatalog()) {
    std::printf("%-48s %-8s %-6s %s\n", d.name, d.unit,
                d.result ? "result" : "record", d.means);
  }
  std::printf("# per-layer (traced run, --trace 1)\n");
  for (const MetricDef& d : LayerCatalog()) {
    std::printf("%-48s %-8s %-6s %s\n", d.name, d.unit, "result", d.means);
  }
  return 0;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// Starts an instance and sets the workload up on it.
Status SetUp(const Args& args, bool traced, std::unique_ptr<Instance>* inst,
             std::unique_ptr<Workload>* wl) {
  *inst = std::make_unique<Instance>(traced);
  *wl = MakeWorkload(args.workload, args.seed);
  LT_RETURN_IF_ERROR((*inst)->Start());
  return (*wl)->Setup(inst->get());
}

int Run(const Args& args) {
  const std::string& name = args.workload;
  std::unique_ptr<Instance> inst;
  std::unique_ptr<Workload> wl;

  // Traced run: first the untraced comparison window, on an instance built
  // without any tracing (no decorators, no trace logger), set up from the
  // same seed and as long as the traced window. trace.overhead_frac
  // compares the two windows.
  Window untraced_w;
  uint64_t untraced_reconnects = 0;
  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  if (args.trace) {
    if (Status s = SetUp(args, false, &inst, &wl); !s.ok()) {
      std::fprintf(stderr, "ltbench: set-up failed: %s\n",
                   s.ToString().c_str());
      return 2;
    }
    wl->Run(inst.get(), window_s, &untraced_w);
    untraced_reconnects = wl->Reconnects();
  }

  // Set-up, repeated (setup_s is the median); the last instance is the one
  // measured.
  constexpr int kSetups = 3;
  std::vector<double> setup_times;
  for (int i = 0; i < kSetups; i++) {
    wl.reset();
    inst.reset();
    const auto t0 = SteadyClock::now();
    if (Status s = SetUp(args, args.trace, &inst, &wl); !s.ok()) {
      std::fprintf(stderr, "ltbench: set-up failed: %s\n",
                   s.ToString().c_str());
      return 2;
    }
    setup_times.push_back(
        std::chrono::duration<double>(SteadyClock::now() - t0).count());
  }
  // Hand memory freed by the discarded set-ups back to the OS, so rss_mb
  // measures the timed window rather than set-up leftovers.
  malloc_trim(0);

  std::unique_ptr<lt::Client> stats_client;
  if (Status s = inst->Connect(&stats_client); !s.ok()) {
    std::fprintf(stderr, "ltbench: %s\n", s.ToString().c_str());
    return 2;
  }

  // The timed window; traced, it runs between layer snapshots.
  Window main_w;
  LayerSnap before, after;
  Monitor monitor(inst.get());
  if (!args.trace) {
    wl->Run(inst.get(), window_s, &main_w);
  } else {
    inst->SetTracing(true);
    Status s = Snap(inst.get(), stats_client.get(), &before);
    wl->Run(inst.get(), window_s, &main_w);
    if (s.ok()) s = Snap(inst.get(), stats_client.get(), &after);
    inst->SetTracing(false);
    if (!s.ok()) {
      std::fprintf(stderr, "ltbench: stats: %s\n", s.ToString().c_str());
      return 2;
    }
  }
  monitor.Stop();

  // A client reconnect means a request met a dead connection: count each
  // as a failed op.
  const uint64_t reconnects = wl->Reconnects() + untraced_reconnects;

  // Read-back check: flush, measure space, reopen on the same disk, read
  // every row.
  wl->CloseClients();
  stats_client.reset();
  auto table = inst->table();
  const uint64_t mem_tablets = table->NumMemTablets();
  Status flush = inst->db()->FlushAll();
  const double disk_bytes = static_cast<double>(table->DiskBytes());
  const uint64_t flushes = table->stats().flushes.load();
  const uint64_t merges = table->stats().merges.load();
  const uint64_t disk_tablets = table->NumDiskTablets();
  // Which §3.4.4 uniqueness check admitted the inserted rows.
  JsonObject unique;
  const lt::TableStats& ts = table->stats();
  for (const auto& [name, counter] :
       {std::pair{"by_newest_ts", &ts.unique_by_newest_ts},
        std::pair{"by_max_key", &ts.unique_by_max_key},
        std::pair{"by_point_query", &ts.unique_by_point_query}}) {
    unique.Int(name, static_cast<int64_t>(counter->load()));
  }
  const double env_written = static_cast<double>(inst->sim()->bytes_written());
  table.reset();
  Status closed = inst->Shutdown();
  std::unique_ptr<lt::DB> reopened;
  Status reopen = inst->Reopen(&reopened);
  Readback rb;
  if (reopen.ok()) rb = ReadAll(reopened.get());
  reopened.reset();
  const Expectation want = wl->Expected();

  std::vector<std::string> problems;
  if (!flush.ok()) problems.push_back("FlushAll: " + flush.ToString());
  if (!closed.ok()) problems.push_back("close: " + closed.ToString());
  if (!reopen.ok()) problems.push_back("reopen: " + reopen.ToString());
  if (!rb.status.ok()) problems.push_back("read-back: " + rb.status.ToString());
  if (rb.rows != want.rows || rb.hash_sum != want.hash_sum) {
    problems.push_back("read-back found " + std::to_string(rb.rows) +
                       " rows, expected " + std::to_string(want.rows) +
                       (rb.hash_sum != want.hash_sum ? " (content differs)"
                                                     : ""));
  }
  if (!rb.ordered) problems.push_back("read-back rows out of key order");
  for (const Window* w : {&untraced_w, &main_w}) {
    if (!w->mismatch.empty()) problems.push_back(w->mismatch);
  }
  // An open loop that fell behind measured its own queue, not the server.
  const Window all = [&] {
    Window a;
    a.Absorb(untraced_w);
    a.Absorb(main_w);
    a.failed += reconnects;
    return a;
  }();
  const bool backlog_grew =
      all.scheduled > 0 &&
      static_cast<double>(all.backlog) >
          std::max(5.0, 0.02 * static_cast<double>(all.scheduled));
  if (backlog_grew) {
    problems.push_back("open-loop backlog grew: " +
                       std::to_string(all.backlog) + " of " +
                       std::to_string(all.scheduled) + " ops unsent at end");
  }

  // End-to-end metrics of the (main) window.
  std::vector<double> insert_us = main_w.insert_us, query_us = main_w.query_us,
                      page_us = main_w.page_us, late_us = all.late_us;
  std::vector<double> head = wl->HeadlineLatency(main_w);
  const Summary head_s = Summarize(&head);
  const Summary ins_s = Summarize(&insert_us);
  const Summary qry_s = Summarize(&query_us);
  const Summary page_s = Summarize(&page_us);
  const Summary late_s = Summarize(&late_us);
  const double rows_per_s = SliceMedianRate(main_w, window_s);
  const double user_bytes = static_cast<double>(want.user_bytes);

  std::map<std::string, double> e2e;
  std::map<std::string, uint64_t> samples;
  e2e["setup_s"] = Median(setup_times);
  samples["setup_s"] = setup_times.size();
  std::string setup_list;
  for (double t : setup_times) {
    setup_list += (setup_list.empty() ? "" : " ") + std::to_string(t);
  }
  e2e["rows_per_s"] = rows_per_s;
  e2e["op_p50_us"] = head_s.p50;
  e2e["op_p90_us"] = Percentile(head, 90);
  e2e["op_tail_us"] = head_s.tail;
  samples["op_p50_us"] = samples["op_p90_us"] = samples["op_tail_us"] =
      head_s.count;
  e2e["space_amp"] = Div(disk_bytes, user_bytes);
  e2e["write_amp"] = Div(env_written, user_bytes);
  e2e["rss_mb"] = monitor.median_rss_mb();
  e2e["rss_peak_mb"] = monitor.peak_rss_mb();
  e2e["rows_per_s_mean"] =
      Div(static_cast<double>(wl->HeadlineRows(main_w)), main_w.elapsed_s);
  e2e["failed_frac"] = Div(static_cast<double>(all.failed),
                           static_cast<double>(all.attempted));
  if (ins_s.count > 0) {
    e2e["insert_rows_per_s"] =
        Div(static_cast<double>(main_w.rows_inserted), main_w.elapsed_s);
    e2e["insert_p50_us"] = ins_s.p50;
    e2e["insert_p99_us"] = ins_s.p99;
    samples["insert_p50_us"] = samples["insert_p99_us"] = ins_s.count;
  }
  if (qry_s.count > 0) {
    e2e["query_p50_us"] = qry_s.p50;
    e2e["query_p99_us"] = qry_s.p99;
    samples["query_p50_us"] = samples["query_p99_us"] = qry_s.count;
  }
  if (page_s.count > 0) {
    e2e["scan_rows_per_s"] =
        Div(static_cast<double>(main_w.rows_returned), main_w.elapsed_s);
    samples["scan_rows_per_s"] = page_s.count;
  }
  if (late_s.count > 0) {
    e2e["gen.late_p99_us"] = late_s.p99;
    samples["gen.late_p99_us"] = late_s.count;
    e2e["gen.backlog"] = static_cast<double>(all.backlog);
  }

  // Traced run: per-layer metrics from the traced half plus the replay.
  std::map<std::string, double> layers;
  ReplayResult replay;
  if (args.trace) {
    std::vector<double> u = wl->HeadlineLatency(untraced_w);
    const Summary us = Summarize(&u);
    double overhead;
    if (name != "scan") {
      overhead = Div(head_s.p50 - us.p50, us.p50);
    } else {
      const double untraced_rate = SliceMedianRate(untraced_w, window_s);
      overhead = Div(untraced_rate - rows_per_s, untraced_rate);
    }
    const double fan_in = std::max(
        1.0,
        Div(static_cast<double>((after.qt.tablets_considered -
                                 before.qt.tablets_considered) -
                                (after.qt.tablets_pruned -
                                 before.qt.tablets_pruned)),
            static_cast<double>(after.qt.queries - before.qt.queries)));
    replay = ReplayLayers(UsageSchema(), wl->ReplayRows(65536),
                     static_cast<size_t>(fan_in + 0.5));
    if (!replay.ok) problems.push_back("replay: a row failed to decode");
    layers = LayerMetrics(before, after, main_w, replay, overhead);
    layers["net.admission.scans_queued_peak"] =
        static_cast<double>(monitor.peak_queued());
  }

  // The run record.
  const bool correct = problems.empty();
  JsonObject record;
  record.String("workload", name);
  record.String("why", WorkloadWhy(name));
  record.Int("seed", static_cast<int64_t>(args.seed));
  record.String("rev", args.rev);
  record.Int("nproc",
             static_cast<int64_t>(std::thread::hardware_concurrency()));
  record.String("build_type", PERFBENCH_BUILD_TYPE);
  record.String("compiler", Compiler());
  record.Number("seconds", args.seconds);
  record.Bool("trace", args.trace);
  record.Object("shape", wl->Shape());
  record.String("setup_times_s", setup_list);
  {
    JsonObject cfg;
    cfg.String("transport", "Transport::Tcp() loopback");
    cfg.String("server", "default ServerOptions (4 workers, 4 MB stream "
                         "budget, no row cap, unlimited scan slots)");
    cfg.Int("block_cache_bytes", 64 << 20);
    cfg.String("flush_policy", "16 MB memtablets, 10 min max age");
    cfg.String("merge_policy", "90 s min tablet age, 128 MB max merged");
    cfg.String("env", "SimDiskEnv over MemEnv (7200 rpm model)");
    cfg.String("clock", "SimClock advanced with rows inserted");
    cfg.Int("user_rows", static_cast<int64_t>(want.rows));
    cfg.Number("user_bytes", user_bytes);
    cfg.Number("mean_row_bytes",
               Div(user_bytes, static_cast<double>(want.rows)));
    cfg.Number("user_bytes_per_cache", user_bytes / (64 << 20));
    cfg.Number("disk_bytes", disk_bytes);
    cfg.Number("disk_bytes_per_cache", disk_bytes / (64 << 20));
    if (args.trace) {
      // What the whole table would cost the block cache if every block
      // were cached (charge per row of the replayed blocks).
      cfg.Number("cache_charge_per_row", replay.cache_charge_per_row);
      cfg.Number("table_charge_per_cache",
                 static_cast<double>(want.rows) * replay.cache_charge_per_row /
                     (64 << 20));
    }
    cfg.Int("flushes", static_cast<int64_t>(flushes));
    cfg.Int("merges", static_cast<int64_t>(merges));
    cfg.Int("disk_tablets", static_cast<int64_t>(disk_tablets));
    cfg.Int("mem_tablets_at_end", static_cast<int64_t>(mem_tablets));
    cfg.Object("uniqueness_checks", unique);
    record.Object("config", cfg);
  }
  {
    JsonObject m;
    for (const auto& [k, v] : e2e) {
      JsonObject one;
      one.Number("value", v);
      one.String("unit", UnitOf(k));
      auto it = samples.find(k);
      if (it != samples.end()) {
        one.Int("samples", static_cast<int64_t>(it->second));
      }
      if (k == "op_tail_us") one.Number("percentile", head_s.tail_pct);
      m.Object(k, one);
    }
    record.Object("end_to_end", m);
  }
  if (args.trace) {
    JsonObject m, predictions;
    for (const auto& [k, v] : layers) m.Metric(k, v, UnitOf(k));
    for (const MetricDef& d : LayerCatalog()) {
      predictions.String(d.name, d.means);
    }
    record.Object("per_layer", m);
    record.Object("layer_predictions", predictions);
  }
  {
    std::string slices;
    for (double r : SliceRates(main_w, window_s)) {
      slices += (slices.empty() ? "" : " ") +
                std::to_string(static_cast<int64_t>(r));
    }
    record.String("rows_per_s_slices", slices);
  }
  record.Int("ops_attempted", static_cast<int64_t>(all.attempted));
  record.Int("ops_failed", static_cast<int64_t>(all.failed));
  record.Int("scans_completed", static_cast<int64_t>(all.scans_completed));
  record.Bool("correct", correct);
  {
    std::string p;
    for (const auto& s : problems) p += (p.empty() ? "" : "; ") + s;
    record.String("problems", p);
  }
  std::printf("%s\n", [&] {
    JsonObject o;
    o.Object("perfbench_record", record);
    return o.Dump();
  }().c_str());

  // Readable table.
  std::fprintf(stderr, "ltbench %s seed=%llu seconds=%g trace=%d\n",
               name.c_str(), static_cast<unsigned long long>(args.seed),
               args.seconds, args.trace ? 1 : 0);
  for (const auto& [k, v] : e2e) {
    auto it = samples.find(k);
    std::fprintf(stderr, "  %-48s %14.4f %-7s", k.c_str(), v,
                 UnitOf(k).c_str());
    if (it != samples.end()) {
      std::fprintf(stderr, " n=%llu",
                   static_cast<unsigned long long>(it->second));
    }
    std::fprintf(stderr, "\n");
  }
  for (const auto& [k, v] : layers) {
    std::fprintf(stderr, "  %-48s %14.4f %s\n", k.c_str(), v,
                 UnitOf(k).c_str());
  }
  for (const auto& s : problems) {
    std::fprintf(stderr, "  PROBLEM: %s\n", s.c_str());
  }

  // The result line.
  JsonObject metrics;
  if (!args.trace) {
    for (const MetricDef& d : EndToEndCatalog()) {
      if (d.result) metrics.Metric(d.name, e2e[d.name], d.unit);
    }
  } else {
    for (const MetricDef& d : LayerCatalog()) {
      metrics.Metric(d.name, layers[d.name], d.unit);
    }
  }
  std::printf("%s\n",
              ResultLine(correct, all.attempted, all.failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ltbench --workload ingest|dashboard|scan --seed N "
                 "--seconds S --trace 0|1 [--rev REV] | --list-metrics\n");
    return 2;
  }
  if (args.list_metrics) return perfbench::ListMetrics();
  return perfbench::Run(args);
}
