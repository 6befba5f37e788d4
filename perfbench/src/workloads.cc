#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <thread>

#include "util/random.h"

namespace perfbench {
namespace {

using lt::Status;
using SteadyClock = std::chrono::steady_clock;

constexpr size_t kBatchRows = 512;

double Seconds(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Micros(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

SteadyClock::time_point After(SteadyClock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<SteadyClock::duration>(
                 std::chrono::duration<double>(seconds));
}

void NoteMismatch(Window* w, const std::string& what) {
  if (w->mismatch.empty()) w->mismatch = what;
}

// Devices [first, first + kBatchRows) at `tick`.
std::vector<lt::Row> MakeBatch(const Generator& gen, uint64_t first,
                               uint64_t tick) {
  std::vector<lt::Row> rows;
  rows.reserve(kBatchRows);
  for (uint64_t i = 0; i < kBatchRows; i++) {
    rows.push_back(gen.MakeRow(first + i, tick));
  }
  return rows;
}

// (device index, tick) of a row produced by `gen`.
void CellOf(const Generator& gen, const lt::Row& row, uint64_t* device,
            uint64_t* tick) {
  *device = static_cast<uint64_t>(row[kDevice].AsInt() - 1);
  *tick = static_cast<uint64_t>((row[kTs].AsInt() - kEpoch) /
                                gen.tick_micros());
}

// Connects `n` clients, creates the table through the first, and has every
// client fetch its schema.
Status CreateTable(Instance* inst,
                   std::vector<std::unique_ptr<lt::Client>>* clients,
                   size_t n) {
  for (size_t i = 0; i < n; i++) {
    std::unique_ptr<lt::Client> c;
    LT_RETURN_IF_ERROR(inst->Connect(&c));
    clients->push_back(std::move(c));
  }
  LT_RETURN_IF_ERROR((*clients)[0]->CreateTable(kTable, UsageSchema(), 0));
  for (auto& c : *clients) {
    auto schema = c->TableSchema(kTable);
    if (!schema.ok()) return schema.status();
  }
  return Status::OK();
}

// A devices x ticks grid of row hashes (full and projected) for the
// workloads whose rows are a full grid: preload plus, for dashboard, the
// ticks the trickle writer adds.
class Grid {
 public:
  Grid(uint64_t devices, uint64_t max_ticks)
      : devices_(devices),
        max_ticks_(max_ticks),
        hash_(devices * max_ticks),
        proj_hash_(devices * max_ticks) {}

  void Fill(uint64_t first_device, uint64_t tick,
            const std::vector<lt::Row>& rows, const HashMask& proj) {
    for (size_t i = 0; i < rows.size(); i++) {
      size_t at = Index(first_device + i, tick);
      hash_[at] = RowHash(rows[i], HashMask::All());
      proj_hash_[at] = RowHash(rows[i], proj);
    }
  }
  uint64_t hash(uint64_t d, uint64_t k) const { return hash_[Index(d, k)]; }
  uint64_t proj_hash(uint64_t d, uint64_t k) const {
    return proj_hash_[Index(d, k)];
  }
  uint64_t devices() const { return devices_; }

 private:
  size_t Index(uint64_t d, uint64_t k) const { return d * max_ticks_ + k; }
  uint64_t devices_, max_ticks_;
  std::vector<uint64_t> hash_, proj_hash_;
};

// Inserts ticks [0, ticks) for every device of `grid` through one
// connection, in tick-major device order, then flushes everything. The
// clock stands at the end of the data while loading (historic rows
// arriving at once), so memtablet boundaries depend only on the rows and
// no tablet is old enough to merge: the tablet layout is the same on every
// run of a seed.
Status Preload(Instance* inst, const Generator& gen, uint64_t ticks,
               lt::Client* client, const HashMask& proj, Grid* grid,
               uint64_t* user_bytes) {
  const uint64_t groups = grid->devices() / kBatchRows;
  const lt::Schema schema = UsageSchema();
  inst->AdvanceClockTo(gen.TickStart(ticks));
  for (uint64_t k = 0; k < ticks; k++) {
    for (uint64_t g = 0; g < groups; g++) {
      std::vector<lt::Row> rows = MakeBatch(gen, g * kBatchRows, k);
      grid->Fill(g * kBatchRows, k, rows, proj);
      for (const lt::Row& r : rows) *user_bytes += EncodedRowBytes(schema, r);
      LT_RETURN_IF_ERROR(client->Insert(kTable, rows));
    }
  }
  return client->FlushThrough(kTable, gen.TickStart(ticks));
}

// ---------------------------------------------------------------------------
// ingest: closed-loop writers, 512-row batches, one shared table.

class Ingest final : public Workload {
 public:
  static constexpr size_t kWriters = 3;
  static constexpr uint64_t kGroups = 12;  // Batches per tick.
  // Pause after each ack before the next batch. On a 4-core VM, at 2 ms
  // runs split into regimes 15-40 % apart (merges starve or not, depending
  // on scheduling); at 5 ms one 10-seed set had two runs whose median ack
  // was 1.6-1.9x the others', an op_p50_us spread of 0.28. At 10 ms every
  // run does about 95 flushes and 5 merges in 20 s.
  static constexpr auto kThink = std::chrono::microseconds(10000);
  static constexpr uint64_t kDevices = kGroups * kBatchRows;
  // Batches loaded before the window: 80 ticks, about 16 MemTablets.
  static constexpr uint64_t kPreloadBatches = 80 * kGroups;

  explicit Ingest(uint64_t seed) : gen_(seed, 10 * lt::kMicrosPerSecond) {}

  Status Setup(Instance* inst) override {
    LT_RETURN_IF_ERROR(CreateTable(inst, &clients_, kWriters));
    // A fixed preload through every connection, then a flush of all of it,
    // so each window starts from the same tablets. The clock stands at the
    // end of the preload (historic rows arriving at once): no tablet is old
    // enough to merge until the window moves the clock on. The preload
    // also warms the insert path; its rows count as acked rows.
    const lt::Timestamp end = gen_.TickStart(kPreloadBatches / kGroups);
    inst->AdvanceClockTo(end);
    while (next_ < kPreloadBatches) {
      const uint64_t b = next_++;
      LT_RETURN_IF_ERROR(clients_[b % kWriters]->Insert(kTable, Batch(b)));
    }
    return clients_[0]->FlushThrough(kTable, end);
  }

  void Run(Instance* inst, double seconds, Window* out) override {
    const auto start = SteadyClock::now();
    const auto end = After(start, seconds);
    std::vector<Window> part(kWriters);
    std::vector<SteadyClock::time_point> last(kWriters, start);
    std::vector<std::thread> threads;
    for (size_t w = 0; w < kWriters; w++) {
      threads.emplace_back([&, w] {
        Window& p = part[w];
        while (SteadyClock::now() < end) {
          // The connections share one sequence of batches, as one grabber
          // polling every device each tick over a few connections would.
          const uint64_t b = next_.fetch_add(1);
          std::vector<lt::Row> rows = Batch(b);
          inst->AdvanceClockTo(gen_.TickStart(b / kGroups + 1));
          const auto t0 = SteadyClock::now();
          Status s = clients_[w]->Insert(kTable, rows);
          const auto t1 = SteadyClock::now();
          last[w] = t1;
          p.attempted++;
          p.batches++;
          if (s.ok()) {
            p.insert_us.push_back(Micros(t0, t1));
            p.rows_inserted += rows.size();
            p.done.push_back(
                {Seconds(start, t0), Seconds(start, t1), rows.size()});
          } else {
            p.failed++;
            p.insert_us.push_back(seconds * 1e6);
            std::lock_guard<std::mutex> lock(failed_mu_);
            failed_.insert(b);
          }
          std::this_thread::sleep_for(kThink);
        }
      });
    }
    for (auto& t : threads) t.join();
    for (size_t w = 0; w < kWriters; w++) {
      out->Absorb(part[w]);
      out->elapsed_s = std::max(out->elapsed_s, Seconds(start, last[w]));
    }
  }

  Expectation Expected() const override {
    const uint64_t batches = next_.load();
    std::vector<Expectation> part(kWriters);
    std::vector<std::thread> threads;
    const lt::Schema schema = UsageSchema();
    for (size_t t = 0; t < kWriters; t++) {
      threads.emplace_back([&, t] {
        for (uint64_t b = t; b < batches; b += kWriters) {
          if (failed_.count(b)) continue;
          for (const lt::Row& r : Batch(b)) {
            part[t].rows++;
            part[t].hash_sum += RowHash(r, HashMask::All());
            part[t].user_bytes += EncodedRowBytes(schema, r);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    Expectation e;
    for (const auto& p : part) {
      e.rows += p.rows;
      e.hash_sum += p.hash_sum;
      e.user_bytes += p.user_bytes;
    }
    return e;
  }

  std::vector<lt::Row> ReplayRows(size_t max) const override {
    // The window's first batches, in the order they were handed out.
    std::vector<lt::Row> rows;
    for (uint64_t b = kPreloadBatches; b < next_.load() && rows.size() < max;
         b++) {
      for (lt::Row& r : Batch(b)) {
        if (rows.size() < max) rows.push_back(std::move(r));
      }
    }
    return rows;
  }

  const std::vector<double>& HeadlineLatency(const Window& w) const override {
    return w.insert_us;
  }
  uint64_t HeadlineRows(const Window& w) const override {
    return w.rows_inserted;
  }

  JsonObject Shape() const override {
    JsonObject o;
    o.String("loop", "closed");
    o.Int("writer_connections", kWriters);
    o.Int("think_us", kThink.count());
    o.Int("batch_rows", kBatchRows);
    o.Int("devices", kDevices);
    o.Int("preload_rows", kPreloadBatches * kBatchRows);
    o.Int("sim_seconds_per_tick", gen_.tick_micros() / lt::kMicrosPerSecond);
    o.String("order", "one batch sequence shared by the connections: every "
                      "device once per tick, in device order");
    o.String("reads", "none");
    return o;
  }

 private:
  // Batch b: devices [g * 512, (g + 1) * 512) of group g = b % kGroups, at
  // tick b / kGroups.
  std::vector<lt::Row> Batch(uint64_t b) const {
    return MakeBatch(gen_, (b % kGroups) * kBatchRows, b / kGroups);
  }

  Generator gen_;
  std::atomic<uint64_t> next_{0};  // Batches below this were all sent.
  mutable std::mutex failed_mu_;
  std::set<uint64_t> failed_;  // Sent but not acked: outcome unknown.
};

// ---------------------------------------------------------------------------
// dashboard: open-loop recent-window reads beside a trickle writer.

class Dashboard final : public Workload {
 public:
  static constexpr uint64_t kDevices = 2048;
  static constexpr uint64_t kGroups = kDevices / kBatchRows;
  static constexpr uint64_t kPreloadTicks = 64;
  static constexpr uint64_t kMaxTicks = kPreloadTicks + 512;
  static constexpr size_t kReaders = 3;
  static constexpr double kReaderRate = 300;   // Queries/s per reader.
  static constexpr double kWriterRate = 20;    // Batches/s.
  static constexpr uint64_t kMaxWindowTicks = 48;
  static constexpr uint64_t kLimit = 512;  // = small_query_row_limit.

  explicit Dashboard(uint64_t seed)
      : seed_(seed),
        gen_(seed, 60 * lt::kMicrosPerSecond),
        grid_(kDevices, kMaxTicks),
        zipf_(kDevices, 1.0),
        perm_(kDevices) {
    for (uint64_t d = 0; d < kDevices; d++) perm_[d] = d;
    lt::Random rnd(seed ^ 0xd1b54a32d192ed03ull);
    for (uint64_t d = kDevices - 1; d > 0; d--) {
      std::swap(perm_[d], perm_[rnd.Uniform(d + 1)]);
    }
  }

  Status Setup(Instance* inst) override {
    LT_RETURN_IF_ERROR(CreateTable(inst, &clients_, kReaders + 1));
    LT_RETURN_IF_ERROR(Preload(inst, gen_, kPreloadTicks, clients_[0].get(),
                               HashMask::All(), &grid_, &preload_bytes_));
    // Two minutes on, every preload tablet is past the 90 s merge delay:
    // let the merge policy settle them before the trickle starts.
    inst->AdvanceClockTo(gen_.TickStart(kPreloadTicks) +
                         2 * lt::kMicrosPerMinute);
    auto table = inst->table();
    for (int i = 0; i < 256 && table->HasMaintenanceWork(); i++) {
      LT_RETURN_IF_ERROR(table->MaintainNow());
    }
    acked_tick_.store(kPreloadTicks - 1);
    // Warm the block cache and the connections with untimed queries.
    Window warm;
    for (size_t r = 0; r < kReaders; r++) {
      lt::Random rnd(seed_ * 7919 + r);
      for (int i = 0; i < 200; i++) QueryOnce(r, &rnd, &warm, nullptr);
    }
    if (!warm.mismatch.empty()) return Status::Corruption(warm.mismatch);
    if (warm.failed > 0) return Status::IOError("warm-up query failed");
    return Status::OK();
  }

  void Run(Instance* inst, double seconds, Window* out) override {
    const auto start = SteadyClock::now();
    const auto end = After(start, seconds);
    window_start_ = start;
    ceiling_us_ = seconds * 1e6;
    std::vector<Window> part(kReaders + 1);
    std::vector<std::thread> threads;
    for (size_t r = 0; r < kReaders; r++) {
      threads.emplace_back([&, r] {
        Window& p = part[r];
        lt::Random rnd(seed_ * 104729 + windows_ * 131 + r);
        const double phase = static_cast<double>(r) / kReaders;
        for (uint64_t i = 0;; i++) {
          const auto due = After(start, (i + phase) / kReaderRate);
          if (due >= end) break;
          p.scheduled++;
          std::this_thread::sleep_until(due);
          const auto sent = SteadyClock::now();
          if (sent >= end) p.backlog++;
          p.late_us.push_back(Micros(due, sent));
          QueryOnce(r, &rnd, &p, &due);
        }
      });
    }
    threads.emplace_back(
        [&] { Trickle(inst, seconds, start, end, &part[kReaders]); });
    for (auto& t : threads) t.join();
    for (auto& p : part) out->Absorb(p);
    out->elapsed_s = seconds;
    windows_++;
  }

  Expectation Expected() const override {
    Expectation e;
    e.user_bytes = preload_bytes_ + trickle_bytes_;
    const uint64_t batches = kPreloadTicks * kGroups + trickle_acked_;
    for (uint64_t j = 0; j < batches; j++) {
      const uint64_t tick = j / kGroups, g = j % kGroups;
      for (uint64_t i = 0; i < kBatchRows; i++) {
        e.rows++;
        e.hash_sum += grid_.hash(g * kBatchRows + i, tick);
      }
    }
    return e;
  }

  std::vector<lt::Row> ReplayRows(size_t max) const override {
    std::vector<lt::Row> rows;
    const uint64_t first = trickle_acked_ > 0 ? kPreloadTicks : 0;
    for (uint64_t k = first; k < kMaxTicks && rows.size() < max; k++) {
      for (uint64_t d = 0; d < kDevices && rows.size() < max; d++) {
        rows.push_back(gen_.MakeRow(d, k));
      }
    }
    return rows;
  }

  const std::vector<double>& HeadlineLatency(const Window& w) const override {
    return w.query_us;
  }
  uint64_t HeadlineRows(const Window& w) const override {
    return w.rows_returned + w.rows_inserted;
  }

  JsonObject Shape() const override {
    JsonObject o;
    o.String("loop", "open");
    o.Int("reader_connections", kReaders);
    o.Number("queries_per_s", kReaders * kReaderRate);
    o.Int("writer_connections", 1);
    o.Number("writer_batches_per_s", kWriterRate);
    o.Int("batch_rows", kBatchRows);
    o.Int("devices", kDevices);
    o.Int("preload_rows", kDevices * kPreloadTicks);
    o.Int("sim_seconds_per_tick", gen_.tick_micros() / lt::kMicrosPerSecond);
    o.Number("device_zipf_s", 1.0);
    o.Int("max_window_ticks", kMaxWindowTicks);
    o.Int("query_limit", kLimit);
    return o;
  }

 private:
  // One recent-window query for a Zipf-chosen device, checked row by row.
  // With `due` set, records its latency from the due time.
  void QueryOnce(size_t reader, lt::Random* rnd, Window* p,
                 const SteadyClock::time_point* due) {
    const uint64_t d = perm_[zipf_.Sample(rnd->NextDouble())];
    const uint64_t acked = static_cast<uint64_t>(acked_tick_.load());
    // Recent times favoured: the window ends a geometric number of ticks
    // (mean ~2) before the newest fully acked tick.
    uint64_t back = 0;
    while (back < acked && rnd->Bernoulli(0.6)) back++;
    const uint64_t hi = acked - back;
    const uint64_t len = 1 + rnd->Uniform(kMaxWindowTicks);
    const uint64_t lo = hi + 1 >= len ? hi + 1 - len : 0;
    lt::QueryBounds b = lt::QueryBounds::ForPrefix(
        {lt::Value::Int64(Generator::NetworkOf(d)),
         lt::Value::Int64(Generator::DeviceId(d))});
    b.min_ts = gen_.TickStart(lo);
    b.max_ts = gen_.TickStart(hi + 1) - 1;
    b.limit = kLimit;
    lt::QueryResult res;
    Status s = clients_[reader]->Query(kTable, b, &res);
    const auto t1 = SteadyClock::now();
    p->attempted++;
    p->queries++;
    if (!s.ok()) {
      p->failed++;
      if (due) p->query_us.push_back(ceiling_us_);
      return;
    }
    if (due) {
      p->query_us.push_back(Micros(*due, t1));
      p->done.push_back({Seconds(window_start_, *due),
                         Seconds(window_start_, t1), res.rows.size()});
    }
    p->rows_returned += res.rows.size();
    if (res.rows.size() != hi - lo + 1 || res.more_available) {
      NoteMismatch(p, "dashboard: device " + std::to_string(d) + " ticks " +
                          std::to_string(lo) + ".." + std::to_string(hi) +
                          " returned " + std::to_string(res.rows.size()) +
                          " rows");
      return;
    }
    for (size_t i = 0; i < res.rows.size(); i++) {
      uint64_t rd, rk;
      CellOf(gen_, res.rows[i], &rd, &rk);
      if (rd != d || rk != lo + i ||
          RowHash(res.rows[i], HashMask::All()) != grid_.hash(d, rk)) {
        NoteMismatch(p, "dashboard: wrong row " + std::to_string(i) +
                            " for device " + std::to_string(d));
        return;
      }
    }
  }

  // The trickle writer: batches at a fixed rate, tick after tick; a tick
  // becomes visible to the readers' model once all its batches are acked.
  void Trickle(Instance* inst, double seconds, SteadyClock::time_point start,
               SteadyClock::time_point end, Window* p) {
    const lt::Schema schema = UsageSchema();
    for (uint64_t i = 0;; i++) {
      const auto due = After(start, i / kWriterRate);
      if (due >= end) break;
      const uint64_t j = trickle_sent_;
      const uint64_t tick = kPreloadTicks + j / kGroups, g = j % kGroups;
      if (tick >= kMaxTicks) break;
      p->scheduled++;
      std::this_thread::sleep_until(due);
      std::vector<lt::Row> rows = MakeBatch(gen_, g * kBatchRows, tick);
      grid_.Fill(g * kBatchRows, tick, rows, HashMask::All());
      inst->AdvanceClockTo(gen_.TickStart(tick + 1));
      const auto t0 = SteadyClock::now();
      if (t0 >= end) p->backlog++;
      p->late_us.push_back(Micros(due, t0));
      Status s = clients_[kReaders]->Insert(kTable, rows);
      const auto t1 = SteadyClock::now();
      p->attempted++;
      p->batches++;
      trickle_sent_++;
      if (!s.ok()) {
        // The batch's outcome is unknown; stop extending the model.
        p->failed++;
        p->insert_us.push_back(seconds * 1e6);
        break;
      }
      p->insert_us.push_back(Micros(t0, t1));
      p->rows_inserted += rows.size();
      p->done.push_back({Seconds(start, t0), Seconds(start, t1), rows.size()});
      for (const lt::Row& r : rows) {
        trickle_bytes_ += EncodedRowBytes(schema, r);
      }
      trickle_acked_++;
      if (g == kGroups - 1) acked_tick_.store(static_cast<int64_t>(tick));
    }
  }

  uint64_t seed_;
  Generator gen_;
  Grid grid_;
  Zipf zipf_;
  std::vector<uint64_t> perm_;  // Zipf rank -> device.
  std::atomic<int64_t> acked_tick_{-1};
  uint64_t preload_bytes_ = 0;
  uint64_t trickle_bytes_ = 0;
  uint64_t trickle_sent_ = 0;   // Trickle batches sent.
  uint64_t trickle_acked_ = 0;  // Contiguous acked prefix of them.
  uint64_t windows_ = 0;
  double ceiling_us_ = 0;  // Latency recorded for a failed query.
  SteadyClock::time_point window_start_;
};

// ---------------------------------------------------------------------------
// scan: closed-loop paged full and wide-window scans of a table that would
// cost the block cache 3.5x its capacity (2.5x in user row bytes).

class Scan final : public Workload {
 public:
  static constexpr uint64_t kDevices = 4096;
  static constexpr uint64_t kGroups = kDevices / kBatchRows;
  static constexpr uint64_t kTicks = 320;
  static constexpr size_t kScanners = 3;
  static constexpr uint64_t kWindowTicks = kTicks * 3 / 8;

  explicit Scan(uint64_t seed)
      : seed_(seed), gen_(seed, 60 * lt::kMicrosPerSecond),
        grid_(kDevices, kTicks) {}

  Status Setup(Instance* inst) override {
    LT_RETURN_IF_ERROR(CreateTable(inst, &clients_, kScanners));
    LT_RETURN_IF_ERROR(Preload(inst, gen_, kTicks, clients_[0].get(),
                               HashMask::KeysPlus(Projection()), &grid_,
                               &user_bytes_));
    // Finish lazy set-up (tablet footers) with one untimed page each.
    for (size_t c = 0; c < kScanners; c++) {
      lt::QueryBounds b;
      lt::QueryResult res;
      LT_RETURN_IF_ERROR(clients_[c]->QueryPage(kTable, &b, &res));
    }
    return Status::OK();
  }

  void Run(Instance* inst, double seconds, Window* out) override {
    (void)inst;
    const auto start = SteadyClock::now();
    const auto end = After(start, seconds);
    std::vector<Window> part(kScanners);
    std::vector<SteadyClock::time_point> last(kScanners, start);
    std::vector<uint64_t> scans(kScanners, 0);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kScanners; c++) {
      threads.emplace_back([&, c] {
        lt::Random rnd(seed_ * 15485863 + windows_ * 31 + c);
        while (SteadyClock::now() < end) {
          ScanOnce(c, scans[c]++, &rnd, seconds, start, end, &part[c],
                   &last[c]);
        }
      });
    }
    for (auto& t : threads) t.join();
    for (size_t c = 0; c < kScanners; c++) {
      out->Absorb(part[c]);
      out->elapsed_s = std::max(out->elapsed_s, Seconds(start, last[c]));
    }
    windows_++;
  }

  Expectation Expected() const override {
    Expectation e;
    e.user_bytes = user_bytes_;
    for (uint64_t d = 0; d < kDevices; d++) {
      for (uint64_t k = 0; k < kTicks; k++) {
        e.rows++;
        e.hash_sum += grid_.hash(d, k);
      }
    }
    return e;
  }

  std::vector<lt::Row> ReplayRows(size_t max) const override {
    std::vector<lt::Row> rows;
    for (uint64_t k = 0; k < kTicks && rows.size() < max; k++) {
      for (uint64_t d = 0; d < kDevices && rows.size() < max; d++) {
        rows.push_back(gen_.MakeRow(d, k));
      }
    }
    return rows;
  }

  const std::vector<double>& HeadlineLatency(const Window& w) const override {
    return w.page_us;
  }
  uint64_t HeadlineRows(const Window& w) const override {
    return w.rows_returned;
  }

  JsonObject Shape() const override {
    JsonObject o;
    o.String("loop", "closed");
    o.Int("scan_connections", kScanners);
    o.Int("devices", kDevices);
    o.Int("preload_rows", kDevices * kTicks);
    o.Int("sim_seconds_per_tick", gen_.tick_micros() / lt::kMicrosPerSecond);
    o.String("scan_mix",
             "each connection cycles: full, full projected, 3/8 window, "
             "projected 3/8 window");
    o.String("projection", "sent_bytes, rate (+ key columns)");
    o.String("direction", "ascending on even connections, descending on odd");
    o.String("writes", "none");
    return o;
  }

 private:
  static std::vector<uint32_t> Projection() { return {kSentBytes, kRate}; }

  // One scan, paged under the server's row cap; every row is checked
  // against the next cell the model expects, in key order. Each connection
  // cycles through the four scan kinds, so every run has the same mix; the
  // seed places the windows. Odd connections scan in descending key order,
  // as a newest-first report does, so concurrent scans do not walk the
  // table in lockstep and share each other's cached blocks.
  void ScanOnce(size_t c, uint64_t n, lt::Random* rnd, double seconds,
                SteadyClock::time_point start, SteadyClock::time_point end,
                Window* p, SteadyClock::time_point* last) {
    const uint64_t kind = (c + n) % 4;
    const bool projected = kind % 2 == 1;
    uint64_t lo = 0, hi = kTicks - 1;
    if (kind >= 2) {
      lo = rnd->Uniform(kTicks - kWindowTicks + 1);
      hi = lo + kWindowTicks - 1;
    }
    const bool descending = c % 2 == 1;
    lt::QueryBounds b;
    b.min_ts = gen_.TickStart(lo);
    b.max_ts = gen_.TickStart(hi + 1) - 1;
    if (descending) b.direction = lt::Direction::kDescending;
    if (projected) b.projection = Projection();
    const HashMask mask =
        projected ? HashMask::KeysPlus(Projection()) : HashMask::All();
    const uint64_t width = hi - lo + 1;
    uint64_t seen = 0;  // Rows checked so far, in scan order.
    bool more = true;
    while (more && SteadyClock::now() < end) {
      lt::QueryResult res;
      const auto t0 = SteadyClock::now();
      Status s = clients_[c]->QueryPage(kTable, &b, &res);
      const auto t1 = SteadyClock::now();
      *last = t1;
      p->attempted++;
      p->pages++;
      if (!s.ok()) {
        p->failed++;
        p->page_us.push_back(seconds * 1e6);
        return;
      }
      p->page_us.push_back(Micros(t0, t1));
      p->rows_returned += res.rows.size();
      p->done.push_back(
          {Seconds(start, t0), Seconds(start, t1), res.rows.size()});
      for (const lt::Row& row : res.rows) {
        // The cell the model expects next: device-major, ticks lo..hi.
        uint64_t want_d = seen / width, want_k = lo + seen % width;
        if (descending) {
          want_d = kDevices - 1 - want_d;
          want_k = hi - (want_k - lo);
        }
        uint64_t d, k;
        CellOf(gen_, row, &d, &k);
        if (seen >= kDevices * width || d != want_d || k != want_k ||
            RowHash(row, mask) != (projected ? grid_.proj_hash(d, k)
                                             : grid_.hash(d, k))) {
          NoteMismatch(p, "scan: row out of place or wrong at device " +
                              std::to_string(d) + " tick " + std::to_string(k));
          return;
        }
        seen++;
      }
      more = res.more_available;
    }
    if (!more) {
      if (seen != kDevices * width) {
        NoteMismatch(p, "scan: ended after " + std::to_string(seen) +
                            " of " + std::to_string(kDevices * width) +
                            " rows");
      }
      p->scans_completed++;
    }
  }

  uint64_t seed_;
  Generator gen_;
  Grid grid_;
  uint64_t user_bytes_ = 0;
  uint64_t windows_ = 0;
};

}  // namespace

void Window::Absorb(const Window& o) {
  auto append = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  append(&insert_us, o.insert_us);
  append(&query_us, o.query_us);
  append(&page_us, o.page_us);
  append(&late_us, o.late_us);
  done.insert(done.end(), o.done.begin(), o.done.end());
  rows_inserted += o.rows_inserted;
  rows_returned += o.rows_returned;
  batches += o.batches;
  queries += o.queries;
  pages += o.pages;
  scans_completed += o.scans_completed;
  attempted += o.attempted;
  failed += o.failed;
  scheduled += o.scheduled;
  backlog += o.backlog;
  if (mismatch.empty()) mismatch = o.mismatch;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "ingest") return std::make_unique<Ingest>(seed);
  if (name == "dashboard") return std::make_unique<Dashboard>(seed);
  if (name == "scan") return std::make_unique<Scan>(seed);
  return nullptr;
}

std::string WorkloadWhy(const std::string& name) {
  if (name == "ingest") {
    return "grabber path: wire decode, group commit, MemTablet insert, "
           "flush/merge (block build, compress, CRC, write); no reads";
  }
  if (name == "dashboard") {
    return "interactive path: tablet pruning, block-cache hits, merge-cursor "
           "fan-in over MemTablets and fresh tablets, small responses";
  }
  if (name == "scan") {
    return "reporting path: cache-missing block fetch, CRC, lzmini "
           "decompress, column decode, chunk encode, stream parking; no writes";
  }
  return "";
}

}  // namespace perfbench
