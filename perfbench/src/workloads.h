// The three workloads: ingest (the grabber path), dashboard (interactive
// reads beside a trickle of writes) and scan (reporting reads). Each sets
// up its own instance state, runs timed windows against the server over
// loopback TCP, checks every response against the generator's model, and
// can say which rows a read-back of the table must find.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "instance.h"
#include "workload.h"

namespace perfbench {

/// What one timed window did. Latencies are in microseconds; a failed or
/// refused operation is recorded at the window length, so it misses any
/// latency limit.
struct Window {
  double elapsed_s = 0;
  std::vector<double> insert_us;  // Send to ack, per batch.
  std::vector<double> query_us;   // Due time to response, per query.
  std::vector<double> page_us;    // Send to last chunk, per scan page.
  std::vector<double> late_us;    // Open-loop generator lateness.
  // One completed operation that moved rows: when it was sent and when it
  // completed (seconds since the window started), and its rows. The input
  // to the per-second throughput slices.
  struct Done {
    double sent_s;
    double done_s;
    uint64_t rows;
  };
  std::vector<Done> done;
  uint64_t rows_inserted = 0;     // Acked.
  uint64_t rows_returned = 0;     // Delivered to clients by reads.
  uint64_t batches = 0;
  uint64_t queries = 0;
  uint64_t pages = 0;
  uint64_t scans_completed = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t scheduled = 0;  // Open-loop operations due inside the window.
  uint64_t backlog = 0;    // Of those, still unsent when the window ended.
  std::string mismatch;    // First wrong result, if any.

  /// Appends `o` (a per-thread window) into this one.
  void Absorb(const Window& o);
  /// Requests the clients made: batches + queries + scan pages.
  uint64_t ops() const { return batches + queries + pages; }
};

/// Totals the read-back of the whole table must reproduce.
struct Expectation {
  uint64_t rows = 0;
  uint64_t hash_sum = 0;    // Sum of RowHash(row, All) over rows.
  uint64_t user_bytes = 0;  // Sum of EncodedRowBytes.
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Creates the table, connects the clients, preloads and warms up. Runs
  /// against a freshly started instance.
  virtual lt::Status Setup(Instance* inst) = 0;
  /// One timed window of `seconds`.
  virtual void Run(Instance* inst, double seconds, Window* out) = 0;
  /// Every acked row, as totals.
  virtual Expectation Expected() const = 0;
  /// Up to `max` of the rows this workload sent, in arrival order (the
  /// timed window's rows where there were any, else the preload's).
  virtual std::vector<lt::Row> ReplayRows(size_t max) const = 0;
  /// The operation whose latency is the headline, by Window member.
  virtual const std::vector<double>& HeadlineLatency(const Window& w) const = 0;
  /// Rows the headline throughput counts.
  virtual uint64_t HeadlineRows(const Window& w) const = 0;
  /// Workload shape recorded beside the results.
  virtual JsonObject Shape() const = 0;

  /// Transport reconnects across all clients (beyond each first connect).
  uint64_t Reconnects() const {
    uint64_t n = 0;
    for (const auto& c : clients_) n += c->connect_count() - 1;
    return n;
  }
  void CloseClients() { clients_.clear(); }

 protected:
  std::vector<std::unique_ptr<lt::Client>> clients_;
};

/// "ingest", "dashboard" or "scan"; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// One-line rationale per workload, for the run record.
std::string WorkloadWhy(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
