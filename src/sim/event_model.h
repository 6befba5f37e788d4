// What the chaos harnesses share: the report, the event-log recorder, and
// the events-table oracle.
//
// ChaosReport and ChaosRecorder are common to all three harnesses
// (sim/chaos.h, sim/cluster_chaos.h, sim/overload_chaos.h): one report
// type, one "t=<sim micros> <action>" log format, one first-violation-wins
// rule.
//
// EventModel is the oracle of the paper's §3.1 contract for the two
// durability harnesses. Simulated devices (apps::DeviceFleet) insert
// batches of events keyed (device, id, ts) with ids contiguous from 1; the
// model records every insert RPC and what is known about its outcome —
// acknowledged, unknown (the RPC failed, the batch may or may not have
// applied), or dropped — and checks each row read back against it:
//   - content equals what the deterministic device generated (no phantoms);
//   - a LatestRow probe resolves unknown outcomes and must never trail an
//     acknowledged insert;
//   - a settled per-device snapshot (single-threaded harness, so nothing is
//     in flight) holds every acknowledged batch whole, each unknown batch
//     whole or not at all, no duplicates, and ids exactly 1..k.
// The harness-specific parts — single-node crash/reopen versus replicated
// shard groups, ship rounds and failover — stay in the harnesses and use
// the model's records directly.
#ifndef LITTLETABLE_SIM_EVENT_MODEL_H_
#define LITTLETABLE_SIM_EVENT_MODEL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/device_sim.h"
#include "core/schema.h"
#include "util/clock.h"
#include "util/random.h"

namespace lt {
namespace sim {

/// The outcome of one chaos run, whichever harness produced it.
struct ChaosReport {
  /// False if the oracle detected a contract violation.
  bool ok = true;
  /// Human-readable description of the first violation ("" when ok).
  std::string failure;
  /// One line per simulated action. The single-node and cluster harnesses
  /// promise byte-identical logs for two runs of one seed (lt_sim
  /// --verify-seed and sim_test assert exactly that); the overload harness
  /// seeds its workload but races real worker threads, so its log is a
  /// repro record only.
  std::vector<std::string> event_log;
  /// Counters: ops by kind, faults injected, crashes survived, rows
  /// confirmed durable (deterministic wherever the log is).
  std::map<std::string, uint64_t> counters;
  /// Single-node runs with sample_every_ops > 0: one line per system-table
  /// row that survived to the end of the run ("<table> <metric> ts=<t>
  /// v=<value>"), in key order. A pure function of the seed — two same-seed
  /// runs must produce byte-identical dumps (sim_test pins this), and the
  /// nightly sweep uploads them as its sampled-metrics artifact.
  std::vector<std::string> sys_metrics;
};

/// Fixed simulated epoch (no real time may leak into the simulation).
constexpr Timestamp kChaosEpoch = Timestamp{1700000000} * 1000000;

/// Base of every harness: owns the simulated clock (starting at
/// kChaosEpoch) and writes the report.
class ChaosRecorder {
 public:
  explicit ChaosRecorder(ChaosReport* report)
      : report_(report), clock_(std::make_shared<SimClock>(kChaosEpoch)) {}

  /// Appends "t=<micros since the epoch> <line>" to the event log.
  void Log(const std::string& line);
  void Count(const std::string& key, uint64_t n = 1) {
    report_->counters[key] += n;
  }
  /// Records the first oracle violation; the run stops at the next check
  /// of report_->ok.
  void Violation(const std::string& what);
  const std::shared_ptr<SimClock>& clock() const { return clock_; }

 protected:
  ChaosReport* const report_;
  const std::shared_ptr<SimClock> clock_;
};

/// One insert RPC and what the model knows about its outcome.
struct InsertRecord {
  enum State {
    kCertain,     // Acknowledged (or a later read confirmed it applied).
    kUnresolved,  // The RPC failed (or its acking primary died outside a
                  // ship round); the batch may or may not have applied.
    kDropped,     // Confirmed never-applied (or wholly lost in a crash).
  };
  int64_t device = 0;
  uint32_t group = 0;                  // Shard group (0 on a single node).
  std::vector<apps::SimEvent> events;  // Ascending ids, ascending ts.
  State state = kCertain;
  /// Leading events guaranteed durable; a crash losing any of them is an
  /// oracle violation. A successful FlushThrough covers the prefix at or
  /// before its timestamp, a completed ship round the whole batch, and a
  /// crash the rows read back after it.
  size_t durable = 0;
};

struct DeviceCursor {
  int64_t last_id = 0;  // Highest event id the model believes is inserted.
  /// A failed insert leaves the outcome unknown; the next insert for this
  /// device must first resolve it with a LatestRow probe.
  bool dirty = false;
  uint32_t group = 0;  // Shard group the device's rows route to.
};

class EventModel {
 public:
  static constexpr char kTable[] = "events";
  /// (device, id, ts) -> (kind, detail).
  static Schema EventsSchema();

  /// Devices 1..devices generate events from the DeviceFleet seeded with
  /// `seed`. A settled query missing a wholly durable batch is reported
  /// with `durable_loss` when non-empty, as any missing acknowledged batch
  /// otherwise.
  EventModel(ChaosRecorder* recorder, uint64_t seed, int devices,
             std::string durable_loss = "");

  // ---- Workload steps (Client or cluster::ClusterClient). ----

  /// Inserts the next batch (1..4 events) for a random device, first
  /// resolving a pending unknown outcome with a LatestRow probe (§3.1
  /// grabber recovery).
  template <typename C>
  void DoInsert(C* client, Random* rng);
  /// Queries a random device and checks the rows as a settled snapshot.
  template <typename C>
  void DoQuery(C* client, Random* rng);
  /// Probes a random device's latest row and resolves against it.
  template <typename C>
  void DoLatestRow(C* client, Random* rng);

  // ---- Checks. Each flags a violation and returns false on failure. ----

  /// `rows` is everything a settled query returned for `device`; resolves
  /// the device's unknown-outcome batches by presence.
  bool CheckSettledSnapshot(int64_t device, const std::vector<Row>& rows);
  /// True if `row` matches the model's event with its (device, id).
  bool CheckRowContent(const Row& row);
  /// Resolves `device`'s unknown-outcome inserts against the id the server
  /// reports as its latest.
  bool ResolveFromLatest(int64_t device, int64_t latest);

  /// Finds the model event for (device, id) among non-dropped records.
  const apps::SimEvent* FindEvent(int64_t device, int64_t id) const;
  int64_t MaxCertainId(int64_t device) const;
  /// Rows in acknowledged (or confirmed) batches.
  uint64_t CertainRows() const;

  /// §4.1.2: acknowledged events with ts <= t are durable.
  void MarkDurableThrough(Timestamp t);
  /// A completed ship round: every acknowledged batch of group g is durable.
  void MarkGroupDurable(uint32_t g);

  int devices() const { return static_cast<int>(cursors_.size()); }
  std::vector<InsertRecord>& records() { return records_; }
  std::map<int64_t, DeviceCursor>& cursors() { return cursors_; }

 private:
  ChaosRecorder* const recorder_;
  const std::string durable_loss_;
  apps::DeviceFleet fleet_;
  std::vector<InsertRecord> records_;  // Global insert order.
  std::map<int64_t, DeviceCursor> cursors_;
};

}  // namespace sim
}  // namespace lt

#endif  // LITTLETABLE_SIM_EVENT_MODEL_H_
