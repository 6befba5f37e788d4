// The benchmark's data model: a usage table shaped like the usage grabber's
// (key network, device, ts; monotonic counters; rates; a short config tag),
// and a generator whose every row is a pure function of (seed, device,
// tick). Because rows can be regenerated, the benchmark checks query and
// scan results — and the final read-back — against content hashes without
// keeping the rows it sent.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/schema.h"
#include "util/clock.h"

namespace perfbench {

// Column positions in UsageSchema().
enum UsageColumn : uint32_t {
  kNetwork = 0,
  kDevice = 1,
  kTs = 2,
  kPrevTs = 3,
  kSentBytes = 4,
  kRecvBytes = 5,
  kPackets = 6,
  kRate = 7,
  kPeakRate = 8,
  kClients = 9,
  kTag = 10,
  kNumColumns = 11,
};

lt::Schema UsageSchema();

/// Devices per network: device d belongs to network kFirstNetwork + d / 64.
constexpr uint64_t kDevicesPerNetwork = 64;
constexpr int64_t kFirstNetwork = 1000;
/// 2026-01-01T00:00:00Z in microseconds: the first tick's time.
constexpr lt::Timestamp kEpoch = 1767225600000000;
/// Poll slots per tick; devices beyond wrap around (none of the workloads
/// has that many).
constexpr uint64_t kPollSlots = 8192;

class Generator {
 public:
  Generator(uint64_t seed, lt::Timestamp tick_micros)
      : seed_(seed), tick_(tick_micros) {}

  /// The sample device `device` reports at `tick`. Every device reports
  /// once per tick, at a per-device offset inside the tick.
  lt::Row MakeRow(uint64_t device, uint64_t tick) const;

  /// When `device` is polled within a tick: devices are polled in order
  /// across the first half of the tick, so within a tick ts grows with the
  /// device index, as a grabber walking its device list produces.
  lt::Timestamp PollOffset(uint64_t device) const {
    return static_cast<lt::Timestamp>(device % kPollSlots) * (tick_ / 2) /
           static_cast<lt::Timestamp>(kPollSlots);
  }

  /// Start of `tick`; every row of that tick has ts in [start, start+tick).
  lt::Timestamp TickStart(uint64_t tick) const {
    return kEpoch + static_cast<lt::Timestamp>(tick) * tick_;
  }
  lt::Timestamp tick_micros() const { return tick_; }

  static int64_t NetworkOf(uint64_t device) {
    return kFirstNetwork + static_cast<int64_t>(device / kDevicesPerNetwork);
  }
  static int64_t DeviceId(uint64_t device) {
    return static_cast<int64_t>(device) + 1;
  }

 private:
  uint64_t Mix(uint64_t device, uint64_t tick, uint64_t salt) const;

  uint64_t seed_;
  lt::Timestamp tick_;
};

/// Columns a checksum covers. Key columns are always covered; a projected
/// scan only promises its projected columns, so it hashes just those.
struct HashMask {
  bool col[kNumColumns];
  static HashMask All();
  static HashMask KeysPlus(const std::vector<uint32_t>& projection);
};

/// Content hash of one row. Results are compared as sums of row hashes
/// (order-independent); key order is checked separately.
uint64_t RowHash(const lt::Row& row, const HashMask& mask);

/// Encoded size of a row (the engine and wire row encoding): the "user row
/// bytes" that space and write amplification are measured against.
size_t EncodedRowBytes(const lt::Schema& schema, const lt::Row& row);

/// Zipf(s) sampler over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(double u) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
