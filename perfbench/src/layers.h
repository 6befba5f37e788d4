// Per-layer replay: after a traced run, the run's own rows are fed back
// through each engine layer's public functions — row codec, MemTablet,
// BlockBuilder / block parse / column decode, lzmini, CRC32C, tablet
// writer and reader, merge cursor, block cache — and each is timed from
// outside. These figures say what one unit of each layer's work costs on
// this data; the traced run's counters say how many units a workload did.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/schema.h"

namespace perfbench {

struct ReplayResult {
  // Metric name -> value, in the per-layer metric names.
  std::map<std::string, double> metrics;
  // Decompressed bytes per stored byte of the replayed blocks, used to turn
  // the Env's tablet read bytes into lzmini decompress bytes.
  double raw_per_stored = 1;
  // Block-cache charge per row of the replayed blocks (what a cached block
  // costs the cache: stored image plus its decoded-column bound).
  double cache_charge_per_row = 0;
  // False if a replayed row failed to decode.
  bool ok = true;
};

/// Replays `rows` (in arrival order) through each layer. `fan_in` is the
/// merge cursor fan-in to measure at (the run's mean tablets per query).
ReplayResult ReplayLayers(const lt::Schema& schema,
                          const std::vector<lt::Row>& rows, size_t fan_in);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
