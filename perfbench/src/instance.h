// One benchmark instance: a DB on SimDiskEnv over MemEnv, driven by a
// SimClock, served by a LittleTableServer on loopback TCP. In a traced run
// the Env and both ends of the Transport are wrapped in timing decorators
// and every query's QueryTrace is captured through a LogSink.
#ifndef PERFBENCH_INSTANCE_H_
#define PERFBENCH_INSTANCE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/db.h"
#include "env/mem_env.h"
#include "env/sim_disk_env.h"
#include "net/client.h"
#include "net/server.h"
#include "timing_env.h"
#include "timing_transport.h"
#include "util/clock.h"
#include "util/logger.h"

namespace perfbench {

inline constexpr const char* kTable = "usage";

/// Sums the `slow_query` lines a table logs when slow_query_micros = 1,
/// i.e. one QueryTrace per server-side query. Counts only while enabled.
class QueryTraceSink final : public lt::LogSink {
 public:
  struct Totals {
    uint64_t queries = 0;
    uint64_t rows_scanned = 0;
    uint64_t rows_returned = 0;
    uint64_t tablets_considered = 0;
    uint64_t tablets_pruned = 0;
    uint64_t blocks_read = 0;
    uint64_t cache_hits = 0;
  };

  void Write(const std::string& line) override;
  void set_enabled(bool on) { enabled_.store(on); }
  Totals totals() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  Totals totals_;
};

class Instance {
 public:
  explicit Instance(bool traced) : traced_(traced) {}
  ~Instance();
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Opens the DB (default DbOptions: 64 MB cache, maintenance on, 16 MB
  /// flushes, 90 s merge delay) and starts the server on an ephemeral port.
  lt::Status Start();

  /// A new client connection to the server.
  lt::Status Connect(std::unique_ptr<lt::Client>* out);

  /// Moves the simulated clock forward to `ts` (never backwards).
  void AdvanceClockTo(lt::Timestamp ts);

  /// Switches every timing decorator and the trace sink on or off.
  void SetTracing(bool on);

  /// Stops the server, then closes the DB (which flushes).
  lt::Status Shutdown();

  /// Opens the DB again on the same simulated disk, without maintenance.
  lt::Status Reopen(std::unique_ptr<lt::DB>* out);

  lt::DB* db() const { return db_.get(); }
  std::shared_ptr<lt::Table> table() const {
    return db_ ? db_->GetTable(kTable) : nullptr;
  }
  lt::LittleTableServer* server() const { return server_.get(); }
  lt::MemEnv* mem() const { return mem_.get(); }
  lt::SimDiskEnv* sim() const { return sim_.get(); }
  TimingEnv* timing_env() const { return tenv_.get(); }
  TimingTransport* server_net() const { return server_net_.get(); }
  TimingTransport* client_net() const { return client_net_.get(); }
  QueryTraceSink* traces() const { return traces_.get(); }

 private:
  lt::Env* DbEnv() const;

  const bool traced_;
  std::unique_ptr<lt::MemEnv> mem_;
  std::unique_ptr<lt::SimDiskEnv> sim_;
  std::unique_ptr<TimingEnv> tenv_;
  std::shared_ptr<lt::SimClock> clock_;
  std::mutex clock_mu_;
  std::shared_ptr<QueryTraceSink> traces_;
  std::unique_ptr<TimingTransport> server_net_;
  std::unique_ptr<TimingTransport> client_net_;
  std::unique_ptr<lt::DB> db_;
  std::unique_ptr<lt::LittleTableServer> server_;
};

}  // namespace perfbench

#endif  // PERFBENCH_INSTANCE_H_
