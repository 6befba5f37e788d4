// A Transport decorator that times and counts every byte-stream call made
// through it, then forwards the call unchanged to the wrapped transport.
// Installed through ServerOptions::transport / ClientOptions::transport so
// the traced run can split socket time from the rest of a request without
// editing the network layer. Counting is switched on and off with
// set_enabled(); while off, calls pass straight through.
#ifndef PERFBENCH_TIMING_TRANSPORT_H_
#define PERFBENCH_TIMING_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/transport.h"

namespace perfbench {

struct IoTotals {
  uint64_t read_calls = 0;
  uint64_t read_bytes = 0;
  uint64_t read_ns = 0;
  uint64_t write_calls = 0;
  uint64_t write_bytes = 0;
  uint64_t write_ns = 0;
  uint64_t wait_calls = 0;  // WaitReadable (blocking clients only).
  uint64_t wait_ns = 0;

  IoTotals operator-(const IoTotals& o) const;
};

class TimingTransport final : public lt::net::Transport {
 public:
  /// Does not own `inner`.
  explicit TimingTransport(lt::net::Transport* inner) : inner_(inner) {}

  lt::Status Listen(uint16_t port,
                    std::unique_ptr<lt::net::Listener>* listener) override;
  lt::Status Connect(const std::string& host, uint16_t port, int timeout_ms,
                     std::unique_ptr<lt::net::Connection>* conn) override;
  lt::Status NewPoller(std::unique_ptr<lt::net::Poller>* poller) override;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  IoTotals Totals() const;

  // Accumulators, updated by the connections this transport created.
  struct Counters {
    std::atomic<uint64_t> read_calls{0}, read_bytes{0}, read_ns{0};
    std::atomic<uint64_t> write_calls{0}, write_bytes{0}, write_ns{0};
    std::atomic<uint64_t> wait_calls{0}, wait_ns{0};
  };
  Counters& counters() { return counters_; }

 private:
  lt::net::Transport* const inner_;
  std::atomic<bool> enabled_{false};
  Counters counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_TRANSPORT_H_
