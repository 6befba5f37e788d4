#include "timing_transport.h"

#include <chrono>

namespace perfbench {
namespace {

using lt::Status;
using lt::net::Connection;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Add(std::atomic<uint64_t>& c, uint64_t v) {
  c.fetch_add(v, std::memory_order_relaxed);
}

class TimingConnection final : public Connection {
 public:
  TimingConnection(std::unique_ptr<Connection> inner, TimingTransport* owner)
      : inner_(std::move(inner)), owner_(owner) {}

  Connection* inner() const { return inner_.get(); }

  void set_read_timeout_ms(int ms) override { inner_->set_read_timeout_ms(ms); }
  void set_write_timeout_ms(int ms) override {
    inner_->set_write_timeout_ms(ms);
  }

  Status WaitReadable(int timeout_ms, bool* ready) override {
    if (!owner_->enabled()) return inner_->WaitReadable(timeout_ms, ready);
    uint64_t t = NowNs();
    Status s = inner_->WaitReadable(timeout_ms, ready);
    auto& c = owner_->counters();
    Add(c.wait_calls, 1);
    Add(c.wait_ns, NowNs() - t);
    return s;
  }

  Status WriteAll(const char* data, size_t n) override {
    if (!owner_->enabled()) return inner_->WriteAll(data, n);
    uint64_t t = NowNs();
    Status s = inner_->WriteAll(data, n);
    CountWrite(t, s.ok() ? n : 0);
    return s;
  }

  Status ReadAll(char* data, size_t n) override {
    if (!owner_->enabled()) return inner_->ReadAll(data, n);
    uint64_t t = NowNs();
    Status s = inner_->ReadAll(data, n);
    CountRead(t, s.ok() ? n : 0);
    return s;
  }

  Status ReadSome(char* data, size_t n, size_t* got) override {
    if (!owner_->enabled()) return inner_->ReadSome(data, n, got);
    uint64_t t = NowNs();
    Status s = inner_->ReadSome(data, n, got);
    CountRead(t, *got);
    return s;
  }

  Status WriteSome(const char* data, size_t n, size_t* written) override {
    if (!owner_->enabled()) return inner_->WriteSome(data, n, written);
    uint64_t t = NowNs();
    Status s = inner_->WriteSome(data, n, written);
    CountWrite(t, *written);
    return s;
  }

  void Shutdown() override { inner_->Shutdown(); }

 private:
  void CountRead(uint64_t start, size_t bytes) {
    auto& c = owner_->counters();
    Add(c.read_calls, 1);
    Add(c.read_bytes, bytes);
    Add(c.read_ns, NowNs() - start);
  }
  void CountWrite(uint64_t start, size_t bytes) {
    auto& c = owner_->counters();
    Add(c.write_calls, 1);
    Add(c.write_bytes, bytes);
    Add(c.write_ns, NowNs() - start);
  }

  std::unique_ptr<Connection> inner_;
  TimingTransport* const owner_;
};

// The inner poller only understands the inner transport's connections, so
// every registration is translated to the wrapped connection.
class TimingPoller final : public lt::net::Poller {
 public:
  explicit TimingPoller(std::unique_ptr<lt::net::Poller> inner)
      : inner_(std::move(inner)) {}

  void Add(Connection* conn, uint64_t tag) override {
    inner_->Add(Unwrap(conn), tag);
  }
  void Remove(Connection* conn) override { inner_->Remove(Unwrap(conn)); }
  Status Wait(int timeout_ms, std::vector<uint64_t>* ready) override {
    return inner_->Wait(timeout_ms, ready);
  }
  void Wakeup() override { inner_->Wakeup(); }
  void SetWritable(Connection* conn, bool want) override {
    inner_->SetWritable(Unwrap(conn), want);
  }

 private:
  static Connection* Unwrap(Connection* conn) {
    return static_cast<TimingConnection*>(conn)->inner();
  }
  std::unique_ptr<lt::net::Poller> inner_;
};

class TimingListener final : public lt::net::Listener {
 public:
  TimingListener(std::unique_ptr<lt::net::Listener> inner,
                 TimingTransport* owner)
      : inner_(std::move(inner)), owner_(owner) {}

  Status Accept(std::unique_ptr<Connection>* conn) override {
    std::unique_ptr<Connection> raw;
    Status s = inner_->Accept(&raw);
    if (s.ok()) {
      *conn = std::make_unique<TimingConnection>(std::move(raw), owner_);
    }
    return s;
  }
  void Close() override { inner_->Close(); }
  uint16_t port() const override { return inner_->port(); }

 private:
  std::unique_ptr<lt::net::Listener> inner_;
  TimingTransport* const owner_;
};

}  // namespace

IoTotals IoTotals::operator-(const IoTotals& o) const {
  IoTotals d;
  d.read_calls = read_calls - o.read_calls;
  d.read_bytes = read_bytes - o.read_bytes;
  d.read_ns = read_ns - o.read_ns;
  d.write_calls = write_calls - o.write_calls;
  d.write_bytes = write_bytes - o.write_bytes;
  d.write_ns = write_ns - o.write_ns;
  d.wait_calls = wait_calls - o.wait_calls;
  d.wait_ns = wait_ns - o.wait_ns;
  return d;
}

Status TimingTransport::Listen(uint16_t port,
                               std::unique_ptr<lt::net::Listener>* listener) {
  std::unique_ptr<lt::net::Listener> raw;
  LT_RETURN_IF_ERROR(inner_->Listen(port, &raw));
  *listener = std::make_unique<TimingListener>(std::move(raw), this);
  return Status::OK();
}

Status TimingTransport::Connect(const std::string& host, uint16_t port,
                                int timeout_ms,
                                std::unique_ptr<Connection>* conn) {
  std::unique_ptr<Connection> raw;
  LT_RETURN_IF_ERROR(inner_->Connect(host, port, timeout_ms, &raw));
  *conn = std::make_unique<TimingConnection>(std::move(raw), this);
  return Status::OK();
}

Status TimingTransport::NewPoller(std::unique_ptr<lt::net::Poller>* poller) {
  std::unique_ptr<lt::net::Poller> raw;
  LT_RETURN_IF_ERROR(inner_->NewPoller(&raw));
  *poller = std::make_unique<TimingPoller>(std::move(raw));
  return Status::OK();
}

IoTotals TimingTransport::Totals() const {
  auto v = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  IoTotals t;
  t.read_calls = v(counters_.read_calls);
  t.read_bytes = v(counters_.read_bytes);
  t.read_ns = v(counters_.read_ns);
  t.write_calls = v(counters_.write_calls);
  t.write_bytes = v(counters_.write_bytes);
  t.write_ns = v(counters_.write_ns);
  t.wait_calls = v(counters_.wait_calls);
  t.wait_ns = v(counters_.wait_ns);
  return t;
}

}  // namespace perfbench
