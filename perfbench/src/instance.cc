#include "instance.h"

#include <cstdlib>

#include "workload.h"

namespace perfbench {
namespace {

constexpr const char* kRoot = "/db";

// Value of the bare numeric field ` key=123` in a log line, 0 if absent.
uint64_t Field(const std::string& line, const char* key) {
  std::string pat = std::string(" ") + key + "=";
  size_t p = line.find(pat);
  if (p == std::string::npos) return 0;
  return std::strtoull(line.c_str() + p + pat.size(), nullptr, 10);
}

}  // namespace

void QueryTraceSink::Write(const std::string& line) {
  if (!enabled_.load() || line.find(" event=slow_query") == std::string::npos) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  totals_.queries++;
  totals_.rows_scanned += Field(line, "rows_scanned");
  totals_.rows_returned += Field(line, "rows_returned");
  totals_.tablets_considered += Field(line, "tablets_considered");
  totals_.tablets_pruned += Field(line, "tablets_pruned");
  totals_.blocks_read += Field(line, "blocks_read");
  totals_.cache_hits += Field(line, "cache_hits");
}

QueryTraceSink::Totals QueryTraceSink::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

Instance::~Instance() { Shutdown(); }

lt::Env* Instance::DbEnv() const {
  return tenv_ ? static_cast<lt::Env*>(tenv_.get()) : sim_.get();
}

lt::Status Instance::Start() {
  mem_ = std::make_unique<lt::MemEnv>();
  sim_ = std::make_unique<lt::SimDiskEnv>(mem_.get(), lt::SimDiskOptions());
  clock_ = std::make_shared<lt::SimClock>(kEpoch);
  lt::DbOptions dbo;
  lt::ServerOptions so;
  if (traced_) {
    tenv_ = std::make_unique<TimingEnv>(sim_.get());
    traces_ = std::make_shared<QueryTraceSink>();
    dbo.logger = std::make_shared<lt::Logger>(lt::LogLevel::kInfo, traces_);
    dbo.slow_query_micros = 1;
    server_net_ = std::make_unique<TimingTransport>(lt::net::Transport::Tcp());
    client_net_ = std::make_unique<TimingTransport>(lt::net::Transport::Tcp());
    so.transport = server_net_.get();
  }
  LT_RETURN_IF_ERROR(lt::DB::Open(DbEnv(), clock_, kRoot, dbo, &db_));
  server_ = std::make_unique<lt::LittleTableServer>(db_.get(), so);
  return server_->Start();
}

lt::Status Instance::Connect(std::unique_ptr<lt::Client>* out) {
  lt::ClientOptions co;
  co.transport = client_net_.get();  // Null (real TCP) when untraced.
  return lt::Client::Connect("127.0.0.1", server_->port(), co, out);
}

void Instance::AdvanceClockTo(lt::Timestamp ts) {
  std::lock_guard<std::mutex> lock(clock_mu_);
  if (ts > clock_->Now()) clock_->Set(ts);
}

void Instance::SetTracing(bool on) {
  if (!traced_) return;
  tenv_->set_enabled(on);
  server_net_->set_enabled(on);
  client_net_->set_enabled(on);
  traces_->set_enabled(on);
}

lt::Status Instance::Shutdown() {
  if (server_) {
    server_->Stop();
    server_.reset();
  }
  lt::Status s;
  if (db_) {
    s = db_->Close();
    db_.reset();
  }
  return s;
}

lt::Status Instance::Reopen(std::unique_ptr<lt::DB>* out) {
  lt::DbOptions dbo;
  dbo.background_maintenance = false;
  return lt::DB::Open(DbEnv(), clock_, kRoot, dbo, out);
}

}  // namespace perfbench
