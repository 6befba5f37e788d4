#include "timing_env.h"

#include <chrono>

namespace perfbench {
namespace {

using lt::Slice;
using lt::Status;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void CountRead(TimingEnv* env, uint64_t start, size_t bytes) {
  auto& c = env->counters();
  c.read_calls.fetch_add(1, std::memory_order_relaxed);
  c.read_bytes.fetch_add(bytes, std::memory_order_relaxed);
  c.read_ns.fetch_add(NowNs() - start, std::memory_order_relaxed);
}

class TimingSequentialFile final : public lt::SequentialFile {
 public:
  TimingSequentialFile(std::unique_ptr<lt::SequentialFile> inner,
                       TimingEnv* env)
      : inner_(std::move(inner)), env_(env) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    if (!env_->enabled()) return inner_->Read(n, result, scratch);
    uint64_t t = NowNs();
    Status s = inner_->Read(n, result, scratch);
    CountRead(env_, t, s.ok() ? result->size() : 0);
    return s;
  }
  Status Skip(uint64_t n) override { return inner_->Skip(n); }

 private:
  std::unique_ptr<lt::SequentialFile> inner_;
  TimingEnv* const env_;
};

class TimingRandomAccessFile final : public lt::RandomAccessFile {
 public:
  TimingRandomAccessFile(std::unique_ptr<lt::RandomAccessFile> inner,
                         TimingEnv* env)
      : inner_(std::move(inner)), env_(env) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    if (!env_->enabled()) return inner_->Read(offset, n, result, scratch);
    uint64_t t = NowNs();
    Status s = inner_->Read(offset, n, result, scratch);
    CountRead(env_, t, s.ok() ? result->size() : 0);
    return s;
  }
  Status Size(uint64_t* size) const override { return inner_->Size(size); }

 private:
  std::unique_ptr<lt::RandomAccessFile> inner_;
  TimingEnv* const env_;
};

class TimingWritableFile final : public lt::WritableFile {
 public:
  TimingWritableFile(std::unique_ptr<lt::WritableFile> inner, TimingEnv* env)
      : inner_(std::move(inner)), env_(env) {}

  Status Append(const Slice& data) override {
    if (!env_->enabled()) return inner_->Append(data);
    uint64_t t = NowNs();
    Status s = inner_->Append(data);
    auto& c = env_->counters();
    c.append_calls.fetch_add(1, std::memory_order_relaxed);
    c.append_bytes.fetch_add(s.ok() ? data.size() : 0,
                             std::memory_order_relaxed);
    c.append_ns.fetch_add(NowNs() - t, std::memory_order_relaxed);
    return s;
  }
  Status Sync() override { return inner_->Sync(); }
  Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<lt::WritableFile> inner_;
  TimingEnv* const env_;
};

}  // namespace

EnvTotals EnvTotals::operator-(const EnvTotals& o) const {
  EnvTotals d;
  d.read_calls = read_calls - o.read_calls;
  d.read_bytes = read_bytes - o.read_bytes;
  d.read_ns = read_ns - o.read_ns;
  d.append_calls = append_calls - o.append_calls;
  d.append_bytes = append_bytes - o.append_bytes;
  d.append_ns = append_ns - o.append_ns;
  return d;
}

Status TimingEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<lt::SequentialFile>* result) {
  std::unique_ptr<lt::SequentialFile> raw;
  LT_RETURN_IF_ERROR(base_->NewSequentialFile(fname, &raw));
  *result = std::make_unique<TimingSequentialFile>(std::move(raw), this);
  return Status::OK();
}

Status TimingEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<lt::RandomAccessFile>* result) {
  std::unique_ptr<lt::RandomAccessFile> raw;
  LT_RETURN_IF_ERROR(base_->NewRandomAccessFile(fname, &raw));
  *result = std::make_unique<TimingRandomAccessFile>(std::move(raw), this);
  return Status::OK();
}

Status TimingEnv::NewWritableFile(const std::string& fname,
                                  std::unique_ptr<lt::WritableFile>* result) {
  std::unique_ptr<lt::WritableFile> raw;
  LT_RETURN_IF_ERROR(base_->NewWritableFile(fname, &raw));
  *result = std::make_unique<TimingWritableFile>(std::move(raw), this);
  return Status::OK();
}

EnvTotals TimingEnv::Totals() const {
  auto v = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  EnvTotals t;
  t.read_calls = v(counters_.read_calls);
  t.read_bytes = v(counters_.read_bytes);
  t.read_ns = v(counters_.read_ns);
  t.append_calls = v(counters_.append_calls);
  t.append_bytes = v(counters_.append_bytes);
  t.append_ns = v(counters_.append_ns);
  return t;
}

}  // namespace perfbench
