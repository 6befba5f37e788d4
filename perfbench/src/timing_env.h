// An Env decorator that times and counts file reads and appends, then
// forwards them unchanged to the wrapped Env (a SimDiskEnv in the
// benchmark). It measures the CPU-side cost of each I/O call; the
// simulated-disk time that SimDiskEnv charges is read from SimDiskEnv
// itself, so the two stay apart. Counting is switched with set_enabled().
#ifndef PERFBENCH_TIMING_ENV_H_
#define PERFBENCH_TIMING_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "env/env.h"

namespace perfbench {

struct EnvTotals {
  uint64_t read_calls = 0;
  uint64_t read_bytes = 0;
  uint64_t read_ns = 0;
  uint64_t append_calls = 0;
  uint64_t append_bytes = 0;
  uint64_t append_ns = 0;

  EnvTotals operator-(const EnvTotals& o) const;
};

class TimingEnv final : public lt::Env {
 public:
  /// Does not own `base`.
  explicit TimingEnv(lt::Env* base) : base_(base) {}

  lt::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<lt::SequentialFile>* result) override;
  lt::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<lt::RandomAccessFile>* result) override;
  lt::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<lt::WritableFile>* result) override;
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  lt::Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  lt::Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  lt::Status RenameFile(const std::string& src,
                        const std::string& dst) override {
    return base_->RenameFile(src, dst);
  }
  lt::Status CreateDirIfMissing(const std::string& dirname) override {
    return base_->CreateDirIfMissing(dirname);
  }
  lt::Status GetChildren(const std::string& dirname,
                         std::vector<std::string>* result) override {
    return base_->GetChildren(dirname, result);
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  EnvTotals Totals() const;

  struct Counters {
    std::atomic<uint64_t> read_calls{0}, read_bytes{0}, read_ns{0};
    std::atomic<uint64_t> append_calls{0}, append_bytes{0}, append_ns{0};
  };
  Counters& counters() { return counters_; }

 private:
  lt::Env* const base_;
  std::atomic<bool> enabled_{false};
  Counters counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_ENV_H_
