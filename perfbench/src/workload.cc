#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/row_codec.h"

namespace perfbench {
namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Config tags a device reports with every sample: 32 distinct strings of
// 60-90 bytes, so the tag column dictionary-encodes the way real ones do.
const std::vector<std::string>& Tags() {
  static const std::vector<std::string> tags = [] {
    static const char* kSsids[] = {"Corp",      "Guest",  "Store-POS",
                                   "Warehouse", "Clinic", "Campus-Lab",
                                   "Lobby",     "IoT-Sensors"};
    static const char* kModels[] = {"MR36", "MR46", "MR56", "MX68"};
    std::vector<std::string> out;
    for (int i = 0; i < 32; i++) {
      std::string t = std::string("ssid=") + kSsids[i % 8] +
                      ";vlan=" + std::to_string(100 + 7 * i) +
                      ";uplink=wan" + std::to_string(1 + i % 2) +
                      ";model=" + kModels[(i / 8) % 4] + ";fw=" +
                      std::to_string(28 + i % 3) + "." +
                      std::to_string(i % 10) + ".1";
      t += ";site=branch-" + std::to_string(10 + i % 23) + ";ap";
      if (i % 3 == 0) t += ";band=5GHz;dfs=on";
      out.push_back(std::move(t));
    }
    return out;
  }();
  return tags;
}

uint64_t HashBytes(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a.
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

lt::Schema UsageSchema() {
  using lt::Column;
  using lt::ColumnType;
  return lt::Schema({Column("network", ColumnType::kInt64),
                     Column("device", ColumnType::kInt64),
                     Column("ts", ColumnType::kTimestamp),
                     Column("prev_ts", ColumnType::kTimestamp),
                     Column("sent_bytes", ColumnType::kInt64),
                     Column("recv_bytes", ColumnType::kInt64),
                     Column("packets", ColumnType::kInt64),
                     Column("rate", ColumnType::kDouble),
                     Column("peak_rate", ColumnType::kDouble),
                     Column("clients", ColumnType::kInt32),
                     Column("tag", ColumnType::kString)},
                    /*num_key_columns=*/3);
}

uint64_t Generator::Mix(uint64_t device, uint64_t tick, uint64_t salt) const {
  return SplitMix(seed_ ^ SplitMix(device * 0x100000001b3ull ^
                                   SplitMix(tick * 31 + salt)));
}

lt::Row Generator::MakeRow(uint64_t device, uint64_t tick) const {
  // Per-device constants: traffic levels, counter origins and tag.
  const lt::Timestamp offset = PollOffset(device);
  const uint64_t sent_rate = 1000 + Mix(device, 0, 2) % 200000;
  const uint64_t recv_rate = 1000 + Mix(device, 0, 3) % 800000;
  const uint64_t origin = Mix(device, 0, 4) % 1000000000;
  const uint64_t pkt_size = 200 + device % 1000;
  // Jitter below half the rate keeps every counter strictly increasing.
  auto sent_at = [&](uint64_t k) {
    return origin + k * sent_rate + Mix(device, k, 5) % (sent_rate / 2);
  };
  auto recv_at = [&](uint64_t k) {
    return origin / 2 + k * recv_rate + Mix(device, k, 6) % (recv_rate / 2);
  };
  const uint64_t sent = sent_at(tick);
  const uint64_t recv = recv_at(tick);
  const uint64_t prev_sent = tick == 0 ? origin : sent_at(tick - 1);
  const double tick_seconds = static_cast<double>(tick_) / 1e6;
  const double rate =
      static_cast<double>(sent - prev_sent) * 8.0 / tick_seconds;
  const double peak =
      rate * (1.0 + static_cast<double>(Mix(device, tick, 7) % 1000) / 1000.0);
  const lt::Timestamp ts = TickStart(tick) + offset;

  lt::Row row;
  row.reserve(kNumColumns);
  row.push_back(lt::Value::Int64(NetworkOf(device)));
  row.push_back(lt::Value::Int64(DeviceId(device)));
  row.push_back(lt::Value::Ts(ts));
  row.push_back(lt::Value::Ts(ts - tick_));
  row.push_back(lt::Value::Int64(static_cast<int64_t>(sent)));
  row.push_back(lt::Value::Int64(static_cast<int64_t>(recv)));
  row.push_back(lt::Value::Int64(static_cast<int64_t>(sent / pkt_size)));
  row.push_back(lt::Value::Double(rate));
  row.push_back(lt::Value::Double(peak));
  row.push_back(
      lt::Value::Int32(static_cast<int32_t>(Mix(device, tick, 8) % 64)));
  row.push_back(lt::Value::String(Tags()[Mix(device, 0, 9) % Tags().size()]));
  return row;
}

HashMask HashMask::All() {
  HashMask m;
  std::fill(std::begin(m.col), std::end(m.col), true);
  return m;
}

HashMask HashMask::KeysPlus(const std::vector<uint32_t>& projection) {
  HashMask m;
  std::fill(std::begin(m.col), std::end(m.col), false);
  m.col[kNetwork] = m.col[kDevice] = m.col[kTs] = true;
  for (uint32_t c : projection) {
    if (c < kNumColumns) m.col[c] = true;
  }
  return m;
}

uint64_t RowHash(const lt::Row& row, const HashMask& mask) {
  uint64_t h = 0x51ed270b27a1c3d5ull;
  for (size_t c = 0; c < row.size() && c < kNumColumns; c++) {
    if (!mask.col[c]) continue;
    const lt::Value& v = row[c];
    uint64_t x;
    if (v.is_bytes()) {
      x = HashBytes(v.bytes());
    } else if (v.is_double()) {
      double d = v.dbl();
      std::memcpy(&x, &d, sizeof(x));
    } else {
      x = static_cast<uint64_t>(v.AsInt());
    }
    h = SplitMix(h ^ (x + c * 0x9e3779b97f4a7c15ull));
  }
  return h;
}

size_t EncodedRowBytes(const lt::Schema& schema, const lt::Row& row) {
  std::string buf;
  lt::EncodeRow(&buf, schema, row);
  return buf.size();
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; i++) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(double u) const {
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

}  // namespace perfbench
