#include "layers.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "core/block.h"
#include "core/column_codec.h"
#include "core/cursor.h"
#include "core/memtablet.h"
#include "core/periods.h"
#include "core/row_codec.h"
#include "core/tablet_reader.h"
#include "core/tablet_writer.h"
#include "env/mem_env.h"
#include "util/cache.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/lzmini.h"
#include "util/random.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::atomic<uint32_t> g_sink{0};

// Runs `fn` three times and returns the median wall time in nanoseconds.
template <typename Fn>
double MedianNs(Fn&& fn) {
  double t[3];
  for (double& v : t) {
    auto start = Clock::now();
    fn();
    v = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  }
  std::sort(t, t + 3);
  return t[1];
}

double PerUnit(double ns, size_t units) {
  return units == 0 ? 0 : ns / static_cast<double>(units);
}

// Bytes per second from nanoseconds, as MB/s (10^6 bytes).
double MbPerSec(uint64_t bytes, double ns) {
  return ns <= 0 ? 0 : static_cast<double>(bytes) / ns * 1e9 / 1e6;
}

// Names of the ChunkEncodings, in enum order, as used in metric names.
const std::vector<std::string>& ChunkEncodingNames() {
  static const std::vector<std::string> names = {
      "delta_delta", "zigzag", "xor", "dict", "plain_bytes"};
  return names;
}

}  // namespace

ReplayResult ReplayLayers(const lt::Schema& schema,
                          const std::vector<lt::Row>& rows, size_t fan_in) {
  ReplayResult out;
  auto& m = out.metrics;
  if (rows.empty()) return out;
  const size_t n = rows.size();

  // Row codec.
  std::vector<std::string> encoded(n);
  m["core.row_codec.encode_ns_per_row"] = PerUnit(
      MedianNs([&] {
        for (size_t i = 0; i < n; i++) {
          encoded[i].clear();
          lt::EncodeRow(&encoded[i], schema, rows[i]);
        }
      }),
      n);
  lt::Row decoded;
  bool decode_ok = true;
  m["core.row_codec.decode_ns_per_row"] = PerUnit(
      MedianNs([&] {
        for (size_t i = 0; i < n; i++) {
          lt::Slice in(encoded[i]);
          decode_ok &= lt::DecodeRow(&in, schema, &decoded).ok();
        }
      }),
      n);

  // MemTablet insert, in arrival order, one fresh tablet per repetition.
  auto shared_schema = std::make_shared<const lt::Schema>(schema);
  const lt::Timestamp first_ts = rows.front()[kTs].AsInt();
  const lt::Period period = lt::PeriodFor(first_ts, first_ts);
  {
    std::vector<std::vector<lt::Row>> copies(3, rows);
    size_t rep = 0;
    m["core.memtablet.insert_ns_per_row"] = PerUnit(
        MedianNs([&] {
          lt::MemTablet mt(1, shared_schema, period, first_ts);
          for (lt::Row& r : copies[rep]) mt.Insert(std::move(r));
          rep++;
        }),
        n);
  }

  // Everything below works in key order, as flushes and merges do.
  std::vector<lt::Row> sorted = rows;
  std::sort(sorted.begin(), sorted.end(),
            [&](const lt::Row& a, const lt::Row& b) {
              return schema.CompareKeys(a, b) < 0;
            });

  // Block build: rows cut into ~64 kB blocks by encoded row bytes, as the
  // tablet writer does.
  // Stored block images, as a tablet holds them.
  std::vector<std::string> blocks;
  auto build_all = [&](std::vector<std::string>* sink) {
    lt::BlockBuilder builder(&schema, 2);
    size_t bytes = 0;
    for (size_t i = 0; i < n; i++) {
      builder.Add(sorted[i]);
      bytes += encoded[i].size();
      if (bytes >= 64 * 1024 || i + 1 == n) {
        std::string image = builder.Finish();
        if (sink) sink->push_back(lt::StoreBlockV2(image));
        bytes = 0;
      }
    }
  };
  m["core.block.build_ns_per_row"] = PerUnit(MedianNs([&] {
                                               build_all(nullptr);
                                             }),
                                             n);
  build_all(&blocks);

  // Block parse: CRC check plus chunk directory, per block.
  uint64_t stored_bytes = 0;
  for (const std::string& b : blocks) stored_bytes += b.size();
  m["core.block.parse_ns_per_block"] = PerUnit(
      MedianNs([&] {
        for (const std::string& b : blocks) {
          std::string image;
          lt::LoadBlockV2(b, &image);
          lt::BlockReader reader;
          lt::BlockReader::ParseColumnar(&schema, std::move(image), &reader);
        }
      }),
      blocks.size());

  // Chunk-level work: raw chunks (decompressed where stored compressed),
  // per-encoding decode cost, lzmini both ways, CRC over stored blocks.
  struct RawChunk {
    uint8_t encoding;
    uint32_t count;
    std::string raw;
  };
  std::vector<RawChunk> chunks;
  uint64_t raw_bytes = 0, charge = 0;
  for (const std::string& b : blocks) {
    std::string image;
    if (!lt::LoadBlockV2(b, &image).ok()) continue;
    lt::BlockContents contents;
    if (!lt::BlockContents::ParseColumnar(image, &contents).ok()) continue;
    charge += contents.ApproximateMemoryUsage();
    for (const auto& ref : contents.chunks) {
      lt::Slice stored(contents.payload.data() + ref.offset, ref.stored_len);
      std::string raw;
      if (ref.compression == 1) {
        if (!lt::lzmini::Decompress(stored, &raw).ok()) continue;
      } else {
        raw.assign(stored.data(), stored.size());
      }
      raw_bytes += raw.size();
      chunks.push_back({ref.encoding, contents.columnar_rows, std::move(raw)});
    }
  }
  out.raw_per_stored =
      stored_bytes == 0 ? 1
                        : static_cast<double>(raw_bytes) /
                              static_cast<double>(stored_bytes);

  out.cache_charge_per_row =
      n == 0 ? 0 : static_cast<double>(charge) / static_cast<double>(n);

  const auto& enc_names = ChunkEncodingNames();
  for (size_t e = 0; e < enc_names.size(); e++) {
    const uint8_t enc = static_cast<uint8_t>(e + 1);
    size_t values = 0;
    for (const RawChunk& c : chunks) {
      if (c.encoding == enc) values += c.count;
    }
    double ns = 0;
    if (values > 0) {
      ns = MedianNs([&] {
        for (const RawChunk& c : chunks) {
          if (c.encoding != enc) continue;
          lt::ColumnValues cv;
          lt::DecodeChunk(c.raw, static_cast<lt::ChunkEncoding>(enc), c.count,
                          &cv);
        }
      });
    }
    m["core.column_codec.decode_ns_per_value." + enc_names[e]] =
        PerUnit(ns, values);
  }

  std::vector<std::string> compressed(chunks.size());
  double compress_ns = MedianNs([&] {
    for (size_t i = 0; i < chunks.size(); i++) {
      compressed[i].clear();
      lt::lzmini::Compress(chunks[i].raw, &compressed[i]);
    }
  });
  double decompress_ns = MedianNs([&] {
    for (size_t i = 0; i < chunks.size(); i++) {
      std::string back;
      lt::lzmini::Decompress(compressed[i], &back);
    }
  });
  m["util.lzmini.compress_mb_per_s"] = MbPerSec(raw_bytes, compress_ns);
  m["util.lzmini.decompress_mb_per_s"] = MbPerSec(raw_bytes, decompress_ns);
  uint32_t crc_sink = 0;
  double crc_ns = MedianNs([&] {
    for (const std::string& b : blocks) {
      crc_sink ^= lt::crc32c::Value(b.data(), b.size());
    }
  });
  m["util.crc32c.crc_mb_per_s"] = MbPerSec(stored_bytes, crc_ns);

  // Merge cursor at the run's fan-in: rows dealt round-robin into sorted
  // inputs, then merged back.
  const size_t k = std::max<size_t>(1, fan_in);
  {
    size_t merged = 0;
    std::vector<std::vector<std::unique_ptr<lt::Cursor>>> inputs(3);
    for (auto& in : inputs) {
      std::vector<std::vector<lt::Row>> parts(k);
      for (size_t i = 0; i < n; i++) parts[i % k].push_back(sorted[i]);
      for (auto& p : parts) {
        in.push_back(std::make_unique<lt::VectorCursor>(
            std::move(p), lt::Direction::kAscending));
      }
    }
    size_t rep = 0;
    double ns = MedianNs([&] {
      lt::MergingCursor mc(&schema, std::move(inputs[rep++]),
                           lt::Direction::kAscending);
      merged = 0;
      while (mc.Valid()) {
        merged++;
        if (!mc.Next().ok()) break;
      }
    });
    m["core.cursor.merge_next_ns_per_row"] = PerUnit(ns, merged);
    m["core.cursor.fan_in"] = static_cast<double>(k);
  }

  // Tablet writer and reader over a scratch in-memory Env.
  lt::MemEnv env;
  int file_no = 0;
  std::string fname;
  lt::TabletWriterOptions wopts;
  wopts.format_version = 2;
  m["core.tablet_writer.write_ns_per_row"] = PerUnit(
      MedianNs([&] {
        fname = "/replay/" + std::to_string(file_no++) + ".tab";
        lt::TabletWriter w(&env, fname, &schema, wopts);
        for (const lt::Row& r : sorted) w.Add(r);
        lt::TabletMeta meta;
        w.Finish(&meta);
      }),
      n);
  auto scan_tablet = [&](const std::shared_ptr<lt::Cache>& cache,
                         std::shared_ptr<lt::TabletReader>* reader) {
    if (!*reader) {
      lt::TabletReader::Open(&env, fname, reader, cache);
      (*reader)->Load();
    }
    std::atomic<uint64_t> scanned{0};
    std::unique_ptr<lt::Cursor> cursor;
    lt::QueryBounds all;
    size_t count = 0;
    if ((*reader)->NewCursor(all, &schema, &scanned, &cursor).ok()) {
      while (cursor->Valid()) {
        count++;
        if (!cursor->Next().ok()) break;
      }
    }
    return count;
  };
  m["core.tablet_reader.scan_ns_per_row_cold"] = PerUnit(
      MedianNs([&] {
        std::shared_ptr<lt::TabletReader> reader;
        scan_tablet(std::make_shared<lt::Cache>(64 << 20), &reader);
      }),
      n);
  {
    auto cache = std::make_shared<lt::Cache>(256 << 20);
    std::shared_ptr<lt::TabletReader> reader;
    scan_tablet(cache, &reader);  // Fill the cache.
    m["core.tablet_reader.scan_ns_per_row_warm"] =
        PerUnit(MedianNs([&] { scan_tablet(cache, &reader); }), n);
  }

  // Block cache lookups: keys shaped like the tablet reader's (reader id,
  // block index), one entry per replayed block.
  {
    lt::Cache cache(64 << 20);
    const size_t entries = std::max<size_t>(blocks.size(), 256);
    auto key = [](uint64_t id, uint64_t i) {
      std::string k;
      lt::PutFixed64(&k, id);
      lt::PutFixed64(&k, i);
      return k;
    };
    for (size_t i = 0; i < entries; i++) {
      lt::Cache::Handle* h = cache.Insert(
          key(1, i), nullptr, 64 * 1024, [](const lt::Slice&, void*) {});
      cache.Release(h);
    }
    std::vector<std::string> hit_keys, miss_keys;
    lt::Random rnd(7);
    const size_t probes = 100000;
    for (size_t i = 0; i < probes; i++) {
      hit_keys.push_back(key(1, rnd.Uniform(entries)));
      miss_keys.push_back(key(2, rnd.Uniform(entries)));
    }
    m["util.cache.lookup_hit_ns"] = PerUnit(
        MedianNs([&] {
          for (const std::string& k : hit_keys) {
            lt::Cache::Handle* h = cache.Lookup(k);
            if (h) cache.Release(h);
          }
        }),
        probes);
    m["util.cache.lookup_miss_ns"] = PerUnit(
        MedianNs([&] {
          for (const std::string& k : miss_keys) {
            lt::Cache::Handle* h = cache.Lookup(k);
            if (h) cache.Release(h);
          }
        }),
        probes);
  }

  // Keep the measured loops' results observable.
  g_sink.fetch_xor(crc_sink, std::memory_order_relaxed);
  out.ok = decode_ok;
  return out;
}

}  // namespace perfbench
