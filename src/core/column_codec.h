// Per-column chunk encodings for tablet block format v2 (§3.2, §3.5).
//
// A v2 block stores each column of its rows as one independently compressed
// chunk, encoded with a type-specialized scheme chosen per block:
//
//   kDeltaDelta  ints/timestamps: zigzag-varint delta-of-delta. Regularly
//                sampled time series ("one row per device per 20 s") have
//                near-constant deltas, so the stream is almost all
//                one-byte zeros — the cantera-table varbyte-delta idiom.
//   kZigZag      ints: plain zigzag varints, for columns whose deltas do
//                not help (random counters, hashes).
//   kXor         doubles: Gorilla-style XOR with the previous value,
//                byte-aligned — first value as fixed64 bits, then each
//                value as varint64(bits ^ prev_bits). Identical or
//                slowly-moving gauges share sign/exponent/high-mantissa
//                bits, so the varint drops the zeroed high bytes.
//   kDict        strings/blobs: sorted dictionary with front-coded entries
//                (shared-prefix length + suffix) followed by one varint
//                index per row. Hierarchical identifiers ("sw3.sjc.example
//                .com") share long prefixes and repeat across rows.
//   kPlainBytes  strings/blobs: length-prefixed values back-to-back — the
//                fallback when a dictionary would not pay (all-distinct
//                payload blobs).
//
// Encoders always succeed; the writer picks the cheapest scheme by exact
// cost accounting (see ChooseIntEncoding / ChooseBytesEncoding).
// Decoders are defensive: any truncated, trailing, or out-of-range input
// returns Status::Corruption without reading or writing out of bounds —
// the byte-flip corruption matrix and the bounds-fuzz test in
// column_codec_test.cc exercise exactly this contract.
#ifndef LITTLETABLE_CORE_COLUMN_CODEC_H_
#define LITTLETABLE_CORE_COLUMN_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace lt {

enum class ChunkEncoding : uint8_t {
  kDeltaDelta = 1,
  kZigZag = 2,
  kXor = 3,
  kDict = 4,
  kPlainBytes = 5,
};

/// True for byte values that name a known encoding (directory validation).
bool IsValidChunkEncoding(uint8_t b);

/// Decoded values of one column chunk. Schema-free: the chunk's encoding
/// determines the arm (ints for kDeltaDelta/kZigZag, doubles for kXor,
/// bytes for kDict/kPlainBytes); the schema's declared column type maps the
/// arm to typed cells at row materialization.
///
/// A bytes arm keeps every cell in one contiguous buffer: cell i is
/// spans[i] into `bytes`. A decoded dictionary is expanded into the buffer
/// once and each cell references its entry, so decoding allocates per
/// chunk, not per cell. Spans hold offsets, not pointers, so the buffer may
/// grow (or the struct move) under them.
struct ColumnValues {
  enum class Arm : uint8_t { kNone, kInt, kDouble, kBytes };
  struct Span {
    uint32_t offset;
    uint32_t length;
  };
  Arm arm = Arm::kNone;
  std::vector<int64_t> ints;
  std::vector<double> dbls;
  std::string bytes;
  std::vector<Span> spans;

  size_t size() const {
    switch (arm) {
      case Arm::kInt: return ints.size();
      case Arm::kDouble: return dbls.size();
      case Arm::kBytes: return spans.size();
      case Arm::kNone: return 0;
    }
    return 0;
  }

  /// Bytes cell i.
  Slice cell(size_t i) const {
    return Slice(bytes.data() + spans[i].offset, spans[i].length);
  }

  /// Appends a bytes cell.
  void AppendBytes(Slice s) {
    spans.push_back({static_cast<uint32_t>(bytes.size()),
                     static_cast<uint32_t>(s.size())});
    bytes.append(s.data(), s.size());
  }

  /// Heap footprint (block-cache charge accounting).
  size_t ApproximateMemoryUsage() const;
};

/// Appends the encoding of `v` under `enc` (kDeltaDelta or kZigZag).
void EncodeIntChunk(const std::vector<int64_t>& v, ChunkEncoding enc,
                    std::string* out);

/// Appends the kXor encoding of `v`.
void EncodeDoubleChunk(const std::vector<double>& v, std::string* out);

/// Appends the encoding of the bytes cells of `v` under `enc` (kDict or
/// kPlainBytes).
void EncodeBytesChunk(const ColumnValues& v, ChunkEncoding enc,
                      std::string* out);

/// Exact-cost chooser for integer columns: encodes nothing, just sums the
/// varint lengths both ways and returns the cheaper of kDeltaDelta/kZigZag.
ChunkEncoding ChooseIntEncoding(const std::vector<int64_t>& v);

/// Exact-cost chooser for byte columns: returns kDict when the front-coded
/// dictionary plus per-row indices is smaller than plain length-prefixed
/// values, else kPlainBytes.
ChunkEncoding ChooseBytesEncoding(const ColumnValues& v);

/// Cap on a decoded dictionary's expanded entries. Front coding lets a
/// chain of long shared prefixes describe far more bytes than the chunk
/// holds; this equals the largest raw chunk a block may hold (64 MB), so a
/// decoded dictionary is never larger than the largest plain chunk.
constexpr size_t kMaxDictBytes = size_t{1} << 26;

/// Decodes an entire chunk of exactly `count` values. `in` must contain the
/// chunk bytes and nothing else: trailing bytes, truncation, bad dictionary
/// indices, or any other malformation returns kCorruption. `count` is
/// trusted (it comes from the CRC-protected block directory, cross-checked
/// against the footer index); decoders never allocate more than
/// O(count + in.size()), except that a front-coded dictionary expands to
/// its entries' full length, capped at kMaxDictBytes before the buffer is
/// allocated.
Status DecodeChunk(Slice in, ChunkEncoding enc, uint32_t count,
                   ColumnValues* out);

}  // namespace lt

#endif  // LITTLETABLE_CORE_COLUMN_CODEC_H_
