#include "core/column_codec.h"

#include <cstring>
#include <map>
#include <string_view>

#include "util/coding.h"

namespace lt {

namespace {

size_t VarintLength(uint64_t v) {
  size_t len = 1;
  while (v >= 0x80) {
    v >>= 7;
    len++;
  }
  return len;
}

// Signed deltas are computed in uint64 space so overflow wraps (lossless:
// the decoder reverses with the same wrapping adds) instead of being UB.
uint64_t WrapDelta(int64_t cur, int64_t prev) {
  return static_cast<uint64_t>(cur) - static_cast<uint64_t>(prev);
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  __builtin_memcpy(&bits, &d, 8);
  return bits;
}

double BitsDouble(uint64_t bits) {
  double d;
  __builtin_memcpy(&d, &bits, 8);
  return d;
}

}  // namespace

bool IsValidChunkEncoding(uint8_t b) {
  return b >= static_cast<uint8_t>(ChunkEncoding::kDeltaDelta) &&
         b <= static_cast<uint8_t>(ChunkEncoding::kPlainBytes);
}

size_t ColumnValues::ApproximateMemoryUsage() const {
  return ints.capacity() * sizeof(int64_t) +
         dbls.capacity() * sizeof(double) + bytes.capacity() +
         spans.capacity() * sizeof(Span);
}

void EncodeIntChunk(const std::vector<int64_t>& v, ChunkEncoding enc,
                    std::string* out) {
  if (v.empty()) return;
  if (enc == ChunkEncoding::kZigZag) {
    for (int64_t x : v) PutVarint64(out, ZigZagEncode(x));
    return;
  }
  // kDeltaDelta: first value, first delta, then delta-of-deltas.
  PutVarint64(out, ZigZagEncode(v[0]));
  uint64_t prev_delta = 0;
  for (size_t i = 1; i < v.size(); i++) {
    uint64_t delta = WrapDelta(v[i], v[i - 1]);
    uint64_t dod = delta - prev_delta;
    PutVarint64(out, ZigZagEncode(static_cast<int64_t>(dod)));
    prev_delta = delta;
  }
}

void EncodeDoubleChunk(const std::vector<double>& v, std::string* out) {
  if (v.empty()) return;
  PutFixed64(out, DoubleBits(v[0]));
  uint64_t prev = DoubleBits(v[0]);
  for (size_t i = 1; i < v.size(); i++) {
    uint64_t bits = DoubleBits(v[i]);
    PutVarint64(out, bits ^ prev);
    prev = bits;
  }
}

namespace {

// Sorted distinct cells -> dense ids, shared by the dict chooser/encoder.
// The keys view v.bytes, which outlives the map.
std::map<std::string_view, uint32_t> BuildDict(const ColumnValues& v) {
  std::map<std::string_view, uint32_t> dict;
  for (size_t i = 0; i < v.spans.size(); i++) {
    dict.emplace(v.cell(i).view(), 0);
  }
  uint32_t id = 0;
  for (auto& [key, value] : dict) value = id++;
  return dict;
}

size_t SharedPrefixLen(std::string_view a, std::string_view b) {
  size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) i++;
  return i;
}

}  // namespace

void EncodeBytesChunk(const ColumnValues& v, ChunkEncoding enc,
                      std::string* out) {
  if (v.spans.empty()) return;
  if (enc == ChunkEncoding::kPlainBytes) {
    for (size_t i = 0; i < v.spans.size(); i++) {
      PutLengthPrefixedSlice(out, v.cell(i));
    }
    return;
  }
  // kDict: front-coded sorted dictionary, then one index per row.
  std::map<std::string_view, uint32_t> dict = BuildDict(v);
  PutVarint32(out, static_cast<uint32_t>(dict.size()));
  std::string_view prev;
  for (const auto& [entry, id] : dict) {
    size_t shared = SharedPrefixLen(prev, entry);
    PutVarint32(out, static_cast<uint32_t>(shared));
    PutVarint32(out, static_cast<uint32_t>(entry.size() - shared));
    out->append(entry.data() + shared, entry.size() - shared);
    prev = entry;
  }
  for (size_t i = 0; i < v.spans.size(); i++) {
    PutVarint32(out, dict.find(v.cell(i).view())->second);
  }
}

ChunkEncoding ChooseIntEncoding(const std::vector<int64_t>& v) {
  size_t zz = 0, dod = 0;
  uint64_t prev_delta = 0;
  for (size_t i = 0; i < v.size(); i++) {
    zz += VarintLength(ZigZagEncode(v[i]));
    if (i == 0) {
      dod += VarintLength(ZigZagEncode(v[0]));
    } else {
      uint64_t delta = WrapDelta(v[i], v[i - 1]);
      dod += VarintLength(ZigZagEncode(static_cast<int64_t>(delta - prev_delta)));
      prev_delta = delta;
    }
  }
  return dod <= zz ? ChunkEncoding::kDeltaDelta : ChunkEncoding::kZigZag;
}

ChunkEncoding ChooseBytesEncoding(const ColumnValues& v) {
  size_t plain = 0;
  for (const ColumnValues::Span& span : v.spans) {
    plain += VarintLength(span.length) + span.length;
  }

  std::map<std::string_view, uint32_t> dict = BuildDict(v);
  size_t dict_cost = VarintLength(dict.size());
  std::string_view prev;
  for (const auto& [entry, id] : dict) {
    size_t shared = SharedPrefixLen(prev, entry);
    dict_cost += VarintLength(shared) + VarintLength(entry.size() - shared) +
                 (entry.size() - shared);
    prev = entry;
  }
  for (size_t i = 0; i < v.spans.size(); i++) {
    dict_cost += VarintLength(dict.find(v.cell(i).view())->second);
  }
  return dict_cost < plain ? ChunkEncoding::kDict : ChunkEncoding::kPlainBytes;
}

namespace {

Status DecodeIntChunk(Slice in, ChunkEncoding enc, uint32_t count,
                      ColumnValues* out) {
  out->arm = ColumnValues::Arm::kInt;
  out->ints.reserve(count);
  if (enc == ChunkEncoding::kZigZag) {
    for (uint32_t i = 0; i < count; i++) {
      uint64_t u;
      if (!GetVarint64(&in, &u)) return Status::Corruption("short int chunk");
      out->ints.push_back(ZigZagDecode(u));
    }
  } else {
    uint64_t value = 0, delta = 0;
    for (uint32_t i = 0; i < count; i++) {
      uint64_t u;
      if (!GetVarint64(&in, &u)) return Status::Corruption("short dod chunk");
      if (i == 0) {
        value = static_cast<uint64_t>(ZigZagDecode(u));
      } else {
        delta += static_cast<uint64_t>(ZigZagDecode(u));
        value += delta;
      }
      out->ints.push_back(static_cast<int64_t>(value));
    }
  }
  if (!in.empty()) return Status::Corruption("int chunk trailing bytes");
  return Status::OK();
}

Status DecodeDoubleChunk(Slice in, uint32_t count, ColumnValues* out) {
  out->arm = ColumnValues::Arm::kDouble;
  out->dbls.reserve(count);
  uint64_t prev = 0;
  for (uint32_t i = 0; i < count; i++) {
    if (i == 0) {
      if (!GetFixed64(&in, &prev)) return Status::Corruption("short xor chunk");
    } else {
      uint64_t x;
      if (!GetVarint64(&in, &x)) return Status::Corruption("short xor chunk");
      prev ^= x;
    }
    out->dbls.push_back(BitsDouble(prev));
  }
  if (!in.empty()) return Status::Corruption("xor chunk trailing bytes");
  return Status::OK();
}

Status DecodeDictChunk(Slice in, uint32_t count, ColumnValues* out) {
  out->arm = ColumnValues::Arm::kBytes;
  // The encoder emits nothing at all for an empty chunk — not even the
  // dictionary-size varint.
  if (count == 0) {
    if (!in.empty()) return Status::Corruption("dict chunk trailing bytes");
    return Status::OK();
  }
  uint32_t n;
  if (!GetVarint32(&in, &n)) return Status::Corruption("bad dict size");
  // A dictionary cannot hold more distinct values than the chunk has rows,
  // and a non-empty chunk needs a non-empty dictionary.
  if (n > count || (count > 0 && n == 0)) {
    return Status::Corruption("dict size out of range");
  }
  // First pass: validate the entry headers and sum the expanded entry
  // lengths, so the buffer is allocated once, and never past the cap.
  const Slice entries = in;
  uint64_t total = 0, prev_len = 0;
  for (uint32_t i = 0; i < n; i++) {
    uint32_t shared, suffix_len;
    if (!GetVarint32(&in, &shared) || !GetVarint32(&in, &suffix_len)) {
      return Status::Corruption("bad dict entry header");
    }
    if (i == 0 ? shared != 0 : shared > prev_len) {
      return Status::Corruption("dict shared prefix out of range");
    }
    if (suffix_len > in.size()) {
      return Status::Corruption("dict entry suffix truncated");
    }
    in.remove_prefix(suffix_len);
    prev_len = uint64_t{shared} + suffix_len;
    total += prev_len;
    if (total > kMaxDictBytes) {
      return Status::Corruption("dict entries exceed size cap");
    }
  }
  // Second pass: expand each entry into the buffer once.
  out->bytes.resize(total);
  char* buf = out->bytes.data();
  std::vector<ColumnValues::Span> dict(n);
  Slice e = entries;
  uint32_t pos = 0;
  for (uint32_t i = 0; i < n; i++) {
    uint32_t shared = 0, suffix_len = 0;  // Validated by the first pass.
    GetVarint32(&e, &shared);
    GetVarint32(&e, &suffix_len);
    if (i > 0) memcpy(buf + pos, buf + dict[i - 1].offset, shared);
    memcpy(buf + pos + shared, e.data(), suffix_len);
    e.remove_prefix(suffix_len);
    dict[i] = {pos, shared + suffix_len};
    pos += dict[i].length;
    // Entries must be strictly ascending (the encoder emits a sorted set);
    // anything else is a corrupt or non-canonical dictionary.
    if (i > 0 && Slice(buf + dict[i].offset, dict[i].length)
                         .compare(Slice(buf + dict[i - 1].offset,
                                        dict[i - 1].length)) <= 0) {
      return Status::Corruption("dict entries not ascending");
    }
  }
  out->spans.reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    uint32_t idx;
    if (!GetVarint32(&in, &idx)) return Status::Corruption("short dict index");
    if (idx >= n) return Status::Corruption("dict index out of range");
    out->spans.push_back(dict[idx]);
  }
  if (!in.empty()) return Status::Corruption("dict chunk trailing bytes");
  return Status::OK();
}

Status DecodePlainBytesChunk(Slice in, uint32_t count, ColumnValues* out) {
  out->arm = ColumnValues::Arm::kBytes;
  // Each cell spends at least a one-byte length prefix, so the cells fit in
  // in.size() - count bytes (DecodeChunk checked count <= in.size()).
  out->bytes.reserve(in.size() - count);
  out->spans.reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    Slice s;
    if (!GetLengthPrefixedSlice(&in, &s)) {
      return Status::Corruption("short bytes chunk");
    }
    out->AppendBytes(s);
  }
  if (!in.empty()) return Status::Corruption("bytes chunk trailing bytes");
  return Status::OK();
}

}  // namespace

Status DecodeChunk(Slice in, ChunkEncoding enc, uint32_t count,
                   ColumnValues* out) {
  out->arm = ColumnValues::Arm::kNone;
  out->ints.clear();
  out->dbls.clear();
  out->bytes.clear();
  out->spans.clear();
  // Every encoding spends at least one byte per value (kXor spends 8 on the
  // first), so a count beyond the chunk size is corrupt — checked before any
  // reserve() so garbage counts cannot drive huge allocations.
  if (count > in.size()) {
    return Status::Corruption("chunk count exceeds chunk bytes");
  }
  switch (enc) {
    case ChunkEncoding::kDeltaDelta:
    case ChunkEncoding::kZigZag:
      return DecodeIntChunk(in, enc, count, out);
    case ChunkEncoding::kXor:
      return DecodeDoubleChunk(in, count, out);
    case ChunkEncoding::kDict:
      return DecodeDictChunk(in, count, out);
    case ChunkEncoding::kPlainBytes:
      return DecodePlainBytesChunk(in, count, out);
  }
  return Status::Corruption("unknown chunk encoding");
}

}  // namespace lt
