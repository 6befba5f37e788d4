#include "util/lzmini.h"

#include <cstdint>
#include <cstring>

#include "util/coding.h"

namespace lt {
namespace lzmini {
namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxDistance = 65535;
constexpr int kHashBits = 14;
constexpr size_t kHashSize = 1u << kHashBits;
// The final kTailLiterals bytes of the input are always emitted as literals,
// which lets the match loop read 4 bytes at a time without bounds checks.
constexpr size_t kTailLiterals = 5;
// No frame expands by more than this per body byte: a match token spends
// at least three bytes (token, distance) plus one per 255 bytes of length.
constexpr uint64_t kMaxExpansion = 255;

inline uint32_t Load32(const char* p) {
  uint32_t v;
  memcpy(&v, p, 4);
  return v;
}

inline uint32_t Hash(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

void PutLength(std::string* out, size_t extra) {
  // Emits the continuation bytes for a nibble that was 15.
  while (extra >= 255) {
    out->push_back(static_cast<char>(0xff));
    extra -= 255;
  }
  out->push_back(static_cast<char>(extra));
}

void EmitToken(std::string* out, const char* lit, size_t lit_len,
               size_t match_len /* 0 = none */, size_t distance) {
  size_t lit_nibble = lit_len < 15 ? lit_len : 15;
  size_t match_nibble = 0;
  if (match_len > 0) {
    size_t m = match_len - kMinMatch;
    match_nibble = m < 15 ? m : 15;
  }
  out->push_back(static_cast<char>((lit_nibble << 4) | match_nibble));
  if (lit_nibble == 15) PutLength(out, lit_len - 15);
  out->append(lit, lit_len);
  if (match_len > 0) {
    if (match_nibble == 15) PutLength(out, match_len - kMinMatch - 15);
    out->push_back(static_cast<char>(distance & 0xff));
    out->push_back(static_cast<char>(distance >> 8));
  }
}

bool GetLength(Slice* in, size_t base, size_t* len) {
  *len = base;
  if (base != 15) return true;
  while (true) {
    if (in->empty()) return false;
    unsigned char b = static_cast<unsigned char>((*in)[0]);
    in->remove_prefix(1);
    *len += b;
    if (b < 255) return true;
  }
}

}  // namespace

void Compress(const Slice& input, std::string* out) {
  PutVarint64(out, input.size());
  const char* base = input.data();
  const size_t n = input.size();
  if (n <= kMinMatch + kTailLiterals) {
    if (n > 0) EmitToken(out, base, n, 0, 0);
    return;
  }

  uint32_t table[kHashSize];
  // Positions are stored +1 so 0 means "empty".
  memset(table, 0, sizeof(table));

  size_t i = 0;           // Current scan position.
  size_t lit_start = 0;   // Start of the pending literal run.
  const size_t limit = n - kTailLiterals;

  while (i < limit) {
    uint32_t seq = Load32(base + i);
    uint32_t h = Hash(seq);
    uint32_t cand = table[h];
    table[h] = static_cast<uint32_t>(i + 1);
    if (cand != 0) {
      size_t pos = cand - 1;
      if (i - pos <= kMaxDistance && Load32(base + pos) == seq) {
        // Extend the match as far as possible (stopping before the tail).
        size_t match_len = kMinMatch;
        while (i + match_len < limit &&
               base[pos + match_len] == base[i + match_len]) {
          match_len++;
        }
        EmitToken(out, base + lit_start, i - lit_start, match_len, i - pos);
        // Insert a couple of positions inside the match to improve later
        // matches without paying full per-byte hashing cost.
        size_t mid = i + match_len / 2;
        if (mid + kMinMatch <= limit) {
          table[Hash(Load32(base + mid))] = static_cast<uint32_t>(mid + 1);
        }
        i += match_len;
        lit_start = i;
        continue;
      }
    }
    i++;
  }
  // Trailing literals (always non-empty because of kTailLiterals).
  EmitToken(out, base + lit_start, n - lit_start, 0, 0);
}

Status GetUncompressedSize(const Slice& input, uint64_t* size) {
  Slice in = input;
  if (!GetVarint64(&in, size)) {
    return Status::Corruption("lzmini: bad frame header");
  }
  return Status::OK();
}

Status Decompress(const Slice& input, std::string* out) {
  Slice in = input;
  uint64_t expected;
  if (!GetVarint64(&in, &expected)) {
    return Status::Corruption("lzmini: bad frame header");
  }
  // The header is untrusted: reject a size the body cannot expand to
  // before reserving for it.
  if (expected > kMaxExpansion * in.size()) {
    return Status::Corruption("lzmini: size header exceeds frame body");
  }
  const size_t out_base = out->size();
  out->reserve(out_base + expected);

  size_t produced = 0;
  while (produced < expected) {
    if (in.empty()) return Status::Corruption("lzmini: truncated frame");
    unsigned char token = static_cast<unsigned char>(in[0]);
    in.remove_prefix(1);

    size_t lit_len;
    if (!GetLength(&in, token >> 4, &lit_len)) {
      return Status::Corruption("lzmini: truncated literal length");
    }
    if (lit_len > in.size() || produced + lit_len > expected) {
      return Status::Corruption("lzmini: literal overruns frame");
    }
    out->append(in.data(), lit_len);
    in.remove_prefix(lit_len);
    produced += lit_len;
    if (produced == expected) break;  // Final token carries no match.

    size_t match_len;
    if (!GetLength(&in, token & 0x0f, &match_len)) {
      return Status::Corruption("lzmini: truncated match length");
    }
    match_len += kMinMatch;
    if (in.size() < 2) return Status::Corruption("lzmini: truncated distance");
    size_t distance = static_cast<unsigned char>(in[0]) |
                      (static_cast<size_t>(static_cast<unsigned char>(in[1]))
                       << 8);
    in.remove_prefix(2);
    if (distance == 0 || distance > produced) {
      return Status::Corruption("lzmini: bad match distance");
    }
    if (produced + match_len > expected) {
      return Status::Corruption("lzmini: match overruns frame");
    }
    // Byte-by-byte copy: matches may overlap their own output (RLE case).
    size_t src = out->size() - distance;
    for (size_t k = 0; k < match_len; k++) {
      out->push_back((*out)[src + k]);
    }
    produced += match_len;
  }
  if (!in.empty()) return Status::Corruption("lzmini: trailing garbage");
  return Status::OK();
}

}  // namespace lzmini
}  // namespace lt
