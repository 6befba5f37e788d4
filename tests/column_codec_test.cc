// Tests for the v2 per-column chunk codecs: roundtrips over every encoding
// (including wrap-around deltas at INT64_MIN/MAX and non-finite doubles),
// exact-cost chooser behavior, and the defensive-decode contract — every
// truncation, every single-byte flip, and random garbage must come back as
// kCorruption (or decode to something, for flips varints absorb) without
// crashing or reading out of bounds. CI runs this binary under ASan/UBSan,
// which turns any over-read into a hard failure.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/column_codec.h"
#include "util/coding.h"
#include "util/random.h"

namespace lt {
namespace {

std::vector<int64_t> DecodeInts(const std::string& chunk, ChunkEncoding enc,
                                uint32_t count) {
  ColumnValues out;
  Status s = DecodeChunk(Slice(chunk), enc, count, &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(out.arm, ColumnValues::Arm::kInt);
  return out.ints;
}

void RoundTripInts(const std::vector<int64_t>& v, ChunkEncoding enc) {
  std::string chunk;
  EncodeIntChunk(v, enc, &chunk);
  EXPECT_EQ(DecodeInts(chunk, enc, static_cast<uint32_t>(v.size())), v);
}

void RoundTripDoubles(const std::vector<double>& v) {
  std::string chunk;
  EncodeDoubleChunk(v, &chunk);
  ColumnValues out;
  Status s =
      DecodeChunk(Slice(chunk), ChunkEncoding::kXor,
                  static_cast<uint32_t>(v.size()), &out);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(out.arm, ColumnValues::Arm::kDouble);
  ASSERT_EQ(out.dbls.size(), v.size());
  for (size_t i = 0; i < v.size(); i++) {
    // Bit-exact comparison so NaN payloads and -0.0 survive the XOR chain.
    uint64_t a, b;
    __builtin_memcpy(&a, &out.dbls[i], 8);
    __builtin_memcpy(&b, &v[i], 8);
    EXPECT_EQ(a, b) << "i=" << i;
  }
}

ColumnValues BytesColumn(const std::vector<std::string>& v) {
  ColumnValues cells;
  cells.arm = ColumnValues::Arm::kBytes;
  for (const std::string& s : v) cells.AppendBytes(s);
  return cells;
}

std::vector<std::string> Cells(const ColumnValues& c) {
  std::vector<std::string> v;
  for (size_t i = 0; i < c.spans.size(); i++) {
    v.push_back(c.cell(i).ToString());
  }
  return v;
}

void RoundTripBytes(const std::vector<std::string>& v, ChunkEncoding enc) {
  std::string chunk;
  EncodeBytesChunk(BytesColumn(v), enc, &chunk);
  ColumnValues out;
  Status s = DecodeChunk(Slice(chunk), enc,
                         static_cast<uint32_t>(v.size()), &out);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(out.arm, ColumnValues::Arm::kBytes);
  EXPECT_EQ(Cells(out), v);
}

TEST(ColumnCodecTest, DeltaDeltaRegularSeriesIsTiny) {
  // The paper's shape: one sample per 20 s. Constant second delta -> the
  // stream after the two header varints is all one-byte zeros.
  std::vector<int64_t> ts;
  for (int64_t i = 0; i < 1000; i++) {
    ts.push_back(1700000000000000 + i * 20000000);
  }
  std::string chunk;
  EncodeIntChunk(ts, ChunkEncoding::kDeltaDelta, &chunk);
  EXPECT_LT(chunk.size(), ts.size() + 20) << "dod should be ~1 byte/row";
  EXPECT_EQ(DecodeInts(chunk, ChunkEncoding::kDeltaDelta, 1000), ts);
}

TEST(ColumnCodecTest, IntRoundTripEdgeValues) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  // Adjacent extremes force delta and delta-of-delta to wrap: the codec
  // must use modular uint64 arithmetic, never signed overflow.
  std::vector<int64_t> v = {0, kMax, kMin, -1, 1, kMin, kMax, kMax - 1, 0};
  RoundTripInts(v, ChunkEncoding::kDeltaDelta);
  RoundTripInts(v, ChunkEncoding::kZigZag);
  RoundTripInts({}, ChunkEncoding::kDeltaDelta);
  RoundTripInts({}, ChunkEncoding::kZigZag);
  RoundTripInts({kMin}, ChunkEncoding::kDeltaDelta);
  RoundTripInts({kMax}, ChunkEncoding::kZigZag);
  RoundTripInts({5, 5}, ChunkEncoding::kDeltaDelta);
}

TEST(ColumnCodecTest, IntRoundTripRandom) {
  Random rnd(42);
  std::vector<int64_t> v;
  for (int i = 0; i < 500; i++) v.push_back(static_cast<int64_t>(rnd.Next()));
  RoundTripInts(v, ChunkEncoding::kDeltaDelta);
  RoundTripInts(v, ChunkEncoding::kZigZag);
}

TEST(ColumnCodecTest, DoubleRoundTrip) {
  RoundTripDoubles({});
  RoundTripDoubles({3.25});
  RoundTripDoubles({0.0, -0.0, 1.0, 1.0, 1.0000001, -271.5});
  RoundTripDoubles({std::numeric_limits<double>::infinity(),
                    -std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::quiet_NaN(),
                    std::numeric_limits<double>::denorm_min(),
                    std::numeric_limits<double>::max()});
  // Slowly moving gauge: XOR of neighbors zeroes the high bytes.
  std::vector<double> gauge;
  for (int i = 0; i < 1000; i++) gauge.push_back(98.5 + (i % 7) * 0.125);
  std::string chunk;
  EncodeDoubleChunk(gauge, &chunk);
  EXPECT_LT(chunk.size(), gauge.size() * 8) << "xor should beat raw fixed64";
  RoundTripDoubles(gauge);
}

TEST(ColumnCodecTest, BytesRoundTrip) {
  std::vector<std::string> names;
  for (int i = 0; i < 200; i++) {
    names.push_back("sw" + std::to_string(i % 8) + ".sjc.example.com");
  }
  RoundTripBytes(names, ChunkEncoding::kDict);
  RoundTripBytes(names, ChunkEncoding::kPlainBytes);
  RoundTripBytes({}, ChunkEncoding::kDict);
  RoundTripBytes({}, ChunkEncoding::kPlainBytes);
  RoundTripBytes({""}, ChunkEncoding::kDict);
  RoundTripBytes({"", "", "x", ""}, ChunkEncoding::kDict);
  // Embedded NULs and high bytes are just bytes.
  RoundTripBytes({std::string("a\0b", 3), std::string("\xff\xfe", 2)},
                 ChunkEncoding::kPlainBytes);
  RoundTripBytes({std::string("a\0b", 3), std::string("a\0b", 3)},
                 ChunkEncoding::kDict);
}

TEST(ColumnCodecTest, ChoosersPickTheCheaperScheme) {
  // Regular timestamps: dod is all zero-bytes, zigzag pays 8 bytes/value.
  std::vector<int64_t> ts;
  for (int64_t i = 0; i < 100; i++) {
    ts.push_back(1700000000000000 + i * 20000000);
  }
  EXPECT_EQ(ChooseIntEncoding(ts), ChunkEncoding::kDeltaDelta);
  // Random 64-bit values: deltas are just as random but dod carries no
  // extra header cost that matters; verify the chooser's pick really is
  // no larger than the alternative rather than pinning the winner.
  Random rnd(7);
  std::vector<int64_t> random;
  for (int i = 0; i < 100; i++) random.push_back(static_cast<int64_t>(rnd.Next()));
  ChunkEncoding pick = ChooseIntEncoding(random);
  std::string as_pick, as_other;
  EncodeIntChunk(random, pick, &as_pick);
  EncodeIntChunk(random,
                 pick == ChunkEncoding::kDeltaDelta ? ChunkEncoding::kZigZag
                                                    : ChunkEncoding::kDeltaDelta,
                 &as_other);
  EXPECT_LE(as_pick.size(), as_other.size());

  // Eight distinct hierarchical names over 200 rows: dictionary wins.
  std::vector<std::string> names;
  for (int i = 0; i < 200; i++) {
    names.push_back("sw" + std::to_string(i % 8) + ".sjc.example.com");
  }
  EXPECT_EQ(ChooseBytesEncoding(BytesColumn(names)), ChunkEncoding::kDict);
  // All-distinct incompressible blobs: the dictionary is pure overhead.
  std::vector<std::string> blobs;
  for (int i = 0; i < 50; i++) blobs.push_back(rnd.Bytes(100));
  EXPECT_EQ(ChooseBytesEncoding(BytesColumn(blobs)),
            ChunkEncoding::kPlainBytes);
}

TEST(ColumnCodecTest, TrailingBytesRejected) {
  std::vector<int64_t> v = {1, 2, 3};
  for (ChunkEncoding enc :
       {ChunkEncoding::kDeltaDelta, ChunkEncoding::kZigZag}) {
    std::string chunk;
    EncodeIntChunk(v, enc, &chunk);
    chunk.push_back('\0');
    ColumnValues out;
    EXPECT_TRUE(DecodeChunk(Slice(chunk), enc, 3, &out).IsCorruption());
  }
  std::string chunk;
  EncodeDoubleChunk({1.0, 2.0}, &chunk);
  chunk.push_back('\0');
  ColumnValues out;
  EXPECT_TRUE(
      DecodeChunk(Slice(chunk), ChunkEncoding::kXor, 2, &out).IsCorruption());
}

TEST(ColumnCodecTest, CountLargerThanChunkRejectedBeforeAllocating) {
  // Every encoding spends at least one byte per value, so a huge count
  // against a tiny chunk must fail fast — before any reserve() could turn
  // attacker-controlled metadata into a giant allocation.
  std::string chunk;
  EncodeIntChunk({1, 2, 3}, ChunkEncoding::kZigZag, &chunk);
  ColumnValues out;
  EXPECT_TRUE(DecodeChunk(Slice(chunk), ChunkEncoding::kZigZag, 0x7fffffff,
                          &out)
                  .IsCorruption());
  EXPECT_TRUE(DecodeChunk(Slice("ab"), ChunkEncoding::kDict, 0x40000000, &out)
                  .IsCorruption());
}

TEST(ColumnCodecTest, DictMalformationsRejected) {
  ColumnValues out;
  // Dictionary larger than the row count.
  {
    std::string chunk;
    EncodeBytesChunk(BytesColumn({"a", "b", "c"}), ChunkEncoding::kDict,
                     &chunk);
    EXPECT_TRUE(
        DecodeChunk(Slice(chunk), ChunkEncoding::kDict, 2, &out).IsCorruption());
  }
  // Non-empty rows with an empty dictionary cannot reference anything.
  {
    std::string chunk(1, '\0');  // n = 0, then nothing.
    EXPECT_TRUE(
        DecodeChunk(Slice(chunk), ChunkEncoding::kDict, 1, &out).IsCorruption());
  }
}

// Front coding lets each entry share its whole predecessor, so a few bytes
// per entry can describe a dictionary quadratically larger than the chunk.
// The decoder sums the expanded lengths before allocating and rejects a
// dictionary past kMaxDictBytes.
TEST(ColumnCodecTest, DictExpansionCappedBeforeAllocating) {
  constexpr uint32_t kEntries = 20000;
  constexpr uint32_t kFirstLen = 4096;
  std::string chunk;
  PutVarint32(&chunk, kEntries);
  PutVarint32(&chunk, 0);
  PutVarint32(&chunk, kFirstLen);
  chunk.append(kFirstLen, 'a');
  uint64_t expanded = kFirstLen;
  for (uint32_t i = 1; i < kEntries; i++) {
    PutVarint32(&chunk, kFirstLen + i - 1);  // Share the whole predecessor.
    PutVarint32(&chunk, 1);
    chunk.push_back('a');
    expanded += kFirstLen + i;
  }
  ASSERT_GT(expanded, kMaxDictBytes);
  for (uint32_t i = 0; i < kEntries; i++) PutVarint32(&chunk, i);
  ColumnValues out;
  Status s = DecodeChunk(Slice(chunk), ChunkEncoding::kDict, kEntries, &out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_LE(out.bytes.capacity(), kMaxDictBytes);

  // The same chain cut short stays under the cap and decodes, each cell
  // a slice of its expanded entry.
  std::vector<std::string> chain;
  for (uint32_t i = 0; i < 300; i++) {
    chain.push_back(std::string(200 + i, 'a'));
  }
  RoundTripBytes(chain, ChunkEncoding::kDict);
}

// The bounds-fuzz matrix: for each encoding, take a valid chunk and (a)
// truncate it at every length, (b) flip every bit of every byte, (c) feed
// random garbage with random counts. The decoder may legitimately decode
// some mutations to different values (varints are dense), but it must
// never crash, over-read (ASan), or return OK for a stream with trailing
// or missing bytes it was told contains exactly `count` values.
TEST(ColumnCodecTest, FuzzTruncationsAndBitFlipsNeverCrash) {
  struct Case {
    ChunkEncoding enc;
    std::string chunk;
    uint32_t count;
  };
  std::vector<Case> cases;
  {
    std::vector<int64_t> ints = {1700000000, 1700000020, 1700000040,
                                 -5, std::numeric_limits<int64_t>::min(), 99};
    std::string c1, c2;
    EncodeIntChunk(ints, ChunkEncoding::kDeltaDelta, &c1);
    EncodeIntChunk(ints, ChunkEncoding::kZigZag, &c2);
    cases.push_back({ChunkEncoding::kDeltaDelta, c1, 6});
    cases.push_back({ChunkEncoding::kZigZag, c2, 6});
  }
  {
    std::string c;
    EncodeDoubleChunk({1.0, 1.5, 1.5, -271.25, 0.0}, &c);
    cases.push_back({ChunkEncoding::kXor, c, 5});
  }
  {
    std::vector<std::string> strs = {"alpha", "alphabet", "beta", "alpha",
                                     "", "beta"};
    std::string c1, c2;
    EncodeBytesChunk(BytesColumn(strs), ChunkEncoding::kDict, &c1);
    EncodeBytesChunk(BytesColumn(strs), ChunkEncoding::kPlainBytes, &c2);
    cases.push_back({ChunkEncoding::kDict, c1, 6});
    cases.push_back({ChunkEncoding::kPlainBytes, c2, 6});
  }

  for (const Case& c : cases) {
    // (a) Every truncation must fail: count values cannot fit in fewer
    // bytes than the exact encoding produced.
    for (size_t len = 0; len < c.chunk.size(); len++) {
      ColumnValues out;
      Status s = DecodeChunk(Slice(c.chunk.data(), len), c.enc, c.count, &out);
      EXPECT_TRUE(s.IsCorruption())
          << "enc=" << static_cast<int>(c.enc) << " len=" << len;
    }
    // (b) Every single-bit flip either fails or decodes to exactly count
    // values (a flipped varint payload byte can still be a valid stream).
    for (size_t pos = 0; pos < c.chunk.size(); pos++) {
      for (int bit = 0; bit < 8; bit++) {
        std::string bad = c.chunk;
        bad[pos] ^= static_cast<char>(1u << bit);
        ColumnValues out;
        Status s = DecodeChunk(Slice(bad), c.enc, c.count, &out);
        if (s.ok()) {
          EXPECT_EQ(out.size(), c.count)
              << "enc=" << static_cast<int>(c.enc) << " pos=" << pos;
        } else {
          EXPECT_TRUE(s.IsCorruption()) << s.ToString();
        }
      }
    }
  }

  // (c) Random garbage at random lengths and counts, across all encodings.
  Random rnd(20260808);
  const ChunkEncoding kAll[] = {ChunkEncoding::kDeltaDelta,
                                ChunkEncoding::kZigZag, ChunkEncoding::kXor,
                                ChunkEncoding::kDict,
                                ChunkEncoding::kPlainBytes};
  for (int iter = 0; iter < 2000; iter++) {
    std::string garbage = rnd.Bytes(rnd.Uniform(64));
    uint32_t count = static_cast<uint32_t>(rnd.Uniform(100));
    ChunkEncoding enc = kAll[rnd.Uniform(5)];
    ColumnValues out;
    Status s = DecodeChunk(Slice(garbage), enc, count, &out);
    if (s.ok()) {
      EXPECT_EQ(out.size(), count);
    }
  }
}

TEST(ColumnCodecTest, InvalidEncodingBytes) {
  EXPECT_FALSE(IsValidChunkEncoding(0));
  for (uint8_t b = 1; b <= 5; b++) EXPECT_TRUE(IsValidChunkEncoding(b));
  EXPECT_FALSE(IsValidChunkEncoding(6));
  EXPECT_FALSE(IsValidChunkEncoding(0xff));
}

}  // namespace
}  // namespace lt
