// Tests for the lzmini block codec: round-trips, compression of structured
// data, and defensive decoding of corrupt frames.
#include <gtest/gtest.h>

#include "util/coding.h"
#include "util/lzmini.h"
#include "util/random.h"

namespace lt {
namespace {

std::string RoundTrip(const std::string& input) {
  std::string compressed;
  lzmini::Compress(input, &compressed);
  std::string output;
  Status s = lzmini::Decompress(compressed, &output);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return output;
}

TEST(LzminiTest, EmptyInput) { EXPECT_EQ(RoundTrip(""), ""); }

TEST(LzminiTest, TinyInputs) {
  for (size_t n = 1; n <= 16; n++) {
    std::string input(n, 'a');
    EXPECT_EQ(RoundTrip(input), input) << "n=" << n;
  }
}

TEST(LzminiTest, HighlyRepetitiveCompressesWell) {
  std::string input(64 * 1024, 'z');
  std::string compressed;
  lzmini::Compress(input, &compressed);
  EXPECT_LT(compressed.size(), input.size() / 50);
  std::string output;
  ASSERT_TRUE(lzmini::Decompress(compressed, &output).ok());
  EXPECT_EQ(output, input);
}

TEST(LzminiTest, StructuredRowsCompress) {
  // Simulates repeated row encodings: shared prefixes, varying suffixes.
  std::string input;
  for (int i = 0; i < 2000; i++) {
    input += "network-0042/device-";
    input += std::to_string(i % 50);
    input += "/bytes=";
    input += std::to_string(1000 + i);
    input += ";";
  }
  std::string compressed;
  lzmini::Compress(input, &compressed);
  EXPECT_LT(compressed.size(), input.size() / 2);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(LzminiTest, IncompressibleDataSurvivesWithBoundedExpansion) {
  Random r(123);
  std::string input = r.Bytes(64 * 1024);
  std::string compressed;
  lzmini::Compress(input, &compressed);
  // Worst case overhead is ~1 byte per 255 literals plus the header.
  EXPECT_LT(compressed.size(), input.size() + input.size() / 64 + 16);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(LzminiTest, OverlappingMatchesRle) {
  // "abcabcabc..." forces matches whose source overlaps their output.
  std::string input;
  for (int i = 0; i < 10000; i++) input += "abc";
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(LzminiTest, LongLiteralRunsAndLongMatches) {
  Random r(9);
  std::string input = r.Bytes(5000);      // Long literal run.
  input += std::string(70000, 'q');       // Match length needing extensions.
  input += r.Bytes(300);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(LzminiTest, GetUncompressedSize) {
  std::string compressed;
  lzmini::Compress(std::string(12345, 'x'), &compressed);
  uint64_t size = 0;
  ASSERT_TRUE(lzmini::GetUncompressedSize(compressed, &size).ok());
  EXPECT_EQ(size, 12345u);
}

TEST(LzminiTest, RandomizedRoundTripSweep) {
  Random r(2024);
  for (int trial = 0; trial < 50; trial++) {
    // Mix compressible and random segments of random lengths.
    std::string input;
    int segments = 1 + r.Uniform(8);
    for (int s = 0; s < segments; s++) {
      size_t len = r.Uniform(5000);
      if (r.Bernoulli(0.5)) {
        input += std::string(len, static_cast<char>('a' + r.Uniform(26)));
      } else {
        input += r.Bytes(len);
      }
    }
    ASSERT_EQ(RoundTrip(input), input) << "trial " << trial;
  }
}

TEST(LzminiTest, TruncatedFrameRejected) {
  std::string compressed;
  lzmini::Compress(std::string(10000, 'y'), &compressed);
  for (size_t cut : {size_t{0}, size_t{1}, compressed.size() / 2,
                     compressed.size() - 1}) {
    std::string out;
    Status s = lzmini::Decompress(Slice(compressed.data(), cut), &out);
    EXPECT_FALSE(s.ok()) << "cut=" << cut;
  }
}

TEST(LzminiTest, CorruptBytesNeverCrash) {
  Random r(77);
  std::string original;
  for (int i = 0; i < 500; i++) original += "pattern-" + std::to_string(i);
  std::string compressed;
  lzmini::Compress(original, &compressed);
  // Flip bytes throughout; decode must either fail cleanly or produce a
  // same-length result (the checksummed block layer catches silent
  // corruption above this layer).
  for (int trial = 0; trial < 200; trial++) {
    std::string corrupt = compressed;
    size_t pos = r.Uniform(corrupt.size());
    corrupt[pos] = static_cast<char>(r.Next());
    std::string out;
    Status s = lzmini::Decompress(corrupt, &out);
    if (s.ok()) EXPECT_EQ(out.size(), original.size());
  }
}

TEST(LzminiTest, TrailingGarbageRejected) {
  std::string compressed;
  lzmini::Compress("hello world hello world", &compressed);
  compressed += "extra";
  std::string out;
  EXPECT_FALSE(lzmini::Decompress(compressed, &out).ok());
}

// The size header is untrusted: a claim the body cannot expand to fails
// before anything is reserved for it, instead of throwing bad_alloc (2^56
// bytes) or reserving 512 MiB only to fail on the next token (2^29).
TEST(LzminiTest, OversizedHeaderRejectedBeforeAllocating) {
  for (uint64_t claim : {(uint64_t{1} << 56) - 1, uint64_t{1} << 29}) {
    std::string frame;
    PutVarint64(&frame, claim);
    frame += std::string(2, '\0');
    ASSERT_EQ(frame.size(), claim > (uint64_t{1} << 30) ? 10u : 7u);
    std::string out;
    Status s = lzmini::Decompress(frame, &out);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_LT(out.capacity(), size_t{1} << 20) << "claim=" << claim;
  }
}

// Long runs compress at close to the codec's maximum ratio; the header
// check must still accept them.
TEST(LzminiTest, MaximalExpansionStillDecodes) {
  for (size_t n : {size_t{255}, size_t{4096}, size_t{1} << 20}) {
    const std::string run(n, '\0');
    std::string compressed;
    lzmini::Compress(run, &compressed);
    EXPECT_EQ(RoundTrip(run), run) << "n=" << n;
  }
}

TEST(LzminiTest, DecompressAppendsToExistingOutput) {
  std::string out = "prefix:";
  std::string compressed;
  lzmini::Compress("payload", &compressed);
  ASSERT_TRUE(lzmini::Decompress(compressed, &out).ok());
  EXPECT_EQ(out, "prefix:payload");
}

}  // namespace
}  // namespace lt
