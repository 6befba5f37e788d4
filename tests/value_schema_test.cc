// Tests for the data model: typed values, comparisons, cell codecs, schema
// validation, serialization, and the §3.5 schema evolutions.
#include <gtest/gtest.h>

#include "core/row_codec.h"
#include "core/schema.h"
#include "core/value.h"
#include "tests/test_util.h"
#include "util/coding.h"
#include "util/random.h"

namespace lt {
namespace {

using testutil::UsageRow;
using testutil::UsageSchema;

TEST(ValueTest, TypePredicatesAndAccessors) {
  EXPECT_EQ(Value::Int32(-7).i32(), -7);
  EXPECT_EQ(Value::Int64(1LL << 40).i64(), 1LL << 40);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).dbl(), 2.5);
  EXPECT_EQ(Value::String("abc").bytes(), "abc");
  EXPECT_EQ(Value::Ts(123456).AsInt(), 123456);
}

TEST(ValueTest, MatchesType) {
  EXPECT_TRUE(Value::Int32(1).MatchesType(ColumnType::kInt32));
  EXPECT_FALSE(Value::Int32(1).MatchesType(ColumnType::kInt64));
  EXPECT_TRUE(Value::Int64(1).MatchesType(ColumnType::kInt64));
  EXPECT_TRUE(Value::Ts(1).MatchesType(ColumnType::kTimestamp));
  EXPECT_TRUE(Value::String("x").MatchesType(ColumnType::kString));
  EXPECT_TRUE(Value::Blob("x").MatchesType(ColumnType::kBlob));
  EXPECT_FALSE(Value::Double(1).MatchesType(ColumnType::kInt64));
}

TEST(ValueTest, CompareOrders) {
  EXPECT_LT(Value::Int64(1).Compare(Value::Int64(2)), 0);
  EXPECT_GT(Value::Int64(-1).Compare(Value::Int64(-2)), 0);
  EXPECT_EQ(Value::Int64(5).Compare(Value::Int64(5)), 0);
  EXPECT_LT(Value::String("a").Compare(Value::String("b")), 0);
  EXPECT_LT(Value::String("a").Compare(Value::String("ab")), 0);
  EXPECT_LT(Value::Double(1.5).Compare(Value::Double(2.0)), 0);
  // Mixed-width integer comparison (widened reads).
  EXPECT_EQ(Value::Int32(7).Compare(Value::Int64(7)), 0);
}

TEST(ValueTest, EncodeDecodeEveryType) {
  struct Case {
    Value v;
    ColumnType t;
  };
  std::vector<Case> cases = {
      {Value::Int32(INT32_MIN), ColumnType::kInt32},
      {Value::Int32(INT32_MAX), ColumnType::kInt32},
      {Value::Int64(INT64_MIN), ColumnType::kInt64},
      {Value::Int64(0), ColumnType::kInt64},
      {Value::Double(-1.25e300), ColumnType::kDouble},
      {Value::Double(0.0), ColumnType::kDouble},
      {Value::Ts(1483228800000000LL), ColumnType::kTimestamp},
      {Value::String(""), ColumnType::kString},
      {Value::String(std::string(10000, 'q')), ColumnType::kString},
      {Value::Blob(std::string("\x00\x01\xff", 3)), ColumnType::kBlob},
  };
  for (const Case& c : cases) {
    std::string buf;
    EncodeValue(&buf, c.v, c.t);
    Slice in(buf);
    Value out;
    ASSERT_TRUE(DecodeValue(&in, c.t, &out).ok());
    EXPECT_EQ(out.Compare(c.v), 0);
    EXPECT_TRUE(in.empty());
  }
}

TEST(ValueTest, DecodeRejectsOutOfRangeInt32) {
  std::string buf;
  EncodeValue(&buf, Value::Int64(1LL << 40), ColumnType::kInt64);
  Slice in(buf);
  Value out;
  EXPECT_TRUE(DecodeValue(&in, ColumnType::kInt32, &out).IsCorruption());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Int64(-5).ToString(ColumnType::kInt64), "-5");
  EXPECT_EQ(Value::String("hi").ToString(ColumnType::kString), "'hi'");
  EXPECT_EQ(Value::Blob(std::string("\x0a\xff", 2)).ToString(ColumnType::kBlob),
            "x'0aff'");
}

TEST(SchemaTest, ValidUsageSchema) {
  EXPECT_TRUE(UsageSchema().Validate().ok());
}

TEST(SchemaTest, RejectsMissingTimestampKey) {
  Schema s({Column("a", ColumnType::kInt64), Column("b", ColumnType::kInt64)},
           1);
  EXPECT_TRUE(s.Validate().IsInvalidArgument());
}

TEST(SchemaTest, RejectsTsNotLastInKey) {
  Schema s({Column("ts", ColumnType::kTimestamp),
            Column("k", ColumnType::kInt64),
            Column("v", ColumnType::kInt64)},
           2);
  EXPECT_TRUE(s.Validate().IsInvalidArgument());
}

TEST(SchemaTest, RejectsWrongTsName) {
  Schema s({Column("when", ColumnType::kTimestamp),
            Column("v", ColumnType::kInt64)},
           1);
  EXPECT_TRUE(s.Validate().IsInvalidArgument());
}

TEST(SchemaTest, RejectsDuplicateColumnNames) {
  Schema s({Column("x", ColumnType::kInt64),
            Column("ts", ColumnType::kTimestamp),
            Column("x", ColumnType::kInt64)},
           2);
  EXPECT_TRUE(s.Validate().IsInvalidArgument());
}

TEST(SchemaTest, RejectsDoubleKeyColumn) {
  Schema s({Column("d", ColumnType::kDouble),
            Column("ts", ColumnType::kTimestamp),
            Column("v", ColumnType::kInt64)},
           2);
  EXPECT_TRUE(s.Validate().IsInvalidArgument());
}

TEST(SchemaTest, RejectsNoColumnsOrNoKey) {
  EXPECT_FALSE(Schema({}, 0).Validate().ok());
  Schema s({Column("ts", ColumnType::kTimestamp)}, 0);
  EXPECT_FALSE(s.Validate().ok());
}

TEST(SchemaTest, KeyComparison) {
  Schema s = UsageSchema();
  Row a = UsageRow(1, 2, 100, 0, 0);
  Row b = UsageRow(1, 2, 101, 999, 3.5);  // Same key cols except ts.
  Row c = UsageRow(1, 3, 100, 0, 0);
  EXPECT_LT(s.CompareKeys(a, b), 0);
  EXPECT_LT(s.CompareKeys(a, c), 0);
  EXPECT_GT(s.CompareKeys(c, b), 0);
  EXPECT_EQ(s.CompareKeys(a, a), 0);
}

TEST(SchemaTest, CompareKeyToPrefix) {
  Schema s = UsageSchema();
  Row r = UsageRow(5, 7, 100, 0, 0);
  EXPECT_EQ(s.CompareKeyToPrefix(r, {Value::Int64(5)}), 0);
  EXPECT_EQ(s.CompareKeyToPrefix(r, {Value::Int64(5), Value::Int64(7)}), 0);
  EXPECT_GT(s.CompareKeyToPrefix(r, {Value::Int64(4)}), 0);
  EXPECT_LT(s.CompareKeyToPrefix(r, {Value::Int64(6)}), 0);
  EXPECT_LT(s.CompareKeyToPrefix(r, {Value::Int64(5), Value::Int64(8)}), 0);
}

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  Schema s({Column("network", ColumnType::kInt64),
            Column("ts", ColumnType::kTimestamp),
            Column("tag", ColumnType::kString, Value::String("none")),
            Column("count", ColumnType::kInt32, Value::Int32(-1))},
           2, /*version=*/3);
  std::string buf;
  s.EncodeTo(&buf);
  Slice in(buf);
  Schema out;
  ASSERT_TRUE(Schema::DecodeFrom(&in, &out).ok());
  EXPECT_TRUE(out == s);
  EXPECT_EQ(out.version(), 3u);
  EXPECT_EQ(out.columns()[2].default_value.bytes(), "none");
}

TEST(SchemaTest, DecodeRejectsCorruptBytes) {
  Schema out;
  Slice empty("");
  EXPECT_FALSE(Schema::DecodeFrom(&empty, &out).ok());
  std::string buf;
  UsageSchema().EncodeTo(&buf);
  buf.resize(buf.size() / 2);
  Slice in(buf);
  EXPECT_FALSE(Schema::DecodeFrom(&in, &out).ok());
}

TEST(SchemaEvolutionTest, AppendColumn) {
  Schema s = UsageSchema();
  auto next = s.WithAppendedColumn(
      Column("packets", ColumnType::kInt64, Value::Int64(0)));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->num_columns(), 6u);
  EXPECT_EQ(next->version(), s.version() + 1);
  EXPECT_TRUE(next->IsCompatibleUpgradeOf(s));
}

TEST(SchemaEvolutionTest, AppendDuplicateRejected) {
  EXPECT_TRUE(UsageSchema()
                  .WithAppendedColumn(Column("bytes", ColumnType::kInt64))
                  .status()
                  .IsAlreadyExists());
}

TEST(SchemaEvolutionTest, WidenInt32) {
  Schema s({Column("k", ColumnType::kInt64),
            Column("ts", ColumnType::kTimestamp),
            Column("n", ColumnType::kInt32, Value::Int32(5))},
           2);
  auto next = s.WithWidenedColumn("n");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->columns()[2].type, ColumnType::kInt64);
  EXPECT_EQ(next->columns()[2].default_value.i64(), 5);
  EXPECT_TRUE(next->IsCompatibleUpgradeOf(s));
}

TEST(SchemaEvolutionTest, WidenRejectsKeyOrNonInt32) {
  Schema s = UsageSchema();
  EXPECT_TRUE(s.WithWidenedColumn("network").status().IsNotSupported());
  EXPECT_TRUE(s.WithWidenedColumn("rate").status().IsInvalidArgument());
  EXPECT_TRUE(s.WithWidenedColumn("nope").status().IsNotFound());
}

TEST(SchemaEvolutionTest, TranslateRowFillsDefaultsAndWidens) {
  Schema old_schema({Column("k", ColumnType::kInt64),
                     Column("ts", ColumnType::kTimestamp),
                     Column("n", ColumnType::kInt32)},
                    2);
  Schema new_schema = *old_schema.WithWidenedColumn("n");
  new_schema = *new_schema.WithAppendedColumn(
      Column("label", ColumnType::kString, Value::String("unset")));
  Row old_row = {Value::Int64(9), Value::Ts(50), Value::Int32(-3)};
  Row translated = new_schema.TranslateRow(old_schema, old_row);
  ASSERT_EQ(translated.size(), 4u);
  EXPECT_EQ(translated[2].i64(), -3);
  EXPECT_EQ(translated[3].bytes(), "unset");
  EXPECT_TRUE(new_schema.RowMatches(translated));
}

TEST(SchemaEvolutionTest, IncompatibleSchemasDetected) {
  Schema a = UsageSchema();
  Schema renamed({Column("net", ColumnType::kInt64),
                  Column("device", ColumnType::kInt64),
                  Column("ts", ColumnType::kTimestamp),
                  Column("bytes", ColumnType::kInt64),
                  Column("rate", ColumnType::kDouble)},
                 3);
  EXPECT_FALSE(renamed.IsCompatibleUpgradeOf(a));
}

TEST(RowCodecTest, RowRoundTrip) {
  Schema s = UsageSchema();
  Row r = UsageRow(42, 7, 1234567890, -999, 3.14159);
  std::string buf;
  EncodeRow(&buf, s, r);
  Slice in(buf);
  Row out;
  ASSERT_TRUE(DecodeRow(&in, s, &out).ok());
  ASSERT_EQ(out.size(), r.size());
  for (size_t i = 0; i < r.size(); i++) EXPECT_EQ(out[i].Compare(r[i]), 0);
}

TEST(RowCodecTest, KeyRoundTripAndPrefixProperty) {
  Schema s = UsageSchema();
  Row r = UsageRow(42, 7, 555, 0, 0);
  std::string row_buf, key_buf;
  EncodeRow(&row_buf, s, r);
  EncodeKey(&key_buf, s, s.KeyOf(r));
  // The key encoding is a byte prefix of the row encoding.
  ASSERT_LE(key_buf.size(), row_buf.size());
  EXPECT_EQ(row_buf.compare(0, key_buf.size(), key_buf), 0);
  Slice in(key_buf);
  Key out;
  ASSERT_TRUE(DecodeKey(&in, s, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].i64(), 42);
}

// DecodeRow builds cells in place through the shared cell decoder, with
// an inline one-byte varint path: every row of every column type must
// round-trip through EncodeRow, and every truncation of it must fail.
TEST(RowCodecTest, DecodeRowRoundTripsRandomRows) {
  const Schema s({Column("a", ColumnType::kInt32),
                  Column("b", ColumnType::kInt64),
                  Column("s", ColumnType::kString),
                  Column("ts", ColumnType::kTimestamp),
                  Column("d", ColumnType::kDouble),
                  Column("x", ColumnType::kBlob)},
                 /*num_key_columns=*/4);
  Random rnd(2024);
  auto rand_int = [&]() -> int64_t {
    switch (rnd.Uniform(4)) {
      case 0: return rnd.UniformRange(-63, 63);  // One-byte varints.
      case 1: return rnd.UniformRange(-100000, 100000);
      case 2: return rnd.Uniform(2) ? INT64_MIN : INT64_MAX;
      default: return static_cast<int64_t>(rnd.Next());
    }
  };
  auto rand_bytes = [&]() {
    std::string b(rnd.Uniform(2) ? rnd.Uniform(8) : rnd.Uniform(300), '\0');
    for (char& c : b) c = static_cast<char>(rnd.Next());
    return b;
  };
  for (int i = 0; i < 300; i++) {
    Row r = {Value::Int32(static_cast<int32_t>(rand_int())),
             Value::Int64(rand_int()), Value::String(rand_bytes()),
             Value::Ts(rand_int()), Value::Double(rnd.NextDouble() - 0.5),
             Value::Blob(rand_bytes())};
    std::string buf;
    EncodeRow(&buf, s, r);
    const size_t row_len = buf.size();
    buf += "tail";
    for (size_t cut = 0; cut <= buf.size(); cut++) {
      Slice in(buf.data(), cut);
      Row got = {Value::Int64(7)};  // Stale contents are replaced.
      const Status st = DecodeRow(&in, s, &got);
      if (cut < row_len) {
        ASSERT_TRUE(st.IsCorruption()) << "i=" << i << " cut=" << cut;
        continue;
      }
      ASSERT_TRUE(st.ok()) << st.ToString();
      ASSERT_EQ(in.size(), cut - row_len);
      ASSERT_EQ(got.size(), r.size());
      for (size_t c = 0; c < got.size(); c++) {
        ASSERT_TRUE(got[c].MatchesType(s.columns()[c].type));
        ASSERT_EQ(got[c].Compare(r[c]), 0) << "i=" << i << " c=" << c;
      }
    }
  }
  // An int32 cell out of range is Corruption too.
  std::string buf;
  PutVarint64(&buf, ZigZagEncode(int64_t{1} << 40));
  Slice in(buf);
  Row out;
  EXPECT_EQ(DecodeRow(&in, s, &out).ToString(),
            Status::Corruption("int32 cell out of range").ToString());
}

TEST(RowCodecTest, DecodeTruncatedRowFails) {
  Schema s = UsageSchema();
  std::string buf;
  EncodeRow(&buf, s, UsageRow(1, 2, 3, 4, 5.0));
  Slice in(buf.data(), buf.size() - 4);
  Row out;
  EXPECT_FALSE(DecodeRow(&in, s, &out).ok());
}

}  // namespace
}  // namespace lt
