// Property tests for the sort-key codec (core/sort_key.h): memcmp order on
// encoded keys must be Schema::CompareKeys order, an encoded key prefix
// must compare as Schema::CompareKeyToPrefix does, and ts must read back
// from the key's last 8 bytes. Cells are drawn from
// edge values (INT64_MIN/MAX, empty strings, embedded 0x00 and 0xFF bytes)
// and small alphabets, so random pairs often share leading cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sort_key.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace lt {
namespace {

// Every key column type: (a int32, b int64, s string, x blob, ts) -> (v).
Schema MixedSchema() {
  return Schema({Column("a", ColumnType::kInt32),
                 Column("b", ColumnType::kInt64),
                 Column("s", ColumnType::kString),
                 Column("x", ColumnType::kBlob),
                 Column("ts", ColumnType::kTimestamp),
                 Column("v", ColumnType::kDouble)},
                /*num_key_columns=*/5);
}

int Sign(int v) { return v < 0 ? -1 : (v > 0 ? 1 : 0); }

std::string RandomBytes(Random* rnd) {
  static const std::vector<std::string> kEdges = {
      "", std::string(1, '\0'), "\xff", std::string("\0\xff", 2),
      std::string("\xff\0", 2), std::string("a\0", 2), "a",
      std::string("\0\0\x01", 3)};
  if (rnd->Uniform(3) == 0) return kEdges[rnd->Uniform(kEdges.size())];
  static const char kAlphabet[] = {'\0', '\x01', '\xfe', '\xff', 'a'};
  std::string s(rnd->Uniform(5), '\0');
  for (char& c : s) c = kAlphabet[rnd->Uniform(sizeof(kAlphabet))];
  return s;
}

Value RandomCell(Random* rnd, ColumnType type) {
  switch (type) {
    case ColumnType::kInt32: {
      static const int32_t kEdges[] = {INT32_MIN, INT32_MAX, -1, 0, 1};
      if (rnd->Uniform(2) == 0) return Value::Int32(kEdges[rnd->Uniform(5)]);
      return Value::Int32(static_cast<int32_t>(rnd->UniformRange(-3, 3)));
    }
    case ColumnType::kInt64:
    case ColumnType::kTimestamp: {
      static const int64_t kEdges[] = {INT64_MIN, INT64_MAX, INT64_MIN + 1,
                                       -1, 0, 1, int64_t{1} << 32};
      if (rnd->Uniform(2) == 0) return Value::Int64(kEdges[rnd->Uniform(7)]);
      if (rnd->Uniform(2) == 0) return Value::Int64(rnd->UniformRange(-3, 3));
      return Value::Int64(static_cast<int64_t>(rnd->Next()));
    }
    case ColumnType::kString:
      return Value::String(RandomBytes(rnd));
    case ColumnType::kBlob:
      return Value::Blob(RandomBytes(rnd));
    case ColumnType::kDouble:
      return Value::Double(rnd->NextDouble());
  }
  return Value();
}

Row RandomRow(Random* rnd, const Schema& schema) {
  Row row;
  for (const Column& c : schema.columns()) row.push_back(RandomCell(rnd, c.type));
  return row;
}

std::string Encode(const Schema& schema, const Row& key) {
  std::string out;
  EncodeSortKey(&out, schema, key);
  return out;
}

std::vector<Schema> Schemas() {
  return {MixedSchema(), testutil::UsageSchema(), testutil::EventSchema(),
          testutil::TsOnlySchema()};
}

TEST(SortKeyTest, MemcmpOrderIsCompareKeysOrder) {
  Random rnd(1501);
  for (const Schema& schema : Schemas()) {
    for (int i = 0; i < 4000; i++) {
      Row a = RandomRow(&rnd, schema);
      Row b = RandomRow(&rnd, schema);
      // Share a random number of leading cells so later cells decide.
      const size_t shared = rnd.Uniform(schema.num_key_columns() + 1);
      for (size_t c = 0; c < shared; c++) b[c] = a[c];
      const std::string ea = Encode(schema, a), eb = Encode(schema, b);
      const int want = Sign(schema.CompareKeys(a, b));
      ASSERT_EQ(Sign(Slice(ea).compare(Slice(eb))), want)
          << "i=" << i << " shared=" << shared;
      // A schema-less VectorCursor's key covers every cell of the row: it
      // must order distinct keys the same way.
      if (want != 0) {
        std::string ra, rb;
        for (const Value& v : a) AppendSortKeyCell(&ra, v);
        for (const Value& v : b) AppendSortKeyCell(&rb, v);
        ASSERT_EQ(Sign(Slice(ra).compare(Slice(rb))), want) << "i=" << i;
      }
    }
  }
}

TEST(SortKeyTest, PrefixCompareIsCompareKeyToPrefix) {
  Random rnd(1502);
  for (const Schema& schema : Schemas()) {
    for (int i = 0; i < 2000; i++) {
      const Row a = RandomRow(&rnd, schema);
      Row b = RandomRow(&rnd, schema);
      const size_t shared = rnd.Uniform(schema.num_key_columns() + 1);
      for (size_t c = 0; c < shared; c++) b[c] = a[c];
      const std::string ea = Encode(schema, a);
      // Every prefix length, including longer than the key.
      for (size_t len = 0; len <= schema.num_key_columns() + 1; len++) {
        const Key prefix(b.begin(),
                         b.begin() + std::min(len, b.size()));
        std::string ep;
        EncodeSortKeyPrefix(&ep, schema, prefix);
        ASSERT_EQ(Sign(CompareSortKeyToPrefix(ea, ep)),
                  Sign(schema.CompareKeyToPrefix(a, prefix)))
            << "i=" << i << " len=" << len;
      }
    }
  }
}

TEST(SortKeyTest, TsIsTheLastEightBytes) {
  Random rnd(1503);
  for (const Schema& schema : Schemas()) {
    for (int i = 0; i < 2000; i++) {
      const Row a = RandomRow(&rnd, schema);
      ASSERT_EQ(SortKeyTs(Encode(schema, a)), a[schema.ts_index()].AsInt())
          << "i=" << i;
    }
  }
}

}  // namespace
}  // namespace lt
