// Tests for the cursor layer: VectorCursor boundary behavior (the signed
// position invariant) and the MergingCursor tournament heap against a
// brute-force sorted merge over randomized child partitions, including
// string-keyed schemas merged from on-disk tablets and in-memory rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/cursor.h"
#include "core/sort_key.h"
#include "core/tablet_reader.h"
#include "core/tablet_writer.h"
#include "env/mem_env.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace lt {
namespace {

using testutil::UsageRow;
using testutil::UsageSchema;

std::vector<Row> Drain(Cursor* c) {
  std::vector<Row> rows;
  while (c->Valid()) {
    Row row;
    EXPECT_TRUE(c->ReadRow(&row).ok());
    rows.push_back(std::move(row));
    EXPECT_TRUE(c->Next().ok());
  }
  EXPECT_TRUE(c->status().ok());
  return rows;
}

TEST(VectorCursorTest, EmptyVectorAscendingInvalid) {
  VectorCursor c({}, Direction::kAscending);
  EXPECT_FALSE(c.Valid());
  // Next on an exhausted cursor is a harmless no-op, repeatedly.
  for (int i = 0; i < 3; i++) {
    EXPECT_TRUE(c.Next().ok());
    EXPECT_FALSE(c.Valid());
  }
}

TEST(VectorCursorTest, EmptyVectorDescendingInvalid) {
  // Regression: descending over an empty vector starts at pos = -1; a
  // size_t position would wrap to 2^64-1 and read out of bounds.
  VectorCursor c({}, Direction::kDescending);
  EXPECT_FALSE(c.Valid());
  for (int i = 0; i < 3; i++) {
    EXPECT_TRUE(c.Next().ok());
    EXPECT_FALSE(c.Valid());
  }
}

TEST(VectorCursorTest, DescendingIteratesInReverse) {
  std::vector<Row> rows;
  for (int i = 0; i < 5; i++) rows.push_back(UsageRow(1, i, 100 + i, 0, 0));
  VectorCursor c(std::move(rows), Direction::kDescending);
  std::vector<Row> got = Drain(&c);
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(got[i][1].i64(), 4 - i);
  }
  // Exhausted cursors stay exhausted; Next cannot resurrect them by
  // wrapping the position back into range.
  for (int i = 0; i < 3; i++) {
    EXPECT_TRUE(c.Next().ok());
    EXPECT_FALSE(c.Valid());
  }
}

TEST(MergingCursorTest, EmptyChildrenSetIsInvalid) {
  Schema s = UsageSchema();
  MergingCursor m(&s, {}, Direction::kAscending);
  EXPECT_FALSE(m.Valid());
  EXPECT_TRUE(m.status().ok());
}

TEST(MergingCursorTest, AllChildrenEmpty) {
  Schema s = UsageSchema();
  std::vector<std::unique_ptr<Cursor>> children;
  for (int i = 0; i < 4; i++) {
    children.push_back(
        std::make_unique<VectorCursor>(std::vector<Row>{}, Direction::kAscending));
  }
  MergingCursor m(&s, std::move(children), Direction::kAscending);
  EXPECT_FALSE(m.Valid());
  EXPECT_TRUE(m.status().ok());
}

// Randomized differential test: deal n distinct keys across k children,
// merge, and compare against the sorted whole. Exercises heap sizes well
// past the handful-of-tablets case, in both directions. The children have
// no schema, so their sort keys cover every cell of the row.
TEST(MergingCursorTest, RandomizedMergeMatchesSort) {
  Schema s = UsageSchema();
  Random rnd(42);
  for (int round = 0; round < 20; round++) {
    const int n = 1 + static_cast<int>(rnd.Uniform(400));
    const int k = 1 + static_cast<int>(rnd.Uniform(17));
    const Direction dir =
        round % 2 == 0 ? Direction::kAscending : Direction::kDescending;

    std::vector<std::vector<Row>> parts(k);
    std::vector<int> devices;
    for (int d = 0; d < n; d++) devices.push_back(d);
    // Unique keys (LittleTable enforces uniqueness at insert): each device
    // number lands in exactly one child.
    for (int d : devices) {
      parts[rnd.Uniform(k)].push_back(UsageRow(d / 50, d % 50, 1000 + d, d, 0));
    }

    std::vector<std::unique_ptr<Cursor>> children;
    for (auto& p : parts) {
      // VectorCursor takes ascending-sorted rows and iterates them in
      // `dir` itself.
      children.push_back(std::make_unique<VectorCursor>(std::move(p), dir));
    }
    MergingCursor m(&s, std::move(children), dir);
    std::vector<Row> got = Drain(&m);

    ASSERT_EQ(got.size(), static_cast<size_t>(n)) << "round=" << round;
    for (int i = 0; i + 1 < n; i++) {
      int cmp = s.CompareKeys(got[i], got[i + 1]);
      if (dir == Direction::kDescending) cmp = -cmp;
      EXPECT_LT(cmp, 0) << "round=" << round << " i=" << i;
    }
  }
}

// Keys with embedded 0x00/0xFF bytes, shared prefixes and integers of
// every sign and width, dealt across TabletCursor children (every tablet
// format, small blocks) and VectorCursor children, merged in both
// directions under random key bounds: the merge must be the sorted,
// bounded whole, and its sort key must be the encoding of each row's key.
TEST(MergingCursorTest, RandomizedMergeOverTabletsAndVectors) {
  const Schema schemas[] = {
      testutil::EventSchema(),
      Schema({Column("site", ColumnType::kString),
              Column("dev", ColumnType::kInt32),
              Column("tag", ColumnType::kBlob),
              Column("ts", ColumnType::kTimestamp),
              Column("v", ColumnType::kInt64)},
             /*num_key_columns=*/4),
      Schema({Column("net", ColumnType::kInt64),
              Column("dev", ColumnType::kInt32),
              Column("ts", ColumnType::kTimestamp),
              Column("v", ColumnType::kInt64)},
             /*num_key_columns=*/3)};
  static const char kAlphabet[] = {'\0', '\x01', 'a', '\xfe', '\xff'};
  Random rnd(77);
  MemEnv env;
  int file_no = 0;
  for (int round = 0; round < 36; round++) {
    const Schema& s = schemas[round % 3];
    const Direction dir =
        (round / 3) % 2 == 0 ? Direction::kAscending : Direction::kDescending;
    // Small ranges make shared prefixes; wide ones differ in high bytes.
    auto cell = [&](ColumnType t) {
      const bool wide = rnd.Uniform(4) == 0;
      if (t == ColumnType::kInt32) {
        return Value::Int32(static_cast<int32_t>(
            wide ? static_cast<int64_t>(rnd.Next() >> 32) - (int64_t{1} << 31)
                 : rnd.UniformRange(-2, 2)));
      }
      if (t == ColumnType::kInt64 || t == ColumnType::kTimestamp) {
        return Value::Int64(wide ? static_cast<int64_t>(rnd.Next())
                                 : rnd.UniformRange(-3, 3));
      }
      std::string b(rnd.Uniform(4), '\0');
      for (char& c : b) c = kAlphabet[rnd.Uniform(sizeof(kAlphabet))];
      return t == ColumnType::kString ? Value::String(b) : Value::Blob(b);
    };
    std::vector<Row> all;
    const int n = 1 + static_cast<int>(rnd.Uniform(300));
    for (int i = 0; i < n; i++) {
      Row r;
      for (const Column& c : s.columns()) r.push_back(cell(c.type));
      all.push_back(std::move(r));
    }
    auto less = [&](const Row& a, const Row& b) {
      return s.CompareKeys(a, b) < 0;
    };
    std::sort(all.begin(), all.end(), less);
    all.erase(std::unique(all.begin(), all.end(),
                          [&](const Row& a, const Row& b) {
                            return s.CompareKeys(a, b) == 0;
                          }),
              all.end());

    QueryBounds bounds;
    bounds.direction = dir;
    auto prefix_of = [&](const Row& r) {
      return Key(r.begin(), r.begin() + 1 + rnd.Uniform(s.num_key_columns()));
    };
    if (rnd.Uniform(2) == 0) {
      bounds.min_key = KeyBound{prefix_of(all[rnd.Uniform(all.size())]),
                                rnd.Uniform(2) == 0};
    }
    if (rnd.Uniform(2) == 0) {
      bounds.max_key = KeyBound{prefix_of(all[rnd.Uniform(all.size())]),
                                rnd.Uniform(2) == 0};
    }

    const size_t k = 1 + rnd.Uniform(8);
    std::vector<std::vector<Row>> parts(k);
    for (const Row& r : all) parts[rnd.Uniform(k)].push_back(r);
    std::vector<std::unique_ptr<Cursor>> children;
    std::vector<std::shared_ptr<TabletReader>> readers;
    for (std::vector<Row>& p : parts) {
      if (rnd.Uniform(2) == 0) {
        std::vector<Row> in_range;
        for (Row& r : p) {
          if (bounds.KeyInRange(s, r)) in_range.push_back(std::move(r));
        }
        children.push_back(
            std::make_unique<VectorCursor>(std::move(in_range), dir, &s));
        continue;
      }
      const std::string fname = "/t/" + std::to_string(file_no++) + ".tab";
      TabletWriterOptions wopts;
      wopts.block_bytes = 64;
      wopts.format_version = static_cast<uint32_t>(rnd.Uniform(3));
      TabletWriter w(&env, fname, &s, wopts);
      for (const Row& r : p) ASSERT_TRUE(w.Add(r).ok());
      TabletMeta meta;
      ASSERT_TRUE(w.Finish(&meta).ok());
      std::shared_ptr<TabletReader> reader;
      ASSERT_TRUE(TabletReader::Open(&env, fname, &reader).ok());
      ASSERT_TRUE(reader->Load().ok());
      std::unique_ptr<Cursor> c;
      ASSERT_TRUE(reader->NewCursor(bounds, &s, nullptr, &c).ok());
      children.push_back(std::move(c));
      readers.push_back(std::move(reader));
    }
    MergingCursor m(&s, std::move(children), dir);

    std::vector<Row> want;
    for (const Row& r : all) {
      if (bounds.KeyInRange(s, r)) want.push_back(r);
    }
    if (dir == Direction::kDescending) std::reverse(want.begin(), want.end());
    size_t i = 0;
    for (; m.Valid(); i++) {
      ASSERT_LT(i, want.size()) << "round=" << round;
      Row row;
      ASSERT_TRUE(m.ReadRow(&row).ok());
      ASSERT_EQ(s.CompareKeys(row, want[i]), 0)
          << "round=" << round << " i=" << i;
      ASSERT_EQ(row.back().Compare(want[i].back()), 0);
      std::string key;
      EncodeSortKey(&key, s, row);
      ASSERT_EQ(m.sort_key().ToString(), key);
      EXPECT_EQ(SortKeyTs(m.sort_key()), row[s.ts_index()].AsInt());
      ASSERT_TRUE(m.Next().ok());
    }
    EXPECT_TRUE(m.status().ok());
    EXPECT_EQ(i, want.size()) << "round=" << round;
  }
}

TEST(MergingCursorTest, SingleChildPassThrough) {
  Schema s = UsageSchema();
  std::vector<Row> rows;
  for (int i = 0; i < 10; i++) rows.push_back(UsageRow(1, i, 100, 0, 0));
  std::vector<std::unique_ptr<Cursor>> children;
  children.push_back(
      std::make_unique<VectorCursor>(std::move(rows), Direction::kAscending));
  MergingCursor m(&s, std::move(children), Direction::kAscending);
  std::vector<Row> got = Drain(&m);
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; i++) EXPECT_EQ(got[i][1].i64(), i);
}

}  // namespace
}  // namespace lt
