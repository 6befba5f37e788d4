// Tests for the in-memory tablet: ordered inserts, duplicate rejection,
// bounded cursors, and size/timespan accounting.
#include <gtest/gtest.h>

#include "core/memtablet.h"
#include "core/sort_key.h"
#include "tests/test_util.h"

namespace lt {
namespace {

using testutil::UsageRow;
using testutil::UsageSchema;

class MemTabletTest : public ::testing::Test {
 protected:
  MemTabletTest()
      : schema_(std::make_shared<const Schema>(UsageSchema())),
        mt_(std::make_shared<MemTablet>(1, schema_, Period{0, kMicrosPerDay},
                                        0)) {}

  /// The rows a MemTabletCursor over `bounds` yields, in its order.
  std::vector<Row> Read(const QueryBounds& bounds) {
    MemTabletCursor c(mt_, bounds);
    std::vector<Row> rows;
    while (c.Valid()) {
      rows.emplace_back();
      EXPECT_TRUE(c.ReadRow(&rows.back()).ok());
      EXPECT_TRUE(c.Next().ok());
    }
    EXPECT_EQ(rows.size(), c.size());
    return rows;
  }

  std::string SortKey(const Row& row) {
    std::string key;
    EncodeSortKey(&key, *schema_, row);
    return key;
  }

  std::shared_ptr<const Schema> schema_;
  std::shared_ptr<MemTablet> mt_;
};

TEST_F(MemTabletTest, InsertAndSnapshotOrdered) {
  ASSERT_TRUE(mt_->Insert(UsageRow(2, 1, 100, 0, 0)));
  ASSERT_TRUE(mt_->Insert(UsageRow(1, 9, 200, 0, 0)));
  ASSERT_TRUE(mt_->Insert(UsageRow(1, 2, 300, 0, 0)));
  std::vector<Row> rows = Read(QueryBounds{});
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].i64(), 1);
  EXPECT_EQ(rows[0][1].i64(), 2);
  EXPECT_EQ(rows[1][1].i64(), 9);
  EXPECT_EQ(rows[2][0].i64(), 2);
}

TEST_F(MemTabletTest, DuplicateKeyRejected) {
  ASSERT_TRUE(mt_->Insert(UsageRow(1, 1, 100, 5, 0)));
  EXPECT_FALSE(mt_->Insert(UsageRow(1, 1, 100, 99, 1)));  // Same full key.
  EXPECT_TRUE(mt_->Insert(UsageRow(1, 1, 101, 99, 1)));   // Different ts.
  EXPECT_EQ(mt_->num_rows(), 2u);
}

TEST_F(MemTabletTest, ContainsKey) {
  ASSERT_TRUE(mt_->Insert(UsageRow(3, 4, 500, 0, 0)));
  EXPECT_TRUE(mt_->ContainsKey(SortKey(UsageRow(3, 4, 500, 123, 9.0))));
  EXPECT_FALSE(mt_->ContainsKey(SortKey(UsageRow(3, 4, 501, 0, 0))));
}

TEST_F(MemTabletTest, TimespanTracksMinMax) {
  mt_->Insert(UsageRow(1, 1, 500, 0, 0));
  EXPECT_EQ(mt_->min_ts(), 500);
  EXPECT_EQ(mt_->max_ts(), 500);
  mt_->Insert(UsageRow(1, 2, 100, 0, 0));
  mt_->Insert(UsageRow(1, 3, 900, 0, 0));
  EXPECT_EQ(mt_->min_ts(), 100);
  EXPECT_EQ(mt_->max_ts(), 900);
}

TEST_F(MemTabletTest, ApproximateBytesGrows) {
  size_t before = mt_->ApproximateBytes();
  mt_->Insert(UsageRow(1, 1, 1, 1, 1.0));
  size_t one = mt_->ApproximateBytes();
  EXPECT_GT(one, before);
  for (int i = 2; i <= 100; i++) mt_->Insert(UsageRow(1, i, 1, 1, 1.0));
  EXPECT_GT(mt_->ApproximateBytes(), one * 50);
}

TEST_F(MemTabletTest, SnapshotRespectsKeyBounds) {
  for (int net = 0; net < 5; net++) {
    for (int dev = 0; dev < 10; dev++) {
      ASSERT_TRUE(mt_->Insert(UsageRow(net, dev, 100 + dev, 0, 0)));
    }
  }
  QueryBounds b = QueryBounds::ForPrefix({Value::Int64(2)});
  std::vector<Row> rows = Read(b);
  ASSERT_EQ(rows.size(), 10u);
  for (const Row& r : rows) EXPECT_EQ(r[0].i64(), 2);

  // Exclusive min bound.
  QueryBounds b2;
  b2.min_key = KeyBound{{Value::Int64(2), Value::Int64(4)}, false};
  b2.max_key = KeyBound{{Value::Int64(2)}, true};
  rows = Read(b2);
  ASSERT_EQ(rows.size(), 5u);  // Devices 5..9.
  EXPECT_EQ(rows.front()[1].i64(), 5);

  // Exclusive max bound.
  QueryBounds b3;
  b3.min_key = KeyBound{{Value::Int64(3)}, true};
  b3.max_key = KeyBound{{Value::Int64(3), Value::Int64(2)}, false};
  rows = Read(b3);
  ASSERT_EQ(rows.size(), 2u);  // Devices 0, 1.
}

TEST_F(MemTabletTest, SnapshotIgnoresTimestampDimension) {
  // The cursor filters keys only; ts filtering happens downstream (§3.2).
  mt_->Insert(UsageRow(1, 1, 100, 0, 0));
  mt_->Insert(UsageRow(1, 2, 999999, 0, 0));
  QueryBounds b;
  b.min_ts = 500;
  EXPECT_EQ(Read(b).size(), 2u);
}

TEST_F(MemTabletTest, SealMakesReadOnlyFlag) {
  EXPECT_FALSE(mt_->sealed());
  mt_->Seal();
  EXPECT_TRUE(mt_->sealed());
}

TEST_F(MemTabletTest, MaxKeyRow) {
  mt_->Insert(UsageRow(1, 5, 10, 0, 0));
  mt_->Insert(UsageRow(4, 0, 5, 0, 0));
  mt_->Insert(UsageRow(2, 9, 20, 0, 0));
  // The largest key is where a descending cursor starts.
  QueryBounds desc;
  desc.direction = Direction::kDescending;
  EXPECT_EQ(Read(desc).front()[0].i64(), 4);
}

TEST_F(MemTabletTest, AllRowsAscending) {
  for (int i = 100; i > 0; i--) ASSERT_TRUE(mt_->Insert(UsageRow(1, i, 50, 0, 0)));
  std::vector<Row> rows = Read(QueryBounds{});
  ASSERT_EQ(rows.size(), 100u);
  for (size_t i = 1; i < rows.size(); i++) {
    EXPECT_LT(schema_->CompareKeys(rows[i - 1], rows[i]), 0);
  }
}

}  // namespace
}  // namespace lt
