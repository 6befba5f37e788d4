// Tests for the Table engine: inserts, 2-D bounded queries, TTL aging,
// uniqueness fast paths, flush-dependency durability, merging, latest-row
// queries, schema evolution, limits/pagination, and crash recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/db.h"
#include "core/table.h"
#include "core/tablet_reader.h"
#include "core/tablet_writer.h"
#include "env/mem_env.h"
#include "tests/test_util.h"
#include "util/logger.h"
#include "util/random.h"

namespace lt {
namespace {

using testutil::UsageRow;
using testutil::UsageSchema;

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<SimClock>(100 * kMicrosPerWeek);
    ResetOptions();
    Recreate();
  }

  void ResetOptions() {
    opts_ = TableOptions();
    opts_.merge.min_tablet_age = 0;
    opts_.merge.rollover_delay_frac = 0;
  }

  void Recreate() {
    table_.reset();
    Table::Destroy(&env_, "/db/usage");
    ASSERT_TRUE(Table::Create(&env_, clock_, "/db/usage", "usage",
                              UsageSchema(), opts_, &table_)
                    .ok());
  }

  void Reopen() {
    table_.reset();
    ASSERT_TRUE(
        Table::Open(&env_, clock_, "/db/usage", opts_, &table_).ok());
  }

  Timestamp Now() const { return clock_->Now(); }

  Status Insert(int64_t net, int64_t dev, Timestamp ts, int64_t bytes = 0) {
    return table_->InsertBatch({UsageRow(net, dev, ts, bytes, 0.0)});
  }

  std::vector<Row> Query(const QueryBounds& b) {
    QueryResult result;
    Status s = table_->Query(b, &result);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return result.rows;
  }

  MemEnv env_;
  std::shared_ptr<SimClock> clock_;
  TableOptions opts_;
  std::unique_ptr<Table> table_;
};

TEST_F(TableTest, InsertAndQueryFromMemory) {
  ASSERT_TRUE(Insert(1, 1, Now(), 10).ok());
  ASSERT_TRUE(Insert(1, 2, Now() + 1, 20).ok());
  std::vector<Row> rows = Query(QueryBounds{});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][3].i64(), 10);
  EXPECT_EQ(rows[1][3].i64(), 20);
}

TEST_F(TableTest, QueryAfterFlushAndMixedMemoryDisk) {
  ASSERT_TRUE(Insert(1, 1, Now(), 10).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  EXPECT_EQ(table_->NumDiskTablets(), 1u);
  EXPECT_EQ(table_->NumMemTablets(), 0u);
  ASSERT_TRUE(Insert(1, 2, Now() + 1, 20).ok());
  std::vector<Row> rows = Query(QueryBounds{});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1].i64(), 1);
  EXPECT_EQ(rows[1][1].i64(), 2);
}

TEST_F(TableTest, TwoDimensionalBoundingBox) {
  // The Figure 1 rectangle: key range x time range.
  Timestamp t0 = Now();
  for (int net = 0; net < 4; net++) {
    for (int dev = 0; dev < 4; dev++) {
      for (int m = 0; m < 10; m++) {
        ASSERT_TRUE(Insert(net, dev, t0 + m * kMicrosPerMinute, m).ok());
      }
    }
  }
  ASSERT_TRUE(table_->FlushAll().ok());
  QueryBounds b = QueryBounds::ForPrefix({Value::Int64(2)});
  b.min_ts = t0 + 3 * kMicrosPerMinute;
  b.max_ts = t0 + 6 * kMicrosPerMinute;
  std::vector<Row> rows = Query(b);
  ASSERT_EQ(rows.size(), 4u * 4u);  // 4 devices x minutes 3..6.
  for (const Row& r : rows) {
    EXPECT_EQ(r[0].i64(), 2);
    EXPECT_GE(r[2].AsInt(), b.min_ts);
    EXPECT_LE(r[2].AsInt(), b.max_ts);
  }
}

TEST_F(TableTest, ExclusiveTimestampBounds) {
  Timestamp t0 = Now();
  for (int m = 0; m < 5; m++) ASSERT_TRUE(Insert(1, 1, t0 + m, m).ok());
  QueryBounds b;
  b.min_ts = t0 + 1;
  b.min_ts_inclusive = false;
  b.max_ts = t0 + 3;
  b.max_ts_inclusive = false;
  std::vector<Row> rows = Query(b);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][2].AsInt(), t0 + 2);
}

TEST_F(TableTest, DescendingQuery) {
  Timestamp t0 = Now();
  for (int dev = 0; dev < 10; dev++) ASSERT_TRUE(Insert(1, dev, t0, dev).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  for (int dev = 10; dev < 20; dev++) ASSERT_TRUE(Insert(1, dev, t0, dev).ok());
  QueryBounds b;
  b.direction = Direction::kDescending;
  std::vector<Row> rows = Query(b);
  ASSERT_EQ(rows.size(), 20u);
  for (int i = 0; i < 20; i++) EXPECT_EQ(rows[i][1].i64(), 19 - i);
}

TEST_F(TableTest, LimitAndMoreAvailable) {
  Timestamp t0 = Now();
  for (int dev = 0; dev < 100; dev++) ASSERT_TRUE(Insert(1, dev, t0).ok());
  QueryBounds b;
  b.limit = 30;
  QueryResult result;
  ASSERT_TRUE(table_->Query(b, &result).ok());
  EXPECT_EQ(result.rows.size(), 30u);
  EXPECT_TRUE(result.more_available);
  // Continuation from the last key, exclusive (§3.5).
  QueryBounds cont = b;
  cont.min_key =
      KeyBound{UsageSchema().KeyOf(result.rows.back()), /*inclusive=*/false};
  QueryResult page2;
  ASSERT_TRUE(table_->Query(cont, &page2).ok());
  EXPECT_EQ(page2.rows.size(), 30u);
  EXPECT_EQ(page2.rows.front()[1].i64(), 30);
  // Exact-limit final page: no more_available.
  QueryBounds exact;
  exact.limit = 100;
  QueryResult all;
  ASSERT_TRUE(table_->Query(exact, &all).ok());
  EXPECT_EQ(all.rows.size(), 100u);
  EXPECT_FALSE(all.more_available);
}

TEST_F(TableTest, ServerRowLimitCapsResults) {
  opts_.server_row_limit = 10;
  Recreate();
  for (int dev = 0; dev < 25; dev++) ASSERT_TRUE(Insert(1, dev, Now()).ok());
  QueryResult result;
  ASSERT_TRUE(table_->Query(QueryBounds{}, &result).ok());
  EXPECT_EQ(result.rows.size(), 10u);
  EXPECT_TRUE(result.more_available);
}

TEST_F(TableTest, DuplicateKeyRejectedEverywhere) {
  Timestamp t = Now();
  ASSERT_TRUE(Insert(1, 1, t).ok());
  // Duplicate while in memory.
  EXPECT_TRUE(Insert(1, 1, t).IsAlreadyExists());
  ASSERT_TRUE(table_->FlushAll().ok());
  // Duplicate against disk (slow path).
  EXPECT_TRUE(Insert(1, 1, t).IsAlreadyExists());
  EXPECT_EQ(table_->stats().duplicates_rejected.load(), 2u);
  // Batch with an internal duplicate is rejected atomically.
  Status s = table_->InsertBatch(
      {UsageRow(2, 2, t + 5, 0, 0), UsageRow(2, 2, t + 5, 1, 1)});
  EXPECT_TRUE(s.IsAlreadyExists());
  EXPECT_TRUE(Query(QueryBounds::ForPrefix({Value::Int64(2)})).empty());
}

TEST_F(TableTest, UniquenessFastPathAccounting) {
  Timestamp t = Now();
  // Ascending timestamps: newest-ts fast path.
  ASSERT_TRUE(Insert(1, 1, t).ok());
  ASSERT_TRUE(Insert(1, 1, t + 1).ok());
  EXPECT_EQ(table_->stats().unique_by_newest_ts.load(), 2u);
  ASSERT_TRUE(table_->FlushAll().ok());
  // Same timestamp, larger key: max-key fast path.
  ASSERT_TRUE(Insert(5, 1, t + 1).ok());
  EXPECT_EQ(table_->stats().unique_by_max_key.load(), 1u);
  ASSERT_TRUE(table_->FlushAll().ok());
  // Same timestamp, key below the tablet max: point-query slow path.
  ASSERT_TRUE(Insert(0, 0, t + 1).ok());
  EXPECT_EQ(table_->stats().unique_by_point_query.load(), 1u);
}

TEST_F(TableTest, TtlFiltersAndReclaims) {
  opts_.ttl = kMicrosPerDay;
  Recreate();
  Timestamp t0 = Now();
  ASSERT_TRUE(Insert(1, 1, t0 - 2 * kMicrosPerHour, 1).ok());  // Old-ish.
  ASSERT_TRUE(Insert(1, 2, t0, 2).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  EXPECT_EQ(Query(QueryBounds{}).size(), 2u);
  // Advance past the first row's TTL: filtered from queries.
  clock_->Advance(kMicrosPerDay - kMicrosPerHour);
  std::vector<Row> rows = Query(QueryBounds{});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].i64(), 2);
  // Advance until everything expired; maintenance reclaims whole tablets.
  clock_->Advance(2 * kMicrosPerDay);
  EXPECT_TRUE(Query(QueryBounds{}).empty());
  ASSERT_TRUE(table_->MaintainNow().ok());
  EXPECT_EQ(table_->NumDiskTablets(), 0u);
  EXPECT_GE(table_->stats().tablets_expired.load(), 1u);
}

TEST_F(TableTest, SizeTriggeredSealAndFlushViaMaintain) {
  opts_.flush_bytes = 16 * 1024;  // Tiny flush threshold.
  Recreate();
  Timestamp t = Now();
  std::vector<Row> batch;
  for (int i = 0; i < 2000; i++) batch.push_back(UsageRow(1, i, t + i, i, 0));
  ASSERT_TRUE(table_->InsertBatch(batch).ok());
  ASSERT_TRUE(table_->MaintainNow().ok());
  EXPECT_GE(table_->NumDiskTablets(), 1u);
  EXPECT_EQ(Query(QueryBounds{}).size(), 2000u);
}

TEST_F(TableTest, AgeTriggeredFlush) {
  ASSERT_TRUE(Insert(1, 1, Now()).ok());
  ASSERT_TRUE(table_->MaintainNow().ok());
  EXPECT_EQ(table_->NumDiskTablets(), 0u);  // Too young.
  clock_->Advance(11 * kMicrosPerMinute);
  ASSERT_TRUE(table_->MaintainNow().ok());
  EXPECT_EQ(table_->NumDiskTablets(), 1u);
  EXPECT_EQ(table_->NumMemTablets(), 0u);
}

TEST_F(TableTest, OutOfOrderInsertsBinIntoSeparatePeriods) {
  Timestamp now = Now();
  // A device reconnecting after a long outage delivers old events (§3.4.3).
  ASSERT_TRUE(Insert(1, 1, now).ok());
  ASSERT_TRUE(Insert(1, 2, now - 3 * kMicrosPerDay).ok());
  ASSERT_TRUE(Insert(1, 3, now - 3 * kMicrosPerWeek).ok());
  EXPECT_EQ(table_->NumMemTablets(), 3u);
  EXPECT_EQ(Query(QueryBounds{}).size(), 3u);
}

TEST_F(TableTest, FlushDependencyClosureFlushedTogether) {
  Timestamp now = Now();
  // Interleave inserts across two periods: A(old), B(now), A(old).
  ASSERT_TRUE(Insert(1, 1, now - 3 * kMicrosPerDay).ok());  // Tablet A.
  ASSERT_TRUE(Insert(1, 2, now).ok());                      // Tablet B, edge A->B.
  ASSERT_TRUE(Insert(1, 3, now - 3 * kMicrosPerDay + 1).ok());  // A, edge B->A.
  EXPECT_EQ(table_->NumMemTablets(), 2u);
  // Flushing either one must flush both (cycle).
  ASSERT_TRUE(table_->FlushThrough(now - kMicrosPerDay).ok());
  EXPECT_EQ(table_->NumMemTablets(), 0u);
  EXPECT_EQ(table_->NumDiskTablets(), 2u);
}

TEST_F(TableTest, PartialFlushFailureNeverCommitsAcrossDependencyCycle) {
  // Regression: alternating inserts across period tablets create an edge
  // from an OLDER tablet id to a NEWER one (here a full cycle), so the
  // flush's id-ordered prefix is not dependency-closed on its own. A write
  // failure mid-flush must never durably commit a tablet whose
  // must-flush-first dependency was requeued — otherwise a crash keeps a
  // later-inserted row while losing an earlier one. Sweep the failure
  // across every write of the flush.
  for (int n = 1; n <= 40; n++) {
    SCOPED_TRACE("failing write #" + std::to_string(n));
    ResetOptions();
    Recreate();
    Timestamp now = Now();
    ASSERT_TRUE(Insert(1, 1, now - 3 * kMicrosPerDay).ok());  // Tablet A.
    ASSERT_TRUE(Insert(1, 2, now).ok());                      // B, edge B<-A.
    ASSERT_TRUE(Insert(1, 3, now - 3 * kMicrosPerDay + 1).ok());  // A, B->A.
    env_.FailNthWrite(n);
    Status s = table_->FlushAll();  // May fail; rows must stay served.
    env_.FailNthWrite(0);           // Disarm if the flush outran the sweep.
    EXPECT_EQ(Query(QueryBounds{}).size(), 3u);
    env_.DropUnsynced();
    Reopen();
    std::set<int64_t> alive;
    for (const Row& r : Query(QueryBounds{})) alive.insert(r[1].i64());
    // Prefix property (§3.1): device id == insertion order, so survivors
    // must be exactly {1..max}; all three once the flush succeeded.
    int64_t max_alive = 0;
    for (int64_t d : alive) max_alive = std::max(max_alive, d);
    EXPECT_EQ(static_cast<int64_t>(alive.size()), max_alive);
    if (s.ok()) {
      EXPECT_EQ(alive.size(), 3u);
    }
  }
}

TEST_F(TableTest, CrashLosesUnflushedButKeepsPrefix) {
  Timestamp now = Now();
  ASSERT_TRUE(Insert(1, 1, now, 1).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  ASSERT_TRUE(Insert(1, 2, now + 1, 2).ok());  // Never flushed.
  env_.DropUnsynced();
  Reopen();
  std::vector<Row> rows = Query(QueryBounds{});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].i64(), 1);
  // The table keeps accepting inserts after recovery.
  ASSERT_TRUE(Insert(1, 2, now + 1, 2).ok());
  EXPECT_EQ(Query(QueryBounds{}).size(), 2u);
}

TEST_F(TableTest, CrashDurabilityIsInsertionPrefixPerTable) {
  // §3.1: "if it retains a particular row after a crash, it will also
  // retain all rows that were inserted into the same table prior to that
  // row" — exercised across interleaved periods, where the dependency
  // graph does the work.
  Timestamp now = Now();
  std::vector<Row> inserted;
  Random r(17);
  for (int i = 0; i < 200; i++) {
    Timestamp ts;
    switch (r.Uniform(3)) {
      case 0: ts = now + i; break;                           // Current 4h bin.
      case 1: ts = now - 2 * kMicrosPerDay + i; break;       // Day bin.
      default: ts = now - 2 * kMicrosPerWeek + i; break;     // Week bin.
    }
    Row row = UsageRow(1, i, ts, i, 0);
    ASSERT_TRUE(table_->InsertBatch({row}).ok());
    inserted.push_back(row);
    if (i == 60) ASSERT_TRUE(table_->FlushThrough(now - kMicrosPerDay).ok());
    if (i == 120) ASSERT_TRUE(table_->FlushAll().ok());
  }
  env_.DropUnsynced();
  Reopen();
  std::vector<Row> survived = Query(QueryBounds{});
  // Identify survivors by device id (== insertion order here).
  std::set<int64_t> alive;
  for (const Row& row : survived) alive.insert(row[1].i64());
  // Prefix property: if row i survived, every j < i survived.
  int64_t max_alive = -1;
  for (int64_t d : alive) max_alive = std::max(max_alive, d);
  EXPECT_EQ(static_cast<int64_t>(alive.size()), max_alive + 1);
  // The explicit FlushAll at i==120 makes at least rows 0..120 durable.
  EXPECT_GE(max_alive, 120);
}

TEST_F(TableTest, MergeReducesTabletCountPreservesRows) {
  opts_.merge.max_merged_bytes = 1ull << 30;
  Recreate();
  Timestamp t0 = Now() - 10 * kMicrosPerWeek;  // One deep-past week bin.
  for (int flush = 0; flush < 8; flush++) {
    std::vector<Row> batch;
    for (int i = 0; i < 100; i++) {
      batch.push_back(UsageRow(flush, i, t0 + flush * 1000 + i, i, 0));
    }
    ASSERT_TRUE(table_->InsertBatch(batch).ok());
    ASSERT_TRUE(table_->FlushAll().ok());
  }
  EXPECT_EQ(table_->NumDiskTablets(), 8u);
  // Iterate maintenance until merging reaches a fixpoint.
  for (int i = 0; i < 20; i++) ASSERT_TRUE(table_->MaintainNow().ok());
  EXPECT_LT(table_->NumDiskTablets(), 8u);
  EXPECT_GE(table_->stats().merges.load(), 1u);
  std::vector<Row> rows = Query(QueryBounds{});
  EXPECT_EQ(rows.size(), 800u);
  for (size_t i = 1; i < rows.size(); i++) {
    EXPECT_LT(UsageSchema().CompareKeys(rows[i - 1], rows[i]), 0);
  }
}

TEST_F(TableTest, MergeSurvivesReopen) {
  Timestamp t0 = Now() - 10 * kMicrosPerWeek;
  for (int flush = 0; flush < 4; flush++) {
    ASSERT_TRUE(Insert(flush, 0, t0 + flush, flush).ok());
    ASSERT_TRUE(table_->FlushAll().ok());
  }
  for (int i = 0; i < 10; i++) ASSERT_TRUE(table_->MaintainNow().ok());
  size_t tablets = table_->NumDiskTablets();
  Reopen();
  EXPECT_EQ(table_->NumDiskTablets(), tablets);
  EXPECT_EQ(Query(QueryBounds{}).size(), 4u);
}

TEST_F(TableTest, LatestRowForPrefixBasic) {
  Timestamp t0 = Now();
  for (int m = 0; m < 10; m++) {
    ASSERT_TRUE(Insert(1, 1, t0 + m * kMicrosPerMinute, m).ok());
    ASSERT_TRUE(Insert(1, 2, t0 + m * kMicrosPerMinute, 100 + m).ok());
  }
  ASSERT_TRUE(table_->FlushAll().ok());
  Row row;
  bool found = false;
  // Full prefix (network, device).
  ASSERT_TRUE(table_
                  ->LatestRowForPrefix({Value::Int64(1), Value::Int64(1)},
                                       &row, &found)
                  .ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(row[3].i64(), 9);
  // Shorter prefix (network): latest across both devices.
  ASSERT_TRUE(
      table_->LatestRowForPrefix({Value::Int64(1)}, &row, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(row[2].AsInt(), t0 + 9 * kMicrosPerMinute);
  // Missing prefix.
  ASSERT_TRUE(
      table_->LatestRowForPrefix({Value::Int64(42)}, &row, &found).ok());
  EXPECT_FALSE(found);
}

TEST_F(TableTest, LatestRowSearchesArbitrarilyFarBack) {
  Timestamp now = Now();
  // Device 7 last reported three weeks ago; newer tablets hold other
  // devices (the §4.2 EventsGrabber scenario).
  ASSERT_TRUE(Insert(1, 7, now - 3 * kMicrosPerWeek, 777).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  for (int w = 2; w >= 0; w--) {
    ASSERT_TRUE(Insert(1, 8, now - w * kMicrosPerWeek + 1, w).ok());
    ASSERT_TRUE(table_->FlushAll().ok());
  }
  Row row;
  bool found = false;
  ASSERT_TRUE(table_
                  ->LatestRowForPrefix({Value::Int64(1), Value::Int64(7)},
                                       &row, &found)
                  .ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(row[3].i64(), 777);
  // Bloom filters should have skipped the non-matching newer tablets.
  EXPECT_GE(table_->stats().bloom_tablet_skips.load(), 1u);
}

TEST_F(TableTest, LatestRowSeesUnflushedData) {
  Timestamp now = Now();
  ASSERT_TRUE(Insert(3, 3, now - kMicrosPerDay, 1).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  ASSERT_TRUE(Insert(3, 3, now, 2).ok());  // Still in memory.
  Row row;
  bool found = false;
  ASSERT_TRUE(table_
                  ->LatestRowForPrefix({Value::Int64(3), Value::Int64(3)},
                                       &row, &found)
                  .ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(row[3].i64(), 2);
}

TEST_F(TableTest, LatestRowRespectsTtl) {
  opts_.ttl = kMicrosPerDay;
  Recreate();
  ASSERT_TRUE(Insert(1, 1, Now(), 5).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  clock_->Advance(2 * kMicrosPerDay);
  Row row;
  bool found = true;
  ASSERT_TRUE(
      table_->LatestRowForPrefix({Value::Int64(1)}, &row, &found).ok());
  EXPECT_FALSE(found);
}

TEST_F(TableTest, SchemaEvolutionAcrossFlushedData) {
  Timestamp t = Now();
  ASSERT_TRUE(Insert(1, 1, t, 11).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  ASSERT_TRUE(table_
                  ->AppendColumn(Column("packets", ColumnType::kInt64,
                                        Value::Int64(-1)))
                  .ok());
  // New rows carry the new column; old rows read back with the default.
  Row new_row = UsageRow(1, 2, t + 1, 22, 0);
  new_row.push_back(Value::Int64(500));
  ASSERT_TRUE(table_->InsertBatch({new_row}).ok());
  std::vector<Row> rows = Query(QueryBounds{});
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(rows[0].size(), 6u);
  EXPECT_EQ(rows[0][5].i64(), -1);   // Old row: default.
  EXPECT_EQ(rows[1][5].i64(), 500);  // New row: stored value.
  // Evolution survives reopen (flush first: reopening drops memtablets).
  ASSERT_TRUE(table_->FlushAll().ok());
  Reopen();
  EXPECT_EQ(table_->schema()->num_columns(), 6u);
  EXPECT_EQ(Query(QueryBounds{}).size(), 2u);
}

TEST_F(TableTest, WidenColumnAcrossFlushedData) {
  Schema narrow({Column("k", ColumnType::kInt64),
                 Column("ts", ColumnType::kTimestamp),
                 Column("n", ColumnType::kInt32)},
                2);
  std::unique_ptr<Table> t;
  ASSERT_TRUE(Table::Create(&env_, clock_, "/db/narrow", "narrow", narrow,
                            opts_, &t)
                  .ok());
  ASSERT_TRUE(
      t->InsertBatch({{Value::Int64(1), Value::Ts(Now()), Value::Int32(7)}})
          .ok());
  ASSERT_TRUE(t->FlushAll().ok());
  ASSERT_TRUE(t->WidenColumn("n").ok());
  Row wide = {Value::Int64(2), Value::Ts(Now() + 1), Value::Int64(1LL << 40)};
  ASSERT_TRUE(t->InsertBatch({wide}).ok());
  QueryResult result;
  ASSERT_TRUE(t->Query(QueryBounds{}, &result).ok());
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][2].i64(), 7);
  EXPECT_EQ(result.rows[1][2].i64(), 1LL << 40);
}

TEST_F(TableTest, SetTtlPersists) {
  ASSERT_TRUE(table_->SetTtl(3 * kMicrosPerWeek).ok());
  Reopen();
  EXPECT_EQ(table_->ttl(), 3 * kMicrosPerWeek);
}

TEST_F(TableTest, InsertRejectsSchemaViolations) {
  EXPECT_TRUE(table_->InsertBatch({{Value::Int64(1)}}).IsInvalidArgument());
  Row wrong_type = {Value::String("x"), Value::Int64(1), Value::Ts(1),
                    Value::Int64(0), Value::Double(0)};
  EXPECT_TRUE(table_->InsertBatch({wrong_type}).IsInvalidArgument());
}

TEST_F(TableTest, ScanStatsTrackEfficiencyRatio) {
  // Insert two interleaved device series in one tablet; querying a narrow
  // time slice scans rows outside it (Figure 9's numerator).
  Timestamp t0 = Now();
  for (int m = 0; m < 100; m++) ASSERT_TRUE(Insert(1, 1, t0 + m, m).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  QueryBounds b = QueryBounds::ForPrefix({Value::Int64(1), Value::Int64(1)});
  b.min_ts = t0 + 90;
  QueryResult result;
  ASSERT_TRUE(table_->Query(b, &result).ok());
  EXPECT_EQ(result.rows.size(), 10u);
  EXPECT_GT(result.rows_scanned, result.rows.size());
  EXPECT_EQ(table_->stats().rows_returned.load(), 10u);
}

TEST_F(TableTest, EmptyTableQueries) {
  EXPECT_TRUE(Query(QueryBounds{}).empty());
  Row row;
  bool found = true;
  ASSERT_TRUE(
      table_->LatestRowForPrefix({Value::Int64(1)}, &row, &found).ok());
  EXPECT_FALSE(found);
  ASSERT_TRUE(table_->FlushAll().ok());
  ASSERT_TRUE(table_->MaintainNow().ok());
}

TEST_F(TableTest, CreateRejectsInvalidSchemaAndDuplicates) {
  std::unique_ptr<Table> t;
  Schema bad({Column("x", ColumnType::kInt64)}, 1);
  EXPECT_FALSE(
      Table::Create(&env_, clock_, "/db/bad", "bad", bad, opts_, &t).ok());
  EXPECT_TRUE(Table::Create(&env_, clock_, "/db/usage", "usage",
                            UsageSchema(), opts_, &t)
                  .IsAlreadyExists());
}

TEST_F(TableTest, OrphanTabletFilesRemovedOnOpen) {
  ASSERT_TRUE(Insert(1, 1, Now()).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  // Simulate a crash that left a stray tablet and temp descriptor.
  ASSERT_TRUE(
      WriteStringToFile(&env_, "junk", "/db/usage/999999.tab", true).ok());
  ASSERT_TRUE(
      WriteStringToFile(&env_, "junk", "/db/usage/DESC.tmp", true).ok());
  Reopen();
  EXPECT_FALSE(env_.FileExists("/db/usage/999999.tab"));
  EXPECT_FALSE(env_.FileExists("/db/usage/DESC.tmp"));
  EXPECT_EQ(Query(QueryBounds{}).size(), 1u);
}

TEST_F(TableTest, BackpressureFlushesInline) {
  opts_.flush_bytes = 4 * 1024;
  opts_.max_unflushed_tablets = 2;
  Recreate();
  Timestamp t = Now();
  for (int batch = 0; batch < 20; batch++) {
    std::vector<Row> rows;
    for (int i = 0; i < 200; i++) {
      rows.push_back(UsageRow(batch, i, t + batch * 1000 + i, i, 0));
    }
    ASSERT_TRUE(table_->InsertBatch(rows).ok());
  }
  // The backlog cap forces flushes during inserts.
  EXPECT_GE(table_->stats().flushes.load(), 1u);
  EXPECT_EQ(Query(QueryBounds{}).size(), 4000u);
}

TEST_F(TableTest, ConcurrentInsertsAndQueries) {
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread writer([&] {
    Timestamp t = Now();
    for (int i = 0; i < 3000; i++) {
      if (!table_->InsertBatch({UsageRow(1, i, t + i, i, 0)}).ok()) {
        errors++;
        break;
      }
      if (i % 500 == 0 && !table_->FlushAll().ok()) errors++;
    }
    stop = true;
  });
  std::thread reader([&] {
    while (!stop.load()) {
      QueryResult result;
      if (!table_->Query(QueryBounds{}, &result).ok()) {
        errors++;
        break;
      }
      // Rows always arrive in strictly ascending key order.
      for (size_t i = 1; i < result.rows.size(); i++) {
        if (UsageSchema().CompareKeys(result.rows[i - 1], result.rows[i]) >= 0) {
          errors++;
        }
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(Query(QueryBounds{}).size(), 3000u);
}

TEST_F(TableTest, GroupCommitMatchesSerialDurableState) {
  // The same batches inserted serially and through 8 concurrent threads
  // (where InsertBatch coalesces them into commit groups) must produce
  // identical durable state.
  constexpr int kThreads = 8;
  constexpr int kBatchesPerThread = 25;
  constexpr int kRowsPerBatch = 20;
  const Timestamp t0 = Now();
  auto batch_rows = [&](int thread, int batch) {
    std::vector<Row> rows;
    for (int r = 0; r < kRowsPerBatch; r++) {
      rows.push_back(
          UsageRow(thread, batch * kRowsPerBatch + r, t0 + r, batch, 0.5));
    }
    return rows;
  };

  std::unique_ptr<Table> serial;
  ASSERT_TRUE(Table::Create(&env_, clock_, "/db/serial", "serial",
                            UsageSchema(), opts_, &serial)
                  .ok());
  for (int th = 0; th < kThreads; th++) {
    for (int b = 0; b < kBatchesPerThread; b++) {
      ASSERT_TRUE(serial->InsertBatch(batch_rows(th, b)).ok());
    }
  }

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; th++) {
    threads.emplace_back([&, th] {
      for (int b = 0; b < kBatchesPerThread; b++) {
        if (!table_->InsertBatch(batch_rows(th, b)).ok()) errors++;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);

  ASSERT_TRUE(serial->FlushAll().ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  QueryResult expect, got;
  ASSERT_TRUE(serial->Query(QueryBounds{}, &expect).ok());
  ASSERT_TRUE(table_->Query(QueryBounds{}, &got).ok());
  const size_t total = kThreads * kBatchesPerThread * kRowsPerBatch;
  ASSERT_EQ(expect.rows.size(), total);
  ASSERT_EQ(got.rows.size(), total);
  // Both scans return key order, so rows must match pairwise.
  const Schema schema = UsageSchema();
  for (size_t i = 0; i < total; i++) {
    EXPECT_EQ(schema.CompareKeys(expect.rows[i], got.rows[i]), 0) << i;
  }

  const TableStats& stats = table_->stats();
  EXPECT_EQ(stats.insert_batches.load(),
            static_cast<uint64_t>(kThreads * kBatchesPerThread));
  EXPECT_EQ(stats.rows_inserted.load(), total);
  // Every batch committed inside some group; groups never exceed batches.
  EXPECT_GE(stats.insert_groups.load(), 1u);
  EXPECT_LE(stats.insert_groups.load(), stats.insert_batches.load());
  EXPECT_EQ(stats.insert_micros.Count(),
            static_cast<uint64_t>(kThreads * kBatchesPerThread));
}

// An Env whose random-access reads (kReads) or tablet-file creations
// (kTabletWrites) block while a gate is closed. Lets a test park a
// group-commit leader on a uniqueness point query, or a flush before it
// writes its tablet, with no reliance on scheduler timing.
class GateEnv final : public Env {
 public:
  enum class Gate { kReads, kTabletWrites };
  GateEnv(Env* base, Gate gate) : base_(base), gate_(gate) {}

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = false;
    }
    cv_.notify_all();
  }
  void WaitForBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return waiting_ > 0; });
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    std::unique_ptr<RandomAccessFile> file;
    LT_RETURN_IF_ERROR(base_->NewRandomAccessFile(fname, &file));
    if (gate_ == Gate::kReads) {
      result->reset(new GatedFile(std::move(file), this));
    } else {
      *result = std::move(file);
    }
    return Status::OK();
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    if (gate_ == Gate::kTabletWrites && fname.ends_with(".tab")) Pass();
    return base_->NewWritableFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status RenameFile(const std::string& src, const std::string& dst) override {
    return base_->RenameFile(src, dst);
  }
  Status CreateDirIfMissing(const std::string& dirname) override {
    return base_->CreateDirIfMissing(dirname);
  }
  Status GetChildren(const std::string& dirname,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dirname, result);
  }

 private:
  class GatedFile final : public RandomAccessFile {
   public:
    GatedFile(std::unique_ptr<RandomAccessFile> base, GateEnv* env)
        : base_(std::move(base)), env_(env) {}
    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      env_->Pass();
      return base_->Read(offset, n, result, scratch);
    }
    Status Size(uint64_t* size) const override { return base_->Size(size); }

   private:
    std::unique_ptr<RandomAccessFile> base_;
    GateEnv* const env_;
  };

  // Returns once the gate is open, counting itself as waiting meanwhile.
  void Pass() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!closed_) return;
    waiting_++;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !closed_; });
    waiting_--;
  }

  Env* const base_;
  const Gate gate_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  int waiting_ = 0;
};

TEST_F(TableTest, GroupCommitCoalescesQueuedBatches) {
  // Deterministic coalescing proof (wall-clock benches can't show it on a
  // single-core box): park a leader inside its commit critical section on
  // a gated disk read, queue six more batches behind it, release — the six
  // must commit as ONE group.
  MemEnv mem;
  GateEnv env(&mem, GateEnv::Gate::kReads);
  TableOptions opts = opts_;
  opts.bloom_bits_per_key = 0;  // Force uniqueness point queries to disk.
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Create(&env, clock_, "/db/gated", "gated", UsageSchema(),
                            opts, &table)
                  .ok());
  const Timestamp t0 = Now();
  ASSERT_TRUE(table->InsertBatch({UsageRow(1, 5, t0, 0, 0.0)}).ok());
  ASSERT_TRUE(table->FlushAll().ok());

  // Key below the tablet's max at the tablet's exact timestamp: no fast
  // path applies, so uniqueness needs a point query through the gate.
  env.CloseGate();
  std::thread leader(
      [&] { EXPECT_TRUE(table->InsertBatch({UsageRow(1, 3, t0, 0, 0.0)}).ok()); });
  env.WaitForBlocked();

  constexpr int kFollowers = 6;
  std::vector<std::thread> followers;
  for (int i = 0; i < kFollowers; i++) {
    followers.emplace_back([&, i] {
      // Fresh timestamps take the newest-ts fast path: no disk, no gate.
      EXPECT_TRUE(
          table->InsertBatch({UsageRow(2, i, t0 + 1000 + i, 0, 0.0)}).ok());
    });
  }
  // Wait until every follower is queued behind the parked leader.
  while (table->PendingInserts() < 1 + kFollowers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  env.OpenGate();
  leader.join();
  for (std::thread& t : followers) t.join();

  // Three critical sections total: the setup insert, the parked leader,
  // and one coalesced group carrying all six followers.
  EXPECT_EQ(table->stats().insert_batches.load(), 8u);
  EXPECT_EQ(table->stats().insert_groups.load(), 3u);
  QueryResult all;
  ASSERT_TRUE(table->Query(QueryBounds{}, &all).ok());
  EXPECT_EQ(all.rows.size(), 8u);
}

TEST_F(TableTest, RowsStayVisibleWhileTheirMemTabletFlushes) {
  // Park a flush after it has taken its victims out of the flush queue but
  // before it writes their tablet. Every acknowledged row must still
  // answer queries from memory, the uniqueness check must still see it,
  // and once the commit swaps memtablet for tablet no row appears twice.
  MemEnv mem;
  GateEnv env(&mem, GateEnv::Gate::kTabletWrites);
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Create(&env, clock_, "/db/gated", "gated", UsageSchema(),
                            opts_, &table)
                  .ok());
  const Timestamp t0 = Now();
  constexpr int kDevices = 3;
  constexpr int kTicks = 20;
  for (int tick = 0; tick < kTicks; tick++) {
    std::vector<Row> batch;
    for (int d = 1; d <= kDevices; d++) {
      batch.push_back(UsageRow(1, d, t0 + tick * kMicrosPerSecond, tick, 0.0));
    }
    ASSERT_TRUE(table->InsertBatch(batch).ok());
  }
  const size_t total = kDevices * kTicks;

  auto expect_all_rows_once = [&](const char* when) {
    QueryResult all;
    ASSERT_TRUE(table->Query(QueryBounds{}, &all).ok()) << when;
    ASSERT_EQ(all.rows.size(), total) << when;
    const Schema schema = UsageSchema();
    for (size_t i = 1; i < all.rows.size(); i++) {
      EXPECT_LT(schema.CompareKeys(all.rows[i - 1], all.rows[i]), 0) << when;
    }
    for (int d = 1; d <= kDevices; d++) {
      Row row;
      bool found = false;
      ASSERT_TRUE(table
                      ->LatestRowForPrefix(
                          Key{Value::Int64(1), Value::Int64(d)}, &row, &found)
                      .ok());
      ASSERT_TRUE(found) << when << " device " << d;
      EXPECT_EQ(row[2].AsInt(), t0 + (kTicks - 1) * kMicrosPerSecond)
          << when << " device " << d;
    }
  };

  env.CloseGate();
  Status flush_status;
  std::thread flusher([&] { flush_status = table->FlushAll(); });
  env.WaitForBlocked();
  expect_all_rows_once("mid-flush");
  EXPECT_TRUE(table->InsertBatch({UsageRow(1, 2, t0, 0, 0.0)}).IsAlreadyExists())
      << "a duplicate of a mid-flush row must be rejected";
  env.OpenGate();
  flusher.join();
  ASSERT_TRUE(flush_status.ok()) << flush_status.ToString();
  EXPECT_EQ(table->NumMemTablets(), 0u);
  EXPECT_GE(table->NumDiskTablets(), 1u);
  expect_all_rows_once("after commit");
}

TEST_F(TableTest, GroupCommitKeepsBatchesAtomicUnderContention) {
  // Concurrent batches all containing the same contested key: exactly one
  // wins; every loser is rejected whole (none of its other rows land),
  // even when batches commit inside a shared group.
  constexpr int kThreads = 8;
  const Timestamp t0 = Now();
  std::atomic<int> successes{0};
  std::atomic<int> winner{-1};
  std::atomic<int> bad_status{0};
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; th++) {
    threads.emplace_back([&, th] {
      std::vector<Row> rows;
      rows.push_back(UsageRow(1, 100 + th, t0, th, 0.0));  // Unique per thread.
      rows.push_back(UsageRow(2, 5, t0, th, 0.0));         // Contested.
      Status s = table_->InsertBatch(rows);
      if (s.ok()) {
        successes++;
        winner = th;
      } else if (!s.IsAlreadyExists()) {
        bad_status++;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(successes.load(), 1);
  EXPECT_EQ(bad_status.load(), 0);

  std::vector<Row> rows = Query(QueryBounds{});
  // One contested row plus the single winner's unique row — losers left
  // nothing behind.
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(table_->stats().duplicates_rejected.load(),
            static_cast<uint64_t>(kThreads - 1));
}

// ----- Corruption recovery: quarantine and fail-closed behavior. -----

class CorruptionRecoveryTest : public TableTest {
 protected:
  // Two single-row disk tablets; returns their file paths.
  std::vector<std::string> TwoTablets() {
    Timestamp t0 = Now();
    EXPECT_TRUE(Insert(1, 1, t0, 10).ok());
    EXPECT_TRUE(table_->FlushAll().ok());
    EXPECT_TRUE(Insert(1, 2, t0 + 1, 20).ok());
    EXPECT_TRUE(table_->FlushAll().ok());
    EXPECT_EQ(table_->NumDiskTablets(), 2u);
    std::vector<std::string> paths;
    for (const TabletMeta& m : table_->DiskTablets()) {
      paths.push_back("/db/usage/" + m.filename);
    }
    return paths;
  }

  void SmashTrailer(const std::string& path) {
    uint64_t size = 0;
    ASSERT_TRUE(env_.GetFileSize(path, &size).ok());
    ASSERT_TRUE(env_.CorruptFile(path, size - 1).ok());
  }
};

TEST_F(CorruptionRecoveryTest, QueryQuarantinesCorruptTabletAndServesRest) {
  std::vector<std::string> paths = TwoTablets();
  SmashTrailer(paths[0]);
  Reopen();  // Lazy footers: open succeeds without touching the damage.
  std::vector<Row> rows = Query(QueryBounds{});
  ASSERT_EQ(rows.size(), 1u);  // The intact tablet's row, not garbage.
  EXPECT_EQ(table_->stats().tablets_quarantined.load(), 1u);
  EXPECT_EQ(table_->NumDiskTablets(), 1u);
  EXPECT_FALSE(env_.FileExists(paths[0]));
  EXPECT_TRUE(env_.FileExists(paths[0] + ".corrupt"));
  // The drop is persisted and the .corrupt file survives orphan cleanup.
  Reopen();
  EXPECT_EQ(table_->NumDiskTablets(), 1u);
  EXPECT_EQ(Query(QueryBounds{}).size(), 1u);
  EXPECT_TRUE(env_.FileExists(paths[0] + ".corrupt"));
}

TEST_F(CorruptionRecoveryTest, MissingTabletFileQuarantinedAtOpen) {
  std::vector<std::string> paths = TwoTablets();
  ASSERT_TRUE(env_.RemoveFile(paths[1]).ok());
  Reopen();  // The reader can't even open; quarantined immediately.
  EXPECT_EQ(table_->NumDiskTablets(), 1u);
  EXPECT_EQ(table_->stats().tablets_quarantined.load(), 1u);
  EXPECT_EQ(Query(QueryBounds{}).size(), 1u);
}

TEST_F(CorruptionRecoveryTest, VerifyOpenQuarantinesEagerly) {
  std::vector<std::string> paths = TwoTablets();
  SmashTrailer(paths[0]);
  opts_.verify_open = true;
  Reopen();
  // Quarantined during Open, before any query touches the table.
  EXPECT_EQ(table_->NumDiskTablets(), 1u);
  EXPECT_EQ(table_->stats().tablets_quarantined.load(), 1u);
  EXPECT_TRUE(env_.FileExists(paths[0] + ".corrupt"));
}

TEST_F(CorruptionRecoveryTest, BlockCorruptionFailsClosedNeverWrongRows) {
  Timestamp t0 = Now();
  std::vector<Row> batch;
  for (int d = 0; d < 1000; d++) {
    batch.push_back(UsageRow(d / 100, d % 100, t0 + d, d, 0.0));
  }
  ASSERT_TRUE(table_->InsertBatch(batch).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  ASSERT_EQ(table_->NumDiskTablets(), 1u);
  const std::string path = "/db/usage/" + table_->DiskTablets()[0].filename;
  ASSERT_TRUE(env_.CorruptFile(path, 100).ok());  // Inside the first block.
  Reopen();
  QueryResult result;
  Status s = table_->Query(QueryBounds{}, &result);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // The footer is intact, so the tablet stays (only its blocks are bad):
  // the query fails closed instead of returning wrong rows.
  EXPECT_EQ(table_->stats().tablets_quarantined.load(), 0u);
  EXPECT_EQ(table_->NumDiskTablets(), 1u);
}

// ----- DB-level recovery and lifecycle. -----

class DbTest : public ::testing::Test {
 protected:
  DbTest() : clock_(std::make_shared<SimClock>(100 * kMicrosPerWeek)) {
    opts_.background_maintenance = false;
  }

  Status OpenDb() { return DB::Open(&env_, clock_, "/db", opts_, &db_); }

  MemEnv env_;
  std::shared_ptr<SimClock> clock_;
  DbOptions opts_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbTest, RejectsDotOnlyTableNames) {
  ASSERT_TRUE(OpenDb().ok());
  // "." and ".." double as directory names and would alias or escape the
  // database root.
  EXPECT_TRUE(db_->CreateTable(".", UsageSchema()).IsInvalidArgument());
  EXPECT_TRUE(db_->CreateTable("..", UsageSchema()).IsInvalidArgument());
  EXPECT_TRUE(db_->CreateTable("...", UsageSchema()).IsInvalidArgument());
  EXPECT_TRUE(db_->CreateTable("a/b", UsageSchema()).IsInvalidArgument());
  EXPECT_TRUE(db_->CreateTable("", UsageSchema()).IsInvalidArgument());
  // Dots inside an otherwise normal name stay legal.
  EXPECT_TRUE(db_->CreateTable("v1.usage", UsageSchema()).ok());
}

TEST_F(DbTest, CloseFlushesBufferedRows) {
  ASSERT_TRUE(OpenDb().ok());
  ASSERT_TRUE(db_->CreateTable("usage", UsageSchema()).ok());
  std::shared_ptr<Table> table = db_->GetTable("usage");
  ASSERT_TRUE(
      table->InsertBatch({UsageRow(1, 1, clock_->Now(), 42, 0.0)}).ok());
  EXPECT_EQ(table->NumDiskTablets(), 0u);  // Still buffered in memory.
  ASSERT_TRUE(db_->Close().ok());
  EXPECT_EQ(table->NumDiskTablets(), 1u);  // Close flushed it.
  ASSERT_TRUE(db_->Close().ok());          // Idempotent.
  db_.reset();                             // ~DB after Close already ran.

  ASSERT_TRUE(OpenDb().ok());
  table = db_->GetTable("usage");
  ASSERT_NE(table, nullptr);
  QueryResult result;
  ASSERT_TRUE(table->Query(QueryBounds{}, &result).ok());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][3].i64(), 42);
}

TEST_F(DbTest, OpenSkipsUnreadableTable) {
  ASSERT_TRUE(OpenDb().ok());
  ASSERT_TRUE(db_->CreateTable("good", UsageSchema()).ok());
  ASSERT_TRUE(db_->CreateTable("bad", UsageSchema()).ok());
  ASSERT_TRUE(
      db_->GetTable("good")->InsertBatch({UsageRow(1, 1, clock_->Now(), 7, 0.0)})
          .ok());
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();
  // Destroy the bad table's descriptor.
  ASSERT_TRUE(WriteStringToFile(&env_, "garbage", "/db/bad/DESC", false).ok());

  ASSERT_TRUE(OpenDb().ok());  // Still opens.
  std::vector<std::string> names = db_->ListTables();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "good");
  QueryResult result;
  ASSERT_TRUE(db_->GetTable("good")->Query(QueryBounds{}, &result).ok());
  EXPECT_EQ(result.rows.size(), 1u);
}

TEST_F(DbTest, OpenServesRemainingTabletsWhenOneIsCorrupt) {
  ASSERT_TRUE(OpenDb().ok());
  ASSERT_TRUE(db_->CreateTable("usage", UsageSchema()).ok());
  std::shared_ptr<Table> table = db_->GetTable("usage");
  Timestamp t0 = clock_->Now();
  ASSERT_TRUE(table->InsertBatch({UsageRow(1, 1, t0, 10, 0.0)}).ok());
  ASSERT_TRUE(table->FlushAll().ok());
  ASSERT_TRUE(table->InsertBatch({UsageRow(1, 2, t0 + 1, 20, 0.0)}).ok());
  ASSERT_TRUE(table->FlushAll().ok());
  ASSERT_EQ(table->NumDiskTablets(), 2u);
  const std::string victim =
      "/db/usage/" + table->DiskTablets()[0].filename;
  table.reset();
  db_.reset();
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize(victim, &size).ok());
  ASSERT_TRUE(env_.CorruptFile(victim, size - 1).ok());  // Trailer magic.

  ASSERT_TRUE(OpenDb().ok());
  table = db_->GetTable("usage");
  ASSERT_NE(table, nullptr);
  QueryResult result;
  ASSERT_TRUE(table->Query(QueryBounds{}, &result).ok());
  ASSERT_EQ(result.rows.size(), 1u);  // Survivor served; corrupt one dropped.
  EXPECT_EQ(result.rows[0][3].i64(), 20);
  EXPECT_EQ(table->stats().tablets_quarantined.load(), 1u);
  EXPECT_TRUE(env_.FileExists(victim + ".corrupt"));
}

// ----- Observability. -----

TEST_F(TableTest, WriteAmplificationSentinels) {
  // Nothing written yet: every byte (vacuously) written once.
  EXPECT_DOUBLE_EQ(table_->stats().WriteAmplification(), 1.0);
  // Merge bytes with no observed flush (reopened table, reset stats): the
  // denominator is unknown — +inf, not a silent 0.
  table_->stats().bytes_merge_written.fetch_add(1000);
  EXPECT_TRUE(std::isinf(table_->stats().WriteAmplification()));
  EXPECT_GT(table_->stats().WriteAmplification(), 0.0);
  // With both observed, the usual (flushed + merged) / flushed ratio.
  table_->stats().bytes_flushed.fetch_add(500);
  EXPECT_DOUBLE_EQ(table_->stats().WriteAmplification(), 3.0);
}

TEST_F(TableTest, OperationLatencyHistogramsRecord) {
  ASSERT_TRUE(Insert(1, 1, Now()).ok());
  ASSERT_TRUE(Insert(1, 2, Now() + 1).ok());
  ASSERT_TRUE(Insert(1, 3, Now() + 2).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  Query(QueryBounds{});
  Query(QueryBounds{});

  TableStats& stats = table_->stats();
  EXPECT_EQ(stats.insert_micros.Count(), 3u);  // One per InsertBatch.
  EXPECT_EQ(stats.query_micros.Count(), 2u);
  EXPECT_GE(stats.flush_micros.Count(), 1u);
  // Sub-microsecond operations clamp to 1 µs, so quantiles stay nonzero.
  EXPECT_GE(stats.insert_micros.Snapshot().P50(), 1u);
  EXPECT_GE(stats.query_micros.Snapshot().P99(), 1u);
}

TEST_F(TableTest, QueryTracePopulated) {
  Timestamp t0 = Now();
  for (int i = 0; i < 100; i++) ASSERT_TRUE(Insert(1, i, t0 + i).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  clock_->Advance(kMicrosPerWeek);
  Timestamp t1 = Now();
  for (int i = 0; i < 50; i++) ASSERT_TRUE(Insert(2, i, t1 + i).ok());

  // Full scan: the disk tablet is considered (mem tablets are snapshotted,
  // not counted), all rows scanned, disk blocks read.
  QueryTrace trace;
  QueryResult result;
  ASSERT_TRUE(table_->Query(QueryBounds{}, &result, &trace).ok());
  EXPECT_EQ(trace.tablets_considered, 1u);
  EXPECT_EQ(trace.TabletsPruned(), 0u);
  EXPECT_EQ(trace.rows_scanned, 150u);
  EXPECT_EQ(trace.rows_returned, 150u);
  EXPECT_GE(trace.blocks_read, 1u);
  EXPECT_GE(trace.elapsed_micros, 0);

  // Time-bounded scan: the disk tablet's range ends before min_ts, so it is
  // pruned by timestamp without being opened.
  QueryBounds recent;
  recent.min_ts = t1;
  QueryTrace pruned;
  QueryResult recent_result;
  ASSERT_TRUE(table_->Query(recent, &recent_result, &pruned).ok());
  EXPECT_EQ(recent_result.rows.size(), 50u);
  EXPECT_GE(pruned.tablets_pruned_time, 1u);
  EXPECT_EQ(pruned.blocks_read, 0u);

  // A second query into the same trace accumulates (pagination pattern).
  ASSERT_TRUE(table_->Query(recent, &recent_result, &pruned).ok());
  EXPECT_EQ(pruned.rows_returned, 100u);
}

// ---- Block format v2: mixed-version tables, projection pushdown. ----

// A table whose disk tablets span every supported format version serves
// queries across all of them, and merging rewrites the survivors at the
// latest (columnar) format — the upgrade path needs no offline tool.
TEST_F(TableTest, MixedFormatVersionTabletsServeAndMergeToLatest) {
  opts_.merge.max_merged_bytes = 1ull << 30;
  Recreate();
  Timestamp t0 = Now() - 10 * kMicrosPerWeek;  // One deep-past week bin.
  for (uint32_t version = 0; version <= kTabletFormatLatest; version++) {
    // format_version only affects fresh flushes, so a reopen per version
    // gives one tablet of each.
    opts_.format_version = version;
    Reopen();
    std::vector<Row> batch;
    for (int i = 0; i < 100; i++) {
      batch.push_back(UsageRow(version, i, t0 + version * 1000 + i, i, 0.5));
    }
    ASSERT_TRUE(table_->InsertBatch(batch).ok());
    ASSERT_TRUE(table_->FlushAll().ok());
  }
  EXPECT_EQ(table_->NumDiskTablets(), kTabletFormatLatest + 1);

  // One tablet per version on disk; verify by opening them directly.
  auto tablet_versions = [&] {
    std::vector<uint32_t> versions;
    std::vector<std::string> children;
    EXPECT_TRUE(env_.GetChildren("/db/usage", &children).ok());
    for (const std::string& name : children) {
      if (name.size() < 4 || name.substr(name.size() - 4) != ".tab") continue;
      std::shared_ptr<TabletReader> r;
      EXPECT_TRUE(
          TabletReader::Open(&env_, "/db/usage/" + name, &r).ok());
      EXPECT_TRUE(r->Load().ok());
      versions.push_back(r->format_version());
    }
    std::sort(versions.begin(), versions.end());
    return versions;
  };
  EXPECT_EQ(tablet_versions(), (std::vector<uint32_t>{0, 1, 2}));

  // Queries span all three formats transparently.
  std::vector<Row> rows = Query(QueryBounds{});
  ASSERT_EQ(rows.size(), 300u);
  for (size_t i = 1; i < rows.size(); i++) {
    EXPECT_LT(UsageSchema().CompareKeys(rows[i - 1], rows[i]), 0);
  }

  // Merge the mixed inputs: the output tablet is the latest format and
  // preserves every row.
  for (int i = 0; i < 20; i++) ASSERT_TRUE(table_->MaintainNow().ok());
  ASSERT_LT(table_->NumDiskTablets(), 3u);
  EXPECT_GE(table_->stats().merges.load(), 1u);
  for (uint32_t v : tablet_versions()) EXPECT_EQ(v, kTabletFormatLatest);
  rows = Query(QueryBounds{});
  EXPECT_EQ(rows.size(), 300u);

  // And the merged table survives a reopen at default options.
  ResetOptions();
  Reopen();
  EXPECT_EQ(Query(QueryBounds{}).size(), 300u);
}

// The acceptance check for lazy materialization: a projected query over
// flushed (columnar) tablets decodes zero chunks for unreferenced columns.
TEST_F(TableTest, ProjectedQueryDecodesOnlyReferencedChunks) {
  Timestamp t0 = Now();
  for (int i = 0; i < 200; i++) ASSERT_TRUE(Insert(1, i, t0 + i, i).ok());
  ASSERT_TRUE(table_->FlushAll().ok());

  QueryBounds b;
  b.projection = {3};  // bytes. Keys decode regardless; rate must not.
  QueryTrace trace;
  QueryResult result;
  ASSERT_TRUE(table_->Query(b, &result, &trace).ok());
  ASSERT_EQ(result.rows.size(), 200u);
  EXPECT_EQ(result.rows[7][3].i64(), 7);
  EXPECT_EQ(result.rows[7][4].dbl(), 0.0);  // Unprojected -> default.
  const uint64_t skipped = table_->stats().column_chunks_skipped.load();
  const uint64_t decoded = table_->stats().column_chunks_decoded.load();
  EXPECT_GE(skipped, 1u);
  EXPECT_EQ(trace.column_chunks_skipped, skipped);
  // 5-column schema, 1 unreferenced: exactly 4 decodes per skip.
  EXPECT_EQ(decoded, 4 * skipped);

  // An unprojected query decodes the remaining chunks and skips nothing.
  QueryResult full;
  ASSERT_TRUE(table_->Query(QueryBounds{}, &full).ok());
  EXPECT_EQ(full.rows[7][4].dbl(), 0.0);  // rate was inserted as 0.0.
  EXPECT_EQ(table_->stats().column_chunks_skipped.load(), skipped);
  EXPECT_GT(table_->stats().column_chunks_decoded.load(), decoded);

  // Out-of-range projection indices are rejected up front.
  QueryBounds bad;
  bad.projection = {99};
  QueryResult ignored;
  EXPECT_TRUE(table_->Query(bad, &ignored).IsInvalidArgument());
}

TEST_F(TableTest, CreateRejectsUnknownFormatVersion) {
  TableOptions opts = opts_;
  opts.format_version = kTabletFormatLatest + 1;
  std::unique_ptr<Table> t;
  EXPECT_TRUE(Table::Create(&env_, clock_, "/db/future", "future",
                            UsageSchema(), opts, &t)
                  .IsInvalidArgument());
}

TEST_F(TableTest, SlowQueryLogEmitsOneStructuredLine) {
  auto sink = std::make_shared<CaptureLogSink>();
  opts_.logger = std::make_shared<Logger>(LogLevel::kDebug, sink);
  opts_.slow_query_micros = 1;  // Everything is slow.
  Recreate();
  // Enough work that the query measurably takes >= 1 µs on any machine.
  for (int i = 0; i < 500; i++) ASSERT_TRUE(Insert(1, i, Now() + i, i).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  Query(QueryBounds{});

  auto slow_lines = [&] {
    std::vector<std::string> out;
    for (const std::string& line : sink->lines()) {
      if (line.find(" event=slow_query") != std::string::npos)
        out.push_back(line);
    }
    return out;
  };
  std::vector<std::string> slow = slow_lines();
  ASSERT_EQ(slow.size(), 1u);  // Exactly one line per slow query.
  const std::string& line = slow[0];
  EXPECT_NE(line.find(" table=\"usage\""), std::string::npos) << line;
  EXPECT_NE(line.find(" elapsed_us="), std::string::npos) << line;
  EXPECT_NE(line.find(" rows_scanned=500"), std::string::npos) << line;
  EXPECT_NE(line.find(" rows_returned=500"), std::string::npos) << line;
  EXPECT_NE(line.find(" tablets_considered=1"), std::string::npos) << line;
  EXPECT_NE(line.find(" tablets_pruned=0"), std::string::npos) << line;
  EXPECT_NE(line.find(" blocks_read="), std::string::npos) << line;
  EXPECT_NE(line.find(" cache_hits="), std::string::npos) << line;

  Query(QueryBounds{});
  EXPECT_EQ(slow_lines().size(), 2u);
}

TEST_F(TableTest, SlowQueryLogOffByDefault) {
  auto sink = std::make_shared<CaptureLogSink>();
  opts_.logger = std::make_shared<Logger>(LogLevel::kDebug, sink);
  ASSERT_EQ(opts_.slow_query_micros, 0);  // Default: disabled.
  Recreate();
  ASSERT_TRUE(Insert(1, 1, Now()).ok());
  Query(QueryBounds{});
  for (const std::string& line : sink->lines()) {
    EXPECT_EQ(line.find("slow_query"), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace lt
