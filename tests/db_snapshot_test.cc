#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/db/database.h"
#include "src/db/row_store.h"
#include "src/obs/obs.h"

namespace seal::db {
namespace {

QueryResult Exec(Database& db, std::string_view sql) {
  auto r = db.Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  if (!r.ok()) {
    return QueryResult{};
  }
  return std::move(*r);
}

Row MakeRow(int64_t time, const std::string& text) {
  Row row;
  row.push_back(Value(time));
  row.push_back(Value(text));
  return row;
}

// --- RowStore ---

TEST(RowStore, AppendAndIndexAcrossChunks) {
  RowStore store;
  const size_t n = RowStore::kChunkRows * 3 + 17;  // spans chunk boundaries
  for (size_t i = 0; i < n; ++i) {
    store.push_back(MakeRow(static_cast<int64_t>(i), "r" + std::to_string(i)));
  }
  ASSERT_EQ(store.size(), n);
  for (size_t i = 0; i < n; i += 113) {
    EXPECT_EQ(store[i][0].AsInt(), static_cast<int64_t>(i));
  }
}

TEST(RowStore, ViewIsAStablePrefixUnderAppends) {
  RowStore store;
  for (int i = 0; i < 100; ++i) {
    store.push_back(MakeRow(i, "old"));
  }
  RowStore::View view = store.Snapshot();
  ASSERT_EQ(view.size(), 100u);
  // Appends past the watermark (including directory growth) must not move
  // or change the rows the view exposes.
  for (int i = 100; i < 2000; ++i) {
    store.push_back(MakeRow(i, "new"));
  }
  EXPECT_EQ(view.size(), 100u);
  for (size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view[i][0].AsInt(), static_cast<int64_t>(i));
    EXPECT_EQ(view[i][1].AsText(), "old");
  }
}

TEST(RowStore, ViewSurvivesAssign) {
  RowStore store;
  for (int i = 0; i < 600; ++i) {
    store.push_back(MakeRow(i, "pre-trim"));
  }
  RowStore::View view = store.Snapshot();
  // Simulate a trim: the store is rebuilt with a single survivor. Fresh
  // chunks mean the view keeps reading the pre-trim rows.
  store.Assign({MakeRow(599, "survivor")});
  EXPECT_EQ(store.size(), 1u);
  ASSERT_EQ(view.size(), 600u);
  EXPECT_EQ(view[0][1].AsText(), "pre-trim");
  EXPECT_EQ(view[599][0].AsInt(), 599);
}

TEST(RowStore, ConcurrentReadersWhileAppending) {
  RowStore store;
  for (int i = 0; i < 256; ++i) {
    store.push_back(MakeRow(i, "x"));
  }
  RowStore::View view = store.Snapshot();
  std::atomic<bool> bad{false};
  std::thread reader([&] {
    for (int pass = 0; pass < 200; ++pass) {
      for (size_t i = 0; i < view.size(); ++i) {
        if (view[i][0].AsInt() != static_cast<int64_t>(i)) {
          bad.store(true);
          return;
        }
      }
    }
  });
  // Single mutator (externally synchronised in real use) racing the reader.
  for (int i = 256; i < 6000; ++i) {
    store.push_back(MakeRow(i, "x"));
  }
  reader.join();
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(store.size(), 6000u);
}

TEST(RowsRef, RangeOverViewAndOwnedRows) {
  RowStore store;
  for (int i = 0; i < 10; ++i) {
    store.push_back(MakeRow(i, "v"));
  }
  RowsRef ranged(store.Snapshot(), 3, 7);
  ASSERT_EQ(ranged.size(), 4u);
  int64_t expect = 3;
  for (const Row& row : ranged) {
    EXPECT_EQ(row[0].AsInt(), expect++);
  }
  RowsRef owned(std::vector<Row>{MakeRow(42, "o")});
  ASSERT_EQ(owned.size(), 1u);
  EXPECT_EQ(owned[0][0].AsInt(), 42);
}

// --- database snapshots ---

Database MakeUpdatesDb(int rows) {
  Database db;
  Exec(db, "CREATE TABLE updates (time, branch, commit_id)");
  for (int i = 1; i <= rows; ++i) {
    Exec(db, "INSERT INTO updates VALUES (" + std::to_string(i) + ", 'main', 'c" +
                 std::to_string(i) + "')");
  }
  return db;
}

TEST(Snapshot, ReadsThePinnedPrefixOnly) {
  Database db = MakeUpdatesDb(5);
  Snapshot snap = db.CaptureSnapshot();
  Exec(db, "INSERT INTO updates VALUES (6, 'main', 'c6')");
  auto live = Exec(db, "SELECT count(*) FROM updates");
  EXPECT_EQ(live.rows[0][0].AsInt(), 6);
  auto snapped = db.ExecuteSnapshot("SELECT count(*) FROM updates", snap);
  ASSERT_TRUE(snapped.ok());
  EXPECT_EQ(snapped->rows[0][0].AsInt(), 5);
}

TEST(Snapshot, SurvivesDeleteAndFlagsStaleness) {
  Database db = MakeUpdatesDb(10);
  Snapshot snap = db.CaptureSnapshot();
  EXPECT_TRUE(db.SnapshotCurrent(snap));
  Exec(db, "DELETE FROM updates WHERE time <= 9");
  EXPECT_EQ(db.TableSize("updates"), 1u);
  EXPECT_FALSE(db.SnapshotCurrent(snap));  // trim epoch moved
  // The snapshot still sees all ten pre-trim rows.
  auto snapped = db.ExecuteSnapshot("SELECT time FROM updates ORDER BY time", snap);
  ASSERT_TRUE(snapped.ok());
  ASSERT_EQ(snapped->rows.size(), 10u);
  EXPECT_EQ(snapped->rows[0][0].AsInt(), 1);
  EXPECT_EQ(snapped->rows[9][0].AsInt(), 10);
}

TEST(Snapshot, MatchesLiveResultsOnAFrozenDatabase) {
  Database db = MakeUpdatesDb(50);
  Exec(db, "CREATE VIEW recent AS SELECT * FROM updates WHERE time > 40");
  Snapshot snap = db.CaptureSnapshot();
  for (std::string sql :
       {std::string("SELECT * FROM updates WHERE time > 17 ORDER BY time"),
        std::string("SELECT branch, count(*) FROM updates GROUP BY branch"),
        std::string("SELECT max(time) FROM updates")}) {
    auto live = Exec(db, sql);
    auto snapped = db.ExecuteSnapshot(sql, snap);
    ASSERT_TRUE(snapped.ok()) << sql;
    ASSERT_EQ(snapped->rows.size(), live.rows.size()) << sql;
    for (size_t i = 0; i < live.rows.size(); ++i) {
      for (size_t c = 0; c < live.rows[i].size(); ++c) {
        EXPECT_EQ(snapped->rows[i][c].Serialize(), live.rows[i][c].Serialize()) << sql;
      }
    }
  }
}

TEST(Snapshot, SortedViewDrivesTheIndexedFastPaths) {
  // A time-sorted pinned view doubles as the time index: MAX(time) and
  // ORDER BY time DESC LIMIT k must take the descending-walk fast path
  // instead of degrading to a full scan + sort (the correlated-subquery
  // shape of the Git soundness invariant, per outer row).
  obs::Registry::Global().Reset();
  Database db = MakeUpdatesDb(200);
  Snapshot snap = db.CaptureSnapshot();
  Exec(db, "INSERT INTO updates VALUES (201, 'main', 'c201')");  // past the pin
  for (std::string sql :
       {std::string("SELECT max(time) FROM updates"),
        std::string("SELECT commit_id FROM updates WHERE time < 150 ORDER BY time DESC LIMIT 1"),
        std::string("SELECT time, commit_id FROM updates ORDER BY time DESC LIMIT 3 OFFSET 2")}) {
    auto snapped = db.ExecuteSnapshot(sql, snap);
    ASSERT_TRUE(snapped.ok()) << sql;
    Tuning slow;
    slow.use_time_index = false;
    slow.use_hash_join = false;
    db.set_tuning(slow);
    auto general = db.ExecuteSnapshot(sql, snap);
    db.set_tuning(Tuning{});
    ASSERT_TRUE(general.ok()) << sql;
    ASSERT_EQ(snapped->rows.size(), general->rows.size()) << sql;
    for (size_t i = 0; i < general->rows.size(); ++i) {
      for (size_t c = 0; c < general->rows[i].size(); ++c) {
        EXPECT_EQ(snapped->rows[i][c].Serialize(), general->rows[i][c].Serialize()) << sql;
      }
    }
  }
  // The snapshot's max must come from the pinned prefix, not the live row.
  auto max_time = db.ExecuteSnapshot("SELECT max(time) FROM updates", snap);
  ASSERT_TRUE(max_time.ok());
  EXPECT_EQ(max_time->rows[0][0].AsInt(), 200);
  auto metrics = obs::Registry::Global().TakeSnapshot();
  EXPECT_GT(metrics.counter("seadb_fastpath_hits_total{kind=\"max_time\"}"), 0u);
  EXPECT_GT(metrics.counter("seadb_fastpath_hits_total{kind=\"order_by_time_limit\"}"), 0u);
}

TEST(Snapshot, TimeBoundNarrowingUsesTheSortedView) {
  obs::Registry::Global().Reset();
  Database db = MakeUpdatesDb(2000);  // large enough to make scans visible
  Snapshot snap = db.CaptureSnapshot();
  auto r = db.ExecuteSnapshot("SELECT count(*) FROM updates WHERE time > 1990", snap);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 10);
  auto metrics = obs::Registry::Global().TakeSnapshot();
  EXPECT_GT(metrics.counter("seadb_index_range_scans_total"), 0u);
  EXPECT_GT(metrics.counter("db_snapshot_reads_total"), 0u);
}

// --- prepared plans ---

TEST(PreparedPlans, FloorRebindMatchesExecuteWithTimeFloor) {
  Database db = MakeUpdatesDb(30);
  auto plan = db.Prepare("SELECT time FROM updates ORDER BY time", /*with_time_floor=*/true);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->has_floor_slot());
  for (int64_t floor : {0, 7, 29, 30}) {
    auto prepared = db.ExecutePrepared(*plan, floor);
    ASSERT_TRUE(prepared.ok());
    auto reference = db.ExecuteWithTimeFloor("SELECT time FROM updates ORDER BY time", floor);
    ASSERT_TRUE(reference.ok());
    ASSERT_EQ(prepared->rows.size(), reference->rows.size()) << "floor=" << floor;
    for (size_t i = 0; i < prepared->rows.size(); ++i) {
      EXPECT_EQ(prepared->rows[i][0].AsInt(), reference->rows[i][0].AsInt());
    }
  }
}

TEST(PreparedPlans, RejectsNonSelect) {
  Database db;
  Exec(db, "CREATE TABLE t (time)");
  EXPECT_FALSE(db.Prepare("INSERT INTO t VALUES (1)", false).ok());
  EXPECT_FALSE(db.Prepare("DELETE FROM t", true).ok());
}

TEST(PlanCache, HitsMissesAndEpochInvalidation) {
  obs::Registry::Global().Reset();
  Database db = MakeUpdatesDb(10);
  PlanCache cache;
  const std::string sql = "SELECT count(*) FROM updates";

  ASSERT_TRUE(cache.Execute(db, sql).ok());  // miss: first sight
  ASSERT_TRUE(cache.Execute(db, sql).ok());  // hit
  ASSERT_TRUE(cache.Execute(db, sql, 5).ok());  // miss: floored variant
  ASSERT_TRUE(cache.Execute(db, sql, 7).ok());  // hit: same variant, new floor
  EXPECT_EQ(cache.size(), 2u);

  auto metrics = obs::Registry::Global().TakeSnapshot();
  EXPECT_EQ(metrics.counter("db_plan_cache_hits_total"), 2u);
  EXPECT_EQ(metrics.counter("db_plan_cache_misses_total"), 2u);

  // A trim changes rows, not the parsed plan: the cached plan stays valid
  // and reads the post-trim table.
  Exec(db, "DELETE FROM updates WHERE time <= 5");
  auto trimmed = cache.Execute(db, sql);
  ASSERT_TRUE(trimmed.ok());
  EXPECT_EQ(trimmed->rows[0][0].AsInt(), 5);
  metrics = obs::Registry::Global().TakeSnapshot();
  EXPECT_EQ(metrics.counter("db_plan_cache_hits_total"), 3u);
  EXPECT_EQ(metrics.counter("db_plan_cache_misses_total"), 2u);

  // A schema change invalidates the plan.
  Exec(db, "CREATE TABLE unrelated (time)");
  ASSERT_TRUE(cache.Execute(db, sql).ok());
  metrics = obs::Registry::Global().TakeSnapshot();
  EXPECT_EQ(metrics.counter("db_plan_cache_hits_total"), 3u);
  EXPECT_EQ(metrics.counter("db_plan_cache_misses_total"), 3u);
}

TEST(PlanCache, FlooredExecutionAgainstSnapshotMatchesLive) {
  Database db = MakeUpdatesDb(40);
  PlanCache cache;
  Snapshot snap = db.CaptureSnapshot();
  Exec(db, "INSERT INTO updates VALUES (41, 'main', 'c41')");
  const std::string sql = "SELECT time FROM updates ORDER BY time";
  auto snapped = cache.Execute(db, sql, 35, &snap);
  ASSERT_TRUE(snapped.ok());
  ASSERT_EQ(snapped->rows.size(), 5u);  // 36..40: the post-snapshot row is invisible
  EXPECT_EQ(snapped->rows.back()[0].AsInt(), 40);
  auto live = cache.Execute(db, sql, 35);
  ASSERT_TRUE(live.ok());
  ASSERT_EQ(live->rows.size(), 6u);
  EXPECT_EQ(live->rows.back()[0].AsInt(), 41);
}

}  // namespace
}  // namespace seal::db
