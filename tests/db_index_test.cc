// Tests for the seadb time-column index, the hash-join path and the
// incremental invariant checking built on top of them: index maintenance
// across INSERT/DELETE/UPDATE/Trim, byte-identical query results with the
// optimisations on vs off (on all four SSM invariant suites), and the
// per-invariant watermark lifecycle.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/logger.h"
#include "src/db/database.h"
#include "src/obs/obs.h"
#include "src/services/dropbox_service.h"
#include "src/services/git_service.h"
#include "src/services/messaging_service.h"
#include "src/services/owncloud_service.h"
#include "src/ssm/dropbox_ssm.h"
#include "src/ssm/git_ssm.h"
#include "src/ssm/messaging_ssm.h"
#include "src/ssm/owncloud_ssm.h"

namespace seal {
namespace {

using db::Database;
using db::QueryResult;

QueryResult Exec(Database& db, const std::string& sql) {
  auto r = db.Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  return r.ok() ? *r : QueryResult{};
}

// Canonical textual form of a result: column list then every row with every
// value serialised. Two results are equivalent iff their fingerprints match.
std::string Fingerprint(const QueryResult& r) {
  std::string s;
  for (const std::string& c : r.columns) {
    s += c;
    s += '|';
  }
  s += '\n';
  for (const db::Row& row : r.rows) {
    for (const db::Value& v : row) {
      s += v.Serialize();
      s += '|';
    }
    s += '\n';
  }
  return s;
}

// --- Index maintenance -----------------------------------------------------

TEST(TimeIndex, MaintainedAcrossInsertDeleteUpdate) {
  Database db;
  Exec(db, "CREATE TABLE t(time, x)");
  Exec(db, "INSERT INTO t VALUES (5, 'e'), (1, 'a'), (3, 'c')");
  const auto* index = db.TimeIndexForTesting("t");
  ASSERT_NE(index, nullptr);
  ASSERT_EQ(index->size(), 3u);
  EXPECT_EQ((*index)[0].first, 1);
  EXPECT_EQ((*index)[1].first, 3);
  EXPECT_EQ((*index)[2].first, 5);
  // Positions point at the right rows.
  const auto* rows = db.TableRows("t");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ((*rows)[(*index)[0].second][1].AsText(), "a");
  EXPECT_EQ((*rows)[(*index)[2].second][1].AsText(), "e");

  Exec(db, "DELETE FROM t WHERE time = 3");
  index = db.TimeIndexForTesting("t");
  ASSERT_NE(index, nullptr);
  ASSERT_EQ(index->size(), 2u);
  EXPECT_EQ((*index)[0].first, 1);
  EXPECT_EQ((*index)[1].first, 5);

  Exec(db, "UPDATE t SET time = 9 WHERE x = 'a'");
  index = db.TimeIndexForTesting("t");
  ASSERT_NE(index, nullptr);
  ASSERT_EQ(index->size(), 2u);
  EXPECT_EQ((*index)[0].first, 5);
  EXPECT_EQ((*index)[1].first, 9);
}

TEST(TimeIndex, DuplicateTimesKeepRowOrder) {
  Database db;
  Exec(db, "CREATE TABLE t(time, x)");
  Exec(db, "INSERT INTO t VALUES (2, 'a'), (2, 'b'), (1, 'c'), (2, 'd')");
  const auto* index = db.TimeIndexForTesting("t");
  ASSERT_NE(index, nullptr);
  ASSERT_EQ(index->size(), 4u);
  EXPECT_EQ((*index)[0].first, 1);
  // Equal keys stay in insertion (row-position) order.
  EXPECT_LT((*index)[1].second, (*index)[2].second);
  EXPECT_LT((*index)[2].second, (*index)[3].second);
}

TEST(TimeIndex, InvalidatedByNonIntegerTime) {
  Database db;
  Exec(db, "CREATE TABLE t(time, x)");
  Exec(db, "INSERT INTO t VALUES (1, 'a')");
  ASSERT_NE(db.TimeIndexForTesting("t"), nullptr);
  Exec(db, "INSERT INTO t VALUES ('late', 'b')");
  EXPECT_EQ(db.TimeIndexForTesting("t"), nullptr);

  Database db2;
  Exec(db2, "CREATE TABLE t(time)");
  Exec(db2, "INSERT INTO t VALUES (NULL)");
  EXPECT_EQ(db2.TimeIndexForTesting("t"), nullptr);

  // No time column at all: never indexed.
  Database db3;
  Exec(db3, "CREATE TABLE u(a, b)");
  Exec(db3, "INSERT INTO u VALUES (1, 2)");
  EXPECT_EQ(db3.TimeIndexForTesting("u"), nullptr);
}

TEST(TimeIndex, SurvivesSerialisationRoundTrip) {
  Database db;
  Exec(db, "CREATE TABLE t(time, x)");
  Exec(db, "INSERT INTO t VALUES (4, 'd'), (2, 'b')");
  auto restored = Database::Deserialize(db.Serialize());
  ASSERT_TRUE(restored.ok());
  const auto* index = restored->TimeIndexForTesting("t");
  ASSERT_NE(index, nullptr);
  ASSERT_EQ(index->size(), 2u);
  EXPECT_EQ((*index)[0].first, 2);
  EXPECT_EQ((*index)[1].first, 4);
}

// --- Incremental time-index maintenance after trims ------------------------

// Runs `sql` on `db` with the time index and hash joins on, then off, and
// expects byte-identical results: after a trim the indexed path reads the
// remapped index, the plain path never touches it.
void ExpectTuningsAgree(Database& db, const std::string& sql) {
  db.set_tuning(db::Tuning{});
  auto fast = db.Execute(sql);
  db.set_tuning({.use_time_index = false, .use_hash_join = false});
  auto plain = db.Execute(sql);
  db.set_tuning(db::Tuning{});
  ASSERT_TRUE(fast.ok()) << sql << ": " << fast.status().ToString();
  ASSERT_TRUE(plain.ok()) << sql << ": " << plain.status().ToString();
  EXPECT_EQ(Fingerprint(*fast), Fingerprint(*plain)) << sql;
}

// The index after a DELETE-with-WHERE must equal the index of a database
// built from scratch with only the surviving rows.
TEST(TimeIndexAfterTrim, RemappedIndexEqualsRebuiltIndex) {
  Database db;
  Exec(db, "CREATE TABLE updates(time, repo)");
  for (int i = 1; i <= 30; ++i) {
    Exec(db, "INSERT INTO updates VALUES (" + std::to_string(i) + ", 'r" +
                 std::to_string(i % 3) + "')");
  }
  // Trim a non-prefix subset (WHERE on a non-time column) so surviving
  // rows compact to new positions.
  Exec(db, "DELETE FROM updates WHERE repo = 'r1'");

  Database fresh;
  Exec(fresh, "CREATE TABLE updates(time, repo)");
  for (int i = 1; i <= 30; ++i) {
    if (i % 3 == 1) {
      continue;
    }
    Exec(fresh, "INSERT INTO updates VALUES (" + std::to_string(i) + ", 'r" +
                    std::to_string(i % 3) + "')");
  }
  const auto* remapped = db.TimeIndexForTesting("updates");
  const auto* rebuilt = fresh.TimeIndexForTesting("updates");
  ASSERT_NE(remapped, nullptr);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(*remapped, *rebuilt);

  // And index-narrowed queries agree with full scans post-trim.
  ExpectTuningsAgree(db, "SELECT time, repo FROM updates WHERE time > 10");
  ExpectTuningsAgree(db, "SELECT COUNT(*) FROM updates WHERE time > 10 AND time <= 25");
}

TEST(TimeIndexAfterTrim, PrefixTrimKeepsIndexValid) {
  Database db;
  Exec(db, "CREATE TABLE updates(time, v)");
  for (int i = 1; i <= 20; ++i) {
    Exec(db, "INSERT INTO updates VALUES (" + std::to_string(i) + ", " + std::to_string(i) + ")");
  }
  Exec(db, "DELETE FROM updates WHERE time <= 12");
  const auto* index = db.TimeIndexForTesting("updates");
  ASSERT_NE(index, nullptr);
  ASSERT_EQ(index->size(), 8u);
  for (size_t i = 0; i < index->size(); ++i) {
    EXPECT_EQ((*index)[i].first, static_cast<int64_t>(13 + i));
    EXPECT_EQ((*index)[i].second, i);
  }
  ExpectTuningsAgree(db, "SELECT v FROM updates WHERE time > 15 ORDER BY time");
}

// --- Indexed scans and fast paths vs the unindexed engine ------------------

class TunedPairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fast_.set_tuning({.use_time_index = true, .use_hash_join = true});
    slow_.set_tuning({.use_time_index = false, .use_hash_join = false});
    for (Database* db : {&fast_, &slow_}) {
      Exec(*db, "CREATE TABLE t(time, grp, val)");
      for (int i = 1; i <= 40; ++i) {
        Exec(*db, "INSERT INTO t VALUES (" + std::to_string(i) + ", " + std::to_string(i % 4) +
                      ", 'v" + std::to_string(i * 7 % 11) + "')");
      }
    }
  }

  void ExpectSame(const std::string& sql) {
    auto a = fast_.Execute(sql);
    auto b = slow_.Execute(sql);
    ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
    EXPECT_EQ(Fingerprint(*a), Fingerprint(*b)) << sql;
  }

  Database fast_;
  Database slow_;
};

TEST_F(TunedPairTest, RangeScansMatchFullScans) {
  ExpectSame("SELECT * FROM t WHERE time > 12");
  ExpectSame("SELECT * FROM t WHERE time >= 12 AND time < 30");
  ExpectSame("SELECT * FROM t WHERE time BETWEEN 5 AND 9");
  ExpectSame("SELECT * FROM t WHERE time = 17");
  ExpectSame("SELECT * FROM t WHERE time = 999");
  ExpectSame("SELECT * FROM t WHERE time <= 0");
  ExpectSame("SELECT grp, COUNT(*) FROM t WHERE time > 20 GROUP BY grp");
  // Non-time predicates mixed in: the bound narrows, the rest still filters.
  ExpectSame("SELECT * FROM t WHERE time > 10 AND grp = 2");
}

TEST_F(TunedPairTest, OrderByAndMaxFastPathsMatch) {
  ExpectSame("SELECT MAX(time) FROM t");
  ExpectSame("SELECT MAX(time) FROM t WHERE grp = 3");
  ExpectSame("SELECT MAX(time) FROM t WHERE grp = 99");
  ExpectSame("SELECT * FROM t ORDER BY time DESC LIMIT 5");
  ExpectSame("SELECT * FROM t ORDER BY time DESC LIMIT 5 OFFSET 3");
  ExpectSame("SELECT val FROM t WHERE grp = 1 ORDER BY time DESC LIMIT 1");
  ExpectSame("SELECT * FROM t ORDER BY time DESC LIMIT 0");
}

TEST_F(TunedPairTest, HashJoinMatchesNestedLoop) {
  for (Database* db : {&fast_, &slow_}) {
    Exec(*db, "CREATE TABLE s(grp, label)");
    Exec(*db, "INSERT INTO s VALUES (0, 'zero'), (1, 'one'), (2, 'two'), (5, 'five')");
  }
  ExpectSame("SELECT t.time, s.label FROM t JOIN s ON t.grp = s.grp");
  ExpectSame("SELECT t.time, s.label FROM t LEFT JOIN s ON t.grp = s.grp");
  ExpectSame("SELECT t.time, s.label FROM t JOIN s ON t.grp = s.grp AND t.time > 35");
  ExpectSame("SELECT a.time, b.time FROM t a JOIN t b ON a.grp = b.grp AND a.time < b.time");
}

TEST(TimeFloor, NarrowsScanToNewerTuples) {
  Database db;
  Exec(db, "CREATE TABLE t(time, x)");
  for (int i = 1; i <= 10; ++i) {
    Exec(db, "INSERT INTO t VALUES (" + std::to_string(i) + ", " + std::to_string(i * i) + ")");
  }
  auto r = db.ExecuteWithTimeFloor("SELECT time FROM t ORDER BY time", 5);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 5u);
  EXPECT_EQ(r->rows.front()[0].AsInt(), 6);
  EXPECT_EQ(r->rows.back()[0].AsInt(), 10);
  // The floor composes with the query's own predicates.
  r = db.ExecuteWithTimeFloor("SELECT time FROM t WHERE time < 9 ORDER BY time", 5);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 3u);
}

// --- Invariant-suite equivalence on all four SSMs --------------------------

// Snapshots the logger's database and replays every invariant query with the
// optimisations on and off; the results must be byte-identical, with and
// without an incremental floor, through Execute and through the checker's
// path (cached plans on a pinned snapshot). Then runs the trimming
// statements on both copies and compares every table and, once more, every
// invariant.
void ExpectSuiteEquivalence(core::AuditLogger& logger) {
  Bytes snapshot = logger.log().database().Serialize();
  auto fast = Database::Deserialize(snapshot);
  auto slow = Database::Deserialize(snapshot);
  ASSERT_TRUE(fast.ok() && slow.ok());
  fast->set_tuning({.use_time_index = true, .use_hash_join = true});
  slow->set_tuning({.use_time_index = false, .use_hash_join = false});
  for (const core::Invariant& inv : logger.module().Invariants()) {
    auto a = fast->Execute(inv.query);
    auto b = slow->Execute(inv.query);
    ASSERT_TRUE(a.ok()) << inv.name << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << inv.name << ": " << b.status().ToString();
    EXPECT_EQ(Fingerprint(*a), Fingerprint(*b)) << inv.name;
    for (int64_t floor : {0, 3, 7}) {
      auto fa = fast->ExecuteWithTimeFloor(inv.query, floor);
      auto fb = slow->ExecuteWithTimeFloor(inv.query, floor);
      ASSERT_TRUE(fa.ok()) << inv.name << " floor " << floor << ": " << fa.status().ToString();
      ASSERT_TRUE(fb.ok()) << inv.name << " floor " << floor << ": " << fb.status().ToString();
      EXPECT_EQ(Fingerprint(*fa), Fingerprint(*fb)) << inv.name << " floor " << floor;
    }
  }
  const db::Snapshot fast_snap = fast->CaptureSnapshot();
  const db::Snapshot slow_snap = slow->CaptureSnapshot();
  db::PlanCache fast_plans;
  db::PlanCache slow_plans;
  for (const core::Invariant& inv : logger.module().Invariants()) {
    for (int64_t floor : {0, 3, 7}) {
      auto fa = fast_plans.Execute(*fast, inv.query, floor, &fast_snap);
      auto fb = slow_plans.Execute(*slow, inv.query, floor, &slow_snap);
      ASSERT_TRUE(fa.ok()) << inv.name << " snapshot floor " << floor << ": "
                           << fa.status().ToString();
      ASSERT_TRUE(fb.ok()) << inv.name << " snapshot floor " << floor << ": "
                           << fb.status().ToString();
      EXPECT_EQ(Fingerprint(*fa), Fingerprint(*fb)) << inv.name << " snapshot floor " << floor;
    }
  }
  for (const std::string& trim : logger.module().TrimmingQueries()) {
    auto ta = fast->Execute(trim);
    auto tb = slow->Execute(trim);
    ASSERT_TRUE(ta.ok()) << trim << ": " << ta.status().ToString();
    ASSERT_TRUE(tb.ok()) << trim << ": " << tb.status().ToString();
    EXPECT_EQ(ta->affected, tb->affected) << trim;
  }
  ASSERT_EQ(fast->TableNames(), slow->TableNames());
  for (const std::string& table : fast->TableNames()) {
    EXPECT_EQ(Fingerprint(Exec(*fast, "SELECT * FROM " + table)),
              Fingerprint(Exec(*slow, "SELECT * FROM " + table)))
        << table << " after trim";
  }
  for (const core::Invariant& inv : logger.module().Invariants()) {
    EXPECT_EQ(Fingerprint(Exec(*fast, inv.query)), Fingerprint(Exec(*slow, inv.query)))
        << inv.name << " after trim";
  }
}

std::unique_ptr<core::AuditLogger> MakeLogger(std::unique_ptr<core::ServiceModule> module,
                                              core::PersistenceMode mode = core::PersistenceMode::kMemory,
                                              const std::string& path = "") {
  core::AuditLogOptions log_options;
  log_options.mode = mode;
  log_options.path = path;
  log_options.counter_options.inject_latency = false;
  auto logger = std::make_unique<core::AuditLogger>(
      std::move(module), log_options, core::LoggerOptions{.check_interval = 0},
      crypto::EcdsaPrivateKey::FromSeed(ToBytes("idx")));
  EXPECT_TRUE(logger->Init().ok());
  return logger;
}

void Pump(core::AuditLogger& logger, const http::HttpRequest& req,
          const http::HttpResponse& rsp) {
  ASSERT_TRUE(logger.OnPair(req.Serialize(), rsp.Serialize(), false).ok());
}

TEST(SuiteEquivalence, Git) {
  auto logger = MakeLogger(std::make_unique<ssm::GitModule>());
  services::GitBackend backend;
  auto pump = [&](const http::HttpRequest& req) { Pump(*logger, req, backend.Handle(req)); };
  for (int i = 1; i <= 6; ++i) {
    pump(services::MakeGitPush("r1", {{"main", "a" + std::to_string(i)}}));
    pump(services::MakeGitPush("r2", {{"main", "b" + std::to_string(i)},
                                      {"dev", "d" + std::to_string(i)}}));
    pump(services::MakeGitFetch("r1"));
    pump(services::MakeGitFetch("r2"));
  }
  pump(services::MakeGitPush("r2", {}, {"dev"}));
  pump(services::MakeGitFetch("r2"));
  // Inject both attack classes so the violation rows themselves flow through
  // the joins being compared.
  backend.set_attack(services::GitBackend::Attack::kRollback);
  pump(services::MakeGitFetch("r1"));
  backend.set_attack(services::GitBackend::Attack::kRefDeletion);
  pump(services::MakeGitFetch("r2"));
  ExpectSuiteEquivalence(*logger);
}

TEST(SuiteEquivalence, Dropbox) {
  auto logger = MakeLogger(std::make_unique<ssm::DropboxModule>());
  services::DropboxService service;
  auto pump = [&](const http::HttpRequest& req) { Pump(*logger, req, service.Handle(req)); };
  for (int i = 1; i <= 5; ++i) {
    pump(services::MakeCommitBatch(
        "acct", "host1",
        {{"f" + std::to_string(i) + ".txt", "bl" + std::to_string(i), 100 * i}}));
    pump(services::MakeListRequest("acct"));
  }
  pump(services::MakeCommitBatch("acct", "host1", {{"f2.txt", "", -1}}));
  pump(services::MakeListRequest("acct"));
  service.set_attack(services::DropboxService::Attack::kOmitFile);
  pump(services::MakeListRequest("acct"));
  service.set_attack(services::DropboxService::Attack::kCorruptBlocklist);
  pump(services::MakeListRequest("acct"));
  ExpectSuiteEquivalence(*logger);
}

TEST(SuiteEquivalence, OwnCloud) {
  auto logger = MakeLogger(std::make_unique<ssm::OwnCloudModule>());
  services::OwnCloudService service;
  auto pump = [&](const http::HttpRequest& req) { Pump(*logger, req, service.Handle(req)); };
  pump(services::MakeOwnCloudJoin("doc", "alice"));
  for (int seq = 1; seq <= 4; ++seq) {
    pump(services::MakeOwnCloudSync("doc", 1, "alice", seq, "edit" + std::to_string(seq)));
  }
  pump(services::MakeOwnCloudJoin("doc", "bob"));
  pump(services::MakeOwnCloudSync("doc", 1, "bob", 1, "bob-edit"));
  pump(services::MakeOwnCloudSnapshot("doc", 1, "alice", "content-v1"));
  service.set_attack(services::OwnCloudService::Attack::kDropUpdate);
  pump(services::MakeOwnCloudJoin("doc", "carol"));
  service.set_attack(services::OwnCloudService::Attack::kStaleSnapshot);
  pump(services::MakeOwnCloudJoin("doc", "dave"));
  ExpectSuiteEquivalence(*logger);
}

TEST(SuiteEquivalence, Messaging) {
  auto logger = MakeLogger(std::make_unique<ssm::MessagingModule>());
  services::MessagingService service;
  auto pump = [&](const http::HttpRequest& req) { Pump(*logger, req, service.Handle(req)); };
  for (int i = 1; i <= 4; ++i) {
    pump(services::MakeSendMessage("alice", "bob", "m" + std::to_string(i),
                                   "hello " + std::to_string(i)));
  }
  pump(services::MakeInboxPoll("bob"));
  pump(services::MakeSendMessage("bob", "alice", "m5", "reply"));
  service.set_attack(services::MessagingService::Attack::kModifyMessage);
  pump(services::MakeInboxPoll("alice"));
  pump(services::MakeSendMessage("alice", "bob", "m6", "again"));
  service.set_attack(services::MessagingService::Attack::kDuplicate);
  pump(services::MakeInboxPoll("bob"));
  ExpectSuiteEquivalence(*logger);
}

// The Git invariants and trims take the subquery rewrites exactly when the
// time index is tuned on: as-of lookups for the correlated "latest update"
// subqueries, one evaluation for the trim's uncorrelated NOT IN.
TEST(Decorrelation, GitStatementsTakeTheRewritesOnlyWhenTuned) {
  auto logger = MakeLogger(std::make_unique<ssm::GitModule>());
  services::GitBackend backend;
  for (int i = 1; i <= 4; ++i) {
    http::HttpRequest push = services::MakeGitPush(
        "r", {{"main", "m" + std::to_string(i)}, {"dev", "d" + std::to_string(i)}});
    Pump(*logger, push, backend.Handle(push));
    http::HttpRequest fetch = services::MakeGitFetch("r");
    Pump(*logger, fetch, backend.Handle(fetch));
  }
  Bytes image = logger->log().database().Serialize();
  const auto count = [](const char* kind) {
    return obs::Registry::Global().TakeSnapshot().counter(
        std::string("seadb_fastpath_hits_total{kind=\"") + kind + "\"}");
  };
  for (bool tuned : {false, true}) {
    auto db = Database::Deserialize(image);
    ASSERT_TRUE(db.ok());
    if (!tuned) {
      db->set_tuning({.use_time_index = false, .use_hash_join = false});
    }
    obs::Registry::Global().Reset();
    for (const core::Invariant& inv : logger->module().Invariants()) {
      auto r = db->Execute(inv.query);
      ASSERT_TRUE(r.ok()) << inv.name;
      EXPECT_TRUE(r->rows.empty()) << inv.name;
    }
    const uint64_t asof = count("asof");
    const size_t updates_before = db->TableSize("updates");
    for (const std::string& trim : logger->module().TrimmingQueries()) {
      ASSERT_TRUE(db->Execute(trim).ok()) << trim;
    }
    const uint64_t once = count("subquery_once");
    if (tuned) {
      // Soundness: one lookup per advertisement; completeness: one per
      // (advertisement, older update) pair of the branchcnt view.
      EXPECT_GE(asof, 8u);
      // The trim's NOT IN is consulted once per updates row.
      EXPECT_EQ(once, updates_before);
    } else {
      EXPECT_EQ(asof, 0u);
      EXPECT_EQ(once, 0u);
    }
  }
}

// --- Incremental checking watermarks ---------------------------------------

TEST(Incremental, WatermarkAdvancesOnCleanCheck) {
  auto logger = MakeLogger(std::make_unique<ssm::GitModule>());
  services::GitBackend backend;
  auto pump = [&](const http::HttpRequest& req) { Pump(*logger, req, backend.Handle(req)); };
  EXPECT_EQ(logger->watermark_for_testing(0), -1);
  pump(services::MakeGitPush("r", {{"main", "c1"}}));
  pump(services::MakeGitFetch("r"));
  auto report = logger->CheckInvariants();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean());
  // Clean check covers every logical time handed out so far (2 pairs).
  EXPECT_EQ(logger->watermark_for_testing(0), 2);
  EXPECT_EQ(logger->watermark_for_testing(1), 2);
}

TEST(Incremental, ViolationPastWatermarkIsCaught) {
  auto logger = MakeLogger(std::make_unique<ssm::GitModule>());
  services::GitBackend backend;
  auto pump = [&](const http::HttpRequest& req) { Pump(*logger, req, backend.Handle(req)); };
  pump(services::MakeGitPush("r", {{"main", "c1"}}));
  pump(services::MakeGitFetch("r"));
  ASSERT_TRUE(logger->CheckInvariants().ok());
  int64_t watermark = logger->watermark_for_testing(0);
  ASSERT_GE(watermark, 0);
  // A bad advertisement appended after the watermark must be found by the
  // narrowed incremental scan.
  ASSERT_TRUE(logger->log()
                  .Append("advertisements",
                          {db::Value(watermark + 10), db::Value(std::string("r")),
                           db::Value(std::string("main")), db::Value(std::string("WRONG"))})
                  .ok());
  auto report = logger->CheckInvariants();
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->clean());
  EXPECT_EQ(report->violations[0].invariant, "git-soundness");
  // A dirty invariant's watermark does not advance.
  EXPECT_EQ(logger->watermark_for_testing(0), watermark);
}

TEST(Incremental, WatermarkResetsAfterTrim) {
  auto logger = MakeLogger(std::make_unique<ssm::GitModule>());
  services::GitBackend backend;
  auto pump = [&](const http::HttpRequest& req) { Pump(*logger, req, backend.Handle(req)); };
  pump(services::MakeGitPush("r", {{"main", "c1"}}));
  pump(services::MakeGitFetch("r"));
  ASSERT_TRUE(logger->CheckInvariants().ok());
  ASSERT_GE(logger->watermark_for_testing(0), 0);
  // The git trim deletes the advertisement, so the deltas past the
  // watermarks no longer describe the log.
  ASSERT_TRUE(logger->Trim().ok());
  EXPECT_EQ(logger->watermark_for_testing(0), -1);
  EXPECT_EQ(logger->watermark_for_testing(1), -1);
  // And the next check still works (full scan) and re-advances.
  auto report = logger->CheckInvariants();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean());
  EXPECT_GE(logger->watermark_for_testing(0), 0);
}

TEST(Incremental, TrimWithNothingToDeleteSkipsCounterRound) {
  std::string path = std::string(::testing::TempDir()) + "/db_index_trim.log";
  auto logger =
      MakeLogger(std::make_unique<ssm::GitModule>(), core::PersistenceMode::kDisk, path);
  services::GitBackend backend;
  auto pump = [&](const http::HttpRequest& req) { Pump(*logger, req, backend.Handle(req)); };
  // One update, no advertisements: both trimming queries delete nothing.
  pump(services::MakeGitPush("r", {{"main", "c1"}}));
  auto before = logger->log().counter().Read();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(logger->Trim().ok());
  ASSERT_TRUE(logger->Trim().ok());
  auto after = logger->log().counter().Read();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);  // early return: no rebuild, no counter round
  // Once there is something to trim, the rebuild (and its counter round)
  // runs again.
  pump(services::MakeGitFetch("r"));
  before = logger->log().counter().Read();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(logger->Trim().ok());
  after = logger->log().counter().Read();
  ASSERT_TRUE(after.ok());
  EXPECT_GT(*after, *before);
}

}  // namespace
}  // namespace seal
