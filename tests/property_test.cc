// Parameterized property sweeps across modules: round-trip laws, metamorphic
// SQL relations, chain tamper-evidence at every position, and async-call
// correctness across the (S, T) configuration space.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <numeric>
#include <thread>

#include "src/asyncall/asyncall.h"
#include "src/common/rng.h"
#include "src/core/audit_log.h"
#include "src/crypto/gcm.h"
#include "src/crypto/sha256.h"
#include "src/db/database.h"
#include "src/net/net.h"
#include "src/tls/tls.h"
#include "src/tls/x509.h"

namespace seal {
namespace {

// --- AEAD round trip across payload sizes (block boundaries included) ---

class GcmSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(GcmSizeSweep, SealOpenRoundTrip) {
  size_t size = GetParam();
  SplitMix64 rng(size + 1);
  Bytes key = FromHex("000102030405060708090a0b0c0d0e0f");
  crypto::Aes128Gcm gcm(key);
  Bytes pt(size);
  for (auto& b : pt) {
    b = static_cast<uint8_t>(rng.Next());
  }
  Bytes nonce(12);
  for (auto& b : nonce) {
    b = static_cast<uint8_t>(rng.Next());
  }
  Bytes aad = ToBytes("aad-" + std::to_string(size));
  Bytes sealed = gcm.Seal(nonce, aad, pt);
  EXPECT_EQ(sealed.size(), size + crypto::kGcmTagSize);
  auto opened = gcm.Open(nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
  // A different nonce must not decrypt.
  Bytes other_nonce = nonce;
  other_nonce[11] ^= 1;
  EXPECT_FALSE(gcm.Open(other_nonce, aad, sealed).has_value());
}

INSTANTIATE_TEST_SUITE_P(Sizes, GcmSizeSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 100, 1000, 4096,
                                           16384));

// --- SHA-256: incremental == one-shot at every chunking ---

class Sha256ChunkSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(Sha256ChunkSweep, IncrementalMatchesOneShot) {
  size_t chunk = GetParam();
  Bytes data(3000);
  SplitMix64 rng(chunk);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  crypto::Sha256 h;
  for (size_t off = 0; off < data.size(); off += chunk) {
    size_t take = std::min(chunk, data.size() - off);
    h.Update(BytesView(data.data() + off, take));
  }
  EXPECT_EQ(h.Finish(), crypto::Sha256::Hash(data));
}

INSTANTIATE_TEST_SUITE_P(Chunks, Sha256ChunkSweep,
                         ::testing::Values(1, 7, 55, 56, 63, 64, 65, 128, 1000, 3000));

// --- SQL metamorphic properties over random tables ---

class SqlMetamorphic : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlMetamorphic, PartitionAndAggregationLaws) {
  uint64_t seed = GetParam();
  SplitMix64 rng(seed);
  db::Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t(k, v)").ok());
  int64_t n = rng.Range(0, 40);
  int64_t total_v = 0;
  for (int64_t i = 0; i < n; ++i) {
    int64_t k = rng.Range(0, 5);
    int64_t v = rng.Range(-100, 100);
    total_v += v;
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(k) + ", " +
                           std::to_string(v) + ")")
                    .ok());
  }
  // COUNT(*) equals the number of inserted rows.
  auto count = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), n);
  // WHERE p and WHERE NOT p partition the table.
  auto pos = db.Execute("SELECT COUNT(*) FROM t WHERE v >= 0");
  auto neg = db.Execute("SELECT COUNT(*) FROM t WHERE NOT (v >= 0)");
  ASSERT_TRUE(pos.ok());
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(pos->rows[0][0].AsInt() + neg->rows[0][0].AsInt(), n);
  // SUM over groups equals the global sum.
  auto group_sums = db.Execute("SELECT SUM(v) FROM t GROUP BY k");
  ASSERT_TRUE(group_sums.ok());
  int64_t regrouped = 0;
  for (const db::Row& row : group_sums->rows) {
    regrouped += row[0].AsInt();
  }
  if (n > 0) {
    EXPECT_EQ(regrouped, total_v);
    auto sum = db.Execute("SELECT SUM(v) FROM t");
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(sum->rows[0][0].AsInt(), total_v);
  }
  // DISTINCT k count equals number of GROUP BY k groups.
  auto distinct = db.Execute("SELECT DISTINCT k FROM t");
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(distinct->rows.size(), group_sums->rows.size());
  // ORDER BY returns the same multiset, sorted.
  auto ordered = db.Execute("SELECT v FROM t ORDER BY v");
  ASSERT_TRUE(ordered.ok());
  ASSERT_EQ(ordered->rows.size(), static_cast<size_t>(n));
  for (size_t i = 1; i < ordered->rows.size(); ++i) {
    EXPECT_LE(ordered->rows[i - 1][0].AsInt(), ordered->rows[i][0].AsInt());
  }
  // LIMIT respects its bound and is a prefix of the ordered result.
  auto limited = db.Execute("SELECT v FROM t ORDER BY v LIMIT 5");
  ASSERT_TRUE(limited.ok());
  EXPECT_LE(limited->rows.size(), 5u);
  for (size_t i = 0; i < limited->rows.size(); ++i) {
    EXPECT_EQ(limited->rows[i][0].AsInt(), ordered->rows[i][0].AsInt());
  }
  // DELETE p removes exactly the WHERE p rows.
  auto deleted = db.Execute("DELETE FROM t WHERE v >= 0");
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(static_cast<int64_t>(deleted->affected), pos->rows[0][0].AsInt());
  auto rest = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->rows[0][0].AsInt(), neg->rows[0][0].AsInt());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlMetamorphic, ::testing::Range(uint64_t{1}, uint64_t{13}));

// --- indexed/hash-join fast paths vs the plain nested-loop interpreter:
// byte-identical SELECT results ---

std::string ResultFingerprint(const db::QueryResult& r) {
  std::string out;
  for (const auto& c : r.columns) {
    out += c;
    out += '|';
  }
  out += '\n';
  for (const db::Row& row : r.rows) {
    for (const db::Value& v : row) {
      out += v.Serialize();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

void ExpectEnginesAgree(db::Database& db, const std::string& sql,
                        const db::Snapshot* snap = nullptr) {
  db.set_tuning(db::Tuning{});
  auto fast = snap ? db.ExecuteSnapshot(sql, *snap) : db.Execute(sql);
  db.set_tuning({.use_time_index = false, .use_hash_join = false});
  auto plain = snap ? db.ExecuteSnapshot(sql, *snap) : db.Execute(sql);
  db.set_tuning(db::Tuning{});
  ASSERT_EQ(fast.ok(), plain.ok()) << sql;
  if (fast.ok()) {
    EXPECT_EQ(ResultFingerprint(*fast), ResultFingerprint(*plain)) << sql;
  }
}

// Join keys the hash join cannot key the way Value::Compare matches them:
// an integer beyond 2^53 equals kRoundedReal once rounded to double, and
// NaN compares equal to every number.
const std::string kWideInt = "9007199254740993";
const std::string kRoundedReal = "9007199254740992.0";
const std::string kNaN = "('nan' + 0)";

class EngineDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineDifferential, RandomSelectsByteIdenticalAcrossEngines) {
  uint64_t seed = GetParam();
  SplitMix64 rng(seed);
  db::Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t1(time, a, b, s)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE t2(time, a, c)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE empty_t(time, x)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE nulls(time, nv)").ok());
  const int64_t n1 = rng.Range(0, 50);
  for (int64_t i = 0; i < n1; ++i) {
    std::string b;
    switch (rng.Range(0, 4)) {
      case 0:
        b = "NULL";
        break;
      case 1:
        b = std::to_string(rng.Range(-8, 8)) + ".25";  // exact in binary
        break;
      case 2:
        b = rng.Range(0, 3) == 0 ? kRoundedReal : std::to_string(rng.Range(-40, 40));
        break;
      default:
        b = std::to_string(rng.Range(-40, 40));
    }
    std::string s;
    switch (rng.Range(0, 4)) {
      case 0:
        s = "NULL";
        break;
      case 1:
        s = "'prefix-shared-long-string-" + std::to_string(rng.Range(0, 3)) + "'";
        break;
      default:
        s = "'s" + std::to_string(rng.Range(0, 6)) + "'";
    }
    ASSERT_TRUE(db.Execute("INSERT INTO t1 VALUES (" + std::to_string(i + 1) + ", " +
                           std::to_string(rng.Range(0, 5)) + ", " + b + ", " + s + ")")
                    .ok());
  }
  const int64_t n2 = rng.Range(0, 25);
  for (int64_t i = 0; i < n2; ++i) {
    std::string c;
    switch (rng.Range(0, 8)) {
      case 0:
        c = "NULL";
        break;
      case 1:
        c = rng.Range(0, 2) == 0 ? kWideInt : kNaN;
        break;
      default:
        c = std::to_string(rng.Range(-20, 20));
    }
    ASSERT_TRUE(db.Execute("INSERT INTO t2 VALUES (" + std::to_string(i + 1) + ", " +
                           std::to_string(rng.Range(0, 5)) + ", " + c + ")")
                    .ok());
  }
  for (int64_t i = 0; i < rng.Range(0, 6); ++i) {
    ASSERT_TRUE(
        db.Execute("INSERT INTO nulls VALUES (" + std::to_string(i + 1) + ", NULL)").ok());
  }

  const char* kCmp[] = {"<", "<=", ">", ">=", "=", "<>"};
  std::vector<std::string> queries = {
      "SELECT a, b, s FROM t1",
      "SELECT DISTINCT a FROM t1",
      "SELECT a, b FROM t1 WHERE b " + std::string(kCmp[rng.Below(std::size(kCmp))]) + " " +
          std::to_string(rng.Range(-10, 10)),
      "SELECT a, b FROM t1 WHERE b BETWEEN " + std::to_string(rng.Range(-20, 0)) + " AND " +
          std::to_string(rng.Range(0, 20)) + " ORDER BY b DESC, a LIMIT 9",
      "SELECT s FROM t1 WHERE s LIKE 's%' ORDER BY 1",
      "SELECT a, b FROM t1 WHERE a IN (0, 2, 4) OR b IS NULL",
      "SELECT a + 1, b * 2, -b FROM t1 WHERE NOT (a = " + std::to_string(rng.Range(0, 5)) +
          ") LIMIT 12",
      "SELECT COALESCE(s, 'none'), LENGTH(s) FROM t1",
      "SELECT SUBSTR(s, 2, 3) FROM t1 WHERE s IS NOT NULL",
      "SELECT t1.a, t1.b, t2.c FROM t1 JOIN t2 ON t1.a = t2.a WHERE t2.c > " +
          std::to_string(rng.Range(-15, 5)),
      "SELECT t1.a, t2.c FROM t1 LEFT JOIN t2 ON t1.b = t2.c",
      "SELECT a, COUNT(*), SUM(b), AVG(b), MIN(b), MAX(s) FROM t1 GROUP BY a",
      "SELECT a, COUNT(DISTINCT s) FROM t1 GROUP BY a HAVING COUNT(*) > 1",
      "SELECT COUNT(*) FROM t1 WHERE time > " + std::to_string(rng.Range(0, 40)),
      "SELECT x FROM empty_t WHERE x > 0",
      "SELECT COUNT(*), SUM(x) FROM empty_t",
      "SELECT nv FROM nulls WHERE nv IS NULL",
      "SELECT nv, COUNT(*) FROM nulls GROUP BY nv",
      "SELECT s, a FROM t1 ORDER BY s, a LIMIT " + std::to_string(rng.Range(1, 20)),
  };
  for (const std::string& sql : queries) {
    ExpectEnginesAgree(db, sql);
  }

  // Snapshot execution (pinned row prefixes) must agree too.
  const db::Snapshot snap = db.CaptureSnapshot();
  ExpectEnginesAgree(db, "SELECT a, b, s FROM t1 WHERE b >= 0", &snap);
  ExpectEnginesAgree(db, "SELECT a, COUNT(*) FROM t1 GROUP BY a", &snap);

  // Post-trim: DELETE compacts rows and remaps the time index; both
  // engines must see the same surviving relation.
  ASSERT_TRUE(db.Execute("DELETE FROM t1 WHERE time <= " + std::to_string(n1 / 2)).ok());
  ASSERT_TRUE(db.Execute("DELETE FROM t2 WHERE c < 0").ok());
  for (const std::string& sql : queries) {
    ExpectEnginesAgree(db, sql);
  }
}

// Runs one write statement on a tuned and on a plain copy of `db` and
// compares the affected count and every listed table afterwards.
void ExpectWritesAgree(const db::Database& db, const std::string& sql,
                       const std::vector<std::string>& tables) {
  auto fast = db::Database::Deserialize(db.Serialize());
  auto plain = db::Database::Deserialize(db.Serialize());
  ASSERT_TRUE(fast.ok() && plain.ok());
  plain->set_tuning({.use_time_index = false, .use_hash_join = false});
  auto a = fast->Execute(sql);
  auto b = plain->Execute(sql);
  ASSERT_EQ(a.ok(), b.ok()) << sql;
  if (!a.ok()) {
    return;
  }
  EXPECT_EQ(a->affected, b->affected) << sql;
  for (const std::string& table : tables) {
    auto ra = fast->Execute("SELECT * FROM " + table);
    auto rb = plain->Execute("SELECT * FROM " + table);
    ASSERT_TRUE(ra.ok() && rb.ok()) << table;
    EXPECT_EQ(ResultFingerprint(*ra), ResultFingerprint(*rb)) << sql << " / " << table;
  }
}

// The subquery rewrites: correlated "latest row before" subqueries (as-of
// lookups) and uncorrelated ones (one evaluation per statement) against the
// per-row plain engine, live and on a snapshot.
TEST_P(EngineDifferential, SubqueryRewritesByteIdenticalAcrossEngines) {
  uint64_t seed = GetParam();
  SplitMix64 rng(seed * 7919 + 1);
  db::Database db;
  // hist: nondecreasing times with duplicates (a time-sorted snapshot),
  // keys mixing NULL, integers (one beyond 2^53) and integral/non-integral
  // reals.
  ASSERT_TRUE(db.Execute("CREATE TABLE hist(time, k1, k2, v)").ok());
  // shuffled: the same shape inserted out of time order, so a snapshot is
  // not time-sorted while the live index stays valid.
  ASSERT_TRUE(db.Execute("CREATE TABLE shuffled(time, k1, v)").ok());
  // probe: outer rows whose bound is an integer, NULL or a real, and whose
  // k1 may also be NaN.
  ASSERT_TRUE(db.Execute("CREATE TABLE probe(time, k1, k2)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE t2(time, a, c)").ok());
  auto key1 = [&]() -> std::string {
    switch (rng.Range(0, 8)) {
      case 0:
        return "NULL";
      case 1:
        return std::to_string(rng.Range(0, 3)) + ".0";
      case 2:
        return "1.5";
      case 3:
        return rng.Range(0, 2) == 0 ? kWideInt : kRoundedReal;
      default:
        return std::to_string(rng.Range(0, 3));
    }
  };
  auto key2 = [&]() -> std::string {
    return rng.Range(0, 5) == 0 ? "NULL" : "'s" + std::to_string(rng.Range(0, 2)) + "'";
  };
  int64_t time = 1;
  const int64_t n_hist = rng.Range(0, 40);
  for (int64_t i = 0; i < n_hist; ++i) {
    time += rng.Range(0, 2);  // 0: a duplicate time
    ASSERT_TRUE(db.Execute("INSERT INTO hist VALUES (" + std::to_string(time) + ", " + key1() +
                           ", " + key2() + ", " + std::to_string(i) + ")")
                    .ok());
  }
  for (int64_t i = 0; i < rng.Range(0, 20); ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO shuffled VALUES (" + std::to_string(rng.Range(1, 12)) +
                           ", " + key1() + ", " + std::to_string(i) + ")")
                    .ok());
  }
  for (int64_t i = 0; i < rng.Range(0, 16); ++i) {
    std::string bound;
    switch (rng.Range(0, 6)) {
      case 0:
        bound = "NULL";
        break;
      case 1:
        bound = std::to_string(rng.Range(0, time + 1)) + ".5";
        break;
      default:
        bound = std::to_string(rng.Range(0, time + 2));
    }
    const std::string k1 = rng.Range(0, 8) == 0 ? kNaN : key1();
    ASSERT_TRUE(
        db.Execute("INSERT INTO probe VALUES (" + bound + ", " + k1 + ", " + key2() + ")").ok());
  }
  for (int64_t i = 0; i < rng.Range(0, 10); ++i) {
    const std::string a = rng.Range(0, 6) == 0 ? kRoundedReal : std::to_string(rng.Range(0, 4));
    ASSERT_TRUE(db.Execute("INSERT INTO t2 VALUES (" + std::to_string(i + 1) + ", " + a + ", " +
                           std::to_string(rng.Range(0, 40)) + ")")
                    .ok());
  }

  const std::vector<std::string> queries = {
      // MAX(time), one key, < and <=, qualified and bare names.
      "SELECT p.time, (SELECT MAX(time) FROM hist h WHERE h.k1 = p.k1 AND h.time < p.time) "
      "FROM probe p",
      "SELECT p.time, (SELECT MAX(time) FROM hist WHERE k1 = p.k1 AND time <= p.time) "
      "FROM probe p",
      // ORDER BY time DESC LIMIT 1 projecting a non-time column; ties on
      // duplicate times resolve to the first row in row order.
      "SELECT p.time, (SELECT h.v FROM hist h WHERE h.k1 = p.k1 AND h.time < p.time "
      "ORDER BY h.time DESC LIMIT 1) FROM probe p",
      "SELECT p.time, (SELECT h.v || '-' || h.k2 FROM hist h WHERE h.time <= p.time "
      "AND p.k1 = h.k1 ORDER BY time DESC LIMIT 1) FROM probe p",
      // Two keys; the bound written mirrored.
      "SELECT p.time, (SELECT MAX(time) FROM hist h WHERE h.k1 = p.k1 AND h.k2 = p.k2 "
      "AND p.time > h.time) FROM probe p",
      "SELECT p.time, (SELECT h.v FROM hist h WHERE h.k2 = p.k2 AND h.k1 = p.k1 "
      "AND p.time >= h.time ORDER BY h.time DESC LIMIT 1) FROM probe p",
      // No key at all: one bucket.
      "SELECT p.time, (SELECT h.k2 FROM hist h WHERE h.time < p.time "
      "ORDER BY h.time DESC LIMIT 1) FROM probe p",
      // Extra local conjuncts: the walk continues to earlier time groups.
      "SELECT p.time, (SELECT h.v FROM hist h WHERE h.k1 = p.k1 AND h.time < p.time "
      "AND h.k2 IS NOT NULL AND h.v != 3 ORDER BY h.time DESC LIMIT 1) FROM probe p",
      "SELECT p.time, (SELECT MAX(time) FROM hist h WHERE h.k2 = p.k2 AND h.time <= p.time "
      "AND h.k1 > 0) FROM probe p",
      // In WHERE, as the invariants use it.
      "SELECT p.time, p.k1 FROM probe p WHERE p.k2 != (SELECT h.k2 FROM hist h "
      "WHERE h.k1 = p.k1 AND h.time < p.time ORDER BY h.time DESC LIMIT 1)",
      // A correlated reference two scopes out (p) next to one scope out (x).
      "SELECT p.time FROM probe p WHERE EXISTS (SELECT * FROM t2 x WHERE x.a = "
      "(SELECT h.v FROM hist h WHERE h.k1 = p.k1 AND h.time < x.time "
      "ORDER BY h.time DESC LIMIT 1))",
      // A join as the outer relation, as in the completeness views.
      "SELECT x.time, p.time, (SELECT MAX(time) FROM hist WHERE k1 = p.k1 AND "
      "time < x.time) FROM t2 x JOIN probe p ON x.a = p.k1",
      // An unaliased outer column named `time` takes over the bare ORDER BY
      // key in the general path: neither the fast path nor as-of may apply.
      "SELECT p.k1, (SELECT d.v FROM (SELECT p.time, v FROM hist ORDER BY time DESC "
      "LIMIT 1) d) FROM probe p",
      "SELECT p.k1, (SELECT p.time FROM hist h WHERE h.k1 = p.k1 AND h.time < 9 "
      "ORDER BY time DESC LIMIT 1) FROM probe p",
      // Unsorted base table: as-of via the live index, per-row on a snapshot.
      "SELECT p.time, (SELECT s.v FROM shuffled s WHERE s.k1 = p.k1 AND s.time < p.time "
      "ORDER BY s.time DESC LIMIT 1) FROM probe p",
      // Uncorrelated: scalar, IN, NOT IN and EXISTS, evaluated once.
      "SELECT p.time FROM probe p WHERE p.time < (SELECT MAX(time) FROM hist)",
      "SELECT p.time, p.k1 FROM probe p WHERE p.k1 IN (SELECT k1 FROM hist WHERE time > 3)",
      "SELECT p.time, p.k1 FROM probe p WHERE p.k1 NOT IN "
      "(SELECT MAX(k1) FROM hist GROUP BY k2)",
      "SELECT p.time FROM probe p WHERE EXISTS (SELECT * FROM hist h JOIN t2 x "
      "ON h.v = x.a WHERE h.k2 = 's1')",
  };
  for (const std::string& sql : queries) {
    ExpectEnginesAgree(db, sql);
  }
  const db::Snapshot snap = db.CaptureSnapshot();
  for (const std::string& sql : queries) {
    ExpectEnginesAgree(db, sql, &snap);
  }

  // Writes: DELETE evaluates every predicate before removing a row, UPDATE
  // before publishing, so an uncorrelated subquery may run once; a later
  // INSERT VALUES row must still see the rows inserted before it.
  const std::vector<std::string> tables = {"hist", "shuffled", "probe", "t2"};
  for (const std::string& sql : {
           std::string("DELETE FROM hist WHERE time NOT IN "
                       "(SELECT MAX(time) FROM hist GROUP BY k1, k2)"),
           std::string("DELETE FROM hist WHERE k1 IN (SELECT a FROM t2 WHERE c > 10)"),
           std::string("DELETE FROM hist WHERE v NOT IN (SELECT a FROM t2)"),
           std::string("DELETE FROM hist WHERE v > (SELECT AVG(v) FROM hist)"),
           std::string("DELETE FROM hist WHERE v = (SELECT h2.v FROM hist h2 WHERE "
                       "h2.k1 = hist.k1 AND h2.time < hist.time ORDER BY h2.time DESC "
                       "LIMIT 1) + 1"),
           std::string("UPDATE hist SET v = (SELECT COUNT(*) FROM hist) "
                       "WHERE k1 IN (SELECT a FROM t2)"),
           std::string("INSERT INTO t2 VALUES ((SELECT COUNT(*) FROM t2), 0, 0), "
                       "((SELECT COUNT(*) FROM t2), 1, 1)"),
       }) {
    ExpectWritesAgree(db, sql, tables);
  }

  // Post-trim: the as-of tables are rebuilt from the compacted rows.
  ASSERT_TRUE(db.Execute("DELETE FROM hist WHERE time NOT IN "
                         "(SELECT MAX(time) FROM hist GROUP BY k1, k2)")
                  .ok());
  for (const std::string& sql : queries) {
    ExpectEnginesAgree(db, sql);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferential,
                         ::testing::Range(uint64_t{1}, uint64_t{17}));

// --- hash chain: a flip at EVERY byte offset of the persisted log trips
// verification ---

class ChainTamperSweep : public ::testing::TestWithParam<size_t> {};

// The header fields of segment 0 that carry no evidence: `rewrite_epoch`
// (a lone segment has no other segment to agree with) and `counter_value`
// (written, never read). Every other header byte is checked.
bool UnauthenticatedHeaderByte(size_t pos) {
  return (pos >= 24 && pos < 32) || (pos >= 80 && pos < core::kSegmentHeaderSize);
}

TEST_P(ChainTamperSweep, FlipAtOffsetDetected) {
  size_t offset_step = GetParam();
  std::string path =
      std::string(::testing::TempDir()) + "/chain_sweep_" + std::to_string(offset_step) + ".log";
  crypto::EcdsaPrivateKey key = crypto::EcdsaPrivateKey::FromSeed(ToBytes("sweep"));
  core::AuditLogOptions options;
  options.mode = core::PersistenceMode::kDisk;
  options.path = path;
  options.counter_options.inject_latency = false;
  core::AuditLog log(options, key);
  ASSERT_TRUE(log.ExecuteSchema({"CREATE TABLE updates(time, repo, branch, cid, type)"}).ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(log.Append("updates",
                           {db::Value(static_cast<int64_t>(i)), db::Value(std::string("r")),
                            db::Value(std::string("main")),
                            db::Value(std::string("c") + std::to_string(i)),
                            db::Value(std::string("update"))})
                    .ok());
  }
  ASSERT_TRUE(log.CommitHead().ok());
  ASSERT_TRUE(core::AuditLog::VerifyLogFile(path, key.public_key(), log.counter()).ok());

  // Flip every authenticated header byte of segment 0, then one record
  // byte at every offset_step-th position.
  const std::string seg0 = core::SegmentFilePath(path, 0);
  std::FILE* f = std::fopen(seg0.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  const long header = static_cast<long>(core::kSegmentHeaderSize);
  ASSERT_GT(size, header);
  std::vector<long> positions;
  for (long pos = 0; pos < header; ++pos) {
    if (!UnauthenticatedHeaderByte(static_cast<size_t>(pos))) {
      positions.push_back(pos);
    }
  }
  for (long pos = header + static_cast<long>(offset_step) % (size - header); pos < size;
       pos += static_cast<long>(offset_step) + 13) {
    positions.push_back(pos);
  }
  for (long pos : positions) {
    std::FILE* rw = std::fopen(seg0.c_str(), "rb+");
    std::fseek(rw, pos, SEEK_SET);
    int c = std::fgetc(rw);
    std::fseek(rw, pos, SEEK_SET);
    std::fputc(c ^ 0x01, rw);
    std::fclose(rw);
    EXPECT_FALSE(core::AuditLog::VerifyLogFile(path, key.public_key(), log.counter()).ok())
        << "flip at " << pos << " went undetected";
    // Restore.
    rw = std::fopen(seg0.c_str(), "rb+");
    std::fseek(rw, pos, SEEK_SET);
    std::fputc(c, rw);
    std::fclose(rw);
  }
  EXPECT_TRUE(core::AuditLog::VerifyLogFile(path, key.public_key(), log.counter()).ok());
}

INSTANTIATE_TEST_SUITE_P(Offsets, ChainTamperSweep, ::testing::Values(0, 1, 2, 3, 5, 7));

// --- async-call correctness across the (S, T) configuration space ---

struct AsyncConfig {
  int workers;
  int tasks;
};

class AsyncConfigSweep : public ::testing::TestWithParam<AsyncConfig> {};

TEST_P(AsyncConfigSweep, AllCallsCompleteWithOcalls) {
  AsyncConfig config = GetParam();
  sgx::EnclaveConfig enclave_config;
  enclave_config.inject_costs = false;
  sgx::Enclave enclave(enclave_config, ToBytes("sweep"), "signer");
  std::atomic<int> ocall_sum{0};
  int ocall_id =
      enclave.RegisterOcall("add", [&](void* d) { ocall_sum.fetch_add(*static_cast<int*>(d)); });
  int ecall_id = enclave.RegisterEcall("work", [&](void* d) {
    ASSERT_TRUE(asyncall::AsyncCallRuntime::AsyncOcall(ocall_id, d).ok());
  });
  asyncall::AsyncCallRuntime::Options options;
  options.enclave_threads = config.workers;
  options.tasks_per_thread = config.tasks;
  asyncall::AsyncCallRuntime runtime(&enclave, options);
  runtime.Start();
  constexpr int kThreads = 6;
  constexpr int kCalls = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      int one = 1;
      for (int i = 0; i < kCalls; ++i) {
        ASSERT_TRUE(runtime.AsyncEcall(ecall_id, &one).ok());
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  runtime.Stop();
  EXPECT_EQ(ocall_sum.load(), kThreads * kCalls);
}

INSTANTIATE_TEST_SUITE_P(Configs, AsyncConfigSweep,
                         ::testing::Values(AsyncConfig{1, 1}, AsyncConfig{1, 8},
                                           AsyncConfig{2, 4}, AsyncConfig{3, 48},
                                           AsyncConfig{4, 12}),
                         [](const ::testing::TestParamInfo<AsyncConfig>& info) {
                           return "S" + std::to_string(info.param.workers) + "T" +
                                  std::to_string(info.param.tasks);
                         });

// --- TLS transfers across sizes and link conditions ---

struct LinkCase {
  size_t bytes;
  int64_t latency_nanos;
  int64_t bandwidth;
};

class TlsLinkSweep : public ::testing::TestWithParam<LinkCase> {};

TEST_P(TlsLinkSweep, TransferIntactOverLink) {
  LinkCase link = GetParam();
  tls::CertifiedKey ca =
      tls::MakeSelfSignedCa("Sweep CA", crypto::EcdsaPrivateKey::FromSeed(ToBytes("ca")));
  crypto::EcdsaPrivateKey key = crypto::EcdsaPrivateKey::FromSeed(ToBytes("srv"));
  tls::Certificate cert = tls::IssueCertificate(ca, "sweep", key.public_key(), 2);
  auto [client_stream, server_stream] =
      net::CreateStreamPair(link.latency_nanos, link.bandwidth);
  tls::StreamBio client_bio(client_stream.get());
  tls::StreamBio server_bio(server_stream.get());
  tls::TlsConfig server_config;
  server_config.certificate = cert;
  server_config.private_key = key;
  tls::TlsConfig client_config;
  client_config.trusted_roots = {ca.cert};
  tls::TlsConnection client(&client_bio, &client_config, tls::Role::kClient);
  tls::TlsConnection server(&server_bio, &server_config, tls::Role::kServer);
  Status server_status = Internal("unset");
  Bytes received;
  std::thread server_thread([&] {
    server_status = server.Handshake();
    if (!server_status.ok()) {
      return;
    }
    uint8_t buf[4096];
    while (received.size() < link.bytes) {
      auto n = server.Read(buf, sizeof(buf));
      if (!n.ok() || *n == 0) {
        break;
      }
      received.insert(received.end(), buf, buf + *n);
    }
  });
  ASSERT_TRUE(client.Handshake().ok());
  Bytes payload(link.bytes);
  SplitMix64 rng(link.bytes);
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.Next());
  }
  ASSERT_TRUE(client.Write(payload).ok());
  server_thread.join();
  ASSERT_TRUE(server_status.ok());
  EXPECT_EQ(received, payload);
}

INSTANTIATE_TEST_SUITE_P(
    Links, TlsLinkSweep,
    ::testing::Values(LinkCase{1, 0, 0}, LinkCase{100, 1'000'000, 0},
                      LinkCase{16384, 0, 10'000'000}, LinkCase{16385, 500'000, 5'000'000},
                      LinkCase{100'000, 0, 0}),
    [](const ::testing::TestParamInfo<LinkCase>& info) {
      return "B" + std::to_string(info.param.bytes) + "L" +
             std::to_string(info.param.latency_nanos / 1000) + "us";
    });

}  // namespace
}  // namespace seal
