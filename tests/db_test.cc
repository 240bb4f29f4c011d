#include <gtest/gtest.h>

#include "src/db/database.h"
#include "src/db/parser.h"
#include "src/db/tokenizer.h"

namespace seal::db {
namespace {

// Helper: execute and expect success.
QueryResult Exec(Database& db, std::string_view sql) {
  auto r = db.Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  if (!r.ok()) {
    return QueryResult{};
  }
  return std::move(*r);
}

// --- tokenizer ---

TEST(Tokenizer, BasicSelect) {
  auto tokens = Tokenize("SELECT a FROM t WHERE x = 1");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 9u);  // incl. kEnd
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_TRUE((*tokens)[6].IsOperator("="));
  EXPECT_EQ((*tokens)[7].int_value, 1);
}

TEST(Tokenizer, StringEscapes) {
  auto tokens = Tokenize("SELECT 'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "it's");
}

TEST(Tokenizer, UnterminatedString) {
  EXPECT_FALSE(Tokenize("SELECT 'oops").ok());
}

TEST(Tokenizer, Comments) {
  auto tokens = Tokenize("SELECT 1 -- comment\n, 2");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens->size(), 5u);
}

TEST(Tokenizer, MultiCharOperators) {
  auto tokens = Tokenize("a != b <= c >= d <> e || f");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[1].IsOperator("!="));
  EXPECT_TRUE((*tokens)[3].IsOperator("<="));
  EXPECT_TRUE((*tokens)[5].IsOperator(">="));
  EXPECT_TRUE((*tokens)[7].IsOperator("!="));  // <> normalised
  EXPECT_TRUE((*tokens)[9].IsOperator("||"));
}

TEST(Tokenizer, KeywordsCaseInsensitive) {
  auto tokens = Tokenize("select From wHeRe");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_TRUE((*tokens)[1].IsKeyword("FROM"));
  EXPECT_TRUE((*tokens)[2].IsKeyword("WHERE"));
}

// --- parser errors ---

TEST(Parser, RejectsGarbage) {
  EXPECT_FALSE(ParseStatement("FLY ME TO THE MOON").ok());
  EXPECT_FALSE(ParseStatement("SELECT FROM").ok());
  EXPECT_FALSE(ParseStatement("SELECT 1 EXTRA TOKENS HERE ARE BAD @").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t VALUES (1,").ok());
}

TEST(Parser, AcceptsTrailingSemicolon) {
  EXPECT_TRUE(ParseStatement("SELECT 1;").ok());
}

// --- DDL / DML basics ---

class DbTest : public ::testing::Test {
 protected:
  Database db_;
};

TEST_F(DbTest, CreateInsertSelect) {
  Exec(db_, "CREATE TABLE t(a, b, c)");
  Exec(db_, "INSERT INTO t VALUES (1, 'x', 2.5)");
  Exec(db_, "INSERT INTO t VALUES (2, 'y', 3.5), (3, 'z', 4.5)");
  QueryResult r = Exec(db_, "SELECT * FROM t");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.columns, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[1][1].AsText(), "y");
  EXPECT_DOUBLE_EQ(r.rows[2][2].AsReal(), 4.5);
}

TEST_F(DbTest, CreateTableTwiceFails) {
  Exec(db_, "CREATE TABLE t(a)");
  EXPECT_FALSE(db_.Execute("CREATE TABLE t(a)").ok());
  EXPECT_TRUE(db_.Execute("CREATE TABLE IF NOT EXISTS t(a)").ok());
}

TEST_F(DbTest, InsertWithColumnList) {
  Exec(db_, "CREATE TABLE t(a, b, c)");
  Exec(db_, "INSERT INTO t(c, a) VALUES (3, 1)");
  QueryResult r = Exec(db_, "SELECT a, b, c FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_EQ(r.rows[0][2].AsInt(), 3);
}

TEST_F(DbTest, InsertArityMismatch) {
  Exec(db_, "CREATE TABLE t(a, b)");
  EXPECT_FALSE(db_.Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO t(a) VALUES (1, 2)").ok());
}

TEST_F(DbTest, DeleteAll) {
  Exec(db_, "CREATE TABLE t(a)");
  Exec(db_, "INSERT INTO t VALUES (1), (2), (3)");
  QueryResult r = Exec(db_, "DELETE FROM t");
  EXPECT_EQ(r.affected, 3u);
  EXPECT_EQ(Exec(db_, "SELECT * FROM t").rows.size(), 0u);
}

TEST_F(DbTest, DeleteWhere) {
  Exec(db_, "CREATE TABLE t(a)");
  Exec(db_, "INSERT INTO t VALUES (1), (2), (3), (4)");
  QueryResult r = Exec(db_, "DELETE FROM t WHERE a % 2 = 0");
  EXPECT_EQ(r.affected, 2u);
  r = Exec(db_, "SELECT a FROM t ORDER BY a");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[1][0].AsInt(), 3);
}

TEST_F(DbTest, DeleteWithSubqueryOverSameTable) {
  // This is exactly the shape of the paper's Git trimming query.
  Exec(db_, "CREATE TABLE updates(time, repo, branch, cid, type)");
  Exec(db_, "INSERT INTO updates VALUES (1, 'r', 'main', 'c1', 'update')");
  Exec(db_, "INSERT INTO updates VALUES (2, 'r', 'main', 'c2', 'update')");
  Exec(db_, "INSERT INTO updates VALUES (3, 'r', 'dev', 'c3', 'update')");
  QueryResult r = Exec(db_,
                       "DELETE FROM updates WHERE time NOT IN "
                       "(SELECT MAX(time) FROM updates GROUP BY repo, branch)");
  EXPECT_EQ(r.affected, 1u);  // only (1, main, c1) goes
  r = Exec(db_, "SELECT time FROM updates ORDER BY time");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[1][0].AsInt(), 3);
}

TEST_F(DbTest, Update) {
  Exec(db_, "CREATE TABLE t(a, b)");
  Exec(db_, "INSERT INTO t VALUES (1, 10), (2, 20)");
  QueryResult r = Exec(db_, "UPDATE t SET b = b + 1 WHERE a = 2");
  EXPECT_EQ(r.affected, 1u);
  r = Exec(db_, "SELECT b FROM t WHERE a = 2");
  EXPECT_EQ(r.rows[0][0].AsInt(), 21);
}

TEST_F(DbTest, DropTable) {
  Exec(db_, "CREATE TABLE t(a)");
  Exec(db_, "DROP TABLE t");
  EXPECT_FALSE(db_.Execute("SELECT * FROM t").ok());
  EXPECT_FALSE(db_.Execute("DROP TABLE t").ok());
  EXPECT_TRUE(db_.Execute("DROP TABLE IF EXISTS t").ok());
}

// --- expressions ---

TEST_F(DbTest, ArithmeticAndPrecedence) {
  QueryResult r = Exec(db_, "SELECT 2 + 3 * 4, (2 + 3) * 4, 10 / 3, 10 % 3, -5 + 1");
  EXPECT_EQ(r.rows[0][0].AsInt(), 14);
  EXPECT_EQ(r.rows[0][1].AsInt(), 20);
  EXPECT_EQ(r.rows[0][2].AsInt(), 3);
  EXPECT_EQ(r.rows[0][3].AsInt(), 1);
  EXPECT_EQ(r.rows[0][4].AsInt(), -4);
}

TEST_F(DbTest, StringConcat) {
  QueryResult r = Exec(db_, "SELECT 'foo' || 'bar'");
  EXPECT_EQ(r.rows[0][0].AsText(), "foobar");
}

TEST_F(DbTest, DivisionByZeroIsNull) {
  QueryResult r = Exec(db_, "SELECT 1 / 0");
  EXPECT_TRUE(r.rows[0][0].is_null());
}

TEST_F(DbTest, NullComparisons) {
  Exec(db_, "CREATE TABLE t(a)");
  Exec(db_, "INSERT INTO t VALUES (1), (NULL)");
  // NULL compares as unknown -> filtered out.
  EXPECT_EQ(Exec(db_, "SELECT * FROM t WHERE a = 1").rows.size(), 1u);
  EXPECT_EQ(Exec(db_, "SELECT * FROM t WHERE a != 1").rows.size(), 0u);
  EXPECT_EQ(Exec(db_, "SELECT * FROM t WHERE a IS NULL").rows.size(), 1u);
  EXPECT_EQ(Exec(db_, "SELECT * FROM t WHERE a IS NOT NULL").rows.size(), 1u);
}

TEST_F(DbTest, LikePatterns) {
  Exec(db_, "CREATE TABLE t(s)");
  Exec(db_, "INSERT INTO t VALUES ('hello'), ('help'), ('world')");
  EXPECT_EQ(Exec(db_, "SELECT * FROM t WHERE s LIKE 'hel%'").rows.size(), 2u);
  EXPECT_EQ(Exec(db_, "SELECT * FROM t WHERE s LIKE 'h_llo'").rows.size(), 1u);
  EXPECT_EQ(Exec(db_, "SELECT * FROM t WHERE s NOT LIKE 'hel%'").rows.size(), 1u);
  EXPECT_EQ(Exec(db_, "SELECT * FROM t WHERE s LIKE '%orl%'").rows.size(), 1u);
}

TEST_F(DbTest, Between) {
  Exec(db_, "CREATE TABLE t(a)");
  Exec(db_, "INSERT INTO t VALUES (1), (5), (10)");
  EXPECT_EQ(Exec(db_, "SELECT * FROM t WHERE a BETWEEN 2 AND 9").rows.size(), 1u);
  EXPECT_EQ(Exec(db_, "SELECT * FROM t WHERE a NOT BETWEEN 2 AND 9").rows.size(), 2u);
}

TEST_F(DbTest, InList) {
  Exec(db_, "CREATE TABLE t(a)");
  Exec(db_, "INSERT INTO t VALUES (1), (2), (3)");
  EXPECT_EQ(Exec(db_, "SELECT * FROM t WHERE a IN (1, 3)").rows.size(), 2u);
  EXPECT_EQ(Exec(db_, "SELECT * FROM t WHERE a NOT IN (1, 3)").rows.size(), 1u);
}

TEST_F(DbTest, ScalarFunctions) {
  QueryResult r = Exec(db_, "SELECT LENGTH('hello'), ABS(-4), SUBSTR('abcdef', 2, 3), "
                            "COALESCE(NULL, NULL, 7)");
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
  EXPECT_EQ(r.rows[0][1].AsInt(), 4);
  EXPECT_EQ(r.rows[0][2].AsText(), "bcd");
  EXPECT_EQ(r.rows[0][3].AsInt(), 7);
}

TEST_F(DbTest, BooleanLogic) {
  Exec(db_, "CREATE TABLE t(a, b)");
  Exec(db_, "INSERT INTO t VALUES (1, 0), (1, 1), (0, 0)");
  EXPECT_EQ(Exec(db_, "SELECT * FROM t WHERE a = 1 AND b = 1").rows.size(), 1u);
  EXPECT_EQ(Exec(db_, "SELECT * FROM t WHERE a = 1 OR b = 1").rows.size(), 2u);
  EXPECT_EQ(Exec(db_, "SELECT * FROM t WHERE NOT (a = 1)").rows.size(), 1u);
}

// --- joins ---

TEST_F(DbTest, InnerJoin) {
  Exec(db_, "CREATE TABLE a(id, x)");
  Exec(db_, "CREATE TABLE b(id, y)");
  Exec(db_, "INSERT INTO a VALUES (1, 'a1'), (2, 'a2')");
  Exec(db_, "INSERT INTO b VALUES (2, 'b2'), (3, 'b3')");
  QueryResult r = Exec(db_, "SELECT a.x, b.y FROM a JOIN b ON a.id = b.id");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), "a2");
  EXPECT_EQ(r.rows[0][1].AsText(), "b2");
}

TEST_F(DbTest, CrossJoin) {
  Exec(db_, "CREATE TABLE a(x)");
  Exec(db_, "CREATE TABLE b(y)");
  Exec(db_, "INSERT INTO a VALUES (1), (2)");
  Exec(db_, "INSERT INTO b VALUES (10), (20), (30)");
  EXPECT_EQ(Exec(db_, "SELECT * FROM a CROSS JOIN b").rows.size(), 6u);
  EXPECT_EQ(Exec(db_, "SELECT * FROM a, b").rows.size(), 6u);
}

TEST_F(DbTest, LeftJoin) {
  Exec(db_, "CREATE TABLE a(id)");
  Exec(db_, "CREATE TABLE b(id, y)");
  Exec(db_, "INSERT INTO a VALUES (1), (2)");
  Exec(db_, "INSERT INTO b VALUES (2, 'hit')");
  QueryResult r = Exec(db_, "SELECT a.id, b.y FROM a LEFT JOIN b ON a.id = b.id ORDER BY a.id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_EQ(r.rows[1][1].AsText(), "hit");
}

TEST_F(DbTest, NaturalJoin) {
  Exec(db_, "CREATE TABLE a(k, x)");
  Exec(db_, "CREATE TABLE b(k, y)");
  Exec(db_, "INSERT INTO a VALUES (1, 'x1'), (2, 'x2')");
  Exec(db_, "INSERT INTO b VALUES (2, 'y2'), (3, 'y3')");
  QueryResult r = Exec(db_, "SELECT * FROM a NATURAL JOIN b");
  ASSERT_EQ(r.rows.size(), 1u);
  // Common column appears once.
  EXPECT_EQ(r.columns, (std::vector<std::string>{"k", "x", "y"}));
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
}

TEST_F(DbTest, SelfJoinWithAliases) {
  Exec(db_, "CREATE TABLE t(id, v)");
  Exec(db_, "INSERT INTO t VALUES (1, 10), (2, 20)");
  QueryResult r = Exec(db_, "SELECT x.v, y.v FROM t x JOIN t y ON x.id < y.id");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 10);
  EXPECT_EQ(r.rows[0][1].AsInt(), 20);
}

// --- aggregates / grouping ---

TEST_F(DbTest, AggregatesWholeTable) {
  Exec(db_, "CREATE TABLE t(a)");
  Exec(db_, "INSERT INTO t VALUES (1), (2), (3), (NULL)");
  QueryResult r = Exec(db_, "SELECT COUNT(*), COUNT(a), SUM(a), MAX(a), MIN(a), AVG(a) FROM t");
  EXPECT_EQ(r.rows[0][0].AsInt(), 4);
  EXPECT_EQ(r.rows[0][1].AsInt(), 3);
  EXPECT_EQ(r.rows[0][2].AsInt(), 6);
  EXPECT_EQ(r.rows[0][3].AsInt(), 3);
  EXPECT_EQ(r.rows[0][4].AsInt(), 1);
  EXPECT_DOUBLE_EQ(r.rows[0][5].AsReal(), 2.0);
}

TEST_F(DbTest, AggregatesEmptyTable) {
  Exec(db_, "CREATE TABLE t(a)");
  QueryResult r = Exec(db_, "SELECT COUNT(*), MAX(a), SUM(a) FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
}

// An aggregate that also projects a bare column, over no qualifying row:
// the one output row reads NULL for the bare column, as in SQLite.
TEST_F(DbTest, AggregateWithBareColumnOverNoRows) {
  Exec(db_, "CREATE TABLE t(k, v)");
  QueryResult r = Exec(db_, "SELECT COUNT(*), k FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
  Exec(db_, "INSERT INTO t VALUES ('a', 1)");
  r = Exec(db_, "SELECT k, v, SUM(v) FROM t WHERE v > 5");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][0].is_null());
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
  r = Exec(db_, "SELECT COUNT(*) FROM t WHERE v > 5 HAVING k IS NULL");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
}

TEST_F(DbTest, GroupBy) {
  Exec(db_, "CREATE TABLE t(k, v)");
  Exec(db_, "INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 5)");
  QueryResult r = Exec(db_, "SELECT k, SUM(v) AS total FROM t GROUP BY k ORDER BY k");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.columns[1], "total");
  EXPECT_EQ(r.rows[0][1].AsInt(), 3);
  EXPECT_EQ(r.rows[1][1].AsInt(), 5);
}

TEST_F(DbTest, GroupByHaving) {
  Exec(db_, "CREATE TABLE t(k, v)");
  Exec(db_, "INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 5), ('c', 1)");
  QueryResult r = Exec(db_, "SELECT k FROM t GROUP BY k HAVING COUNT(*) > 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), "a");
}

TEST_F(DbTest, CountDistinct) {
  Exec(db_, "CREATE TABLE t(a)");
  Exec(db_, "INSERT INTO t VALUES (1), (1), (2), (NULL)");
  QueryResult r = Exec(db_, "SELECT COUNT(DISTINCT a) FROM t");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
}

// --- distinct / order / limit ---

TEST_F(DbTest, Distinct) {
  Exec(db_, "CREATE TABLE t(a)");
  Exec(db_, "INSERT INTO t VALUES (1), (1), (2)");
  EXPECT_EQ(Exec(db_, "SELECT DISTINCT a FROM t").rows.size(), 2u);
}

TEST_F(DbTest, OrderByDesc) {
  Exec(db_, "CREATE TABLE t(a)");
  Exec(db_, "INSERT INTO t VALUES (2), (1), (3)");
  QueryResult r = Exec(db_, "SELECT a FROM t ORDER BY a DESC");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.rows[2][0].AsInt(), 1);
}

TEST_F(DbTest, OrderByMultipleKeys) {
  Exec(db_, "CREATE TABLE t(a, b)");
  Exec(db_, "INSERT INTO t VALUES (1, 2), (1, 1), (0, 9)");
  QueryResult r = Exec(db_, "SELECT a, b FROM t ORDER BY a, b DESC");
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_EQ(r.rows[1][1].AsInt(), 2);
  EXPECT_EQ(r.rows[2][1].AsInt(), 1);
}

TEST_F(DbTest, OrderByPosition) {
  Exec(db_, "CREATE TABLE t(a)");
  Exec(db_, "INSERT INTO t VALUES (2), (1)");
  QueryResult r = Exec(db_, "SELECT a FROM t ORDER BY 1");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
}

TEST_F(DbTest, LimitOffset) {
  Exec(db_, "CREATE TABLE t(a)");
  Exec(db_, "INSERT INTO t VALUES (1), (2), (3), (4), (5)");
  QueryResult r = Exec(db_, "SELECT a FROM t ORDER BY a LIMIT 2 OFFSET 1");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[1][0].AsInt(), 3);
}

// --- subqueries ---

TEST_F(DbTest, ScalarSubquery) {
  Exec(db_, "CREATE TABLE t(a)");
  Exec(db_, "INSERT INTO t VALUES (1), (5), (3)");
  QueryResult r = Exec(db_, "SELECT (SELECT MAX(a) FROM t)");
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
}

TEST_F(DbTest, CorrelatedScalarSubquery) {
  Exec(db_, "CREATE TABLE emp(dept, salary)");
  Exec(db_, "INSERT INTO emp VALUES ('x', 10), ('x', 20), ('y', 5)");
  // Employees earning the max of their department.
  QueryResult r = Exec(db_,
                       "SELECT dept, salary FROM emp e WHERE salary = "
                       "(SELECT MAX(salary) FROM emp WHERE dept = e.dept) ORDER BY dept");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].AsInt(), 20);
  EXPECT_EQ(r.rows[1][1].AsInt(), 5);
}

TEST_F(DbTest, InSubquery) {
  Exec(db_, "CREATE TABLE a(x)");
  Exec(db_, "CREATE TABLE b(x)");
  Exec(db_, "INSERT INTO a VALUES (1), (2), (3)");
  Exec(db_, "INSERT INTO b VALUES (2), (3), (4)");
  EXPECT_EQ(Exec(db_, "SELECT * FROM a WHERE x IN (SELECT x FROM b)").rows.size(), 2u);
  EXPECT_EQ(Exec(db_, "SELECT * FROM a WHERE x NOT IN (SELECT x FROM b)").rows.size(), 1u);
}

TEST_F(DbTest, ExistsSubquery) {
  Exec(db_, "CREATE TABLE a(x)");
  Exec(db_, "CREATE TABLE b(x)");
  Exec(db_, "INSERT INTO a VALUES (1), (2)");
  Exec(db_, "INSERT INTO b VALUES (2)");
  EXPECT_EQ(Exec(db_, "SELECT * FROM a WHERE EXISTS (SELECT * FROM b WHERE b.x = a.x)").rows.size(),
            1u);
  EXPECT_EQ(
      Exec(db_, "SELECT * FROM a WHERE NOT EXISTS (SELECT * FROM b WHERE b.x = a.x)").rows.size(),
      1u);
}

TEST_F(DbTest, DerivedTable) {
  Exec(db_, "CREATE TABLE t(a)");
  Exec(db_, "INSERT INTO t VALUES (1), (2), (3)");
  QueryResult r = Exec(db_, "SELECT s.m FROM (SELECT MAX(a) AS m FROM t) s");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
}

// --- views ---

TEST_F(DbTest, ViewBasic) {
  Exec(db_, "CREATE TABLE t(a, b)");
  Exec(db_, "INSERT INTO t VALUES (1, 10), (2, 20)");
  Exec(db_, "CREATE VIEW v AS SELECT a, b * 2 AS bb FROM t");
  QueryResult r = Exec(db_, "SELECT bb FROM v WHERE a = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 40);
}

TEST_F(DbTest, ViewReflectsUpdates) {
  Exec(db_, "CREATE TABLE t(a)");
  Exec(db_, "CREATE VIEW v AS SELECT COUNT(*) AS n FROM t");
  EXPECT_EQ(Exec(db_, "SELECT n FROM v").rows[0][0].AsInt(), 0);
  Exec(db_, "INSERT INTO t VALUES (1), (2)");
  EXPECT_EQ(Exec(db_, "SELECT n FROM v").rows[0][0].AsInt(), 2);
}

TEST_F(DbTest, DropView) {
  Exec(db_, "CREATE TABLE t(a)");
  Exec(db_, "CREATE VIEW v AS SELECT * FROM t");
  Exec(db_, "DROP VIEW v");
  EXPECT_FALSE(db_.Execute("SELECT * FROM v").ok());
}

// --- the exact paper queries (Git schema) ---

class GitInvariantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec(db_, "CREATE TABLE updates(time, repo, branch, cid, type)");
    Exec(db_, "CREATE TABLE advertisements(time, repo, branch, cid)");
    Exec(db_,
         "CREATE VIEW branchcnt AS "
         "SELECT DISTINCT a.time,a.repo,COUNT(u.branch) AS cnt "
         "FROM advertisements a "
         "JOIN updates u ON u.time < a.time AND u.repo = a.repo "
         "WHERE u.type != 'delete' AND u.time = (SELECT MAX(time) "
         "FROM updates WHERE branch = u.branch "
         "AND repo = u.repo AND time < a.time) GROUP BY a.time,a.repo,a.branch");
  }

  QueryResult Soundness() {
    return Exec(db_,
                "SELECT * FROM advertisements a WHERE cid != ("
                "SELECT u.cid FROM updates u WHERE u.repo = a.repo AND "
                "u.branch = a.branch AND u.time < a.time ORDER BY "
                "u.time DESC LIMIT 1)");
  }

  QueryResult Completeness() {
    return Exec(db_,
                "SELECT time, repo FROM advertisements "
                "NATURAL JOIN branchcnt "
                "GROUP BY time, repo, cnt HAVING COUNT(branch) != cnt");
  }

  Database db_;
};

TEST_F(GitInvariantTest, CleanHistoryHasNoViolations) {
  Exec(db_, "INSERT INTO updates VALUES (1, 'r', 'main', 'c1', 'update')");
  Exec(db_, "INSERT INTO updates VALUES (2, 'r', 'dev', 'c2', 'update')");
  // Advertisement at time 3 reflects both branches at their latest commits.
  Exec(db_, "INSERT INTO advertisements VALUES (3, 'r', 'main', 'c1')");
  Exec(db_, "INSERT INTO advertisements VALUES (3, 'r', 'dev', 'c2')");
  EXPECT_TRUE(Soundness().rows.empty());
  EXPECT_TRUE(Completeness().rows.empty());
}

TEST_F(GitInvariantTest, RollbackAttackDetectedBySoundness) {
  Exec(db_, "INSERT INTO updates VALUES (1, 'r', 'main', 'c1', 'update')");
  Exec(db_, "INSERT INTO updates VALUES (2, 'r', 'main', 'c2', 'update')");
  // Server advertises the OLD commit c1: rollback.
  Exec(db_, "INSERT INTO advertisements VALUES (3, 'r', 'main', 'c1')");
  QueryResult r = Soundness();
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
}

TEST_F(GitInvariantTest, ReferenceDeletionDetectedByCompleteness) {
  Exec(db_, "INSERT INTO updates VALUES (1, 'r', 'main', 'c1', 'update')");
  Exec(db_, "INSERT INTO updates VALUES (2, 'r', 'dev', 'c2', 'update')");
  // Advertisement at time 3 omits branch 'dev': reference deletion.
  Exec(db_, "INSERT INTO advertisements VALUES (3, 'r', 'main', 'c1')");
  QueryResult r = Completeness();
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.rows[0][1].AsText(), "r");
}

TEST_F(GitInvariantTest, LegitimateDeleteIsNotAViolation) {
  Exec(db_, "INSERT INTO updates VALUES (1, 'r', 'main', 'c1', 'update')");
  Exec(db_, "INSERT INTO updates VALUES (2, 'r', 'dev', 'c2', 'update')");
  Exec(db_, "INSERT INTO updates VALUES (3, 'r', 'dev', 'c2', 'delete')");
  // After the delete, advertising only main is correct.
  Exec(db_, "INSERT INTO advertisements VALUES (4, 'r', 'main', 'c1')");
  EXPECT_TRUE(Completeness().rows.empty());
}

TEST_F(GitInvariantTest, TrimmingPreservesInvariantChecking) {
  Exec(db_, "INSERT INTO updates VALUES (1, 'r', 'main', 'c1', 'update')");
  Exec(db_, "INSERT INTO updates VALUES (2, 'r', 'main', 'c2', 'update')");
  Exec(db_, "INSERT INTO advertisements VALUES (3, 'r', 'main', 'c2')");
  EXPECT_TRUE(Soundness().rows.empty());
  // Paper's trimming queries.
  Exec(db_, "DELETE FROM advertisements");
  Exec(db_,
       "DELETE FROM updates WHERE time NOT IN "
       "(SELECT MAX(time) FROM updates GROUP BY repo, branch)");
  EXPECT_EQ(Exec(db_, "SELECT * FROM updates").rows.size(), 1u);
  // New advertisement of the retained update is still sound; a rollback to
  // the trimmed c1 is still detected.
  Exec(db_, "INSERT INTO advertisements VALUES (4, 'r', 'main', 'c2')");
  EXPECT_TRUE(Soundness().rows.empty());
  Exec(db_, "INSERT INTO advertisements VALUES (5, 'r', 'main', 'c1')");
  EXPECT_EQ(Soundness().rows.size(), 1u);
}

// --- serialisation ---

TEST_F(DbTest, SerializeRoundTrip) {
  Exec(db_, "CREATE TABLE t(a, b, c)");
  Exec(db_, "INSERT INTO t VALUES (1, 'x', 2.5), (NULL, 'y', 3.5)");
  Exec(db_, "CREATE VIEW v AS SELECT COUNT(*) AS n FROM t");
  Bytes image = db_.Serialize();
  auto restored = Database::Deserialize(image);
  ASSERT_TRUE(restored.ok());
  QueryResult r = Exec(*restored, "SELECT * FROM t");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_TRUE(r.rows[1][0].is_null());
  EXPECT_EQ(r.rows[0][1].AsText(), "x");
  EXPECT_EQ(Exec(*restored, "SELECT n FROM v").rows[0][0].AsInt(), 2);
}

TEST_F(DbTest, DeserializeRejectsTruncated) {
  Exec(db_, "CREATE TABLE t(a)");
  Exec(db_, "INSERT INTO t VALUES (1)");
  Bytes image = db_.Serialize();
  for (size_t cut : {1u, 5u, 9u}) {
    if (cut < image.size()) {
      EXPECT_FALSE(Database::Deserialize(BytesView(image.data(), image.size() - cut)).ok());
    }
  }
}

// --- programmatic API ---

TEST_F(DbTest, ProgrammaticInsert) {
  ASSERT_TRUE(db_.CreateTable("t", {"a", "b"}).ok());
  ASSERT_TRUE(db_.InsertRow("t", {Value(static_cast<int64_t>(1)), Value(std::string("x"))}).ok());
  EXPECT_FALSE(db_.InsertRow("t", {Value(static_cast<int64_t>(1))}).ok());  // arity
  EXPECT_FALSE(db_.InsertRow("nope", {}).ok());
  EXPECT_EQ(db_.TableSize("t"), 1u);
  EXPECT_TRUE(db_.HasTable("t"));
  EXPECT_FALSE(db_.HasTable("nope"));
}

}  // namespace
}  // namespace seal::db
