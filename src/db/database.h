// seadb: an embedded in-memory relational database with a SQL front end.
//
// This plays the role SQLite plays in the LibSEAL paper: it executes the
// audit-log schema DDL, the logger's INSERTs, the invariant SELECT queries
// and the trimming DELETEs, entirely inside the (simulated) enclave.
#ifndef SRC_DB_DATABASE_H_
#define SRC_DB_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/db/ast.h"
#include "src/db/row_store.h"
#include "src/db/value.h"

namespace seal::db {

// Result of Execute(): column names and rows for SELECT; `affected` for DML.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  size_t affected = 0;

  bool empty() const { return rows.empty(); }
};

// Executor knobs, settable per database. All default on; benchmarks flip
// them off to compare against the unindexed nested-loop engine, which also
// evaluates every subquery once per outer row.
struct Tuning {
  // Index range scans, the ORDER BY time DESC LIMIT / MAX(time) fast paths,
  // and the subquery rewrites: as-of lookups for "latest row before"
  // scalar subqueries and one evaluation per statement for uncorrelated
  // subqueries (DESIGN.md §3b).
  bool use_time_index = true;
  bool use_hash_join = true;  // hash joins for equi-join keys
};

// A logical snapshot of one table: a pinned prefix of its row store plus
// the facts the executor needs to narrow scans without touching live
// (concurrently mutated) index state.
struct TableSnapshot {
  RowStore::View view;
  int time_col = -1;
  // Rows ascending by integer time (the sequencer drains in ticket order,
  // so this is the steady state). Enables binary-search TimeBound
  // narrowing directly on the view.
  bool time_sorted = false;
};

// A cheap whole-database snapshot: per-table pinned row prefixes plus the
// epochs at capture time. Capture must be externally synchronised with
// writers (the sequencer captures under the drain mutex, at a pair
// boundary); executing against the snapshot is then safe from any thread,
// concurrently with appends and even trims — the views keep pre-trim rows
// alive until the last reader drops them.
struct Snapshot {
  uint64_t schema_epoch = 0;
  uint64_t trim_epoch = 0;
  std::map<std::string, TableSnapshot> tables;
};

// A SELECT parsed and planned once, re-executed many times. When built with
// a time-floor slot, the injected conjunct `<base>.time > ?` is rebound per
// execution (incremental invariant checking re-plans nothing per round).
// A prepared statement may be executed by one thread at a time (rebinding
// mutates the stored AST); distinct queries are distinct plans.
class PreparedSelect {
 public:
  PreparedSelect() = default;

  const std::string& sql() const { return sql_; }
  bool has_floor_slot() const { return floor_slot_ != nullptr; }

 private:
  friend class Database;
  friend class PlanCache;

  std::string sql_;
  std::shared_ptr<SelectStmt> stmt_;
  Expr* floor_slot_ = nullptr;  // literal of the injected conjunct, owned by stmt_
  uint64_t schema_epoch_ = 0;
};

class Database {
 public:
  Database() = default;
  // Movable, not copyable (views hold parsed ASTs). Manual because the
  // epochs are atomics (read by the checker without the writer's lock).
  Database(Database&& other) noexcept
      : tables_(std::move(other.tables_)),
        views_(std::move(other.views_)),
        tuning_(other.tuning_),
        schema_epoch_(other.schema_epoch_.load(std::memory_order_relaxed)),
        trim_epoch_(other.trim_epoch_.load(std::memory_order_relaxed)) {}
  Database& operator=(Database&& other) noexcept {
    if (this != &other) {
      tables_ = std::move(other.tables_);
      views_ = std::move(other.views_);
      tuning_ = other.tuning_;
      schema_epoch_.store(other.schema_epoch_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      trim_epoch_.store(other.trim_epoch_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    }
    return *this;
  }

  // Parses and executes one SQL statement.
  Result<QueryResult> Execute(std::string_view sql);

  // Parses and executes one statement; when it is a SELECT over a named
  // base table (or view) that exposes a `time` column, AND-injects the
  // conjunct `<base>.time > floor` into WHERE so the scan is narrowed to
  // rows appended after `floor`. Used by incremental invariant checking:
  // for a monotone invariant query this returns exactly the violations
  // involving outer rows newer than the watermark.
  Result<QueryResult> ExecuteWithTimeFloor(std::string_view sql, int64_t floor);

  // --- snapshots + prepared plans (asynchronous checking) ---

  // Captures a logical snapshot of every table. Caller must hold whatever
  // lock serialises writers (see Snapshot docs).
  Snapshot CaptureSnapshot() const;

  // True when no DDL / trim has happened since the snapshot was captured.
  bool SnapshotCurrent(const Snapshot& snapshot) const {
    return snapshot.schema_epoch == schema_epoch() && snapshot.trim_epoch == trim_epoch();
  }

  // Bumped on CREATE/DROP (schema) and on any DELETE/UPDATE that changed
  // rows (trim). Relaxed atomics: the schema epoch invalidates plans; both
  // invalidate snapshots and checker watermarks.
  uint64_t schema_epoch() const { return schema_epoch_.load(std::memory_order_relaxed); }
  uint64_t trim_epoch() const { return trim_epoch_.load(std::memory_order_relaxed); }

  // Parses + plans a SELECT once. With `with_time_floor`, injects the
  // rebindable `<base>.time > ?` conjunct when the base exposes `time`
  // (otherwise the plan simply has no floor slot and executes in full,
  // mirroring ExecuteWithTimeFloor's fallback).
  Result<PreparedSelect> Prepare(std::string_view sql, bool with_time_floor) const;

  // Executes a prepared SELECT. `floor` rebinds the time-floor slot (must
  // be nullopt when the plan has none, except that a slotless plan ignores
  // it). With `snapshot`, the scan reads only the snapshot's pinned row
  // prefixes — safe concurrently with writers.
  Result<QueryResult> ExecutePrepared(const PreparedSelect& plan,
                                      std::optional<int64_t> floor = std::nullopt,
                                      const Snapshot* snapshot = nullptr) const;

  // Convenience: parse + execute one SELECT against a snapshot.
  Result<QueryResult> ExecuteSnapshot(std::string_view sql, const Snapshot& snapshot) const;

  // Programmatic fast paths used by the audit logger (no SQL parsing).
  Status CreateTable(const std::string& name, std::vector<std::string> columns);
  Status InsertRow(const std::string& name, Row row);

  bool HasTable(const std::string& name) const { return tables_.count(name) > 0; }
  // Number of rows in `name`, or 0 if absent.
  size_t TableSize(const std::string& name) const;
  // Direct read access for the audit log's hash-chain maintenance.
  const RowStore* TableRows(const std::string& name) const;
  const std::vector<std::string>* TableColumns(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  // Output column names of a table or view without executing it, or nullopt
  // when they cannot be derived statically (unknown name, or a view whose
  // select list contains a star). Used for join-key/bound planning.
  std::optional<std::vector<std::string>> CatalogColumns(const std::string& name) const;

  void set_tuning(Tuning tuning) { tuning_ = tuning; }
  const Tuning& tuning() const { return tuning_; }

  // The ordered (time, row position) index of `name`, sorted ascending, or
  // nullptr when the table has no valid time index. Exposed for tests.
  const std::vector<std::pair<int64_t, size_t>>* TimeIndexForTesting(
      const std::string& name) const;

  // Whole-database serialisation. Views are persisted as their original
  // CREATE VIEW SQL and re-executed on load.
  Bytes Serialize() const;
  static Result<Database> Deserialize(BytesView in);

 private:
  friend class Executor;

  struct TableData {
    std::vector<std::string> columns;
    RowStore rows;
    // Primary-key index on the `time` column: (time, row position), sorted.
    // Valid only while every row's time value is a non-null integer;
    // maintained on INSERT, remapped incrementally after DELETE compaction
    // and rebuilt after UPDATE touches the time column.
    int time_col = -1;
    bool index_valid = false;
    std::vector<std::pair<int64_t, size_t>> time_index;
    // Row positions ascending by integer time: snapshots binary-search the
    // pinned prefix directly instead of touching the live index.
    bool rows_time_ordered = false;
    int64_t last_row_time = 0;  // meaningful only while rows_time_ordered
  };

  struct ViewData {
    std::shared_ptr<SelectStmt> select;
    std::string sql;  // original CREATE VIEW statement, for serialisation
  };

  static void InitTimeIndex(TableData& table);
  static void IndexInsertedRow(TableData& table, size_t row_idx);
  static void RebuildTimeIndex(TableData& table);
  // Incremental index maintenance after a DELETE compaction: surviving
  // index entries are remapped to their post-compaction positions in one
  // O(n) pass (no re-sort — the remap is monotone). Falls back to a full
  // rebuild when the index was already invalid. `doomed` is the pre-delete
  // per-row deletion mask.
  static void RemapTimeIndexAfterDelete(TableData& table, const std::vector<bool>& doomed);

  // AND-injects `<base>.time > 0` into `s` when its base source exposes a
  // `time` column; returns the literal Expr to rebind, or nullptr.
  Expr* InjectTimeFloorConjunct(SelectStmt& s) const;

  void BumpSchemaEpoch() { schema_epoch_.fetch_add(1, std::memory_order_relaxed); }
  void BumpTrimEpoch() { trim_epoch_.fetch_add(1, std::memory_order_relaxed); }

  std::map<std::string, TableData> tables_;
  std::map<std::string, ViewData> views_;
  Tuning tuning_;
  std::atomic<uint64_t> schema_epoch_{0};
  std::atomic<uint64_t> trim_epoch_{0};
};

// A keyed cache of PreparedSelect plans, invalidated by schema change. A
// plan holds only the parsed AST and its floor slot, neither of which
// depends on table contents, so trims leave cached plans valid.
// Lookup is mutex-guarded (cheap: one map probe per invariant per round);
// execution happens outside the lock. A given (sql, floored) plan must not
// be executed by two threads at once — check rounds are serialised on one
// checker thread.
class PlanCache {
 public:
  // Looks up (preparing/refreshing on miss or schema staleness) and
  // executes. `floor` selects the floored plan variant; `snapshot` routes
  // execution to pinned views.
  Result<QueryResult> Execute(const Database& db, const std::string& sql,
                              std::optional<int64_t> floor = std::nullopt,
                              const Snapshot* snapshot = nullptr);

  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::pair<std::string, bool>, std::shared_ptr<PreparedSelect>> plans_;
};

}  // namespace seal::db

#endif  // SRC_DB_DATABASE_H_
