// SELECT execution engine for seadb (internal to the db module).
#ifndef SRC_DB_EXECUTOR_H_
#define SRC_DB_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/db/ast.h"
#include "src/db/database.h"
#include "src/db/row_store.h"
#include "src/db/value.h"

namespace seal::db {

// A materialised relation flowing through the executor: per-column source
// alias (for qualified-name resolution) plus column names and rows. Row
// storage is shared so that scanning a base table (especially inside a
// correlated subquery evaluated once per outer row) pins the table's row
// store instead of copying it; RowsRef also carries snapshot-view ranges.
struct Relation {
  std::vector<std::string> aliases;  // parallel to columns
  std::vector<std::string> columns;

  const RowsRef& Rows() const { return rows_; }

  void SetOwnedRows(std::vector<Row> rows) { rows_ = RowsRef(std::move(rows)); }
  void SetRows(RowsRef rows) { rows_ = std::move(rows); }

 private:
  RowsRef rows_;
};

// One level of name-resolution scope: a relation and the current row in it.
struct RowScope {
  const Relation* relation = nullptr;
  const Row* row = nullptr;
};

// An interval constraint on a relation's integer `time` column, produced by
// predicate pushdown. Bounds are advisory: every row they exclude is one the
// consuming query provably discards anyway, so applying them is a pure
// optimisation and dropping them is always safe.
struct TimeBound {
  std::optional<int64_t> lo;
  bool lo_strict = false;  // time > lo rather than time >= lo
  std::optional<int64_t> hi;
  bool hi_strict = false;

  bool constrained() const { return lo.has_value() || hi.has_value(); }
  bool Admits(int64_t t) const {
    if (lo.has_value() && (lo_strict ? t <= *lo : t < *lo)) {
      return false;
    }
    if (hi.has_value() && (hi_strict ? t >= *hi : t > *hi)) {
      return false;
    }
    return true;
  }
  void TightenLo(int64_t v, bool strict);
  void TightenHi(int64_t v, bool strict);
};

// Executes SELECT statements against a Database. `outer` is the scope chain
// of enclosing queries (innermost last) for correlated subqueries.
//
// One Executor serves one statement: with the time index tuned on, it
// memoises subquery work per subquery AST node (uncorrelated results, as-of
// lookup tables), so a node must see the same table contents every time it
// is evaluated. SELECT, and DELETE/UPDATE predicates, read before any
// write; each INSERT VALUES row has nodes of its own.
class Executor {
 public:
  // With `snap`, base-table scans read the snapshot's pinned row prefixes
  // instead of live table state — safe concurrently with writers. Advisory
  // fast paths that would touch the live time index are disabled.
  // Both out of line: AsOfPlan is a complete type only in executor.cc.
  explicit Executor(const Database& db, const Snapshot* snap = nullptr);
  ~Executor();

  // `bound` (optional) constrains the statement's `time` output column; it
  // is pushed into the base-table scan when provably safe (see the view
  // rules in ExecuteSelect) and ignored otherwise.
  Result<QueryResult> ExecuteSelect(const SelectStmt& stmt,
                                    const std::vector<RowScope>& outer = {},
                                    const TimeBound* bound = nullptr);

  // Evaluates an expression given a scope chain (innermost last). Exposed
  // for DELETE/UPDATE predicate evaluation.
  Result<Value> Eval(const Expr& expr, const std::vector<RowScope>& scopes);

 private:
  // Group context used while evaluating aggregate expressions.
  struct GroupContext {
    const Relation* relation = nullptr;
    const std::vector<size_t>* row_indices = nullptr;
  };

  Result<Value> EvalInternal(const Expr& expr, const std::vector<RowScope>& scopes,
                             const GroupContext* group);
  Result<Value> EvalFunction(const Expr& expr, const std::vector<RowScope>& scopes,
                             const GroupContext* group);
  Result<Value> EvalAggregate(const Expr& expr, const std::vector<RowScope>& scopes,
                              const GroupContext& group);
  Result<Value> LookupColumn(const Expr& expr, const std::vector<RowScope>& scopes);

  // Materialises a FROM source (table, view, or derived table). `bound`, if
  // set, restricts a base table's scan via the time index and is forwarded
  // into view execution; it is ignored for derived tables.
  Result<Relation> MaterialiseSource(const TableRef& ref, const std::vector<RowScope>& outer,
                                     const TimeBound* bound = nullptr);

  // Derives a TimeBound on the base source of `stmt` from the top-level AND
  // conjuncts of WHERE (point/range predicates on the indexed time column
  // whose other side depends only on literals and outer scopes).
  TimeBound ExtractWhereBound(const SelectStmt& stmt, const std::vector<RowScope>& outer);

  // Single-table fast paths walking the time index descending with early
  // exit: `... ORDER BY time DESC LIMIT k` and `SELECT MAX(time) ...`.
  // Returns nullopt when the statement shape doesn't qualify; otherwise the
  // result is identical to the general path.
  std::optional<Result<QueryResult>> TryIndexedFastPath(const SelectStmt& stmt,
                                                        const std::vector<RowScope>& outer);

  // Runs a subquery for an IN / EXISTS / scalar evaluation. An uncorrelated
  // subquery runs once per Executor and later calls return the same result;
  // otherwise the result is built in `scratch`.
  Result<const QueryResult*> RunSubquery(const SelectStmt& sub,
                                         const std::vector<RowScope>& scopes,
                                         QueryResult* scratch);

  // A scalar "latest row before" subquery answered from a per-statement
  // as-of table (see AsOfPlan in executor.cc). Returns nullopt when the
  // shape or this evaluation's values do not qualify; the caller then runs
  // the subquery in full.
  std::optional<Result<Value>> TryAsOfLookup(const SelectStmt& sub,
                                             const std::vector<RowScope>& scopes);

  struct AsOfPlan;
  // Recognises the as-of shape and builds its table, or returns null.
  std::unique_ptr<AsOfPlan> PlanAsOf(const SelectStmt& sub);

  struct SubqueryMemo {
    bool analysed = false;
    bool uncorrelated = false;
    std::optional<QueryResult> result;  // uncorrelated: set by the first run
    bool asof_analysed = false;
    std::unique_ptr<AsOfPlan> asof;     // null: not an as-of shape
  };
  SubqueryMemo& Memo(const SelectStmt& sub);

  const Database& db_;
  const Snapshot* snap_ = nullptr;
  // Keyed by the subquery's AST node; node addresses are stable for the
  // statement's lifetime, and map references survive rehashing.
  std::unordered_map<const SelectStmt*, SubqueryMemo> subqueries_;
};

// Output column names of `stmt` without executing it (item alias, bare
// column name, or the expression's text), or nullopt when a star needs the
// source relations to expand.
std::optional<std::vector<std::string>> OutputColumnNames(const SelectStmt& stmt);

// True if the expression (recursively, not descending into subqueries)
// contains an aggregate function call.
bool ContainsAggregate(const Expr& expr);

// Human-readable rendition of an expression, used to synthesise output
// column names ("COUNT(branch)").
std::string ExprToString(const Expr& expr);

}  // namespace seal::db

#endif  // SRC_DB_EXECUTOR_H_
