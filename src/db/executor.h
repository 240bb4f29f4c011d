// SELECT execution engine for seadb (internal to the db module).
#ifndef SRC_DB_EXECUTOR_H_
#define SRC_DB_EXECUTOR_H_

#include <cstdint>
#include <optional>
#include <string>
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
class Executor {
 public:
  // With `snap`, base-table scans read the snapshot's pinned row prefixes
  // instead of live table state — safe concurrently with writers. Advisory
  // fast paths that would touch the live time index are disabled.
  explicit Executor(const Database& db, const Snapshot* snap = nullptr)
      : db_(db), snap_(snap) {}

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

  const Database& db_;
  const Snapshot* snap_ = nullptr;
};

// True if the expression (recursively, not descending into subqueries)
// contains an aggregate function call.
bool ContainsAggregate(const Expr& expr);

// Human-readable rendition of an expression, used to synthesise output
// column names ("COUNT(branch)").
std::string ExprToString(const Expr& expr);

}  // namespace seal::db

#endif  // SRC_DB_EXECUTOR_H_
