#include "src/db/executor.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>

#include "src/obs/obs.h"

namespace seal::db {

namespace {

bool NameEq(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool IsAggregateName(const std::string& name) {
  return name == "COUNT" || name == "MAX" || name == "MIN" || name == "SUM" || name == "AVG";
}

bool IsScalarFunctionName(const std::string& name) {
  return name == "LENGTH" || name == "ABS" || name == "SUBSTR" || name == "COALESCE";
}

std::string SerializeRow(const Row& row) {
  std::string s;
  for (const Value& v : row) {
    s += v.Serialize();
    s.push_back('|');
  }
  return s;
}

// SQL LIKE with % and _ wildcards (case-insensitive, SQLite default).
bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Simple backtracking matcher.
  size_t ti = 0;
  size_t pi = 0;
  size_t star_ti = std::string_view::npos;
  size_t star_pi = std::string_view::npos;
  auto lc = [](char c) { return std::tolower(static_cast<unsigned char>(c)); };
  while (ti < text.size()) {
    if (pi < pattern.size() &&
        (pattern[pi] == '_' || lc(pattern[pi]) == lc(text[ti]))) {
      ++ti;
      ++pi;
    } else if (pi < pattern.size() && pattern[pi] == '%') {
      star_pi = pi++;
      star_ti = ti;
    } else if (star_pi != std::string_view::npos) {
      pi = star_pi + 1;
      ti = ++star_ti;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '%') {
    ++pi;
  }
  return pi == pattern.size();
}

Value CompareOp(const std::string& op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) {
    return Value::Null();
  }
  int c = Value::Compare(a, b);
  bool r = false;
  if (op == "=") {
    r = c == 0;
  } else if (op == "!=") {
    r = c != 0;
  } else if (op == "<") {
    r = c < 0;
  } else if (op == "<=") {
    r = c <= 0;
  } else if (op == ">") {
    r = c > 0;
  } else if (op == ">=") {
    r = c >= 0;
  }
  return Value(static_cast<int64_t>(r ? 1 : 0));
}

Value Arith(const std::string& op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) {
    return Value::Null();
  }
  if (op == "||") {
    return Value(a.AsText() + b.AsText());
  }
  bool ints = a.is_int() && b.is_int();
  if (ints) {
    int64_t x = a.AsInt();
    int64_t y = b.AsInt();
    if (op == "+") {
      return Value(x + y);
    }
    if (op == "-") {
      return Value(x - y);
    }
    if (op == "*") {
      return Value(x * y);
    }
    if (op == "/") {
      return y == 0 ? Value::Null() : Value(x / y);
    }
    if (op == "%") {
      return y == 0 ? Value::Null() : Value(x % y);
    }
  } else {
    double x = a.AsReal();
    double y = b.AsReal();
    if (op == "+") {
      return Value(x + y);
    }
    if (op == "-") {
      return Value(x - y);
    }
    if (op == "*") {
      return Value(x * y);
    }
    if (op == "/") {
      return y == 0.0 ? Value::Null() : Value(x / y);
    }
    if (op == "%") {
      return Value::Null();
    }
  }
  return Value::Null();
}

// Appends the hash/join key of one value (plus a separator) to `key`,
// normalised so that any two non-null values with Value::Compare == 0
// produce identical keys: integers and reals live in one numeric class, so
// an integral-valued real maps to the integer form. Integers and text are
// written without temporaries; the key is rebuilt per probe row.
void AppendJoinKey(const Value& v, std::string* key) {
  auto append_int = [key](char tag, int64_t i) {
    char digits[24];
    auto end = std::to_chars(digits, digits + sizeof(digits), i).ptr;
    key->push_back(tag);
    key->append(digits, end);
  };
  if (v.is_real()) {
    double d = v.AsReal();
    if (d >= -9223372036854775808.0 && d < 9223372036854775808.0 &&
        static_cast<double>(static_cast<int64_t>(d)) == d) {
      append_int('I', static_cast<int64_t>(d));
    } else {
      key->append(v.Serialize());
    }
  } else if (v.is_int()) {
    append_int('I', v.AsInt());
  } else if (v.is_text()) {
    append_int('T', static_cast<int64_t>(v.text().size()));
    key->push_back(':');
    key->append(v.text());
  } else {
    key->append(v.Serialize());
  }
  key->push_back('\x1f');
}

// Flattens a predicate tree into its top-level AND conjuncts, in
// left-to-right evaluation order.
void SplitAnd(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == ExprKind::kBinary && e->op == "AND") {
    SplitAnd(e->args[0].get(), out);
    SplitAnd(e->args[1].get(), out);
    return;
  }
  out->push_back(e);
}

// True when evaluating `e` cannot touch any relation of the current
// statement (whose sources' aliases are `local_aliases`): it only reads
// literals and columns qualified with some non-local (outer) alias.
bool OuterOnlyExpr(const Expr& e, const std::vector<std::string>& local_aliases) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kColumn: {
      if (e.table.empty()) {
        return false;  // bare names may resolve locally
      }
      for (const std::string& a : local_aliases) {
        if (NameEq(e.table, a)) {
          return false;
        }
      }
      return true;
    }
    case ExprKind::kUnary:
    case ExprKind::kBinary: {
      for (const ExprPtr& a : e.args) {
        if (!OuterOnlyExpr(*a, local_aliases)) {
          return false;
        }
      }
      return true;
    }
    case ExprKind::kFunction: {
      if (IsAggregateName(e.name) || e.star) {
        return false;
      }
      for (const ExprPtr& a : e.args) {
        if (!OuterOnlyExpr(*a, local_aliases)) {
          return false;
        }
      }
      return true;
    }
    default:
      return false;  // subqueries and friends: never hoisted
  }
}

// True when the general path would sort by a projected column rather than
// evaluate the bare ORDER BY name `key`: some item's output name (alias,
// column name or expression text) equals it while the item is not that
// very expression, e.g. `SELECT x.time ... ORDER BY time` with x outer.
bool OrderKeyRedirected(const SelectStmt& stmt, const Expr& key) {
  if (key.kind != ExprKind::kColumn || !key.table.empty()) {
    return false;
  }
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      continue;
    }
    const std::string name = !item.alias.empty()                   ? item.alias
                             : item.expr->kind == ExprKind::kColumn ? item.expr->name
                                                                    : ExprToString(*item.expr);
    if (NameEq(name, key.name) && !NameEq(ExprToString(*item.expr), key.name)) {
      return true;
    }
  }
  return false;
}

// True when `e` has no subquery, no aggregate and no unknown function, and
// every column it reads satisfies `column_ok`: such an expression evaluates
// without error whenever its columns resolve.
template <typename ColumnOk>
bool PlainExpr(const Expr& e, const ColumnOk& column_ok) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kColumn:
      return column_ok(e);
    case ExprKind::kFunction:
      if (!IsScalarFunctionName(e.name) || e.star) {
        return false;
      }
      break;
    case ExprKind::kSubquery:
    case ExprKind::kExists:
      return false;
    default:
      if (e.subquery != nullptr) {
        return false;
      }
  }
  for (const ExprPtr& a : e.args) {
    if (!PlainExpr(*a, column_ok)) {
      return false;
    }
  }
  return true;
}

// The columns (with their source aliases) one statement's rows expose, as
// ExecuteSelect lays out its combined relation; used to resolve names
// without executing anything.
struct NameScope {
  std::vector<std::string> aliases;  // parallel to columns
  std::vector<std::string> columns;
};

bool ResolvesIn(const Expr& col, const std::vector<NameScope>& scopes) {
  for (const NameScope& scope : scopes) {
    for (size_t i = 0; i < scope.columns.size(); ++i) {
      if (NameEq(scope.columns[i], col.name) &&
          (col.table.empty() || NameEq(scope.aliases[i], col.table))) {
        return true;
      }
    }
  }
  return false;
}

bool SelfContained(const Database& db, const SelectStmt& stmt, std::vector<NameScope>* scopes);

bool SelfContainedExpr(const Database& db, const Expr& e, std::vector<NameScope>* scopes) {
  if (e.kind == ExprKind::kColumn) {
    return ResolvesIn(e, *scopes);
  }
  for (const ExprPtr& a : e.args) {
    if (!SelfContainedExpr(db, *a, scopes)) {
      return false;
    }
  }
  return e.subquery == nullptr || SelfContained(db, *e.subquery, scopes);
}

// True when every column reference in `stmt`, its nested subqueries and its
// derived tables resolves to one of the statement's own sources or to
// `scopes` (the enclosing statements that belong to the same candidate
// subquery). A name that cannot be resolved statically counts as a
// reference to some outer row, i.e. as correlated.
bool SelfContained(const Database& db, const SelectStmt& stmt, std::vector<NameScope>* scopes) {
  // LIMIT and OFFSET are evaluated against the enclosing scopes only.
  for (const Expr* e : {stmt.limit.get(), stmt.offset.get()}) {
    if (e != nullptr && !SelfContainedExpr(db, *e, scopes)) {
      return false;
    }
  }
  NameScope own;
  auto add_source = [&](const TableRef& ref, bool natural) {
    std::optional<std::vector<std::string>> columns;
    std::string alias = ref.alias;
    if (ref.subquery != nullptr) {
      // A derived table sees the enclosing scopes, not its siblings.
      if (!SelfContained(db, *ref.subquery, scopes)) {
        return false;
      }
      columns = OutputColumnNames(*ref.subquery);
    } else {
      columns = db.CatalogColumns(ref.table_name);
      if (alias.empty()) {
        alias = ref.table_name;
      }
    }
    if (!columns.has_value()) {
      return false;
    }
    const size_t left_width = own.columns.size();
    for (const std::string& c : *columns) {
      // NATURAL JOIN keeps only the left copy of a shared column.
      if (natural && std::any_of(own.columns.begin(), own.columns.begin() + left_width,
                                 [&](const std::string& l) { return NameEq(l, c); })) {
        continue;
      }
      own.aliases.push_back(alias);
      own.columns.push_back(c);
    }
    return true;
  };
  if (stmt.from.has_value() && !add_source(*stmt.from, false)) {
    return false;
  }
  for (const JoinClause& join : stmt.joins) {
    if (!add_source(join.table, join.kind == JoinClause::Kind::kNatural)) {
      return false;
    }
    if (join.on != nullptr) {
      scopes->push_back(own);  // ON sees the sources joined so far
      bool ok = SelfContainedExpr(db, *join.on, scopes);
      scopes->pop_back();
      if (!ok) {
        return false;
      }
    }
  }
  std::vector<const Expr*> exprs = {stmt.where.get(), stmt.having.get()};
  for (const SelectItem& item : stmt.items) {
    exprs.push_back(item.expr.get());
  }
  for (const ExprPtr& g : stmt.group_by) {
    exprs.push_back(g.get());
  }
  for (const OrderItem& o : stmt.order_by) {
    exprs.push_back(o.expr.get());
  }
  scopes->push_back(std::move(own));
  bool ok = std::all_of(exprs.begin(), exprs.end(), [&](const Expr* e) {
    return e == nullptr || SelfContainedExpr(db, *e, scopes);
  });
  scopes->pop_back();
  return ok;
}

}  // namespace

// A scalar subquery of the "latest row before" shape over one base table T,
//   SELECT MAX(time) FROM T WHERE <where>
//   SELECT <expr> FROM T WHERE <where> ORDER BY time DESC LIMIT 1
// where <where> is a conjunction of equalities `T.col = <outer-only>`,
// exactly one upper bound `T.time < | <= <outer-only>` and any conjuncts
// reading only T. Built once per statement: T's rows are bucketed by their
// equality-key values, each bucket in ascending (time, row order) — the
// walk order of the time index and of a time-sorted snapshot view. A lookup
// hashes the outer values, binary-searches the bound and walks time groups
// latest first, rows within a group in row order (the stable sort's tie
// order), stopping at the first row that passes the local conjuncts.
struct Executor::AsOfPlan {
  bool max_mode = false;
  const Expr* item = nullptr;          // projected expression (ORDER BY form)
  std::vector<size_t> key_cols;        // T's equality-key columns
  std::vector<const Expr*> key_exprs;  // their outer-only sides
  const Expr* bound = nullptr;         // outer-only upper bound on T.time
  bool bound_strict = false;           // T.time < bound (else <=)
  std::vector<const Expr*> filters;    // conjuncts reading only T
  Relation rel;                        // T, pinned for the statement
  // AppendJoinKey(key values) -> (time, row position in rel), ascending.
  std::unordered_map<std::string, std::vector<std::pair<int64_t, size_t>>> buckets;
  // Per key column: whether some row's key is a real, or an integer beyond
  // 2^53. Value::Compare matches such a value against a number of the other
  // kind after rounding to double, which a hash key cannot reproduce.
  std::vector<bool> has_real;
  std::vector<bool> has_wide_int;
  std::string key;                // lookup scratch
  std::vector<RowScope> scopes;   // lookup scratch: outer chain plus T's row
};

namespace {

constexpr int64_t kExactDoubleInt = int64_t{1} << 53;

bool WideInt(const Value& v) {
  return v.is_int() && (v.AsInt() > kExactDoubleInt || v.AsInt() < -kExactDoubleInt);
}

// Whether AppendJoinKey keys agree with Value::Compare on every pair a hash
// join of `left` and `right` can form. They do not when a key is NaN
// (Compare calls it equal to every number), or when one side holds a real
// and the other an integer beyond 2^53 (Compare rounds the integer first).
bool JoinKeysHashable(const RowsRef& left, const RowsRef& right,
                      const std::vector<std::pair<size_t, size_t>>& key_pairs) {
  for (const auto& [lc, rc] : key_pairs) {
    bool real[2] = {false, false};
    bool wide[2] = {false, false};
    for (int side = 0; side < 2; ++side) {
      const size_t col = side == 0 ? lc : rc;
      for (const Row& row : side == 0 ? left : right) {
        const Value& v = row[col];
        if (v.is_real()) {
          if (std::isnan(v.AsReal())) {
            return false;
          }
          real[side] = true;
        } else if (WideInt(v)) {
          wide[side] = true;
        }
      }
    }
    if ((real[0] && wide[1]) || (wide[0] && real[1])) {
      return false;
    }
  }
  return true;
}

}  // namespace

void TimeBound::TightenLo(int64_t v, bool strict) {
  if (!lo.has_value() || v > *lo || (v == *lo && strict)) {
    lo = v;
    lo_strict = strict;
  }
}

void TimeBound::TightenHi(int64_t v, bool strict) {
  if (!hi.has_value() || v < *hi || (v == *hi && strict)) {
    hi = v;
    hi_strict = strict;
  }
}

bool ContainsAggregate(const Expr& expr) {
  if (expr.kind == ExprKind::kFunction && IsAggregateName(expr.name)) {
    return true;
  }
  for (const ExprPtr& a : expr.args) {
    if (ContainsAggregate(*a)) {
      return true;
    }
  }
  return false;
}

std::string ExprToString(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal.AsText();
    case ExprKind::kColumn:
      return expr.table.empty() ? expr.name : expr.table + "." + expr.name;
    case ExprKind::kFunction: {
      std::string s = expr.name + "(";
      if (expr.star) {
        s += "*";
      }
      for (size_t i = 0; i < expr.args.size(); ++i) {
        if (i > 0) {
          s += ",";
        }
        s += ExprToString(*expr.args[i]);
      }
      return s + ")";
    }
    case ExprKind::kBinary:
      return ExprToString(*expr.args[0]) + expr.op + ExprToString(*expr.args[1]);
    case ExprKind::kUnary:
      return expr.op + ExprToString(*expr.args[0]);
    default:
      return "expr";
  }
}

std::optional<std::vector<std::string>> OutputColumnNames(const SelectStmt& stmt) {
  std::vector<std::string> columns;
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      return std::nullopt;
    }
    if (!item.alias.empty()) {
      columns.push_back(item.alias);
    } else if (item.expr->kind == ExprKind::kColumn) {
      columns.push_back(item.expr->name);
    } else {
      columns.push_back(ExprToString(*item.expr));
    }
  }
  return columns;
}

Executor::Executor(const Database& db, const Snapshot* snap) : db_(db), snap_(snap) {}

Executor::~Executor() = default;

Executor::SubqueryMemo& Executor::Memo(const SelectStmt& sub) {
  SubqueryMemo& memo = subqueries_[&sub];
  if (!memo.analysed) {
    memo.analysed = true;
    std::vector<NameScope> scopes;
    memo.uncorrelated = SelfContained(db_, sub, &scopes);
  }
  return memo;
}

Result<const QueryResult*> Executor::RunSubquery(const SelectStmt& sub,
                                                 const std::vector<RowScope>& scopes,
                                                 QueryResult* scratch) {
  if (db_.tuning_.use_time_index) {
    SubqueryMemo& memo = Memo(sub);
    if (memo.uncorrelated) {
      if (!memo.result.has_value()) {
        auto result = ExecuteSelect(sub, scopes);
        if (!result.ok()) {
          return result.status();
        }
        memo.result = std::move(*result);
      }
      SEAL_OBS_COUNTER("seadb_fastpath_hits_total{kind=\"subquery_once\"}").Increment();
      return &*memo.result;
    }
  }
  auto result = ExecuteSelect(sub, scopes);
  if (!result.ok()) {
    return result.status();
  }
  *scratch = std::move(*result);
  return scratch;
}

std::unique_ptr<Executor::AsOfPlan> Executor::PlanAsOf(const SelectStmt& stmt) {
  if (!stmt.from.has_value() || stmt.from->table_name.empty() || !stmt.joins.empty() ||
      !stmt.group_by.empty() || stmt.having != nullptr || stmt.distinct ||
      stmt.where == nullptr || stmt.items.size() != 1 || stmt.items[0].star) {
    return nullptr;
  }
  auto table_it = db_.tables_.find(stmt.from->table_name);
  if (table_it == db_.tables_.end()) {
    return nullptr;
  }
  const Database::TableData& t = table_it->second;
  // The same inputs TryIndexedFastPath walks: the live time index, or a
  // time-sorted snapshot view (never the live index under a snapshot).
  RowStore::View view;
  if (snap_ != nullptr) {
    auto snap_it = snap_->tables.find(stmt.from->table_name);
    if (snap_it == snap_->tables.end() || !snap_it->second.time_sorted ||
        snap_it->second.time_col != t.time_col) {
      return nullptr;
    }
    view = snap_it->second.view;
  } else if (!t.index_valid) {
    return nullptr;
  } else {
    view = t.rows.Snapshot();
  }
  const std::string alias =
      stmt.from->alias.empty() ? stmt.from->table_name : stmt.from->alias;
  const std::vector<std::string> local_aliases = {alias};
  const int time_col = t.time_col;
  // The T column a reference resolves to under LookupColumn's first-match
  // rule, or -1 when it resolves elsewhere.
  auto local_col = [&](const Expr& e) -> int {
    if (e.kind != ExprKind::kColumn || (!e.table.empty() && !NameEq(e.table, alias))) {
      return -1;
    }
    for (size_t i = 0; i < t.columns.size(); ++i) {
      if (NameEq(t.columns[i], e.name)) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  auto reads_only_t = [&](const Expr& e) { return local_col(e) >= 0; };

  auto plan = std::make_unique<AsOfPlan>();
  const SelectItem& item = stmt.items[0];
  if (stmt.order_by.empty() && stmt.limit == nullptr && stmt.offset == nullptr) {
    const Expr& e = *item.expr;
    if (e.kind != ExprKind::kFunction || e.name != "MAX" || e.star || e.distinct ||
        e.args.size() != 1 || local_col(*e.args[0]) != time_col) {
      return nullptr;
    }
    plan->max_mode = true;
  } else {
    if (stmt.order_by.size() != 1) {
      return nullptr;
    }
    const Expr& key = *stmt.order_by[0].expr;
    if (!stmt.order_by[0].desc || local_col(key) != time_col || stmt.limit == nullptr ||
        stmt.limit->kind != ExprKind::kLiteral || !stmt.limit->literal.is_int() ||
        stmt.limit->literal.AsInt() != 1 || stmt.offset != nullptr ||
        !PlainExpr(*item.expr, [](const Expr&) { return true; }) ||
        OrderKeyRedirected(stmt, key)) {
      return nullptr;
    }
    plan->item = item.expr.get();
  }

  std::vector<const Expr*> conjuncts;
  SplitAnd(stmt.where.get(), &conjuncts);
  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kBinary && c->args.size() == 2) {
      const Expr& l = *c->args[0];
      const Expr& r = *c->args[1];
      const int lc = local_col(l);
      const int rc = local_col(r);
      if (c->op == "=" && (lc >= 0) != (rc >= 0)) {
        const Expr& outer_side = lc >= 0 ? r : l;
        if (OuterOnlyExpr(outer_side, local_aliases)) {
          plan->key_cols.push_back(static_cast<size_t>(lc >= 0 ? lc : rc));
          plan->key_exprs.push_back(&outer_side);
          continue;
        }
      }
      const Expr* bound = nullptr;
      if ((c->op == "<" || c->op == "<=") && lc == time_col && rc < 0 &&
          OuterOnlyExpr(r, local_aliases)) {
        bound = &r;
      } else if ((c->op == ">" || c->op == ">=") && rc == time_col && lc < 0 &&
                 OuterOnlyExpr(l, local_aliases)) {
        bound = &l;
      }
      if (bound != nullptr) {
        if (plan->bound != nullptr) {
          return nullptr;  // exactly one upper bound
        }
        plan->bound = bound;
        plan->bound_strict = c->op == "<" || c->op == ">";
        continue;
      }
    }
    if (!PlainExpr(*c, reads_only_t)) {
      return nullptr;
    }
    plan->filters.push_back(c);
  }
  if (plan->bound == nullptr) {
    return nullptr;
  }

  plan->rel.columns = t.columns;
  plan->rel.aliases.assign(t.columns.size(), alias);
  plan->rel.SetRows(RowsRef(view));
  const size_t nkeys = plan->key_cols.size();
  plan->has_real.assign(nkeys, false);
  plan->has_wide_int.assign(nkeys, false);
  const size_t n = snap_ != nullptr ? view.size() : t.time_index.size();
  std::string key;
  for (size_t j = 0; j < n; ++j) {
    const auto [time, pos] =
        snap_ != nullptr
            ? std::pair<int64_t, size_t>(view[j][static_cast<size_t>(time_col)].AsInt(), j)
            : t.time_index[j];
    const Row& row = view[pos];
    key.clear();
    bool null_key = false;
    for (size_t k = 0; k < nkeys && !null_key; ++k) {
      const Value& v = row[plan->key_cols[k]];
      if (v.is_null()) {
        null_key = true;  // `= NULL` never holds
        continue;
      }
      if (v.is_real()) {
        if (std::isnan(v.AsReal())) {
          return nullptr;  // NaN compares equal to every number
        }
        plan->has_real[k] = true;
      } else if (WideInt(v)) {
        plan->has_wide_int[k] = true;
      }
      AppendJoinKey(v, &key);
    }
    if (!null_key) {
      plan->buckets[key].emplace_back(time, pos);
    }
  }
  return plan;
}

std::optional<Result<Value>> Executor::TryAsOfLookup(const SelectStmt& sub,
                                                     const std::vector<RowScope>& scopes) {
  if (!db_.tuning_.use_time_index) {
    return std::nullopt;
  }
  SubqueryMemo& memo = Memo(sub);
  if (memo.uncorrelated) {
    return std::nullopt;  // RunSubquery evaluates it once
  }
  if (!memo.asof_analysed) {
    memo.asof_analysed = true;
    memo.asof = PlanAsOf(sub);
  }
  if (memo.asof == nullptr) {
    return std::nullopt;
  }
  AsOfPlan& plan = *memo.asof;
  // Every outer-side expression is evaluated before any decision: an error
  // sends this evaluation down the per-row path, which reports it (or not,
  // over an empty scan) exactly as before.
  plan.key.clear();
  bool null_key = false;
  for (size_t k = 0; k < plan.key_exprs.size(); ++k) {
    auto v = Eval(*plan.key_exprs[k], scopes);
    if (!v.ok()) {
      return std::nullopt;
    }
    if (v->is_null()) {
      null_key = true;
      continue;
    }
    if (v->is_real() ? std::isnan(v->AsReal()) || plan.has_wide_int[k]
                     : WideInt(*v) && plan.has_real[k]) {
      return std::nullopt;
    }
    AppendJoinKey(*v, &plan.key);
  }
  auto bound = Eval(*plan.bound, scopes);
  if (!bound.ok() || (!bound->is_null() && !bound->is_int())) {
    return std::nullopt;
  }
  SEAL_OBS_COUNTER("seadb_fastpath_hits_total{kind=\"asof\"}").Increment();
  if (null_key || bound->is_null()) {
    return Result<Value>(Value::Null());
  }
  auto it = plan.buckets.find(plan.key);
  if (it == plan.buckets.end()) {
    return Result<Value>(Value::Null());
  }
  const std::vector<std::pair<int64_t, size_t>>& bucket = it->second;
  const int64_t hi = bound->AsInt();
  auto end = plan.bound_strict
                 ? std::lower_bound(bucket.begin(), bucket.end(), hi,
                                    [](const auto& e, int64_t v) { return e.first < v; })
                 : std::upper_bound(bucket.begin(), bucket.end(), hi,
                                    [](int64_t v, const auto& e) { return v < e.first; });
  if (!plan.filters.empty() || !plan.max_mode) {
    plan.scopes.assign(scopes.begin(), scopes.end());
    plan.scopes.push_back(RowScope{&plan.rel, nullptr});
  }
  size_t group_end = static_cast<size_t>(end - bucket.begin());
  while (group_end > 0) {
    size_t group_begin = group_end;
    while (group_begin > 0 && bucket[group_begin - 1].first == bucket[group_end - 1].first) {
      --group_begin;
    }
    for (size_t j = group_begin; j < group_end; ++j) {
      const Row& row = plan.rel.Rows()[bucket[j].second];
      bool pass = true;
      if (!plan.filters.empty()) {
        plan.scopes.back().row = &row;
        for (const Expr* f : plan.filters) {
          auto cond = Eval(*f, plan.scopes);
          if (!cond.ok()) {
            return Result<Value>(cond.status());
          }
          if (!cond->Truthy()) {
            pass = false;
            break;
          }
        }
      }
      if (!pass) {
        continue;
      }
      if (plan.max_mode) {
        return Result<Value>(Value(bucket[j].first));
      }
      plan.scopes.back().row = &row;
      return EvalInternal(*plan.item, plan.scopes, nullptr);
    }
    group_end = group_begin;
  }
  return Result<Value>(Value::Null());
}

Result<Value> Executor::LookupColumn(const Expr& expr, const std::vector<RowScope>& scopes) {
  for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
    const Relation* rel = it->relation;
    if (rel == nullptr || it->row == nullptr) {
      continue;
    }
    for (size_t i = 0; i < rel->columns.size(); ++i) {
      if (!NameEq(rel->columns[i], expr.name)) {
        continue;
      }
      if (!expr.table.empty() && !NameEq(rel->aliases[i], expr.table)) {
        continue;
      }
      return (*it->row)[i];
    }
  }
  return InvalidArgument("unknown column " +
                         (expr.table.empty() ? expr.name : expr.table + "." + expr.name));
}

Result<Value> Executor::EvalAggregate(const Expr& expr, const std::vector<RowScope>& scopes,
                                      const GroupContext& group) {
  // Evaluate the argument for each row of the group with the group's
  // relation as the innermost scope.
  std::vector<Value> samples;
  samples.reserve(group.row_indices->size());
  std::vector<RowScope> row_scopes;
  if (!expr.star) {
    row_scopes = scopes;
  }
  for (size_t idx : *group.row_indices) {
    if (expr.star) {
      samples.push_back(Value(static_cast<int64_t>(1)));
      continue;
    }
    // Replace the innermost scope's row with this group member.
    row_scopes.back() = RowScope{group.relation, &group.relation->Rows()[idx]};
    auto v = EvalInternal(*expr.args[0], row_scopes, nullptr);
    if (!v.ok()) {
      return v;
    }
    samples.push_back(std::move(*v));
  }
  const std::string& f = expr.name;
  if (f == "COUNT") {
    if (expr.star) {
      return Value(static_cast<int64_t>(samples.size()));
    }
    if (expr.distinct) {
      std::set<std::string> seen;
      for (const Value& v : samples) {
        if (!v.is_null()) {
          seen.insert(v.Serialize());
        }
      }
      return Value(static_cast<int64_t>(seen.size()));
    }
    int64_t n = 0;
    for (const Value& v : samples) {
      if (!v.is_null()) {
        ++n;
      }
    }
    return Value(n);
  }
  if (f == "MAX" || f == "MIN") {
    Value best;
    for (const Value& v : samples) {
      if (v.is_null()) {
        continue;
      }
      if (best.is_null() || (f == "MAX" ? Value::Compare(v, best) > 0
                                        : Value::Compare(v, best) < 0)) {
        best = v;
      }
    }
    return best;
  }
  if (f == "SUM" || f == "AVG") {
    bool any = false;
    bool all_int = true;
    int64_t isum = 0;
    double rsum = 0;
    for (const Value& v : samples) {
      if (v.is_null()) {
        continue;
      }
      any = true;
      if (!v.is_int()) {
        all_int = false;
      }
      isum += v.AsInt();
      rsum += v.AsReal();
    }
    if (!any) {
      return Value::Null();
    }
    if (f == "SUM") {
      return all_int ? Value(isum) : Value(rsum);
    }
    int64_t n = 0;
    for (const Value& v : samples) {
      if (!v.is_null()) {
        ++n;
      }
    }
    return Value(rsum / static_cast<double>(n));
  }
  return InvalidArgument("unknown aggregate " + f);
}

Result<Value> Executor::EvalFunction(const Expr& expr, const std::vector<RowScope>& scopes,
                                     const GroupContext* group) {
  if (IsAggregateName(expr.name)) {
    if (group == nullptr) {
      return InvalidArgument("aggregate " + expr.name + " used outside GROUP BY context");
    }
    return EvalAggregate(expr, scopes, *group);
  }
  std::vector<Value> args;
  for (const ExprPtr& a : expr.args) {
    auto v = EvalInternal(*a, scopes, group);
    if (!v.ok()) {
      return v;
    }
    args.push_back(std::move(*v));
  }
  const std::string& f = expr.name;
  if (f == "LENGTH") {
    if (args.size() != 1 || args[0].is_null()) {
      return Value::Null();
    }
    return Value(static_cast<int64_t>(args[0].AsText().size()));
  }
  if (f == "ABS") {
    if (args.size() != 1 || args[0].is_null()) {
      return Value::Null();
    }
    if (args[0].is_int()) {
      int64_t v = args[0].AsInt();
      return Value(v < 0 ? -v : v);
    }
    double v = args[0].AsReal();
    return Value(v < 0 ? -v : v);
  }
  if (f == "SUBSTR") {
    if (args.size() < 2 || args[0].is_null()) {
      return Value::Null();
    }
    std::string s = args[0].AsText();
    int64_t start = args[1].AsInt();  // 1-based
    int64_t len = args.size() > 2 ? args[2].AsInt() : static_cast<int64_t>(s.size());
    if (start < 1) {
      start = 1;
    }
    if (start > static_cast<int64_t>(s.size())) {
      return Value(std::string());
    }
    return Value(s.substr(static_cast<size_t>(start - 1), static_cast<size_t>(len)));
  }
  if (f == "COALESCE") {
    for (const Value& v : args) {
      if (!v.is_null()) {
        return v;
      }
    }
    return Value::Null();
  }
  return InvalidArgument("unknown function " + f);
}

Result<Value> Executor::EvalInternal(const Expr& expr, const std::vector<RowScope>& scopes,
                                     const GroupContext* group) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumn:
      return LookupColumn(expr, scopes);
    case ExprKind::kUnary: {
      auto v = EvalInternal(*expr.args[0], scopes, group);
      if (!v.ok()) {
        return v;
      }
      if (expr.op == "NOT") {
        if (v->is_null()) {
          return Value::Null();
        }
        return Value(static_cast<int64_t>(v->Truthy() ? 0 : 1));
      }
      if (expr.op == "-") {
        if (v->is_null()) {
          return Value::Null();
        }
        if (v->is_int()) {
          return Value(-v->AsInt());
        }
        return Value(-v->AsReal());
      }
      return InvalidArgument("unknown unary operator " + expr.op);
    }
    case ExprKind::kBinary: {
      if (expr.op == "AND" || expr.op == "OR") {
        auto l = EvalInternal(*expr.args[0], scopes, group);
        if (!l.ok()) {
          return l;
        }
        bool lt = l->Truthy();
        if (expr.op == "AND" && !lt && !l->is_null()) {
          return Value(static_cast<int64_t>(0));
        }
        if (expr.op == "OR" && lt) {
          return Value(static_cast<int64_t>(1));
        }
        auto r = EvalInternal(*expr.args[1], scopes, group);
        if (!r.ok()) {
          return r;
        }
        bool rt = r->Truthy();
        if (expr.op == "AND") {
          return Value(static_cast<int64_t>(lt && rt ? 1 : 0));
        }
        return Value(static_cast<int64_t>(lt || rt ? 1 : 0));
      }
      if (expr.op == "BETWEEN") {
        auto v = EvalInternal(*expr.args[0], scopes, group);
        auto lo = EvalInternal(*expr.args[1], scopes, group);
        auto hi = EvalInternal(*expr.args[2], scopes, group);
        if (!v.ok()) {
          return v;
        }
        if (!lo.ok()) {
          return lo;
        }
        if (!hi.ok()) {
          return hi;
        }
        Value ge = CompareOp(">=", *v, *lo);
        Value le = CompareOp("<=", *v, *hi);
        bool in = ge.Truthy() && le.Truthy();
        if (expr.negated) {
          in = !in;
        }
        return Value(static_cast<int64_t>(in ? 1 : 0));
      }
      auto l = EvalInternal(*expr.args[0], scopes, group);
      if (!l.ok()) {
        return l;
      }
      auto r = EvalInternal(*expr.args[1], scopes, group);
      if (!r.ok()) {
        return r;
      }
      if (expr.op == "LIKE") {
        if (l->is_null() || r->is_null()) {
          return Value::Null();
        }
        bool m = LikeMatch(l->AsText(), r->AsText());
        if (expr.negated) {
          m = !m;
        }
        return Value(static_cast<int64_t>(m ? 1 : 0));
      }
      if (expr.op == "=" || expr.op == "!=" || expr.op == "<" || expr.op == "<=" ||
          expr.op == ">" || expr.op == ">=") {
        return CompareOp(expr.op, *l, *r);
      }
      return Arith(expr.op, *l, *r);
    }
    case ExprKind::kFunction:
      return EvalFunction(expr, scopes, group);
    case ExprKind::kSubquery: {
      if (auto asof = TryAsOfLookup(*expr.subquery, scopes)) {
        return std::move(*asof);
      }
      QueryResult scratch;
      auto sub = RunSubquery(*expr.subquery, scopes, &scratch);
      if (!sub.ok()) {
        return sub.status();
      }
      if ((*sub)->rows.empty() || (*sub)->columns.empty()) {
        return Value::Null();
      }
      return (*sub)->rows[0][0];
    }
    case ExprKind::kExists: {
      QueryResult scratch;
      auto sub = RunSubquery(*expr.subquery, scopes, &scratch);
      if (!sub.ok()) {
        return sub.status();
      }
      bool exists = !(*sub)->rows.empty();
      if (expr.negated) {
        exists = !exists;
      }
      return Value(static_cast<int64_t>(exists ? 1 : 0));
    }
    case ExprKind::kInList: {
      auto needle = EvalInternal(*expr.args[0], scopes, group);
      if (!needle.ok()) {
        return needle;
      }
      if (needle->is_null()) {
        return Value::Null();
      }
      bool found = false;
      if (expr.subquery != nullptr) {
        QueryResult scratch;
        auto sub = RunSubquery(*expr.subquery, scopes, &scratch);
        if (!sub.ok()) {
          return sub.status();
        }
        for (const Row& row : (*sub)->rows) {
          if (!row.empty() && !row[0].is_null() && Value::Compare(row[0], *needle) == 0) {
            found = true;
            break;
          }
        }
      } else {
        for (size_t i = 1; i < expr.args.size(); ++i) {
          auto v = EvalInternal(*expr.args[i], scopes, group);
          if (!v.ok()) {
            return v;
          }
          if (!v->is_null() && Value::Compare(*v, *needle) == 0) {
            found = true;
            break;
          }
        }
      }
      if (expr.negated) {
        found = !found;
      }
      return Value(static_cast<int64_t>(found ? 1 : 0));
    }
    case ExprKind::kIsNull: {
      auto v = EvalInternal(*expr.args[0], scopes, group);
      if (!v.ok()) {
        return v;
      }
      bool is_null = v->is_null();
      if (expr.negated) {
        is_null = !is_null;
      }
      return Value(static_cast<int64_t>(is_null ? 1 : 0));
    }
  }
  return Internal("unhandled expression kind");
}

Result<Value> Executor::Eval(const Expr& expr, const std::vector<RowScope>& scopes) {
  return EvalInternal(expr, scopes, nullptr);
}

Result<Relation> Executor::MaterialiseSource(const TableRef& ref,
                                             const std::vector<RowScope>& outer,
                                             const TimeBound* bound) {
  Relation rel;
  std::string alias = ref.alias;
  if (ref.subquery != nullptr) {
    auto sub = ExecuteSelect(*ref.subquery, outer);
    if (!sub.ok()) {
      return sub.status();
    }
    rel.columns = sub->columns;
    rel.SetOwnedRows(std::move(sub->rows));
    rel.aliases.assign(rel.columns.size(), alias);
    return rel;
  }
  // Named table or view.
  auto table_it = db_.tables_.find(ref.table_name);
  if (table_it != db_.tables_.end()) {
    const Database::TableData& t = table_it->second;
    rel.columns = t.columns;
    if (snap_ != nullptr) {
      // Snapshot scan: read only the pinned prefix; never touch the live
      // time index (mutated concurrently by appenders). When the pinned
      // rows are time-sorted we binary-search the view directly, matching
      // the index path's narrowing; bounds are advisory, so falling back
      // to a full view scan is always safe and result-identical.
      auto snap_it = snap_->tables.find(ref.table_name);
      RowStore::View view;
      int time_col = -1;
      bool time_sorted = false;
      if (snap_it != snap_->tables.end()) {
        view = snap_it->second.view;
        time_col = snap_it->second.time_col;
        time_sorted = snap_it->second.time_sorted;
      }
      size_t lo_idx = 0;
      size_t hi_idx = view.size();
      if (bound != nullptr && bound->constrained() && time_sorted &&
          db_.tuning_.use_time_index) {
        SEAL_OBS_COUNTER("seadb_index_range_scans_total").Increment();
        bool empty_range = false;
        int64_t lo = std::numeric_limits<int64_t>::min();
        if (bound->lo.has_value()) {
          if (bound->lo_strict && *bound->lo == std::numeric_limits<int64_t>::max()) {
            empty_range = true;
          } else {
            lo = bound->lo_strict ? *bound->lo + 1 : *bound->lo;
          }
        }
        int64_t hi = std::numeric_limits<int64_t>::max();
        if (bound->hi.has_value()) {
          if (bound->hi_strict && *bound->hi == std::numeric_limits<int64_t>::min()) {
            empty_range = true;
          } else {
            hi = bound->hi_strict ? *bound->hi - 1 : *bound->hi;
          }
        }
        if (empty_range || lo > hi) {
          lo_idx = hi_idx = 0;
        } else {
          const auto time_at = [&](size_t i) {
            return view[i][static_cast<size_t>(time_col)].AsInt();
          };
          // First row with time >= lo.
          size_t a = 0, b = view.size();
          while (a < b) {
            size_t mid = a + (b - a) / 2;
            if (time_at(mid) < lo) {
              a = mid + 1;
            } else {
              b = mid;
            }
          }
          lo_idx = a;
          // First row with time > hi.
          b = view.size();
          while (a < b) {
            size_t mid = a + (b - a) / 2;
            if (time_at(mid) <= hi) {
              a = mid + 1;
            } else {
              b = mid;
            }
          }
          hi_idx = a;
        }
      } else if (bound == nullptr || !bound->constrained()) {
        SEAL_OBS_COUNTER("seadb_full_scans_total{reason=\"unbounded\"}").Increment();
      } else if (!db_.tuning_.use_time_index) {
        SEAL_OBS_COUNTER("seadb_full_scans_total{reason=\"tuning_off\"}").Increment();
      } else {
        SEAL_OBS_COUNTER("seadb_full_scans_total{reason=\"index_invalid\"}").Increment();
      }
      rel.SetRows(RowsRef(std::move(view), lo_idx, hi_idx));
      if (alias.empty()) {
        alias = ref.table_name;
      }
      rel.aliases.assign(rel.columns.size(), alias);
      return rel;
    }
    if (bound != nullptr && bound->constrained() && t.index_valid &&
        db_.tuning_.use_time_index) {
      SEAL_OBS_COUNTER("seadb_index_range_scans_total").Increment();
      // Index range scan: binary-search the admitted key range, then emit
      // the qualifying rows in their original row order so downstream
      // results stay identical to a full scan + filter.
      bool empty_range = false;
      int64_t lo = std::numeric_limits<int64_t>::min();
      if (bound->lo.has_value()) {
        if (bound->lo_strict && *bound->lo == std::numeric_limits<int64_t>::max()) {
          empty_range = true;
        } else {
          lo = bound->lo_strict ? *bound->lo + 1 : *bound->lo;
        }
      }
      int64_t hi = std::numeric_limits<int64_t>::max();
      if (bound->hi.has_value()) {
        if (bound->hi_strict && *bound->hi == std::numeric_limits<int64_t>::min()) {
          empty_range = true;
        } else {
          hi = bound->hi_strict ? *bound->hi - 1 : *bound->hi;
        }
      }
      std::vector<Row> rows;
      if (!empty_range && lo <= hi) {
        auto begin = std::lower_bound(t.time_index.begin(), t.time_index.end(),
                                      std::make_pair(lo, size_t{0}));
        auto end = std::upper_bound(
            begin, t.time_index.end(),
            std::make_pair(hi, std::numeric_limits<size_t>::max()));
        std::vector<size_t> picked;
        picked.reserve(static_cast<size_t>(end - begin));
        for (auto it = begin; it != end; ++it) {
          picked.push_back(it->second);
        }
        std::sort(picked.begin(), picked.end());
        rows.reserve(picked.size());
        for (size_t idx : picked) {
          rows.push_back(t.rows[idx]);
        }
      }
      rel.SetOwnedRows(std::move(rows));
    } else {
      // Full table scan; record why the index could not narrow it.
      if (bound == nullptr || !bound->constrained()) {
        SEAL_OBS_COUNTER("seadb_full_scans_total{reason=\"unbounded\"}").Increment();
      } else if (!db_.tuning_.use_time_index) {
        SEAL_OBS_COUNTER("seadb_full_scans_total{reason=\"tuning_off\"}").Increment();
      } else {
        SEAL_OBS_COUNTER("seadb_full_scans_total{reason=\"index_invalid\"}").Increment();
      }
      rel.SetRows(RowsRef(t.rows.Snapshot()));
    }
    if (alias.empty()) {
      alias = ref.table_name;
    }
    rel.aliases.assign(rel.columns.size(), alias);
    return rel;
  }
  auto view_it = db_.views_.find(ref.table_name);
  if (view_it != db_.views_.end()) {
    auto sub = ExecuteSelect(*view_it->second.select, {}, bound);
    if (!sub.ok()) {
      return sub.status();
    }
    rel.columns = sub->columns;
    rel.SetOwnedRows(std::move(sub->rows));
    if (alias.empty()) {
      alias = ref.table_name;
    }
    rel.aliases.assign(rel.columns.size(), alias);
    return rel;
  }
  return NotFound("no such table or view: " + ref.table_name);
}

TimeBound Executor::ExtractWhereBound(const SelectStmt& stmt,
                                      const std::vector<RowScope>& outer) {
  TimeBound bound;
  if (!db_.tuning_.use_time_index || stmt.where == nullptr || !stmt.from.has_value() ||
      stmt.from->table_name.empty()) {
    return bound;
  }
  auto base_cols = db_.CatalogColumns(stmt.from->table_name);
  if (!base_cols.has_value()) {
    return bound;
  }
  bool base_has_time = false;
  for (const std::string& c : *base_cols) {
    if (NameEq(c, "time")) {
      base_has_time = true;
      break;
    }
  }
  if (!base_has_time) {
    return bound;
  }
  const std::string base_alias =
      stmt.from->alias.empty() ? stmt.from->table_name : stmt.from->alias;
  std::vector<std::string> local_aliases;
  local_aliases.push_back(base_alias);
  for (const JoinClause& join : stmt.joins) {
    local_aliases.push_back(join.table.alias.empty() ? join.table.table_name
                                                     : join.table.alias);
  }
  // The bounded column: the base's `time`. A bare name is only accepted in a
  // join-free statement, where first-match resolution cannot pick another
  // source's column.
  auto is_base_time = [&](const Expr& e) {
    if (e.kind != ExprKind::kColumn || !NameEq(e.name, "time")) {
      return false;
    }
    if (e.table.empty()) {
      return stmt.joins.empty();
    }
    return NameEq(e.table, base_alias);
  };
  auto eval_int = [&](const Expr& e) -> std::optional<int64_t> {
    if (!OuterOnlyExpr(e, local_aliases)) {
      return std::nullopt;
    }
    auto v = Eval(e, outer);
    if (!v.ok() || !v->is_int()) {
      return std::nullopt;
    }
    return v->AsInt();
  };

  std::vector<const Expr*> conjuncts;
  SplitAnd(stmt.where.get(), &conjuncts);
  for (const Expr* c : conjuncts) {
    if (c->kind != ExprKind::kBinary) {
      continue;
    }
    if (c->op == "BETWEEN" && !c->negated && is_base_time(*c->args[0])) {
      if (auto lo = eval_int(*c->args[1])) {
        bound.TightenLo(*lo, false);
      }
      if (auto hi = eval_int(*c->args[2])) {
        bound.TightenHi(*hi, false);
      }
      continue;
    }
    if (c->op != "=" && c->op != "<" && c->op != "<=" && c->op != ">" && c->op != ">=") {
      continue;
    }
    std::string op = c->op;
    const Expr* rhs = nullptr;
    if (is_base_time(*c->args[0])) {
      rhs = c->args[1].get();
    } else if (is_base_time(*c->args[1])) {
      rhs = c->args[0].get();
      // v OP time  ==  time OP' v with the inequality mirrored.
      if (op == "<") {
        op = ">";
      } else if (op == "<=") {
        op = ">=";
      } else if (op == ">") {
        op = "<";
      } else if (op == ">=") {
        op = "<=";
      }
    } else {
      continue;
    }
    auto v = eval_int(*rhs);
    if (!v.has_value()) {
      continue;
    }
    if (op == "=") {
      bound.TightenLo(*v, false);
      bound.TightenHi(*v, false);
    } else if (op == ">") {
      bound.TightenLo(*v, true);
    } else if (op == ">=") {
      bound.TightenLo(*v, false);
    } else if (op == "<") {
      bound.TightenHi(*v, true);
    } else {
      bound.TightenHi(*v, false);
    }
  }
  return bound;
}

std::optional<Result<QueryResult>> Executor::TryIndexedFastPath(
    const SelectStmt& stmt, const std::vector<RowScope>& outer) {
  if (!db_.tuning_.use_time_index) {
    return std::nullopt;
  }
  if (!stmt.from.has_value() || stmt.from->table_name.empty() || !stmt.joins.empty() ||
      !stmt.group_by.empty() || stmt.having != nullptr || stmt.distinct) {
    return std::nullopt;
  }
  auto table_it = db_.tables_.find(stmt.from->table_name);
  if (table_it == db_.tables_.end()) {
    return std::nullopt;
  }
  const Database::TableData& t = table_it->second;
  // A snapshot execution must not touch the live time index (appenders
  // mutate it concurrently) — but a time-sorted pinned view IS an index:
  // positions are in nondecreasing time order with ties in row order,
  // exactly the walk order the live index provides. Without that ordering
  // (or without the live index) fall back to the general path.
  RowStore::View snap_view;
  const bool from_snapshot = snap_ != nullptr;
  if (from_snapshot) {
    auto snap_it = snap_->tables.find(stmt.from->table_name);
    if (snap_it == snap_->tables.end() || !snap_it->second.time_sorted ||
        snap_it->second.time_col != t.time_col) {
      return std::nullopt;
    }
    snap_view = snap_it->second.view;
  } else if (!t.index_valid) {
    return std::nullopt;
  }
  const std::string alias =
      stmt.from->alias.empty() ? stmt.from->table_name : stmt.from->alias;
  const std::string& time_name = t.columns[static_cast<size_t>(t.time_col)];
  // The indexed column is the first one named `time`, so a bare reference
  // resolves to it under LookupColumn's first-match rule.
  auto is_time_col = [&](const Expr& e) {
    return e.kind == ExprKind::kColumn && NameEq(e.name, time_name) &&
           (e.table.empty() || NameEq(e.table, alias));
  };

  bool max_mode = false;
  if (stmt.order_by.empty() && stmt.limit == nullptr && stmt.offset == nullptr &&
      stmt.items.size() == 1 && !stmt.items[0].star) {
    const Expr& e = *stmt.items[0].expr;
    max_mode = e.kind == ExprKind::kFunction && e.name == "MAX" && !e.star &&
               !e.distinct && e.args.size() == 1 && is_time_col(*e.args[0]);
  }
  int64_t limit = 0;
  int64_t offset = 0;
  if (!max_mode) {
    // ORDER BY time DESC LIMIT k with a literal limit and no aggregation.
    if (stmt.order_by.size() != 1 || !stmt.order_by[0].desc ||
        !is_time_col(*stmt.order_by[0].expr) || stmt.limit == nullptr ||
        stmt.limit->kind != ExprKind::kLiteral || !stmt.limit->literal.is_int()) {
      return std::nullopt;
    }
    limit = stmt.limit->literal.AsInt();
    if (limit < 0) {
      return std::nullopt;  // negative literal means "no limit": no early exit
    }
    if (stmt.offset != nullptr) {
      if (stmt.offset->kind != ExprKind::kLiteral || !stmt.offset->literal.is_int()) {
        return std::nullopt;
      }
      offset = std::max<int64_t>(0, stmt.offset->literal.AsInt());
    }
    for (const SelectItem& item : stmt.items) {
      if (item.star) {
        continue;
      }
      if (ContainsAggregate(*item.expr)) {
        return std::nullopt;
      }
    }
    if (OrderKeyRedirected(stmt, *stmt.order_by[0].expr)) {
      return std::nullopt;
    }
  }

  Relation rel;
  rel.columns = t.columns;
  rel.SetRows(from_snapshot ? RowsRef(snap_view) : RowsRef(t.rows.Snapshot()));
  rel.aliases.assign(rel.columns.size(), alias);
  const auto& idx = t.time_index;
  const size_t time_col = static_cast<size_t>(t.time_col);
  const size_t idx_size = from_snapshot ? snap_view.size() : idx.size();
  auto key_at = [&](size_t j) -> int64_t {
    return from_snapshot ? snap_view[j][time_col].AsInt() : idx[j].first;
  };
  auto row_at = [&](size_t j) -> const Row& {
    return from_snapshot ? snap_view[j] : t.rows[idx[j].second];
  };

  if (max_mode) {
    QueryResult result;
    const SelectItem& item = stmt.items[0];
    result.columns.push_back(!item.alias.empty() ? item.alias : ExprToString(*item.expr));
    // Walk keys descending; the first row passing WHERE carries the maximum.
    Value best;
    std::vector<RowScope> scopes = outer;
    scopes.push_back(RowScope{&rel, nullptr});
    size_t group_end = idx_size;
    bool done = false;
    while (group_end > 0 && !done) {
      size_t group_begin = group_end;
      while (group_begin > 0 && key_at(group_begin - 1) == key_at(group_end - 1)) {
        --group_begin;
      }
      for (size_t j = group_begin; j < group_end && !done; ++j) {
        const Row& row = row_at(j);
        if (stmt.where != nullptr) {
          scopes.back().row = &row;
          auto cond = Eval(*stmt.where, scopes);
          if (!cond.ok()) {
            return std::optional<Result<QueryResult>>(cond.status());
          }
          if (!cond->Truthy()) {
            continue;
          }
        }
        best = row[time_col];
        done = true;
      }
      group_end = group_begin;
    }
    result.rows.push_back(Row{std::move(best)});
    SEAL_OBS_COUNTER("seadb_fastpath_hits_total{kind=\"max_time\"}").Increment();
    return result;
  }

  // Top-k: project rows in descending time order (ties in row order, exactly
  // as the general path's stable sort leaves them), stopping at the limit.
  QueryResult result;
  std::vector<const Expr*> item_exprs;
  std::vector<size_t> star_columns;
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      for (size_t i = 0; i < rel.columns.size(); ++i) {
        if (!item.star_table.empty() && !NameEq(rel.aliases[i], item.star_table)) {
          continue;
        }
        result.columns.push_back(rel.columns[i]);
        item_exprs.push_back(nullptr);
        star_columns.push_back(i);
      }
    } else {
      if (!item.alias.empty()) {
        result.columns.push_back(item.alias);
      } else if (item.expr->kind == ExprKind::kColumn) {
        result.columns.push_back(item.expr->name);
      } else {
        result.columns.push_back(ExprToString(*item.expr));
      }
      item_exprs.push_back(item.expr.get());
      star_columns.push_back(0);  // unused
    }
  }
  int64_t to_skip = offset;
  std::vector<RowScope> scopes = outer;
  scopes.push_back(RowScope{&rel, nullptr});
  size_t group_end = idx_size;
  bool done = limit == 0;
  while (group_end > 0 && !done) {
    size_t group_begin = group_end;
    while (group_begin > 0 && key_at(group_begin - 1) == key_at(group_end - 1)) {
      --group_begin;
    }
    for (size_t j = group_begin; j < group_end && !done; ++j) {
      const Row& row = row_at(j);
      scopes.back().row = &row;
      if (stmt.where != nullptr) {
        auto cond = Eval(*stmt.where, scopes);
        if (!cond.ok()) {
          return std::optional<Result<QueryResult>>(cond.status());
        }
        if (!cond->Truthy()) {
          continue;
        }
      }
      if (to_skip > 0) {
        --to_skip;
        continue;
      }
      Row out;
      for (size_t i = 0; i < item_exprs.size(); ++i) {
        if (item_exprs[i] == nullptr) {
          out.push_back(row[star_columns[i]]);
          continue;
        }
        auto v = EvalInternal(*item_exprs[i], scopes, nullptr);
        if (!v.ok()) {
          return std::optional<Result<QueryResult>>(v.status());
        }
        out.push_back(std::move(*v));
      }
      result.rows.push_back(std::move(out));
      if (static_cast<int64_t>(result.rows.size()) >= limit) {
        done = true;
      }
    }
    group_end = group_begin;
  }
  SEAL_OBS_COUNTER("seadb_fastpath_hits_total{kind=\"order_by_time_limit\"}").Increment();
  return result;
}

Result<QueryResult> Executor::ExecuteSelect(const SelectStmt& stmt,
                                            const std::vector<RowScope>& outer,
                                            const TimeBound* bound) {
  if (bound == nullptr) {
    if (auto fast = TryIndexedFastPath(stmt, outer)) {
      return std::move(*fast);
    }
  }

  // 1. FROM: materialise and join.
  Relation rel;
  TimeBound scan_bound;
  if (stmt.from.has_value()) {
    scan_bound = ExtractWhereBound(stmt, outer);
    if (bound != nullptr && bound->constrained() && db_.tuning_.use_time_index &&
        stmt.limit == nullptr && stmt.offset == nullptr &&
        !stmt.from->table_name.empty()) {
      // This statement is a view body whose output `time` column the caller
      // constrains. The bound may be folded into the base scan only when the
      // output `time` is the base's own `time` column verbatim, and — if the
      // statement aggregates — that column is part of the group key (so
      // dropping a base row can only remove whole groups the caller
      // provably discards).
      const std::string base_alias =
          stmt.from->alias.empty() ? stmt.from->table_name : stmt.from->alias;
      auto base_cols = db_.CatalogColumns(stmt.from->table_name);
      bool base_has_time = false;
      if (base_cols.has_value()) {
        for (const std::string& c : *base_cols) {
          if (NameEq(c, "time")) {
            base_has_time = true;
            break;
          }
        }
      }
      const Expr* time_item = nullptr;
      for (const SelectItem& item : stmt.items) {
        if (item.star || item.expr == nullptr) {
          continue;
        }
        std::string out_name =
            !item.alias.empty()
                ? item.alias
                : (item.expr->kind == ExprKind::kColumn ? item.expr->name
                                                        : ExprToString(*item.expr));
        if (NameEq(out_name, "time")) {
          time_item = item.expr.get();
          break;
        }
      }
      bool ok_shape = base_has_time && time_item != nullptr &&
                      time_item->kind == ExprKind::kColumn &&
                      NameEq(time_item->name, "time") &&
                      (time_item->table.empty() || NameEq(time_item->table, base_alias));
      if (ok_shape) {
        bool has_aggregates = false;
        for (const SelectItem& item : stmt.items) {
          if (item.expr != nullptr && ContainsAggregate(*item.expr)) {
            has_aggregates = true;
          }
        }
        if (stmt.having != nullptr && ContainsAggregate(*stmt.having)) {
          has_aggregates = true;
        }
        if (has_aggregates || !stmt.group_by.empty()) {
          bool in_key = false;
          for (const ExprPtr& g : stmt.group_by) {
            if (g->kind == ExprKind::kColumn && NameEq(g->name, time_item->name) &&
                NameEq(g->table, time_item->table)) {
              in_key = true;
              break;
            }
          }
          ok_shape = in_key;
        }
      }
      if (ok_shape) {
        if (bound->lo.has_value()) {
          scan_bound.TightenLo(*bound->lo, bound->lo_strict);
        }
        if (bound->hi.has_value()) {
          scan_bound.TightenHi(*bound->hi, bound->hi_strict);
        }
      }
    }
    auto base = MaterialiseSource(*stmt.from, outer,
                                  scan_bound.constrained() ? &scan_bound : nullptr);
    if (!base.ok()) {
      return base.status();
    }
    rel = std::move(*base);
    for (const JoinClause& join : stmt.joins) {
      // A bound on the base `time` transfers to a NATURAL-joined side that
      // shares a `time` column: its rows only pair with equal base times,
      // which the consumer provably discards outside the bound.
      const TimeBound* right_bound = nullptr;
      if (scan_bound.constrained() && join.kind == JoinClause::Kind::kNatural &&
          !join.table.table_name.empty()) {
        auto rcols = db_.CatalogColumns(join.table.table_name);
        bool right_has_time = false;
        if (rcols.has_value()) {
          for (const std::string& c : *rcols) {
            if (NameEq(c, "time")) {
              right_has_time = true;
              break;
            }
          }
        }
        bool left_has_time = false;
        for (const std::string& c : rel.columns) {
          if (NameEq(c, "time")) {
            left_has_time = true;
            break;
          }
        }
        if (right_has_time && left_has_time) {
          right_bound = &scan_bound;
        }
      }
      auto right = MaterialiseSource(join.table, outer, right_bound);
      if (!right.ok()) {
        return right.status();
      }
      Relation combined;
      combined.aliases = rel.aliases;
      combined.columns = rel.columns;
      std::vector<Row> combined_rows;

      const size_t left_width = rel.columns.size();
      std::vector<std::pair<size_t, size_t>> natural_pairs;  // (left idx, right idx)
      std::vector<bool> right_kept(right->columns.size(), true);
      if (join.kind == JoinClause::Kind::kNatural) {
        for (size_t rc = 0; rc < right->columns.size(); ++rc) {
          for (size_t lc = 0; lc < rel.columns.size(); ++lc) {
            if (NameEq(rel.columns[lc], right->columns[rc])) {
              natural_pairs.emplace_back(lc, rc);
              right_kept[rc] = false;
              break;
            }
          }
        }
      }
      std::vector<size_t> kept_to_right;  // combined idx - left_width -> right idx
      for (size_t rc = 0; rc < right->columns.size(); ++rc) {
        if (right_kept[rc]) {
          kept_to_right.push_back(rc);
          combined.aliases.push_back(right->aliases[rc]);
          combined.columns.push_back(right->columns[rc]);
        }
      }

      // Decompose the join predicate into hashable equi-key column pairs
      // plus residual conjuncts (evaluated per candidate pair, in order).
      std::vector<std::pair<size_t, size_t>> key_pairs = natural_pairs;
      std::vector<const Expr*> residuals;
      bool hash_ok = db_.tuning_.use_hash_join &&
                     (join.kind == JoinClause::Kind::kInner ||
                      join.kind == JoinClause::Kind::kNatural ||
                      join.kind == JoinClause::Kind::kLeft);
      if (hash_ok && join.on != nullptr) {
        auto resolve = [&](const Expr& e) -> int {
          // Mirrors LookupColumn's first-match rule over the combined scope.
          if (e.kind != ExprKind::kColumn) {
            return -1;
          }
          for (size_t i = 0; i < combined.columns.size(); ++i) {
            if (!NameEq(combined.columns[i], e.name)) {
              continue;
            }
            if (!e.table.empty() && !NameEq(combined.aliases[i], e.table)) {
              continue;
            }
            return static_cast<int>(i);
          }
          return -1;
        };
        std::vector<const Expr*> conjuncts;
        SplitAnd(join.on.get(), &conjuncts);
        for (const Expr* c : conjuncts) {
          bool is_key = false;
          if (c->kind == ExprKind::kBinary && c->op == "=") {
            int a = resolve(*c->args[0]);
            int b = resolve(*c->args[1]);
            if (a >= 0 && b >= 0) {
              bool a_left = static_cast<size_t>(a) < left_width;
              bool b_left = static_cast<size_t>(b) < left_width;
              if (a_left != b_left) {
                size_t lc = static_cast<size_t>(a_left ? a : b);
                size_t rc =
                    kept_to_right[static_cast<size_t>(a_left ? b : a) - left_width];
                key_pairs.emplace_back(lc, rc);
                is_key = true;
              }
            }
          }
          if (!is_key) {
            residuals.push_back(c);
          }
        }
      }

      if (hash_ok && !key_pairs.empty() &&
          JoinKeysHashable(rel.Rows(), right->Rows(), key_pairs)) {
        SEAL_OBS_COUNTER("seadb_joins_total{algo=\"hash\"}").Increment();
        // Hash join. Buckets keep right-row insertion order, so the emitted
        // pairs match the nested-loop order exactly; NULL keys never match
        // (SQL equality), so rows carrying one are simply left out.
        std::unordered_map<std::string, std::vector<size_t>> buckets;
        buckets.reserve(right->Rows().size());
        for (size_t r = 0; r < right->Rows().size(); ++r) {
          const Row& rrow = right->Rows()[r];
          std::string key;
          bool null_key = false;
          for (const auto& [lc, rc] : key_pairs) {
            (void)lc;
            if (rrow[rc].is_null()) {
              null_key = true;
              break;
            }
            AppendJoinKey(rrow[rc], &key);
          }
          if (!null_key) {
            buckets[key].push_back(r);
          }
        }
        static const std::vector<size_t> kNoMatches;
        std::vector<RowScope> scopes = outer;
        scopes.push_back(RowScope{&combined, nullptr});
        for (const Row& lrow : rel.Rows()) {
          bool matched = false;
          std::string key;
          bool null_key = false;
          for (const auto& [lc, rc] : key_pairs) {
            (void)rc;
            if (lrow[lc].is_null()) {
              null_key = true;
              break;
            }
            AppendJoinKey(lrow[lc], &key);
          }
          const std::vector<size_t>* matches = &kNoMatches;
          if (!null_key) {
            auto it = buckets.find(key);
            if (it != buckets.end()) {
              matches = &it->second;
            }
          }
          for (size_t r : *matches) {
            const Row& rrow = right->Rows()[r];
            Row joined = lrow;
            for (size_t rc : kept_to_right) {
              joined.push_back(rrow[rc]);
            }
            bool keep = true;
            if (!residuals.empty()) {
              scopes.back().row = &joined;
              for (const Expr* res : residuals) {
                auto cond = Eval(*res, scopes);
                if (!cond.ok()) {
                  return cond.status();
                }
                if (!cond->Truthy()) {
                  keep = false;
                  break;
                }
              }
            }
            if (keep) {
              combined_rows.push_back(std::move(joined));
              matched = true;
            }
          }
          if (!matched && join.kind == JoinClause::Kind::kLeft) {
            Row joined = lrow;
            for (size_t i = 0; i < kept_to_right.size(); ++i) {
              joined.push_back(Value::Null());
            }
            combined_rows.push_back(std::move(joined));
          }
        }
      } else {
        SEAL_OBS_COUNTER("seadb_joins_total{algo=\"nested_loop\"}").Increment();
        std::vector<RowScope> scopes = outer;
        scopes.push_back(RowScope{&combined, nullptr});
        for (const Row& lrow : rel.Rows()) {
          bool matched = false;
          for (const Row& rrow : right->Rows()) {
            bool keep = true;
            if (join.kind == JoinClause::Kind::kNatural) {
              for (const auto& [lc, rc] : natural_pairs) {
                if (lrow[lc].is_null() || rrow[rc].is_null() ||
                    Value::Compare(lrow[lc], rrow[rc]) != 0) {
                  keep = false;
                  break;
                }
              }
            }
            Row joined = lrow;
            for (size_t rc = 0; rc < rrow.size(); ++rc) {
              if (right_kept[rc]) {
                joined.push_back(rrow[rc]);
              }
            }
            if (keep && join.on != nullptr) {
              // Evaluate ON against a temporary combined relation scope.
              scopes.back().row = &joined;
              auto cond = Eval(*join.on, scopes);
              if (!cond.ok()) {
                return cond.status();
              }
              keep = cond->Truthy();
            }
            if (keep) {
              combined_rows.push_back(std::move(joined));
              matched = true;
            }
          }
          if (!matched && join.kind == JoinClause::Kind::kLeft) {
            Row joined = lrow;
            size_t kept = 0;
            for (bool k : right_kept) {
              if (k) {
                ++kept;
              }
            }
            for (size_t i = 0; i < kept; ++i) {
              joined.push_back(Value::Null());
            }
            combined_rows.push_back(std::move(joined));
          }
        }
      }
      combined.SetOwnedRows(std::move(combined_rows));
      rel = std::move(combined);
    }
  } else {
    rel.SetOwnedRows(std::vector<Row>{Row{}});  // SELECT without FROM: one empty row
  }

  // 2. WHERE.
  if (stmt.where != nullptr) {
    std::vector<Row> kept;
    std::vector<RowScope> scopes = outer;
    scopes.push_back(RowScope{&rel, nullptr});
    for (const Row& row : rel.Rows()) {
      scopes.back().row = &row;
      auto cond = Eval(*stmt.where, scopes);
      if (!cond.ok()) {
        return cond.status();
      }
      if (cond->Truthy()) {
        kept.push_back(row);
      }
    }
    rel.SetOwnedRows(std::move(kept));
  }

  // 3. Determine grouping.
  bool has_aggregates = false;
  for (const SelectItem& item : stmt.items) {
    if (item.expr != nullptr && ContainsAggregate(*item.expr)) {
      has_aggregates = true;
    }
  }
  if (stmt.having != nullptr && ContainsAggregate(*stmt.having)) {
    has_aggregates = true;
  }
  const bool grouped = has_aggregates || !stmt.group_by.empty();

  // 4. Build output column names.
  QueryResult result;
  std::vector<const Expr*> item_exprs;  // null for star expansions
  std::vector<size_t> star_columns;     // relation indices for stars
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      for (size_t i = 0; i < rel.columns.size(); ++i) {
        if (!item.star_table.empty() && !NameEq(rel.aliases[i], item.star_table)) {
          continue;
        }
        result.columns.push_back(rel.columns[i]);
        item_exprs.push_back(nullptr);
        star_columns.push_back(i);
      }
    } else {
      if (!item.alias.empty()) {
        result.columns.push_back(item.alias);
      } else if (item.expr->kind == ExprKind::kColumn) {
        result.columns.push_back(item.expr->name);
      } else {
        result.columns.push_back(ExprToString(*item.expr));
      }
      item_exprs.push_back(item.expr.get());
      star_columns.push_back(0);  // unused
    }
  }

  // Emit a projected row for the scope (row or group representative).
  struct OutputRow {
    Row row;
    Row order_keys;
  };
  std::vector<OutputRow> outputs;

  // One scope chain for every per-row evaluation below; each overwrites the
  // innermost slot.
  std::vector<RowScope> scopes = outer;
  scopes.push_back(RowScope{&rel, nullptr});
  auto project = [&](const Row& representative, const GroupContext* group) -> Status {
    scopes.back().row = &representative;
    OutputRow out;
    size_t star_i = 0;
    for (size_t i = 0; i < item_exprs.size(); ++i) {
      if (item_exprs[i] == nullptr) {
        out.row.push_back(representative[star_columns[i]]);
        ++star_i;
        continue;
      }
      auto v = EvalInternal(*item_exprs[i], scopes, group);
      if (!v.ok()) {
        return v.status();
      }
      out.row.push_back(std::move(*v));
    }
    for (const OrderItem& oi : stmt.order_by) {
      // ORDER BY <n> refers to the n-th output column.
      if (oi.expr->kind == ExprKind::kLiteral && oi.expr->literal.is_int()) {
        int64_t pos = oi.expr->literal.AsInt();
        if (pos >= 1 && pos <= static_cast<int64_t>(out.row.size())) {
          out.order_keys.push_back(out.row[static_cast<size_t>(pos - 1)]);
          continue;
        }
      }
      // ORDER BY <output alias>.
      bool matched_alias = false;
      if (oi.expr->kind == ExprKind::kColumn && oi.expr->table.empty()) {
        for (size_t i = 0; i < result.columns.size(); ++i) {
          if (NameEq(result.columns[i], oi.expr->name) && item_exprs[i] != nullptr &&
              !NameEq(ExprToString(*item_exprs[i]), oi.expr->name)) {
            out.order_keys.push_back(out.row[i]);
            matched_alias = true;
            break;
          }
        }
      }
      if (matched_alias) {
        continue;
      }
      auto v = EvalInternal(*oi.expr, scopes, group);
      if (!v.ok()) {
        return v.status();
      }
      out.order_keys.push_back(std::move(*v));
    }
    outputs.push_back(std::move(out));
    return Status::Ok();
  };

  if (grouped) {
    // 5a. Group rows.
    std::map<std::string, std::vector<size_t>> groups;
    std::vector<std::string> group_order;
    for (size_t r = 0; r < rel.Rows().size(); ++r) {
      std::string key;
      scopes.back().row = &rel.Rows()[r];
      for (const ExprPtr& g : stmt.group_by) {
        auto v = Eval(*g, scopes);
        if (!v.ok()) {
          return v.status();
        }
        key += v->Serialize();
        key.push_back('|');
      }
      auto [it, inserted] = groups.emplace(key, std::vector<size_t>{});
      if (inserted) {
        group_order.push_back(key);
      }
      it->second.push_back(r);
    }
    Row null_row;
    if (stmt.group_by.empty() && groups.empty()) {
      // Aggregates over an empty relation still produce one row; its bare
      // columns read NULL, as in SQLite.
      groups.emplace("", std::vector<size_t>{});
      group_order.push_back("");
      null_row.resize(rel.columns.size());
    }
    for (const std::string& key : group_order) {
      const std::vector<size_t>& indices = groups[key];
      const Row& representative = indices.empty() ? null_row : rel.Rows()[indices[0]];
      GroupContext group{&rel, &indices};
      if (stmt.having != nullptr) {
        scopes.back().row = &representative;
        auto cond = EvalInternal(*stmt.having, scopes, &group);
        if (!cond.ok()) {
          return cond.status();
        }
        if (!cond->Truthy()) {
          continue;
        }
      }
      SEAL_RETURN_IF_ERROR(project(representative, &group));
    }
  } else {
    for (const Row& row : rel.Rows()) {
      SEAL_RETURN_IF_ERROR(project(row, nullptr));
    }
  }

  // 6. DISTINCT.
  if (stmt.distinct) {
    std::set<std::string> seen;
    std::vector<OutputRow> unique;
    for (OutputRow& out : outputs) {
      std::string key = SerializeRow(out.row);
      if (seen.insert(key).second) {
        unique.push_back(std::move(out));
      }
    }
    outputs = std::move(unique);
  }

  // 7. ORDER BY.
  if (!stmt.order_by.empty()) {
    std::stable_sort(outputs.begin(), outputs.end(),
                     [&](const OutputRow& a, const OutputRow& b) {
                       for (size_t i = 0; i < stmt.order_by.size(); ++i) {
                         int c = Value::Compare(a.order_keys[i], b.order_keys[i]);
                         if (c != 0) {
                           return stmt.order_by[i].desc ? c > 0 : c < 0;
                         }
                       }
                       return false;
                     });
  }

  // 8. LIMIT / OFFSET.
  size_t offset = 0;
  size_t limit = outputs.size();
  if (stmt.offset != nullptr) {
    auto v = Eval(*stmt.offset, outer);
    if (!v.ok()) {
      return v.status();
    }
    offset = static_cast<size_t>(std::max<int64_t>(0, v->AsInt()));
  }
  if (stmt.limit != nullptr) {
    auto v = Eval(*stmt.limit, outer);
    if (!v.ok()) {
      return v.status();
    }
    int64_t l = v->AsInt();
    limit = l < 0 ? outputs.size() : static_cast<size_t>(l);
  }
  for (size_t i = offset; i < outputs.size() && result.rows.size() < limit; ++i) {
    result.rows.push_back(std::move(outputs[i].row));
  }
  return result;
}

}  // namespace seal::db
