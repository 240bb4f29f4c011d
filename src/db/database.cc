#include "src/db/database.h"

#include <algorithm>
#include <cctype>

#include "src/db/executor.h"
#include "src/db/parser.h"
#include "src/obs/obs.h"

namespace seal::db {

namespace {

// Binary serialisation helpers (length-prefixed).
void PutString(Bytes& out, const std::string& s) {
  AppendBe32(out, static_cast<uint32_t>(s.size()));
  Append(out, s);
}

bool GetString(BytesView in, size_t& off, std::string* s) {
  if (off + 4 > in.size()) {
    return false;
  }
  uint32_t n = LoadBe32(in.data() + off);
  off += 4;
  if (off + n > in.size()) {
    return false;
  }
  s->assign(reinterpret_cast<const char*>(in.data() + off), n);
  off += n;
  return true;
}

void PutValue(Bytes& out, const Value& v) {
  if (v.is_null()) {
    out.push_back(0);
  } else if (v.is_int()) {
    out.push_back(1);
    AppendBe64(out, static_cast<uint64_t>(v.AsInt()));
  } else if (v.is_real()) {
    out.push_back(2);
    double d = v.AsReal();
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    AppendBe64(out, bits);
  } else {
    out.push_back(3);
    PutString(out, v.text());
  }
}

bool GetValue(BytesView in, size_t& off, Value* v) {
  if (off >= in.size()) {
    return false;
  }
  uint8_t tag = in[off++];
  switch (tag) {
    case 0:
      *v = Value::Null();
      return true;
    case 1: {
      if (off + 8 > in.size()) {
        return false;
      }
      *v = Value(static_cast<int64_t>(LoadBe64(in.data() + off)));
      off += 8;
      return true;
    }
    case 2: {
      if (off + 8 > in.size()) {
        return false;
      }
      uint64_t bits = LoadBe64(in.data() + off);
      off += 8;
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      *v = Value(d);
      return true;
    }
    case 3: {
      std::string s;
      if (!GetString(in, off, &s)) {
        return false;
      }
      *v = Value(std::move(s));
      return true;
    }
    default:
      return false;
  }
}

bool ColumnNameEq(std::string_view a, std::string_view b) {
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

}  // namespace

void Database::InitTimeIndex(TableData& table) {
  table.time_col = -1;
  for (size_t i = 0; i < table.columns.size(); ++i) {
    if (ColumnNameEq(table.columns[i], "time")) {
      table.time_col = static_cast<int>(i);
      break;
    }
  }
  table.index_valid = table.time_col >= 0;
  table.time_index.clear();
  table.rows_time_ordered = table.time_col >= 0;  // empty: trivially sorted
  table.last_row_time = 0;
}

void Database::IndexInsertedRow(TableData& table, size_t row_idx) {
  if (!table.index_valid) {
    table.rows_time_ordered = false;
    return;
  }
  const Value& v = table.rows[row_idx][static_cast<size_t>(table.time_col)];
  if (!v.is_int()) {
    // A non-integer time makes index-based comparisons unsound; drop the
    // index for this table rather than answer range queries wrongly.
    table.index_valid = false;
    table.time_index.clear();
    table.rows_time_ordered = false;
    return;
  }
  std::pair<int64_t, size_t> entry{v.AsInt(), row_idx};
  if (table.rows_time_ordered) {
    // Rows append at the end, so position order stays time order exactly
    // while every new time is >= the previous last row's.
    if (row_idx == 0 || entry.first >= table.last_row_time) {
      table.last_row_time = entry.first;
    } else {
      table.rows_time_ordered = false;
    }
  }
  if (table.time_index.empty() || table.time_index.back() <= entry) {
    table.time_index.push_back(entry);  // common case: appended in time order
  } else {
    table.time_index.insert(
        std::upper_bound(table.time_index.begin(), table.time_index.end(), entry), entry);
  }
}

void Database::RemapTimeIndexAfterDelete(TableData& table, const std::vector<bool>& doomed) {
  if (!table.index_valid || table.time_col < 0) {
    // The index may become valid again once the offending rows are gone;
    // only the full rebuild re-checks that.
    RebuildTimeIndex(table);
    return;
  }
  SEAL_OBS_COUNTER("seadb_index_incremental_remaps_total").Increment();
  // Old position -> new position after compaction (prefix sum of keeps).
  std::vector<size_t> new_pos(doomed.size());
  size_t next = 0;
  for (size_t i = 0; i < doomed.size(); ++i) {
    new_pos[i] = next;
    if (!doomed[i]) {
      ++next;
    }
  }
  // Surviving entries keep their (time, position-order) sort: the remap is
  // strictly monotone on surviving positions, so no re-sort is needed.
  std::vector<std::pair<int64_t, size_t>> remapped;
  remapped.reserve(next);
  for (const auto& [time, pos] : table.time_index) {
    if (!doomed[pos]) {
      remapped.emplace_back(time, new_pos[pos]);
    }
  }
  table.time_index = std::move(remapped);
  // Deleting rows from a time-ordered table keeps it time-ordered; only the
  // last row's time needs refreshing. A table that was NOT time-ordered may
  // coincidentally become ordered after the delete — conservatively keep
  // the flag false (it is advisory; the index above stays authoritative).
  if (table.rows_time_ordered) {
    table.last_row_time =
        table.rows.empty()
            ? 0
            : table.rows[table.rows.size() - 1][static_cast<size_t>(table.time_col)].AsInt();
  }
}

void Database::RebuildTimeIndex(TableData& table) {
  table.index_valid = table.time_col >= 0;
  table.time_index.clear();
  table.rows_time_ordered = table.time_col >= 0;
  table.last_row_time = 0;
  if (!table.index_valid) {
    return;
  }
  table.time_index.reserve(table.rows.size());
  for (size_t i = 0; i < table.rows.size(); ++i) {
    const Value& v = table.rows[i][static_cast<size_t>(table.time_col)];
    if (!v.is_int()) {
      table.index_valid = false;
      table.time_index.clear();
      table.rows_time_ordered = false;
      return;
    }
    if (table.rows_time_ordered) {
      if (i == 0 || v.AsInt() >= table.last_row_time) {
        table.last_row_time = v.AsInt();
      } else {
        table.rows_time_ordered = false;
      }
    }
    table.time_index.emplace_back(v.AsInt(), i);
  }
  std::sort(table.time_index.begin(), table.time_index.end());
}

Result<QueryResult> Database::Execute(std::string_view sql) {
  auto parsed = ParseStatement(sql);
  if (!parsed.ok()) {
    return parsed.status();
  }
  Statement& stmt = *parsed;

  if (auto* select = std::get_if<std::unique_ptr<SelectStmt>>(&stmt)) {
    Executor executor(*this);
    return executor.ExecuteSelect(**select);
  }

  if (auto* create = std::get_if<CreateTableStmt>(&stmt)) {
    if (tables_.count(create->name) > 0 || views_.count(create->name) > 0) {
      if (create->if_not_exists) {
        return QueryResult{};
      }
      return AlreadyExists("table " + create->name + " already exists");
    }
    TableData& table = tables_[create->name];
    table.columns = create->columns;
    InitTimeIndex(table);
    BumpSchemaEpoch();
    return QueryResult{};
  }

  if (auto* view = std::get_if<CreateViewStmt>(&stmt)) {
    if (tables_.count(view->name) > 0 || views_.count(view->name) > 0) {
      if (view->if_not_exists) {
        return QueryResult{};
      }
      return AlreadyExists("view " + view->name + " already exists");
    }
    views_[view->name] = ViewData{view->select, std::string(sql)};
    BumpSchemaEpoch();
    return QueryResult{};
  }

  if (auto* insert = std::get_if<InsertStmt>(&stmt)) {
    auto it = tables_.find(insert->table);
    if (it == tables_.end()) {
      return NotFound("no such table: " + insert->table);
    }
    TableData& table = it->second;
    // Resolve column positions.
    std::vector<size_t> positions;
    if (insert->columns.empty()) {
      for (size_t i = 0; i < table.columns.size(); ++i) {
        positions.push_back(i);
      }
    } else {
      for (const std::string& col : insert->columns) {
        auto cit = std::find(table.columns.begin(), table.columns.end(), col);
        if (cit == table.columns.end()) {
          return NotFound("no such column: " + col);
        }
        positions.push_back(static_cast<size_t>(cit - table.columns.begin()));
      }
    }
    Executor executor(*this);
    QueryResult result;
    for (const std::vector<ExprPtr>& exprs : insert->rows) {
      if (exprs.size() != positions.size()) {
        return InvalidArgument("value count does not match column count");
      }
      Row row(table.columns.size(), Value::Null());
      for (size_t i = 0; i < exprs.size(); ++i) {
        auto v = executor.Eval(*exprs[i], {});
        if (!v.ok()) {
          return v.status();
        }
        row[positions[i]] = std::move(*v);
      }
      table.rows.push_back(std::move(row));
      IndexInsertedRow(table, table.rows.size() - 1);
      ++result.affected;
    }
    return result;
  }

  if (auto* del = std::get_if<DeleteStmt>(&stmt)) {
    auto it = tables_.find(del->table);
    if (it == tables_.end()) {
      return NotFound("no such table: " + del->table);
    }
    TableData& table = it->second;
    QueryResult result;
    if (del->where == nullptr) {
      result.affected = table.rows.size();
      table.rows.clear();
      RebuildTimeIndex(table);
      if (result.affected > 0) {
        BumpTrimEpoch();
      }
      return result;
    }
    // Evaluate all predicates against the pre-delete snapshot so that
    // subqueries over the same table observe consistent state.
    Executor executor(*this);
    Relation rel;
    rel.columns = table.columns;
    rel.aliases.assign(rel.columns.size(), del->table);
    // All predicates are evaluated before any mutation, so the relation can
    // reference the live rows through a view.
    rel.SetRows(RowsRef(table.rows.Snapshot()));
    std::vector<bool> doomed(table.rows.size(), false);
    std::vector<RowScope> scopes = {RowScope{&rel, nullptr}};
    for (size_t i = 0; i < rel.Rows().size(); ++i) {
      scopes.back().row = &rel.Rows()[i];
      auto cond = executor.Eval(*del->where, scopes);
      if (!cond.ok()) {
        return cond.status();
      }
      doomed[i] = cond->Truthy();
    }
    std::vector<Row> kept;
    for (size_t i = 0; i < table.rows.size(); ++i) {
      if (doomed[i]) {
        ++result.affected;
      } else {
        // Copy, not move: snapshots captured earlier may still be reading
        // these rows from another thread.
        kept.push_back(table.rows[i]);
      }
    }
    if (result.affected > 0) {
      table.rows.Assign(std::move(kept));
      RemapTimeIndexAfterDelete(table, doomed);  // row positions shifted
      BumpTrimEpoch();
    }
    return result;
  }

  if (auto* update = std::get_if<UpdateStmt>(&stmt)) {
    auto it = tables_.find(update->table);
    if (it == tables_.end()) {
      return NotFound("no such table: " + update->table);
    }
    TableData& table = it->second;
    std::vector<size_t> positions;
    for (const auto& [col, expr] : update->assignments) {
      auto cit = std::find(table.columns.begin(), table.columns.end(), col);
      if (cit == table.columns.end()) {
        return NotFound("no such column: " + col);
      }
      positions.push_back(static_cast<size_t>(cit - table.columns.begin()));
    }
    Executor executor(*this);
    Relation rel;
    rel.columns = table.columns;
    rel.aliases.assign(rel.columns.size(), update->table);
    rel.SetRows(RowsRef(table.rows.Snapshot()));  // snapshot: assignments
    // to earlier rows must not change predicate evaluation for later rows.
    // Mutations build into a fresh row set (published at the end) so that
    // concurrent snapshot readers never observe a half-updated table.
    std::vector<Row> updated = table.rows.CopyRows();
    QueryResult result;
    std::vector<RowScope> scopes = {RowScope{&rel, nullptr}};
    for (size_t i = 0; i < updated.size(); ++i) {
      scopes.back().row = &rel.Rows()[i];
      if (update->where != nullptr) {
        auto cond = executor.Eval(*update->where, scopes);
        if (!cond.ok()) {
          return cond.status();
        }
        if (!cond->Truthy()) {
          continue;
        }
      }
      for (size_t a = 0; a < update->assignments.size(); ++a) {
        auto v = executor.Eval(*update->assignments[a].second, scopes);
        if (!v.ok()) {
          return v.status();
        }
        updated[i][positions[a]] = std::move(*v);
      }
      ++result.affected;
    }
    bool touched_time = false;
    for (size_t a = 0; a < positions.size(); ++a) {
      if (static_cast<int>(positions[a]) == table.time_col) {
        touched_time = true;
      }
    }
    if (result.affected > 0) {
      table.rows.Assign(std::move(updated));
      BumpTrimEpoch();
      if (touched_time) {
        RebuildTimeIndex(table);
      }
    }
    return result;
  }

  if (auto* drop = std::get_if<DropStmt>(&stmt)) {
    size_t erased = drop->is_view ? views_.erase(drop->name) : tables_.erase(drop->name);
    if (erased == 0 && !drop->if_exists) {
      return NotFound("no such " + std::string(drop->is_view ? "view" : "table") + ": " +
                      drop->name);
    }
    if (erased > 0) {
      BumpSchemaEpoch();
    }
    return QueryResult{};
  }

  return Internal("unhandled statement type");
}

Status Database::CreateTable(const std::string& name, std::vector<std::string> columns) {
  if (tables_.count(name) > 0) {
    return AlreadyExists("table " + name + " already exists");
  }
  TableData& table = tables_[name];
  table.columns = std::move(columns);
  InitTimeIndex(table);
  BumpSchemaEpoch();
  return Status::Ok();
}

Status Database::InsertRow(const std::string& name, Row row) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return NotFound("no such table: " + name);
  }
  if (row.size() != it->second.columns.size()) {
    return InvalidArgument("row arity mismatch for table " + name);
  }
  it->second.rows.push_back(std::move(row));
  IndexInsertedRow(it->second, it->second.rows.size() - 1);
  return Status::Ok();
}

size_t Database::TableSize(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? 0 : it->second.rows.size();
}

const RowStore* Database::TableRows(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second.rows;
}

const std::vector<std::string>* Database::TableColumns(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second.columns;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) {
    names.push_back(name);
  }
  return names;
}

std::optional<std::vector<std::string>> Database::CatalogColumns(const std::string& name) const {
  auto it = tables_.find(name);
  if (it != tables_.end()) {
    return it->second.columns;
  }
  auto vit = views_.find(name);
  if (vit == views_.end()) {
    return std::nullopt;
  }
  return OutputColumnNames(*vit->second.select);
}

const std::vector<std::pair<int64_t, size_t>>* Database::TimeIndexForTesting(
    const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end() || !it->second.index_valid) {
    return nullptr;
  }
  return &it->second.time_index;
}

Expr* Database::InjectTimeFloorConjunct(SelectStmt& s) const {
  if (!s.from.has_value() || s.from->table_name.empty()) {
    return nullptr;
  }
  auto columns = CatalogColumns(s.from->table_name);
  bool has_time = false;
  if (columns.has_value()) {
    for (const std::string& c : *columns) {
      if (ColumnNameEq(c, "time")) {
        has_time = true;
      }
    }
  }
  if (!has_time) {
    return nullptr;
  }
  auto col = std::make_unique<Expr>(ExprKind::kColumn);
  col->table = s.from->alias.empty() ? s.from->table_name : s.from->alias;
  col->name = "time";
  auto lit = std::make_unique<Expr>(ExprKind::kLiteral);
  lit->literal = Value(int64_t{0});
  Expr* slot = lit.get();
  auto cmp = std::make_unique<Expr>(ExprKind::kBinary);
  cmp->op = ">";
  cmp->args.push_back(std::move(col));
  cmp->args.push_back(std::move(lit));
  if (s.where == nullptr) {
    s.where = std::move(cmp);
  } else {
    auto conj = std::make_unique<Expr>(ExprKind::kBinary);
    conj->op = "AND";
    conj->args.push_back(std::move(cmp));
    conj->args.push_back(std::move(s.where));
    s.where = std::move(conj);
  }
  return slot;
}

Result<QueryResult> Database::ExecuteWithTimeFloor(std::string_view sql, int64_t floor) {
  auto parsed = ParseStatement(sql);
  if (!parsed.ok()) {
    return parsed.status();
  }
  Statement& stmt = *parsed;
  auto* select = std::get_if<std::unique_ptr<SelectStmt>>(&stmt);
  if (select == nullptr) {
    return Execute(sql);
  }
  SelectStmt& s = **select;
  Expr* slot = InjectTimeFloorConjunct(s);
  if (slot == nullptr) {
    // No narrowable base: execute the unmodified parse in full.
    Executor executor(*this);
    return executor.ExecuteSelect(s);
  }
  slot->literal = Value(floor);
  Executor executor(*this);
  return executor.ExecuteSelect(s);
}

Snapshot Database::CaptureSnapshot() const {
  Snapshot snap;
  snap.schema_epoch = schema_epoch();
  snap.trim_epoch = trim_epoch();
  for (const auto& [name, table] : tables_) {
    TableSnapshot ts;
    ts.view = table.rows.Snapshot();
    ts.time_col = table.time_col;
    ts.time_sorted = table.rows_time_ordered && table.time_col >= 0;
    snap.tables.emplace(name, std::move(ts));
  }
  return snap;
}

Result<PreparedSelect> Database::Prepare(std::string_view sql, bool with_time_floor) const {
  auto parsed = ParseStatement(sql);
  if (!parsed.ok()) {
    return parsed.status();
  }
  auto* select = std::get_if<std::unique_ptr<SelectStmt>>(&*parsed);
  if (select == nullptr) {
    return InvalidArgument("Prepare: not a SELECT statement");
  }
  PreparedSelect plan;
  plan.sql_ = std::string(sql);
  plan.stmt_ = std::shared_ptr<SelectStmt>(std::move(*select));
  if (with_time_floor) {
    plan.floor_slot_ = InjectTimeFloorConjunct(*plan.stmt_);
  }
  plan.schema_epoch_ = schema_epoch();
  return plan;
}

Result<QueryResult> Database::ExecutePrepared(const PreparedSelect& plan,
                                              std::optional<int64_t> floor,
                                              const Snapshot* snapshot) const {
  if (plan.stmt_ == nullptr) {
    return InvalidArgument("ExecutePrepared: empty plan");
  }
  if (floor.has_value() && plan.floor_slot_ != nullptr) {
    plan.floor_slot_->literal = Value(*floor);
  }
  if (snapshot != nullptr) {
    SEAL_OBS_COUNTER("db_snapshot_reads_total").Increment();
  }
  Executor executor(*this, snapshot);
  return executor.ExecuteSelect(*plan.stmt_);
}

Result<QueryResult> Database::ExecuteSnapshot(std::string_view sql,
                                              const Snapshot& snapshot) const {
  auto plan = Prepare(sql, /*with_time_floor=*/false);
  if (!plan.ok()) {
    return plan.status();
  }
  return ExecutePrepared(*plan, std::nullopt, &snapshot);
}

Result<QueryResult> PlanCache::Execute(const Database& db, const std::string& sql,
                                       std::optional<int64_t> floor,
                                       const Snapshot* snapshot) {
  const bool floored = floor.has_value();
  std::shared_ptr<PreparedSelect> plan;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = plans_.find({sql, floored});
    if (it != plans_.end() && it->second->schema_epoch_ == db.schema_epoch()) {
      plan = it->second;
      SEAL_OBS_COUNTER("db_plan_cache_hits_total").Increment();
    }
  }
  if (plan == nullptr) {
    SEAL_OBS_COUNTER("db_plan_cache_misses_total").Increment();
    auto prepared = db.Prepare(sql, /*with_time_floor=*/floored);
    if (!prepared.ok()) {
      return prepared.status();
    }
    plan = std::make_shared<PreparedSelect>(std::move(*prepared));
    std::lock_guard<std::mutex> lock(mutex_);
    plans_[{sql, floored}] = plan;
  }
  // Executed outside the cache lock. Rebinding mutates the plan's AST, but
  // a given (sql, floored) plan is only ever run by one thread at a time
  // (rounds are serialised; parallel workers hold distinct invariants).
  return db.ExecutePrepared(*plan, floor, snapshot);
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plans_.size();
}

Bytes Database::Serialize() const {
  Bytes out;
  AppendBe32(out, static_cast<uint32_t>(tables_.size()));
  for (const auto& [name, table] : tables_) {
    PutString(out, name);
    AppendBe32(out, static_cast<uint32_t>(table.columns.size()));
    for (const std::string& col : table.columns) {
      PutString(out, col);
    }
    const size_t nrows = table.rows.size();
    AppendBe32(out, static_cast<uint32_t>(nrows));
    for (size_t r = 0; r < nrows; ++r) {
      for (const Value& v : table.rows[r]) {
        PutValue(out, v);
      }
    }
  }
  AppendBe32(out, static_cast<uint32_t>(views_.size()));
  for (const auto& [name, view] : views_) {
    PutString(out, view.sql);
  }
  return out;
}

Result<Database> Database::Deserialize(BytesView in) {
  Database db;
  size_t off = 0;
  if (off + 4 > in.size()) {
    return DataLoss("truncated database image");
  }
  uint32_t ntables = LoadBe32(in.data() + off);
  off += 4;
  for (uint32_t t = 0; t < ntables; ++t) {
    std::string name;
    if (!GetString(in, off, &name)) {
      return DataLoss("truncated table name");
    }
    if (off + 4 > in.size()) {
      return DataLoss("truncated column count");
    }
    uint32_t ncols = LoadBe32(in.data() + off);
    off += 4;
    TableData table;
    for (uint32_t c = 0; c < ncols; ++c) {
      std::string col;
      if (!GetString(in, off, &col)) {
        return DataLoss("truncated column name");
      }
      table.columns.push_back(std::move(col));
    }
    if (off + 4 > in.size()) {
      return DataLoss("truncated row count");
    }
    uint32_t nrows = LoadBe32(in.data() + off);
    off += 4;
    for (uint32_t r = 0; r < nrows; ++r) {
      Row row;
      for (uint32_t c = 0; c < ncols; ++c) {
        Value v;
        if (!GetValue(in, off, &v)) {
          return DataLoss("truncated value");
        }
        row.push_back(std::move(v));
      }
      table.rows.push_back(std::move(row));
    }
    InitTimeIndex(table);
    RebuildTimeIndex(table);
    db.tables_[name] = std::move(table);
  }
  if (off + 4 > in.size()) {
    return DataLoss("truncated view count");
  }
  uint32_t nviews = LoadBe32(in.data() + off);
  off += 4;
  for (uint32_t v = 0; v < nviews; ++v) {
    std::string sql;
    if (!GetString(in, off, &sql)) {
      return DataLoss("truncated view SQL");
    }
    auto r = db.Execute(sql);
    if (!r.ok()) {
      return r.status();
    }
  }
  return db;
}

}  // namespace seal::db
