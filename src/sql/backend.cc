#include "sql/backend.h"

namespace lt {
namespace sql {

Result<std::shared_ptr<const Schema>> DbBackend::GetSchema(
    const std::string& table) {
  std::shared_ptr<Table> t = db_->GetTable(table);
  if (!t) return Status::NotFound("no such table: " + table);
  return std::shared_ptr<const Schema>(t->schema());
}

Status DbBackend::CreateTable(const std::string& table, const Schema& schema,
                              Timestamp ttl) {
  TableOptions opts = db_->options().table_defaults;
  opts.ttl = ttl;
  return db_->CreateTable(table, schema, &opts);
}

Status DbBackend::DropTable(const std::string& table) {
  return db_->DropTable(table);
}

Status DbBackend::Insert(const std::string& table,
                         const std::vector<Row>& rows) {
  std::shared_ptr<Table> t = db_->GetTable(table);
  if (!t) return Status::NotFound("no such table: " + table);
  return t->InsertBatch(rows);
}

Status DbBackend::QueryAll(const std::string& table, const QueryBounds& bounds,
                           std::vector<Row>* rows, QueryTrace* trace) {
  rows->clear();
  std::shared_ptr<Table> t = db_->GetTable(table);
  if (!t) return Status::NotFound("no such table: " + table);
  // Each continuation page accumulates into the same statement trace.
  return QueryAllPages(*t->schema(), bounds, rows,
                       [&](const QueryBounds& page, QueryResult* result) {
                         return t->Query(page, result, trace);
                       });
}

Status DbBackend::LatestRow(const std::string& table, const Key& prefix,
                            Row* row, bool* found) {
  std::shared_ptr<Table> t = db_->GetTable(table);
  if (!t) return Status::NotFound("no such table: " + table);
  return t->LatestRowForPrefix(prefix, row, found);
}

Status DbBackend::FlushThrough(const std::string& table, Timestamp ts) {
  std::shared_ptr<Table> t = db_->GetTable(table);
  if (!t) return Status::NotFound("no such table: " + table);
  return t->FlushThrough(ts);
}

}  // namespace sql
}  // namespace lt
