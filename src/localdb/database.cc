#include "localdb/database.h"

#include <stdexcept>

namespace privapprox::localdb {

Table& Database::CreateTable(const std::string& name,
                             std::vector<std::string> columns) {
  if (HasTable(name)) {
    throw std::invalid_argument("Database::CreateTable: table '" + name +
                                "' already exists");
  }
  return tables_.emplace_back(name, std::move(columns));
}

const Table* Database::Find(const std::string& name) const {
  for (const Table& table : tables_) {
    if (table.name() == name) {
      return &table;
    }
  }
  return nullptr;
}

bool Database::HasTable(const std::string& name) const {
  return Find(name) != nullptr;
}

Table& Database::GetTable(const std::string& name) {
  return const_cast<Table&>(std::as_const(*this).GetTable(name));
}

const Table& Database::GetTable(const std::string& name) const {
  const Table* table = Find(name);
  if (table == nullptr) {
    throw std::invalid_argument("Database::GetTable: no table '" + name + "'");
  }
  return *table;
}

std::vector<Value> Database::Execute(const std::string& sql, int64_t from_ms,
                                     int64_t to_ms) {
  if (cached_ == nullptr || sql != cached_->sql) {
    QueryPlan plan(sql);  // may throw; the cache stays intact
    cached_ = std::make_unique<CachedPlan>(CachedPlan{sql, std::move(plan)});
  }
  return ExecuteSelect(cached_->plan, TableFor(cached_->plan), from_ms, to_ms);
}

const Table& Database::TableFor(const QueryPlan& plan) const {
  const Table* table = Find(plan.table());
  if (table == nullptr) {
    throw SqlError("unknown table '" + plan.table() + "'");
  }
  return *table;
}

void Database::EvictBefore(int64_t cutoff_ms) {
  for (Table& table : tables_) {
    table.EvictBefore(cutoff_ms);
  }
}

}  // namespace privapprox::localdb
