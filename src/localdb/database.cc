#include "localdb/database.h"

#include <stdexcept>

namespace privapprox::localdb {

Table& Database::CreateTable(const std::string& name,
                             std::vector<std::string> columns) {
  const auto [it, inserted] =
      tables_.emplace(name, Table(name, std::move(columns)));
  if (!inserted) {
    throw std::invalid_argument("Database::CreateTable: table '" + name +
                                "' already exists");
  }
  return it->second;
}

bool Database::HasTable(const std::string& name) const {
  return tables_.contains(name);
}

Table& Database::GetTable(const std::string& name) {
  const auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw std::invalid_argument("Database::GetTable: no table '" + name + "'");
  }
  return it->second;
}

const Table& Database::GetTable(const std::string& name) const {
  const auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw std::invalid_argument("Database::GetTable: no table '" + name + "'");
  }
  return it->second;
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
  const auto it = tables_.find(plan.table());
  if (it == tables_.end()) {
    throw SqlError("unknown table '" + plan.table() + "'");
  }
  return it->second;
}

void Database::EvictBefore(int64_t cutoff_ms) {
  for (auto& [name, table] : tables_) {
    table.EvictBefore(cutoff_ms);
  }
}

}  // namespace privapprox::localdb
