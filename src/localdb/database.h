// A client's local database: named tables plus a parse-and-execute entry
// point. This is the SQLite stand-in of the prototype (§5: "the query
// answer module is used to execute the input query on the local user's
// private data stored in SQLite").

#ifndef PRIVAPPROX_LOCALDB_DATABASE_H_
#define PRIVAPPROX_LOCALDB_DATABASE_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "localdb/executor.h"
#include "localdb/table.h"

namespace privapprox::localdb {

class Database {
 public:
  // Creates a table; throws if the name exists.
  Table& CreateTable(const std::string& name,
                     std::vector<std::string> columns);

  bool HasTable(const std::string& name) const;
  Table& GetTable(const std::string& name);
  const Table& GetTable(const std::string& name) const;

  // Parses and executes `sql` over rows in [from_ms, to_ms), returning
  // every value Scan yields. The plan of the most recent statement text is
  // cached, so repeating one statement skips the parser.
  std::vector<Value> Execute(const std::string& sql,
                             int64_t from_ms = std::numeric_limits<int64_t>::min(),
                             int64_t to_ms = std::numeric_limits<int64_t>::max());

  // Runs a compiled plan over its table's rows in [from_ms, to_ms):
  // QueryPlan::Scan on the named table, the loop Execute runs too. Throws
  // SqlError for an unknown table.
  template <typename Fn>
  void Scan(const QueryPlan& plan, int64_t from_ms, int64_t to_ms,
            Fn&& fn) const {
    plan.Scan(TableFor(plan), from_ms, to_ms, std::forward<Fn>(fn));
  }

  // Evicts rows older than `cutoff_ms` from all tables (retention policy).
  void EvictBefore(int64_t cutoff_ms);

 private:
  struct CachedPlan {
    std::string sql;
    QueryPlan plan;
  };

  const Table& TableFor(const QueryPlan& plan) const;

  std::map<std::string, Table> tables_;
  // Single-entry plan cache for Execute; clients run their subscriptions'
  // own plans through Scan, so theirs stays empty.
  std::unique_ptr<CachedPlan> cached_;
};

}  // namespace privapprox::localdb

#endif  // PRIVAPPROX_LOCALDB_DATABASE_H_
