#include "sqlnf/reference/relops.h"

#include "sqlnf/decomposition/decomposition.h"

namespace sqlnf {

Table SelectWhere(const Table& table,
                  const std::function<bool(const Tuple&)>& predicate) {
  Table out(table.schema());
  for (const Tuple& t : table.rows()) {
    if (predicate(t)) {
      Status st = out.AddRow(t);
      (void)st;  // same schema, arity always matches
    }
  }
  return out;
}

Table SelectAll(const Table& table) {
  return SelectWhere(table, [](const Tuple&) { return true; });
}

Result<Table> JoinAll(const std::vector<Table>& tables,
                      const std::string& name) {
  if (tables.empty()) return Status::Invalid("nothing to join");
  if (tables.size() == 1) return tables[0];
  // Fold without first deep-copying tables[0] into the accumulator; each
  // step move-assigns the freshly joined result.
  SQLNF_ASSIGN_OR_RETURN(Table joined,
                         EqualityJoin(tables[0], tables[1], name));
  for (size_t i = 2; i < tables.size(); ++i) {
    SQLNF_ASSIGN_OR_RETURN(joined, EqualityJoin(joined, tables[i], name));
  }
  return joined;
}

Result<int> UpdateWhere(Table* table,
                        const std::function<bool(const Tuple&)>& predicate,
                        AttributeId column, const Value& value) {
  if (column < 0 || column >= table->num_columns()) {
    return Status::Invalid("update column out of range");
  }
  if (value.is_null() && table->schema().nfs().Contains(column)) {
    return Status::FailedPrecondition(
        "cannot set NOT NULL column '" +
        table->schema().attribute_name(column) + "' to NULL");
  }
  int changed = 0;
  for (int i = 0; i < table->num_rows(); ++i) {
    if (!predicate(table->row(i))) continue;
    if (!(table->row(i)[column] == value)) {
      table->SetCell(i, column, value);
      ++changed;
    }
  }
  return changed;
}

int DeleteWhere(Table* table,
                const std::function<bool(const Tuple&)>& predicate) {
  Table kept(table->schema());
  int removed = 0;
  for (const Tuple& t : table->rows()) {
    if (predicate(t)) {
      ++removed;
    } else {
      Status st = kept.AddRow(t);
      (void)st;
    }
  }
  *table = std::move(kept);
  return removed;
}

}  // namespace sqlnf
