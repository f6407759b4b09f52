// Row-major relational operators: the reference the columnar executor
// is held to.
//
// Each operator walks Tuples and evaluates its predicate per row, the
// literal reading of SELECT / UPDATE / DELETE / NATURAL JOIN over ⊥
// markers. The serving path (engine/relops.h SelectRowsEncoded,
// engine/catalog.h Database::Update/Delete, decomposition/encoded_ops.h
// EqualityJoinEncoded) runs the same statements on dictionary codes;
// the differential and predicate-fuzz suites compare the two, and the
// Section-7 benches time them side by side. This file belongs to the
// sqlnf_reference library, which no serving binary links.

#ifndef SQLNF_REFERENCE_RELOPS_H_
#define SQLNF_REFERENCE_RELOPS_H_

#include <functional>
#include <string>
#include <vector>

#include "sqlnf/core/table.h"
#include "sqlnf/util/status.h"

namespace sqlnf {

/// Copies rows satisfying `predicate` into a new table ("SELECT ...
/// WHERE"). The predicate sees each row.
Table SelectWhere(const Table& table,
                  const std::function<bool(const Tuple&)>& predicate);

/// Full scan materializing every row ("SELECT *"); returns the copy.
/// Exists so benchmarks measure a realistic materializing scan.
Table SelectAll(const Table& table);

/// Folds the equality join over all tables left-to-right.
Result<Table> JoinAll(const std::vector<Table>& tables,
                      const std::string& name);

/// In-place "UPDATE ... SET column = value WHERE predicate"; returns
/// the number of rows changed. This is the primitive behind the
/// update-anomaly demonstrations: on a de-normalized table, keeping a
/// c-FD satisfied forces touching every row of a similarity group.
Result<int> UpdateWhere(Table* table,
                        const std::function<bool(const Tuple&)>& predicate,
                        AttributeId column, const Value& value);

/// In-place "DELETE FROM ... WHERE predicate"; returns rows removed.
int DeleteWhere(Table* table,
                const std::function<bool(const Tuple&)>& predicate);

}  // namespace sqlnf

#endif  // SQLNF_REFERENCE_RELOPS_H_
