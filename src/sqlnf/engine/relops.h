// Relational operators for the mini query engine.
//
// Together with decomposition/decomposition.h (projections, equality
// join) these power the Section 7 performance experiment: scan a
// de-normalized table vs. re-join its normalized components, and scale a
// small table up by crossing it with a numbers column.

#ifndef SQLNF_ENGINE_RELOPS_H_
#define SQLNF_ENGINE_RELOPS_H_

#include <functional>
#include <string>
#include <vector>

#include "sqlnf/core/encoded_table.h"
#include "sqlnf/core/table.h"
#include "sqlnf/decomposition/decomposition.h"
#include "sqlnf/engine/predicate.h"
#include "sqlnf/util/parallel.h"
#include "sqlnf/util/status.h"

namespace sqlnf {

/// Selection vector (ascending row ids) of the rows satisfying the
/// predicate tree, computed on codes: atoms compile once against the
/// encoding (dictionary probes, order-index binary searches —
/// engine/predicate.h), then one fused pass of branch-free integer
/// compares per row block evaluates the whole DNF. A value absent from
/// a dictionary matches no row (kEq/kIn) or every row (kNe);
/// Predicate::True() selects every row. With `par.threads > 1` the
/// scan runs as a two-phase count/fill emission over row morsels
/// (util/parallel.h ParallelEmit) — the returned vector is identical
/// at every thread count.
std::vector<int> SelectRowsEncoded(const EncodedTable& enc,
                                   const Predicate& pred,
                                   const ParallelOptions& par = {});

/// In-place columnar "UPDATE ... SET column = value WHERE pred",
/// re-encoding only the cells whose code actually changes; returns rows
/// changed. Constraint/NFS checks live in the Database layer
/// (engine/catalog.h); this is the bare executor primitive.
int UpdateWhereEncoded(EncodedTable* enc, const Predicate& pred,
                       AttributeId column, const Value& value);

/// In-place columnar "DELETE FROM ... WHERE pred"; returns rows
/// removed.
int DeleteWhereEncoded(EncodedTable* enc, const Predicate& pred);

/// Copies rows satisfying `predicate` into a new table ("SELECT ...
/// WHERE"). The predicate sees each row.
Table SelectWhere(const Table& table,
                  const std::function<bool(const Tuple&)>& predicate);

/// Full scan materializing every row ("SELECT *"); returns the copy.
/// Exists so benchmarks measure a realistic materializing scan.
Table SelectAll(const Table& table);

/// Crosses `table` with an integer column `column` holding 1..n —
/// the paper's trick to scale the 173-row contractor table to a
/// "typical size". The new column is NOT NULL and is prepended.
Result<Table> CrossWithSequence(const Table& table, int n,
                                const std::string& column);

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

#endif  // SQLNF_ENGINE_RELOPS_H_
