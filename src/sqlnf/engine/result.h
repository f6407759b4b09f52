// The result layer: one structured outcome type for every execution
// path (CLI, session, HTTP service), with two renderers over it.
//
// Every executor produces a ResultSet — per-statement results plus, on
// failure, a structured ErrorDetail (status code, statement index, byte
// offset, line:column). A statement's rows are a ResultRows: the output
// schema plus one code column per output column. A SELECT's columns are
// the codes of its selected rows, gathered from the table or join it
// read, and each shares its source column's dictionary copy-on-write
// (core/encoded_table.h), so building a result decodes no cell and
// copies no string. The shared dictionaries live as long as the result
// does: a snapshot may be gone and the writer may have minted values
// since, but a dictionary is cloned before it is changed while anything
// still references it, so a result's cells never move.
//
// The two renderers:
//   * RenderJson (the HTTP service) writes each cell straight from the
//     dictionary value its code names into the response;
//   * QueryResult::ToString (the CLI and shell) decodes the rows into a
//     Table through ResultRows::ToTable and prints its ASCII rendering
//     (golden-pinned byte for byte).

#ifndef SQLNF_ENGINE_RESULT_H_
#define SQLNF_ENGINE_RESULT_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sqlnf/core/encoded_table.h"
#include "sqlnf/core/schema.h"
#include "sqlnf/core/table.h"
#include "sqlnf/util/status.h"

namespace sqlnf {

/// The rows of one statement, on codes: column c of `columns` holds the
/// codes of output column c (see the header comment). Copies share the
/// columns.
class ResultRows {
 public:
  /// `columns` must be fully encoded with one column per attribute of
  /// `schema`.
  ResultRows(TableSchema schema, EncodedTable columns);
  /// Encodes a decoded table (SHOW, DESCRIBE, and callers that build
  /// their rows as Values).
  ResultRows(const Table& table);  // NOLINT(runtime/explicit)

  int num_rows() const { return columns_.num_rows(); }
  int num_columns() const { return schema_.num_attributes(); }
  const TableSchema& schema() const { return schema_; }

  /// The value in one cell: a reference into the column's dictionary.
  const Value& cell(int row, AttributeId col) const {
    return columns_.DecodeCode(col, columns_.code(col, row));
  }
  /// Row `i` decoded.
  Tuple row(int i) const;
  /// Every row decoded, under the output schema.
  Table ToTable() const;
  /// ToTable().ToString(): the ASCII table the CLI prints.
  std::string ToString() const;

 private:
  TableSchema schema_;
  EncodedTable columns_;
};

/// Outcome of one statement: the payload (SELECT / SHOW / DESCRIBE),
/// the DML row count, and a human-readable summary.
struct QueryResult {
  std::optional<ResultRows> rows;  // SELECT / SHOW / DESCRIBE payload
  int affected = 0;                // DML row count
  std::string message;             // human-readable summary

  /// The message, then the ASCII table when rows are present: the CLI
  /// and shell output (golden-pinned).
  std::string ToString() const;
};

/// Structured error location and classification. `byte_offset` indexes
/// into the submitted script text (-1 when the failure has no textual
/// anchor, e.g. a constraint violation); `line`/`column` are 1-based
/// and derived from the offset.
struct ErrorDetail {
  StatusCode code = StatusCode::kOk;
  std::string message;
  int statement_index = -1;
  int byte_offset = -1;
  int line = 0;
  int column = 0;

  /// "ParseError: expected FROM (statement 2, line 3:7)" — the CLI
  /// diagnostic form; degrades gracefully when fields are unknown.
  std::string ToString() const;
};

/// Outcome of executing a script: the per-statement results up to the
/// first error, plus the error itself (if any). All execution paths —
/// Session::Execute, the HTTP endpoints, the CLI commands — return
/// this shape; RenderJson below and QueryResult::ToString render it.
struct ResultSet {
  Status status;                        // OK iff the whole script ran
  ErrorDetail error;                    // populated when !status.ok()
  std::vector<QueryResult> statements;  // results before the error

  bool ok() const { return status.ok(); }

  static ResultSet Of(std::vector<QueryResult> results) {
    ResultSet rs;
    rs.statements = std::move(results);
    return rs;
  }
  static ResultSet Fail(Status status, ErrorDetail detail) {
    ResultSet rs;
    rs.status = std::move(status);
    rs.error = std::move(detail);
    return rs;
  }
};

/// Builds an ErrorDetail from a Status plus location info, deriving
/// line/column from `script` when `byte_offset` is in range.
ErrorDetail MakeErrorDetail(const Status& status, std::string_view script,
                            int statement_index, int byte_offset);

/// JSON envelope used by the HTTP service:
///   {"ok":true,"statements":[{"message":...,"affected":N,
///    "rows":{"columns":[...],"data":[[...],...]}}]}
/// or on failure
///   {"ok":false,"error":{"code":...,"message":...,"statement_index":N,
///    "byte_offset":N,"line":N,"column":N},"statements":[...]}
/// Cells map ⊥ → null, ints → numbers, strings → strings; each is
/// written from its code's dictionary value, with no Table in between.
std::string RenderJson(const ResultSet& rs);

}  // namespace sqlnf

#endif  // SQLNF_ENGINE_RESULT_H_
