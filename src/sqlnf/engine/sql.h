// A small SQL front end over the constraint-enforcing Database.
//
// Supported statements (case-insensitive keywords, ';'-terminated):
//
//   CREATE TABLE t (
//     col TEXT [NOT NULL], ...,
//     [PRIMARY KEY (cols),]            -- c-key + NOT NULL columns
//     [UNIQUE (cols),]                 -- possible key p<cols>
//     [CERTAIN KEY (cols),]            -- c-key c<cols>  (SQL extension)
//     [POSSIBLE KEY (cols),]           -- p-key          (SQL extension)
//     [CERTAIN FD (lhs -> rhs),]       -- c-FD           (SQL extension)
//     [POSSIBLE FD (lhs -> rhs)]       -- p-FD           (SQL extension)
//   );
//   INSERT INTO t VALUES (lit, ...) [, (lit, ...)]*;
//   SELECT * | col[, col]* FROM t [NATURAL JOIN u]* [WHERE pred];
//   UPDATE t SET col = lit [WHERE pred];
//   DELETE FROM t [WHERE pred];
//   DROP TABLE t;
//   VACUUM t;                            -- dictionary compaction
//   SHOW TABLES;
//   DESCRIBE t;
//   BEGIN [TRANSACTION|WORK]; COMMIT; ROLLBACK;
//
// WHERE predicates (AND binds tighter than OR; no parentheses):
//
//   pred := conj [OR conj]*
//   conj := atom [AND atom]*
//   atom := col (= | <> | != | < | <= | > | >=) lit
//         | col BETWEEN lit AND lit      -- >= lit AND <= lit
//         | col IN (lit [, lit]*)
//
// Literals: 'single-quoted strings' ('' escapes a quote), integers,
// NULL. Types are declarative only (everything is a Value). WHERE
// semantics are MARKER semantics, not SQL's three-valued WHERE (this
// engine is about schema design): `=`/`<>`/IN use marker equality, so
// col = NULL matches exactly the ⊥ rows, and ordered comparisons
// (`<`/`<=`/`>`/`>=`/BETWEEN) exclude ⊥ by definition — a ⊥ cell never
// satisfies one, nor does a NULL bound (engine/predicate.h). The whole
// clause compiles to branch-free integer tests on dictionary codes.
// Over NATURAL JOINs, each input is first filtered by what the WHERE
// implies for it (engine/predicate.h JoinInputFilters), so a selective
// join costs what it returns; the result's rows and their order are
// those of joining whole tables and filtering afterwards.
//
// The CERTAIN/POSSIBLE clauses are this library's SQL extension: they
// declare the paper's constraint classes, and the Database enforces
// them on every write — including certain keys over nullable columns,
// which standard SQL cannot express declaratively.
//
// Transactions: between BEGIN and COMMIT, DML accumulates in the
// Database's undo log (engine/txn.h) — an insert fanned out over N
// normalized component tables commits or aborts as one unit, and
// ROLLBACK restores every touched table bit-identically. A statement
// rejected mid-transaction rolls back only itself; DDL is barred
// while a transaction is open.
//
// TWO EXECUTION PATHS, ONE PARSER. Statements are parsed into
// database-independent structures first and bound to storage second,
// so the same grammar serves both sides of the concurrency contract:
// SqlSession drives live state and requires the WriterThread role,
// while ExecuteReadOnly binds SELECT / SHOW / DESCRIBE against an
// immutable snapshot map and is safe from any reader thread — no
// capability ever crosses an indirection boundary (DESIGN.md §8).

#ifndef SQLNF_ENGINE_SQL_H_
#define SQLNF_ENGINE_SQL_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/result.h"
#include "sqlnf/engine/writer_role.h"
#include "sqlnf/util/status.h"
#include "sqlnf/util/thread_annotations.h"

namespace sqlnf {

/// One statement of a script: a slice of the original text (comments
/// included — the lexer skips them) plus its byte offset in the
/// script, so statement-relative error offsets can be mapped back to
/// script coordinates (engine/result.h MakeErrorDetail).
struct SqlStatement {
  std::string_view text;
  size_t offset = 0;
};

/// Splits a script on ';' outside string literals and '--' comments,
/// dropping empty and comment-only pieces. Pure text processing.
std::vector<SqlStatement> SplitSqlStatements(std::string_view script);

/// True when the statement's leading keyword is SELECT / SHOW /
/// DESCRIBE — the statements ExecuteReadOnly can serve from snapshots.
bool StatementIsReadOnly(std::string_view statement);

/// Executes one read-only statement (SELECT / SHOW / DESCRIBE) against
/// a consistent snapshot map (Database::SnapshotAll). Role-free: reads
/// only the immutable snapshot columns, so any number of threads can
/// call it concurrently with the single writer. On error, when
/// `error_offset` is non-null it receives the byte offset of the
/// offending token within `statement` (-1 when unlocatable).
Result<QueryResult> ExecuteReadOnly(
    const std::map<std::string, TableSnapshot>& snapshots,
    std::string_view statement, int* error_offset = nullptr);

/// Executes one SQL statement at a time against a Database. Stateless
/// besides the Database pointer; statements are independent. Scripts
/// run through engine/session.h Session::Execute, which splits them
/// and drives this class on its writer path.
///
/// A session drives DML/DDL through the Database's live state, so it
/// belongs to the single writer thread: Execute requires the
/// WriterThread role (engine/writer_role.h). Reader threads query
/// snapshots (ExecuteReadOnly above), not SqlSession.
class SqlSession {
 public:
  /// `db` must outlive the session.
  explicit SqlSession(Database* db) : db_(db) {}

  /// Executes exactly one statement (trailing ';' optional). On error,
  /// `error_offset` (when non-null) receives the byte offset of the
  /// offending token within `statement`, or -1 when the failure has no
  /// textual anchor (e.g. a constraint violation).
  Result<QueryResult> Execute(std::string_view statement,
                              int* error_offset = nullptr)
      SQLNF_REQUIRES(writer_thread_role);

 private:
  Database* db_;
};

}  // namespace sqlnf

#endif  // SQLNF_ENGINE_SQL_H_
