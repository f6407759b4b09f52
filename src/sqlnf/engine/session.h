// The session layer: per-connection execution state over one shared
// Database, extending the single-writer / multi-reader contract to
// concurrent sessions BY CONSTRUCTION.
//
// A SessionRegistry owns what all connections share — the Database,
// the writer mutex that serializes mutating scripts, and a cache of
// parsed constraint sets. Each connection (an HTTP socket in net/, the
// CLI's query and shell commands, a test thread) holds its own Session,
// whose Execute is the engine's one script entry point and routes every
// script down one of two paths:
//
//   * ALL statements read-only (SELECT / SHOW / DESCRIBE) → take one
//     atomic SnapshotAll() and execute lock-free against the immutable
//     snapshot map (engine/sql.h ExecuteReadOnly). Any number of
//     sessions run this path concurrently with the writer, including
//     while another session's script is inside BEGIN … COMMIT: they
//     read the last committed state and never wait on it.
//   * ANY write statement → acquire the registry's writer mutex, enter
//     a WriterScope, and drive SqlSession. The phantom capability
//     (engine/writer_role.h) makes the exclusion machine-checked: the
//     read-only path cannot even compile a call to a mutating method.
//
// Multi-session servers must not let a transaction survive a request
// (another session would silently join it once the writer mutex is
// released), so by default an open transaction at end-of-script is
// rolled back and reported as an error; the single-session CLI shell
// opts out via SessionOptions::allow_open_transaction. Such a session
// is the only one whose read-only scripts take the writer path, and
// only while a transaction is open: its reads must see the
// transaction's own uncommitted writes.
//
// The layer also hosts the shared non-SQL cores the CLI and the HTTP
// service both render from: constraint validation over an encoding
// (ValidationReport — the CLI's `validate` output is RenderText() of
// it, byte for byte), discovery, and normalization.

#ifndef SQLNF_ENGINE_SESSION_H_
#define SQLNF_ENGINE_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sqlnf/constraints/constraint.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/result.h"
#include "sqlnf/engine/sql.h"
#include "sqlnf/util/mutex.h"
#include "sqlnf/util/status.h"
#include "sqlnf/util/thread_annotations.h"

namespace sqlnf {

/// One constraint's verdict within a ValidationReport.
struct ConstraintCheck {
  std::string text;  // fd/key rendered against the table schema
  bool violated = false;
  // When violated: the lexicographically smallest violating row pair,
  // the same at every thread count (engine/validate.h's witness rule).
  int row1 = -1, row2 = -1;
};

/// Outcome of validating a constraint set against one table.
struct ValidationReport {
  int rows = 0;
  int columns = 0;
  int threads = 1;
  size_t total = 0;                    // constraints checked
  std::vector<ConstraintCheck> checks; // FDs first, then keys
  int violated = 0;

  /// The historical `sqlnf validate` stdout (header, per-constraint
  /// lines, footer) — byte-identical to the pre-refactor printf code
  /// (golden-pinned).
  std::string RenderText() const;

  /// JSON object used by the /validate endpoint.
  std::string RenderJson() const;
};

/// Validates Σ against an encoding that covers every mentioned column
/// (a fresh per-call encoding or a table snapshot's columns). FDs are
/// checked in declaration order, then keys, matching the CLI, one after
/// another on the calling thread; `threads` is only recorded in the
/// report.
ValidationReport ValidateConstraints(const TableSchema& schema,
                                     const EncodedTable& enc,
                                     const ConstraintSet& sigma,
                                     int threads);

/// Constraint discovery summary for one table (text forms are rendered
/// against the table schema with the instance-inferred NFS).
struct DiscoveryReport {
  int rows = 0;
  int columns = 0;
  std::string null_free;  // formatted attribute set
  std::vector<std::string> c_fds, p_fds, c_keys, p_keys;
  int nn_count = 0, p_count = 0, c_count = 0, t_count = 0,
      lambda_count = 0;

  std::string RenderJson() const;
};

/// Outcome of mine-and-normalize on one table.
struct NormalizationOutcome {
  std::string design;         // mined design, text form
  std::string decomposition;  // components (empty when !normalized)
  std::string ddl;            // CREATE TABLE statements
  bool normalized = false;    // false when no λ-FDs were found

  std::string RenderJson() const;
};

struct SessionOptions {
  /// Threads for the discovery pair sweep; validation runs serially
  /// and records the count in its report.
  int threads = 1;
  /// Permit a transaction to remain open after Execute() returns.
  /// Safe only for a single-session front end (the CLI shell); servers
  /// leave this false and get auto-rollback + error instead.
  bool allow_open_transaction = false;
};

/// Shared state behind all sessions: the database, the writer mutex
/// serializing mutating scripts across sessions, and a cache of parsed
/// constraint sets keyed by (schema columns, constraint text).
class SessionRegistry {
 public:
  /// The cache stays bounded under any stream of texts: an insert into
  /// a full cache clears it first, and a text longer than
  /// kMaxCachedTextBytes is parsed on every request.
  static constexpr size_t kMaxCachedSets = 1024;
  static constexpr size_t kMaxCachedTextBytes = 4096;

  /// `db` must outlive the registry.
  explicit SessionRegistry(Database* db) : db_(db) {}

  Database* db() const { return db_; }
  Mutex& writer_mu() SQLNF_RETURN_CAPABILITY(writer_mu_) {
    return writer_mu_;
  }

  /// Parses `text` against `schema`, serving repeats from the cache.
  /// The returned set is immutable and shared across sessions. Every
  /// successful parse counts as a miss.
  Result<std::shared_ptr<const ConstraintSet>> ParsedConstraints(
      const TableSchema& schema, const std::string& text);

  /// Cache observability (for tests and /health).
  int64_t cache_hits() const;
  int64_t cache_misses() const;

 private:
  Database* db_;
  /// Serializes mutating scripts across sessions; read-only scripts
  /// never touch it.
  Mutex writer_mu_;

  mutable Mutex cache_mu_;
  std::map<std::string, std::shared_ptr<const ConstraintSet>> cache_
      SQLNF_GUARDED_BY(cache_mu_);
  int64_t hits_ SQLNF_GUARDED_BY(cache_mu_) = 0;
  int64_t misses_ SQLNF_GUARDED_BY(cache_mu_) = 0;
};

/// Per-connection execution state. Not thread-safe itself (one
/// connection = one session = one thread at a time); any number of
/// sessions over the same registry may run concurrently.
class Session {
 public:
  explicit Session(SessionRegistry* registry, SessionOptions options = {})
      : registry_(registry), options_(options) {}

  const SessionOptions& options() const { return options_; }

  /// Executes a SQL script: all-read-only scripts run lock-free
  /// against one atomic snapshot set (unless this session may hold a
  /// transaction and one is open); anything else serializes through
  /// the writer mutex. Never fails at the call level — errors are
  /// inside the ResultSet, with script-absolute offsets.
  ResultSet Execute(const std::string& script);

  /// Validates a constraint-set text against the table's committed
  /// snapshot (parsed sets are cached in the registry).
  Result<ValidationReport> Validate(const std::string& table,
                                    const std::string& constraints);

  /// Mines constraints from the table's committed snapshot.
  /// `max_rows` <= 0 keeps the discovery default cap.
  Result<DiscoveryReport> Discover(const std::string& table,
                                   int max_rows = 0);

  /// Mines λ-FDs and certain keys from the committed snapshot, runs
  /// the paper's Algorithm 3, and emits component DDL.
  Result<NormalizationOutcome> Normalize(const std::string& table);

 private:
  ResultSet ExecuteSnapshots(std::string_view script,
                             const std::vector<SqlStatement>& statements);
  ResultSet ExecuteWriter(std::string_view script,
                          const std::vector<SqlStatement>& statements);

  SessionRegistry* registry_;
  SessionOptions options_;
};

}  // namespace sqlnf

#endif  // SQLNF_ENGINE_SESSION_H_
