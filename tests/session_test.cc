// engine/session.h: script routing (lock-free snapshot reads vs
// serialized writes, and reads that ignore another session's open
// transaction), structured error details with script positions, the
// server-session transaction barrier, the shared constraint-set cache,
// and — under the `concurrency` ctest label — N reader sessions racing
// a committing/aborting writer while observing only committed prefixes,
// bit-identical to the serial oracle, and readers racing multi-row
// INSERTs that never see part of one.

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/session.h"
#include "sqlnf/util/mutex.h"
#include "test_util.h"

namespace sqlnf {
namespace {

using testing::Rows;
using testing::Schema;
using testing::Sigma;

TEST(SessionTest, ExecutesScriptsEndToEnd) {
  Database db;
  SessionRegistry registry(&db);
  Session session(&registry);

  ResultSet ddl = session.Execute(
      "CREATE TABLE t (a TEXT, b TEXT);"
      "INSERT INTO t VALUES ('1', 'x'), ('2', 'y');");
  ASSERT_TRUE(ddl.ok()) << ddl.error.ToString();
  ASSERT_EQ(ddl.statements.size(), 2u);

  ResultSet rs = session.Execute("SELECT a, b FROM t WHERE a = '2';");
  ASSERT_TRUE(rs.ok()) << rs.error.ToString();
  ASSERT_EQ(rs.statements.size(), 1u);
  ASSERT_TRUE(rs.statements[0].rows.has_value());
  EXPECT_EQ(rs.statements[0].rows->num_rows(), 1);
  EXPECT_EQ(rs.statements[0].message, "1 row(s)");
}

// Read-only scripts must not touch the writer mutex: holding it from
// the test thread would deadlock a SELECT that wrongly routed through
// the writer path.
TEST(SessionTest, ReadOnlyScriptsBypassTheWriterMutex) {
  Database db;
  SessionRegistry registry(&db);
  Session session(&registry);
  ASSERT_TRUE(session
                  .Execute("CREATE TABLE t (a TEXT);"
                           "INSERT INTO t VALUES ('1');")
                  .ok());

  MutexLock hold_writer(registry.writer_mu());
  ResultSet rs = session.Execute("SELECT * FROM t; SHOW TABLES;"
                                 "DESCRIBE t;");
  ASSERT_TRUE(rs.ok()) << rs.error.ToString();
  ASSERT_EQ(rs.statements.size(), 3u);
  EXPECT_EQ(rs.statements[0].rows->num_rows(), 1);
}

TEST(SessionTest, ErrorsCarryStatementIndexAndLineColumn) {
  Database db;
  SessionRegistry registry(&db);
  Session session(&registry);

  const std::string script =
      "CREATE TABLE t (a TEXT);\nSELECT nope FROM t;";
  ResultSet rs = session.Execute(script);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.error.statement_index, 1);
  // `nope` starts at byte 32 of the script: line 2, column 8.
  EXPECT_EQ(rs.error.byte_offset, 32);
  EXPECT_EQ(rs.error.line, 2);
  EXPECT_EQ(rs.error.column, 8);
  EXPECT_NE(rs.error.message.find("nope"), std::string::npos);
  // The first statement succeeded and its result is retained.
  ASSERT_EQ(rs.statements.size(), 1u);

  // Read-only path reports positions the same way.
  ResultSet ro = session.Execute("SELECT * FROM missing;");
  ASSERT_FALSE(ro.ok());
  EXPECT_EQ(ro.error.code, StatusCode::kNotFound);
  EXPECT_EQ(ro.error.statement_index, 0);
  EXPECT_EQ(ro.error.byte_offset, 14);
  EXPECT_EQ(ro.error.line, 1);
  EXPECT_EQ(ro.error.column, 15);
}

TEST(SessionTest, ServerSessionRollsBackOpenTransactions) {
  Database db;
  SessionRegistry registry(&db);
  Session session(&registry);
  ASSERT_TRUE(session.Execute("CREATE TABLE t (a TEXT);").ok());

  ResultSet rs =
      session.Execute("BEGIN; INSERT INTO t VALUES ('leaked');");
  EXPECT_FALSE(rs.ok());
  EXPECT_EQ(rs.error.code, StatusCode::kFailedPrecondition);
  EXPECT_FALSE(db.InTransaction());

  ResultSet count = session.Execute("SELECT * FROM t;");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.statements[0].affected, 0);  // the insert is gone
}

TEST(SessionTest, ShellSessionMayKeepTransactionsOpen) {
  Database db;
  SessionRegistry registry(&db);
  SessionOptions options;
  options.allow_open_transaction = true;
  Session shell(&registry, options);
  ASSERT_TRUE(shell.Execute("CREATE TABLE t (a TEXT);").ok());

  ResultSet rs = shell.Execute("BEGIN; INSERT INTO t VALUES ('mine');");
  ASSERT_TRUE(rs.ok()) << rs.error.ToString();
  EXPECT_TRUE(db.InTransaction());

  // With the transaction open, reads route through the writer path and
  // see the session's own uncommitted rows (snapshots never would).
  ResultSet mid = shell.Execute("SELECT * FROM t;");
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid.statements[0].affected, 1);

  ASSERT_TRUE(shell.Execute("ROLLBACK;").ok());
  EXPECT_FALSE(db.InTransaction());
  ResultSet after = shell.Execute("SELECT * FROM t;");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.statements[0].affected, 0);
}

// Only a session that may keep a transaction open owns one across
// scripts, so any other session's read-only script reads the committed
// snapshots while the shell's transaction is open: it neither sees the
// uncommitted row nor rolls the transaction back.
TEST(SessionTest, ReadOnlyScriptIgnoresAnotherSessionsTransaction) {
  Database db;
  SessionRegistry registry(&db);
  SessionOptions shell_options;
  shell_options.allow_open_transaction = true;
  Session shell(&registry, shell_options);
  Session server(&registry);
  ASSERT_TRUE(shell
                  .Execute("CREATE TABLE t (a TEXT);"
                           "INSERT INTO t VALUES ('committed');")
                  .ok());
  ASSERT_TRUE(
      shell.Execute("BEGIN; INSERT INTO t VALUES ('pending');").ok());

  ResultSet rs = server.Execute("SELECT * FROM t;");
  ASSERT_TRUE(rs.ok()) << rs.error.ToString();
  ASSERT_EQ(rs.statements[0].rows->num_rows(), 1);
  EXPECT_EQ(rs.statements[0].rows->row(0)[0], Value::Str("committed"));
  EXPECT_TRUE(db.InTransaction());

  // The shell still reads its own uncommitted row, and commits it.
  ResultSet mine = shell.Execute("SELECT * FROM t;");
  ASSERT_TRUE(mine.ok()) << mine.error.ToString();
  EXPECT_EQ(mine.statements[0].rows->num_rows(), 2);
  ASSERT_TRUE(shell.Execute("COMMIT;").ok());
  ResultSet after = server.Execute("SELECT * FROM t;");
  ASSERT_TRUE(after.ok()) << after.error.ToString();
  EXPECT_EQ(after.statements[0].rows->num_rows(), 2);
}

TEST(SessionTest, ConstraintCacheServesRepeatsAndKeysOnSchema) {
  Database db;
  SessionRegistry registry(&db);
  TableSchema schema = Schema("ab");
  TableSchema other = Schema("ax");

  ASSERT_OK_AND_ASSIGN(auto first,
                       registry.ParsedConstraints(schema, "a ->w b"));
  ASSERT_OK_AND_ASSIGN(auto second,
                       registry.ParsedConstraints(schema, "a ->w b"));
  EXPECT_EQ(first.get(), second.get());  // shared, not re-parsed
  EXPECT_EQ(registry.cache_hits(), 1);
  EXPECT_EQ(registry.cache_misses(), 1);

  // Same text, different schema → different entry (and a re-parse
  // against the new resolution context).
  ASSERT_OK_AND_ASSIGN(auto third,
                       registry.ParsedConstraints(other, "a ->w x"));
  EXPECT_EQ(registry.cache_misses(), 2);
  EXPECT_FALSE(registry.ParsedConstraints(schema, "a ->w zzz").ok());
  (void)third;
}

// A stream of distinct texts must not grow the cache past its cap: once
// it is full, older texts parse again.
TEST(SessionTest, ConstraintCacheStaysBoundedUnderDistinctTexts) {
  Database db;
  SessionRegistry registry(&db);
  const TableSchema schema = Schema("ab");
  const int texts = static_cast<int>(SessionRegistry::kMaxCachedSets) + 1;
  // Leading blanks make each text distinct and leave it valid.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < texts; ++i) {
      ASSERT_OK(registry
                    .ParsedConstraints(schema,
                                       std::string(i, ' ') + "a ->w b")
                    .status());
    }
  }
  EXPECT_EQ(registry.cache_hits() + registry.cache_misses(), 2 * texts);
  EXPECT_GT(registry.cache_misses(), texts);
}

TEST(SessionTest, ConstraintCacheSkipsLongTexts) {
  Database db;
  SessionRegistry registry(&db);
  const TableSchema schema = Schema("ab");
  std::string text = "a ->w b";
  while (text.size() <= SessionRegistry::kMaxCachedTextBytes) {
    text += "; a ->w b";
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK(registry.ParsedConstraints(schema, text).status());
  }
  EXPECT_EQ(registry.cache_hits(), 0);
  EXPECT_EQ(registry.cache_misses(), 2);
}

TEST(SessionTest, ValidateRendersTheHistoricalCliText) {
  Database db;
  SessionRegistry registry(&db);
  Session session(&registry);
  ASSERT_TRUE(session
                  .Execute("CREATE TABLE t (a TEXT, b TEXT);"
                           "INSERT INTO t VALUES ('1', 'x'), ('1', 'y');")
                  .ok());

  ASSERT_OK_AND_ASSIGN(ValidationReport report,
                       session.Validate("t", "a ->w b; c<a,b>"));
  EXPECT_EQ(report.violated, 1);
  EXPECT_EQ(report.RenderText(),
            "table: 2 rows x 2 columns; validating 2 constraint(s), "
            "threads=1\n"
            "  VIOLATED   {a} ->w {b}  (rows 0, 1)\n"
            "  satisfied  c<{a,b}>\n"
            "1 of 2 constraint(s) violated\n");
  EXPECT_NE(report.RenderJson().find("\"witness_rows\":[0,1]"),
            std::string::npos);
}

// N reader sessions race one committing writer and one aborting
// writer. Every result a reader sees must be bit-identical to a serial
// oracle prefix: rows 0..3k-1 in insertion order (batches of 3 commit
// atomically; aborted junk never surfaces). Both SELECTs of each
// read-only script must agree (one SnapshotAll epoch per script).
TEST(SessionTest, ConcurrentSessionsSeeOnlyCommittedPrefixes) {
  Database db;
  SessionRegistry registry(&db);
  {
    Session setup(&registry);
    ASSERT_TRUE(setup.Execute("CREATE TABLE t (a TEXT);").ok());
  }
  constexpr int kBatches = 12;

  // Serial oracle: the only states a reader may observe.
  std::map<int, std::string> oracle;  // row count -> Table::ToString
  {
    Database serial;
    SessionRegistry serial_registry(&serial);
    Session session(&serial_registry);
    ASSERT_TRUE(session.Execute("CREATE TABLE t (a TEXT);").ok());
    int next = 0;
    for (int k = 0; k <= kBatches; ++k) {
      if (k > 0) {
        std::string script = "BEGIN;";
        for (int i = 0; i < 3; ++i) {
          script += "INSERT INTO t VALUES ('" +
                    std::to_string(next++) + "');";
        }
        script += "COMMIT;";
        ASSERT_TRUE(session.Execute(script).ok());
      }
      ResultSet rs = session.Execute("SELECT * FROM t;");
      ASSERT_TRUE(rs.ok());
      oracle[3 * k] = rs.statements[0].rows->ToString();
    }
  }

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<int> reads{0};
  const int readers =
      std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (int r = 0; r < readers; ++r) {
    pool.emplace_back([&] {
      Session session(&registry);
      while (!done.load(std::memory_order_relaxed)) {
        ResultSet rs =
            session.Execute("SELECT * FROM t; SELECT * FROM t;");
        if (!rs.ok() || rs.statements.size() != 2) {
          ++violations;
          continue;
        }
        const std::string first = rs.statements[0].rows->ToString();
        auto it = oracle.find(rs.statements[0].rows->num_rows());
        // Committed prefix, and one epoch across the whole script.
        if (it == oracle.end() || it->second != first ||
            rs.statements[1].rows->ToString() != first) {
          ++violations;
        }
        ++reads;
      }
    });
  }
  // An aborting writer racing the committing one: its junk must never
  // be observed. Auto-rollback (no COMMIT) aborts each script.
  std::thread aborter([&] {
    Session session(&registry);
    while (!done.load(std::memory_order_relaxed)) {
      ResultSet rs =
          session.Execute("BEGIN; INSERT INTO t VALUES ('junk');");
      if (rs.ok()) ++violations;  // must report the forced rollback
    }
  });

  {
    Session writer(&registry);
    int next = 0;
    for (int k = 0; k < kBatches; ++k) {
      std::string script = "BEGIN;";
      for (int i = 0; i < 3; ++i) {
        script +=
            "INSERT INTO t VALUES ('" + std::to_string(next++) + "');";
      }
      script += "COMMIT;";
      ResultSet rs = writer.Execute(script);
      ASSERT_TRUE(rs.ok()) << rs.error.ToString();
    }
  }
  // On a loaded 1-core machine the writer can finish before any
  // reader is scheduled at all; hold the door until one read lands.
  while (reads.load() == 0 && violations.load() == 0) {
    std::this_thread::yield();
  }
  done = true;
  for (std::thread& t : pool) t.join();
  aborter.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(reads.load(), 0);

  Session check(&registry);
  ResultSet final_rows = check.Execute("SELECT * FROM t;");
  ASSERT_TRUE(final_rows.ok());
  EXPECT_EQ(final_rows.statements[0].rows->ToString(),
            oracle[3 * kBatches]);
}

// A multi-row INSERT is one statement to readers: it holds the
// catalog lock from its first row to its last, so a reader racing
// auto-commit INSERTs of 10 rows each only ever counts a multiple of 10.
TEST(SessionTest, ReadersNeverSeePartOfAnInsert) {
  Database db;
  SessionRegistry registry(&db);
  {
    Session setup(&registry);
    ASSERT_TRUE(setup.Execute("CREATE TABLE t (a TEXT, b TEXT);").ok());
  }
  constexpr int kStatements = 150;
  constexpr int kRowsPerStatement = 10;

  std::atomic<bool> done{false};
  std::atomic<int> partial{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> pool;
  for (int r = 0; r < 3; ++r) {
    pool.emplace_back([&] {
      Session session(&registry);
      while (!done.load(std::memory_order_relaxed)) {
        ResultSet rs = session.Execute("SELECT a FROM t;");
        if (!rs.ok() ||
            rs.statements[0].rows->num_rows() % kRowsPerStatement != 0) {
          ++partial;
        }
        ++reads;
      }
    });
  }
  {
    Session writer(&registry);
    for (int k = 0; k < kStatements; ++k) {
      std::string script = "INSERT INTO t VALUES ";
      for (int i = 0; i < kRowsPerStatement; ++i) {
        if (i > 0) script += ", ";
        script += "('" + std::to_string(k * kRowsPerStatement + i) +
                  "', 'payload')";
      }
      ResultSet rs = writer.Execute(script + ";");
      ASSERT_TRUE(rs.ok()) << rs.error.ToString();
    }
  }
  while (reads.load() == 0) std::this_thread::yield();
  done = true;
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(partial.load(), 0);

  Session check(&registry);
  ResultSet all = check.Execute("SELECT a FROM t;");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.statements[0].rows->num_rows(),
            kStatements * kRowsPerStatement);
}

}  // namespace
}  // namespace sqlnf
