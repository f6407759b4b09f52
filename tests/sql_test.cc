// The SQL front end: parsing, execution, constraint enforcement via
// the extended DDL clauses (CERTAIN KEY / CERTAIN FD / POSSIBLE FD).

#include "sqlnf/engine/sql.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sqlnf/engine/session.h"
#include "test_util.h"

namespace sqlnf {
namespace {

class SqlTest : public ::testing::Test {
 protected:
  Database db_;
  SqlSession sql_{&db_};

  // Each test runs single-threaded; the helpers claim the writer role
  // so the role-annotated SQL entry points are reachable.
  QueryResult Must(const std::string& statement) {
    WriterScope writer;
    auto result = sql_.Execute(statement);
    EXPECT_TRUE(result.ok()) << statement << "\n"
                             << result.status().ToString();
    return result.ok() ? std::move(result).value() : QueryResult{};
  }
  Status Try(const std::string& statement) {
    WriterScope writer;
    auto result = sql_.Execute(statement);
    return result.ok() ? Status::OK() : result.status();
  }
};

TEST_F(SqlTest, CreateInsertSelect) {
  Must("CREATE TABLE purchase (order_id TEXT NOT NULL, item TEXT NOT "
       "NULL, catalog TEXT, price TEXT NOT NULL);");
  Must("INSERT INTO purchase VALUES ('5299401', 'Fitbit', 'Amazon', "
       "'240'), ('7485113', 'Dora', 'Kingtoys', '25');");
  QueryResult all = Must("SELECT * FROM purchase;");
  ASSERT_TRUE(all.rows.has_value());
  EXPECT_EQ(all.rows->num_rows(), 2);
  EXPECT_EQ(all.rows->num_columns(), 4);

  QueryResult filtered =
      Must("SELECT item, price FROM purchase WHERE order_id = '5299401';");
  ASSERT_TRUE(filtered.rows.has_value());
  EXPECT_EQ(filtered.rows->num_rows(), 1);
  EXPECT_EQ(filtered.rows->num_columns(), 2);
  EXPECT_EQ(filtered.rows->schema().attribute_name(0), "item");
  EXPECT_EQ(filtered.rows->row(0)[1], Value::Str("240"));
}

TEST_F(SqlTest, NullLiteralsAndMarkerEquality) {
  Must("CREATE TABLE t (a TEXT NOT NULL, b TEXT);");
  Must("INSERT INTO t VALUES ('1', NULL), ('2', 'x');");
  QueryResult nulls = Must("SELECT * FROM t WHERE b = NULL;");
  EXPECT_EQ(nulls.rows->num_rows(), 1);
  EXPECT_EQ(nulls.rows->row(0)[0], Value::Str("1"));
}

TEST_F(SqlTest, NotNullEnforced) {
  Must("CREATE TABLE t (a TEXT NOT NULL, b TEXT);");
  Status st = Try("INSERT INTO t VALUES (NULL, 'x');");
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("NOT NULL"), std::string::npos);
}

TEST_F(SqlTest, CertainFdEnforcedOnInsert) {
  Must("CREATE TABLE purchase (item TEXT NOT NULL, catalog TEXT, "
       "price TEXT NOT NULL, CERTAIN FD (item, catalog -> price));");
  Must("INSERT INTO purchase VALUES ('Fitbit', 'Amazon', '240');");
  Must("INSERT INTO purchase VALUES ('Fitbit', NULL, '240');");
  // ⊥-catalog weakly matches Amazon; a different price is rejected.
  EXPECT_FALSE(
      Try("INSERT INTO purchase VALUES ('Fitbit', NULL, '200');").ok());
  EXPECT_FALSE(
      Try("INSERT INTO purchase VALUES ('Fitbit', 'Amazon', '199');")
          .ok());
  Must("INSERT INTO purchase VALUES ('Dora', 'Kingtoys', '25');");
}

TEST_F(SqlTest, CertainKeyOverNullableColumns) {
  Must("CREATE TABLE t (i TEXT NOT NULL, c TEXT, p TEXT, "
       "CERTAIN KEY (i, c));");
  Must("INSERT INTO t VALUES ('F', 'A', '1');");
  EXPECT_FALSE(Try("INSERT INTO t VALUES ('F', NULL, '2');").ok());
  Must("INSERT INTO t VALUES ('G', NULL, '3');");
  // A second ⊥ row for G weakly collides with the first.
  EXPECT_FALSE(Try("INSERT INTO t VALUES ('G', 'B', '4');").ok());
}

TEST_F(SqlTest, PrimaryKeyImpliesNotNullAndUniqueness) {
  Must("CREATE TABLE t (id TEXT, v TEXT, PRIMARY KEY (id));");
  Must("INSERT INTO t VALUES ('1', 'a');");
  EXPECT_FALSE(Try("INSERT INTO t VALUES ('1', 'b');").ok());
  EXPECT_FALSE(Try("INSERT INTO t VALUES (NULL, 'c');").ok());
  Must("INSERT INTO t VALUES ('2', 'b');");
}

TEST_F(SqlTest, UniqueIsPossibleKey) {
  Must("CREATE TABLE t (a TEXT, b TEXT, UNIQUE (a));");
  Must("INSERT INTO t VALUES ('1', 'x');");
  EXPECT_FALSE(Try("INSERT INTO t VALUES ('1', 'y');").ok());
  // p-keys ignore ⊥ rows (strong similarity never fires on ⊥).
  Must("INSERT INTO t VALUES (NULL, 'y');");
  Must("INSERT INTO t VALUES (NULL, 'z');");
}

TEST_F(SqlTest, UpdateAndDelete) {
  Must("CREATE TABLE t (a TEXT NOT NULL, b TEXT, "
       "CERTAIN FD (a -> b));");
  Must("INSERT INTO t VALUES ('1', 'x'), ('1', 'x'), ('2', 'y');");
  // Consistent whole-group update succeeds.
  QueryResult updated = Must("UPDATE t SET b = 'z' WHERE a = '1';");
  EXPECT_EQ(updated.affected, 2);
  QueryResult remaining = Must("SELECT * FROM t WHERE b = 'z';");
  EXPECT_EQ(remaining.rows->num_rows(), 2);
  QueryResult deleted = Must("DELETE FROM t WHERE a = '1';");
  EXPECT_EQ(deleted.affected, 2);
  EXPECT_EQ(Must("SELECT * FROM t;").rows->num_rows(), 1);
}

TEST_F(SqlTest, NaturalJoin) {
  Must("CREATE TABLE left_t (a TEXT, b TEXT);");
  Must("CREATE TABLE right_t (b TEXT, c TEXT);");
  Must("INSERT INTO left_t VALUES ('1', 'x'), ('2', NULL);");
  Must("INSERT INTO right_t VALUES ('x', 'P'), (NULL, 'Q');");
  QueryResult joined =
      Must("SELECT * FROM left_t NATURAL JOIN right_t;");
  ASSERT_TRUE(joined.rows.has_value());
  EXPECT_EQ(joined.rows->num_columns(), 3);
  // Equality join: 'x'–'x' and ⊥–⊥.
  EXPECT_EQ(joined.rows->num_rows(), 2);
}

TEST_F(SqlTest, ShowAndDescribe) {
  Must("CREATE TABLE t (a TEXT NOT NULL, b TEXT, CERTAIN KEY (a));");
  QueryResult tables = Must("SHOW TABLES;");
  EXPECT_EQ(tables.rows->num_rows(), 1);
  QueryResult desc = Must("DESCRIBE t;");
  EXPECT_EQ(desc.rows->num_rows(), 2);
  EXPECT_NE(desc.message.find("c<{a}>"), std::string::npos);
  Must("DROP TABLE t;");
  EXPECT_EQ(Must("SHOW TABLES;").rows->num_rows(), 0);
}

// Scripts run through the session layer (engine/session.h), the one
// script entry point; SqlSession executes each statement.
TEST_F(SqlTest, ScriptExecution) {
  SessionRegistry registry(&db_);
  Session session(&registry);
  const ResultSet results = session.Execute(R"(
    -- the paper's running example, enforced
    CREATE TABLE purchase (
      order_id TEXT NOT NULL,
      item TEXT NOT NULL,
      catalog TEXT,
      price TEXT NOT NULL,
      CERTAIN FD (item, catalog -> price)
    );
    INSERT INTO purchase VALUES ('1', 'Fitbit', 'Amazon', '240');
    INSERT INTO purchase VALUES ('1', 'Fitbit', NULL, '240');
    SELECT * FROM purchase;
  )");
  ASSERT_OK(results.status);
  ASSERT_EQ(results.statements.size(), 4u);  // CREATE + 2 INSERTs + SELECT
  EXPECT_EQ(results.statements.back().rows->num_rows(), 2);
}

TEST_F(SqlTest, ScriptStopsAtFirstError) {
  SessionRegistry registry(&db_);
  Session session(&registry);
  const ResultSet results = session.Execute(
      "CREATE TABLE t (a TEXT, UNIQUE (a));"
      "INSERT INTO t VALUES ('1');"
      "INSERT INTO t VALUES ('1');"  // rejected
      "INSERT INTO t VALUES ('2');");
  EXPECT_FALSE(results.ok());
  EXPECT_EQ(results.statements.size(), 2u);  // the ones before the error
  EXPECT_EQ(results.error.statement_index, 2);
  // The table kept its consistent state.
  QueryResult rows = Must("SELECT * FROM t;");
  EXPECT_EQ(rows.rows->num_rows(), 1);
}

TEST_F(SqlTest, ParseErrors) {
  EXPECT_FALSE(Try("SELEC * FROM t;").ok());
  EXPECT_FALSE(Try("SELECT * FORM t;").ok());
  EXPECT_FALSE(Try("CREATE TABLE;").ok());
  EXPECT_FALSE(Try("INSERT INTO t VALUES ('unterminated);").ok());
  EXPECT_FALSE(Try("SELECT * FROM missing_table;").ok());
  EXPECT_FALSE(Try("CREATE TABLE t (a TEXT) extra;").ok());
}

TEST_F(SqlTest, StringEscapes) {
  Must("CREATE TABLE t (a TEXT);");
  Must("INSERT INTO t VALUES ('it''s');");
  QueryResult rows = Must("SELECT * FROM t WHERE a = 'it''s';");
  EXPECT_EQ(rows.rows->num_rows(), 1);
  EXPECT_EQ(rows.rows->row(0)[0], Value::Str("it's"));
}

TEST_F(SqlTest, IntegerLiterals) {
  Must("CREATE TABLE t (n INTEGER, m INTEGER);");
  Must("INSERT INTO t VALUES (42, -7);");
  QueryResult rows = Must("SELECT * FROM t WHERE n = 42;");
  EXPECT_EQ(rows.rows->num_rows(), 1);
  EXPECT_EQ(rows.rows->row(0)[1], Value::Int(-7));
}

TEST_F(SqlTest, IntegerLiteralsAtTheInt64Bounds) {
  Must("CREATE TABLE t (n INTEGER);");
  Must("INSERT INTO t VALUES (9223372036854775807), "
       "(-9223372036854775808);");
  EXPECT_EQ(Must("SELECT * FROM t WHERE n = 9223372036854775807;")
                .rows->row(0)[0],
            Value::Int(INT64_MAX));
  EXPECT_EQ(Must("SELECT * FROM t WHERE n = -9223372036854775808;")
                .rows->row(0)[0],
            Value::Int(INT64_MIN));

  // One past either bound is a ParseError at the literal, in every
  // statement that takes one — never an exception out of the parser.
  const std::string over = "9223372036854775808";
  const std::string under = "-9223372036854775809";
  const std::vector<std::pair<std::string, std::string>> shapes = {
      {"SELECT * FROM t WHERE n = ", ";"},
      {"SELECT * FROM t WHERE n BETWEEN 1 AND ", ";"},
      {"UPDATE t SET n = 1 WHERE n IN (1, ", ");"},
      {"DELETE FROM t WHERE n < ", ";"},
      {"INSERT INTO t VALUES (1), (", ");"}};
  for (const auto& [prefix, suffix] : shapes) {
    for (const std::string& literal : {over, under}) {
      const std::string statement = prefix + literal + suffix;
      WriterScope writer;
      int offset = -2;
      auto result = sql_.Execute(statement, &offset);
      ASSERT_FALSE(result.ok()) << statement;
      EXPECT_EQ(result.status().code(), StatusCode::kParseError)
          << statement;
      EXPECT_EQ(offset, static_cast<int>(prefix.size())) << statement;
    }
  }
  EXPECT_EQ(Must("SELECT * FROM t;").rows->num_rows(), 2);
}

TEST_F(SqlTest, RangePredicates) {
  Must("CREATE TABLE t (n INTEGER, s TEXT);");
  Must("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, NULL), "
       "(NULL, 'e');");

  // Each ordered operator reduces to one code/rank interval; ⊥ cells
  // (row 5's n) never satisfy an ordered comparison.
  EXPECT_EQ(Must("SELECT * FROM t WHERE n < 3;").rows->num_rows(), 2);
  EXPECT_EQ(Must("SELECT * FROM t WHERE n <= 3;").rows->num_rows(), 3);
  EXPECT_EQ(Must("SELECT * FROM t WHERE n > 3;").rows->num_rows(), 1);
  EXPECT_EQ(Must("SELECT * FROM t WHERE n >= 3;").rows->num_rows(), 2);
  EXPECT_EQ(Must("SELECT * FROM t WHERE n BETWEEN 2 AND 3;").rows->num_rows(),
            2);
  // <> and != are the exact marker complement of =, so ⊥ rows count.
  EXPECT_EQ(Must("SELECT * FROM t WHERE n <> 2;").rows->num_rows(), 4);
  EXPECT_EQ(Must("SELECT * FROM t WHERE n != 2;").rows->num_rows(), 4);
  EXPECT_EQ(Must("SELECT * FROM t WHERE s IN ('a', 'c', 'zzz');")
                .rows->num_rows(),
            2);
  // IN with NULL uses marker equality: it picks up the ⊥ cell.
  EXPECT_EQ(Must("SELECT * FROM t WHERE s IN (NULL, 'b');").rows->num_rows(),
            2);
}

TEST_F(SqlTest, WherePrecedenceAndOr) {
  Must("CREATE TABLE t (n INTEGER, s TEXT);");
  Must("INSERT INTO t VALUES (1, 'a'), (2, 'a'), (3, 'b'), (4, 'b');");
  // AND binds tighter than OR: (n<2) OR (n>3 AND s='b') → rows 1, 4.
  QueryResult rows =
      Must("SELECT * FROM t WHERE n < 2 OR n > 3 AND s = 'b';");
  ASSERT_EQ(rows.rows->num_rows(), 2);
  EXPECT_EQ(rows.rows->row(0)[0], Value::Int(1));
  EXPECT_EQ(rows.rows->row(1)[0], Value::Int(4));
  // BETWEEN consumes its own AND; the conjunction continues after it.
  EXPECT_EQ(Must("SELECT * FROM t WHERE n BETWEEN 1 AND 3 AND s = 'a';")
                .rows->num_rows(),
            2);
  // Cross-kind comparison under the Value total order: Int < Str.
  EXPECT_EQ(Must("SELECT * FROM t WHERE n < 'x';").rows->num_rows(), 4);
}

TEST_F(SqlTest, UpdateDeleteWithRangePredicates) {
  Must("CREATE TABLE t (n INTEGER, s TEXT);");
  Must("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd');");
  QueryResult upd = Must("UPDATE t SET s = 'hi' WHERE n BETWEEN 2 AND 3;");
  EXPECT_EQ(upd.affected, 2);
  EXPECT_EQ(Must("SELECT * FROM t WHERE s = 'hi';").rows->num_rows(), 2);
  QueryResult del = Must("DELETE FROM t WHERE n >= 4 OR s = 'a';");
  EXPECT_EQ(del.affected, 2);
  EXPECT_EQ(Must("SELECT * FROM t;").rows->num_rows(), 2);
}

TEST_F(SqlTest, VacuumStatement) {
  Must("CREATE TABLE t (n INTEGER, s TEXT);");
  Must("INSERT INTO t VALUES (1, 'a'), (2, 'b');");
  Must("UPDATE t SET s = 'c' WHERE n = 1;");  // strands 'a'
  QueryResult vac = Must("VACUUM t;");
  EXPECT_EQ(vac.affected, 1);
  EXPECT_NE(vac.message.find("1 dictionary entries reclaimed"),
            std::string::npos);
  // Already canonical: a second pass reclaims nothing.
  EXPECT_EQ(Must("VACUUM t;").affected, 0);
  // Barred while a transaction is open.
  Must("BEGIN;");
  EXPECT_FALSE(Try("VACUUM t;").ok());
  Must("ROLLBACK;");
  EXPECT_EQ(Must("VACUUM t;").affected, 0);
  EXPECT_FALSE(Try("VACUUM missing;").ok());
}

TEST_F(SqlTest, WhereParseErrors) {
  Must("CREATE TABLE t (n INTEGER, s TEXT);");
  Must("INSERT INTO t VALUES (1, 'a');");
  EXPECT_FALSE(Try("SELECT * FROM t WHERE n ! 1;").ok());   // bare !
  EXPECT_FALSE(Try("SELECT * FROM t WHERE n = ;").ok());
  EXPECT_FALSE(Try("SELECT * FROM t WHERE n BETWEEN 1;").ok());
  EXPECT_FALSE(Try("SELECT * FROM t WHERE n BETWEEN 1 2;").ok());
  EXPECT_FALSE(Try("SELECT * FROM t WHERE n IN 1;").ok());   // no parens
  EXPECT_FALSE(Try("SELECT * FROM t WHERE n IN ();").ok());  // ≥ 1 member
  EXPECT_FALSE(Try("SELECT * FROM t WHERE n < 1 OR;").ok());
  EXPECT_FALSE(Try("SELECT * FROM t WHERE missing = 1;").ok());
  EXPECT_FALSE(Try("VACUUM t extra;").ok());
}

}  // namespace
}  // namespace sqlnf
