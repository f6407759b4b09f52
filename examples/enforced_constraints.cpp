// Enforced constraints: the paper's constraint classes as a LIVE
// integrity layer.
//
// Standard SQL can declare NOT NULL and UNIQUE; it cannot declare
// certain keys over nullable columns, nor functional dependencies —
// the DDL generator can only leave "-- requires trigger-based
// enforcement" comments. This example runs the bundled mini SQL engine,
// whose CREATE TABLE accepts CERTAIN KEY / CERTAIN FD / POSSIBLE FD
// clauses and enforces them on every INSERT and UPDATE. Statements run
// through a Session (engine/session.h), the same script entry point
// the HTTP server and the CLI shell use.

#include <cstdio>

#include "sqlnf/engine/session.h"

using namespace sqlnf;

namespace {

void Run(Session* session, const char* statement) {
  std::printf("sql> %s\n", statement);
  const ResultSet rs = session->Execute(statement);
  if (!rs.ok()) {
    std::printf("REJECTED: %s\n\n", rs.status.message().c_str());
    return;
  }
  for (const QueryResult& result : rs.statements) {
    std::printf("%s\n\n", result.ToString().c_str());
  }
}

}  // namespace

int main() {
  Database db;
  SessionRegistry registry(&db);
  Session session(&registry);

  // The running example, with the business rule as a CERTAIN FD: the
  // same item from the same catalog — even a not-yet-known catalog —
  // must have one price.
  Run(&session,
      "CREATE TABLE purchase ("
      "  order_id TEXT NOT NULL,"
      "  item TEXT NOT NULL,"
      "  catalog TEXT,"
      "  price TEXT NOT NULL,"
      "  CERTAIN FD (item, catalog -> price))");

  Run(&session,
      "INSERT INTO purchase VALUES ('5299401', 'Fitbit Surge', "
      "'Amazon', '240')");
  // Weakly similar (catalog unknown) with the same price: accepted.
  Run(&session,
      "INSERT INTO purchase VALUES ('5299401', 'Fitbit Surge', NULL, "
      "'240')");
  // Weakly similar with a DIFFERENT price: the c-FD fires (this is
  // Figure 4's inconsistency, stopped at write time).
  Run(&session,
      "INSERT INTO purchase VALUES ('7485113', 'Fitbit Surge', NULL, "
      "'200')");
  Run(&session,
      "INSERT INTO purchase VALUES ('7485113', 'Dora Doll', 'Kingtoys', "
      "'25')");

  // A half-hearted price change violates the FD; the engine rejects the
  // whole statement (update anomaly prevented)...
  Run(&session,
      "UPDATE purchase SET price = '250' WHERE order_id = '5299401' AND "
      "catalog = 'Amazon'");
  // ...changing every occurrence together is consistent.
  Run(&session, "UPDATE purchase SET price = '250' WHERE item = "
                "'Fitbit Surge'");

  Run(&session, "SELECT * FROM purchase");

  // Certain keys over nullable columns — the constraint Example 1
  // needed and SQL cannot declare.
  Run(&session,
      "CREATE TABLE employee ("
      "  name TEXT NOT NULL,"
      "  dob TEXT,"
      "  appointment TEXT NOT NULL,"
      "  CERTAIN FD (name, dob -> dob))");
  Run(&session,
      "INSERT INTO employee VALUES ('John Smith', '19/05/1969', "
      "'DB Admin')");
  Run(&session,
      "INSERT INTO employee VALUES ('John Smith', '01/04/1971', "
      "'Finance Manager')");
  // A John Smith with unknown dob is not uniquely identifiable: the
  // internal c-FD nd ->w d rejects the row.
  Run(&session,
      "INSERT INTO employee VALUES ('John Smith', NULL, 'Programmer')");
  // A distinct person with unknown dob is fine.
  Run(&session,
      "INSERT INTO employee VALUES ('James Brown', NULL, 'Programmer')");
  Run(&session, "SELECT * FROM employee");
  return 0;
}
