// Cross-table transactions (engine/txn.h): undo-log rollback restores
// every touched table — contents, constraint indexes, dictionaries —
// bit-identically; commits make multi-table writes permanent as one
// unit; rejected statements retire the dictionary codes they minted.
// Ends with the differential mutation-sequence harness: random
// interleavings of INSERT / UPDATE / DELETE, rejected statements, and
// aborted transactions, checked against the row-major reference oracle
// after every single operation.

#include "sqlnf/engine/txn.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference_oracle.h"
#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/relops.h"
#include "sqlnf/engine/session.h"
#include "sqlnf/engine/sql.h"
#include "test_util.h"

namespace sqlnf {
namespace {

using testing::OracleSatisfiesFd;
using testing::OracleSatisfiesKey;
using testing::RandomSchema;
using testing::RandomSigma;
using testing::Rows;
using testing::Schema;
using testing::Sigma;
using testing::WhereEq;

Tuple Row(std::initializer_list<const char*> cells) {
  std::vector<Value> values;
  for (const char* c : cells) {
    values.push_back(c == nullptr ? Value::Null() : Value::Str(c));
  }
  return Tuple(std::move(values));
}

bool SameRows(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows()) return false;
  const AttributeSet all =
      AttributeSet::FullSet(a.schema().num_attributes());
  for (int i = 0; i < a.num_rows(); ++i) {
    if (!testing::OracleEqualOn(a.row(i), b.row(i), all)) return false;
  }
  return true;
}

/// Full pre-state capture of one stored table: a copy-on-write column
/// share plus the order-insensitive index digest.
struct TableState {
  EncodedTable columns;
  uint64_t index_fingerprint;

  explicit TableState(const StoredTable& stored)
      : columns(stored.columns()),
        index_fingerprint(stored.enforcer().IndexFingerprint()) {}

  void ExpectRestored(const StoredTable& stored) const {
    EXPECT_TRUE(stored.columns().BitIdentical(columns));
    EXPECT_EQ(stored.enforcer().IndexFingerprint(), index_fingerprint);
    EXPECT_OK(stored.enforcer().CheckInvariants());
  }
};

TEST(TxnTest, CommitMakesCrossTableWritesPermanent) {
  WriterScope writer;
  // The normalized-schema scenario: one logical fact fans out over two
  // component tables and must land in both or neither.
  Database db;
  TableSchema orders = TableSchema::MakeCompact("orders", "op", "op")
                           .value();
  TableSchema items = TableSchema::MakeCompact("items", "oi", "oi").value();
  ASSERT_OK(db.CreateTable(orders, Sigma(orders, "c<o>")));
  ASSERT_OK(db.CreateTable(items, ConstraintSet()));

  ASSERT_OK(db.Begin());
  EXPECT_TRUE(db.InTransaction());
  ASSERT_OK(db.Insert("orders", Row({"o1", "alice"})));
  ASSERT_OK(db.Insert("items", Row({"o1", "widget"})));
  ASSERT_OK(db.Insert("items", Row({"o1", "gadget"})));
  ASSERT_OK(db.Commit());
  EXPECT_FALSE(db.InTransaction());

  ASSERT_OK_AND_ASSIGN(const StoredTable* o, db.Find("orders"));
  ASSERT_OK_AND_ASSIGN(const StoredTable* i, db.Find("items"));
  EXPECT_EQ(o->num_rows(), 1);
  EXPECT_EQ(i->num_rows(), 2);
  EXPECT_OK(o->enforcer().CheckInvariants());
  EXPECT_OK(i->enforcer().CheckInvariants());
}

TEST(TxnTest, RollbackRestoresEveryTableBitIdentical) {
  WriterScope writer;
  Database db;
  TableSchema s1 = TableSchema::MakeCompact("t1", "abc", "a").value();
  TableSchema s2 = TableSchema::MakeCompact("t2", "xy", "x").value();
  ASSERT_OK(db.CreateTable(s1, Sigma(s1, "a ->w b")));
  ASSERT_OK(db.CreateTable(s2, Sigma(s2, "c<x>")));
  ASSERT_OK(db.Insert("t1", Row({"1", "p", "u"})));
  ASSERT_OK(db.Insert("t1", Row({"2", "q", nullptr})));
  ASSERT_OK(db.Insert("t1", Row({"3", "r", "w"})));
  ASSERT_OK(db.Insert("t2", Row({"k1", "v1"})));
  ASSERT_OK(db.Insert("t2", Row({"k2", nullptr})));

  ASSERT_OK_AND_ASSIGN(const StoredTable* t1, db.Find("t1"));
  ASSERT_OK_AND_ASSIGN(const StoredTable* t2, db.Find("t2"));
  const TableState before1(*t1);
  const TableState before2(*t2);

  // A transaction that inserts (minting fresh dictionary codes),
  // updates, and deletes across both tables — then aborts.
  ASSERT_OK(db.Begin());
  ASSERT_OK(db.Insert("t1", Row({"4", "s", "new-value"})));
  ASSERT_OK_AND_ASSIGN(
      int changed,
      db.Update("t1", WhereEq(0, Value::Str("1")), 2, Value::Str("fresh")));
  EXPECT_EQ(changed, 1);
  ASSERT_OK_AND_ASSIGN(int removed,
                       db.Delete("t1", WhereEq(0, Value::Str("2"))));
  EXPECT_EQ(removed, 1);
  ASSERT_OK(db.Insert("t2", Row({"k3", "v3"})));
  ASSERT_OK_AND_ASSIGN(removed, db.Delete("t2", WhereEq(0, Value::Str("k1"))));
  EXPECT_EQ(removed, 1);
  ASSERT_OK(db.Rollback());

  before1.ExpectRestored(*t1);
  before2.ExpectRestored(*t2);
}

// Satellite regression: a rejected UPDATE used to leak the dictionary
// entry it minted for the new value ("dead codes"). The statement
// rollback now trims the dictionaries back to their pre-statement
// high-water marks, so the table is bit-identical — dictionaries
// included — after the rejection.
TEST(TxnTest, RejectedUpdateRetiresMintedDictionaryCodes) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("abc", "abc");
  ASSERT_OK(db.CreateTable(schema, Sigma(schema, "a ->w b")));
  ASSERT_OK(db.Insert("T", Row({"1", "x", "p"})));
  ASSERT_OK(db.Insert("T", Row({"1", "x", "q"})));

  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
  const TableState before(*stored);
  const int dict_before = stored->columns().dictionary_size(1);

  // Updating b on only one of the two a=1 rows breaks a ->w b. The new
  // value "never-seen" is minted during the write, then must be retired.
  auto rejected =
      db.Update("T", WhereEq(2, Value::Str("p")), 1, Value::Str("never-seen"));
  ASSERT_FALSE(rejected.ok());

  EXPECT_EQ(stored->columns().dictionary_size(1), dict_before);
  EXPECT_EQ(stored->columns().LookupCode(1, Value::Str("never-seen")),
            EncodedTable::kMissingCode);
  before.ExpectRestored(*stored);
}

// UPDATE checks each post-image against the unchanged rows AND the
// post-images re-added before it. Here the only conflict is between
// two post-images: each row is fine against the pre-state, so a check
// of post-images against the old rows alone would accept the
// statement.
TEST(TxnTest, UpdateRejectsConflictBetweenItsOwnPostImages) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("ab", "ab");
  ASSERT_OK(db.CreateTable(schema, Sigma(schema, "c<a>")));
  ASSERT_OK(db.Insert("T", Row({"1", "x"})));
  ASSERT_OK(db.Insert("T", Row({"2", "y"})));
  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
  const TableState before(*stored);

  const Result<int> rejected =
      db.Update("T", Predicate::True(), 0, Value::Str("3"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().message(),
            "UPDATE rejected: rows 0 and 1 violate c<{a}>");
  before.ExpectRestored(*stored);
}

// The same post-image-vs-post-image conflict under a possible FD, on
// a schema without NOT NULL columns: strong similarity needs both
// post-images total on the LHS, which the fresh value makes them.
TEST(TxnTest, UpdateRejectsPossibleFdConflictBetweenItsOwnPostImages) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("ab");
  ASSERT_OK(db.CreateTable(schema, Sigma(schema, "a ->s b")));
  ASSERT_OK(db.Insert("T", Row({"1", "x"})));
  ASSERT_OK(db.Insert("T", Row({nullptr, "y"})));
  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
  const TableState before(*stored);

  const Result<int> rejected =
      db.Update("T", Predicate::True(), 0, Value::Str("3"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().message(),
            "UPDATE rejected: rows 0 and 1 violate {a} ->s {b}");
  before.ExpectRestored(*stored);

  // A ⊥ LHS is never strongly similar, so setting a to ⊥ everywhere
  // is accepted (only row 0 changes).
  ASSERT_OK_AND_ASSIGN(
      const int changed, db.Update("T", Predicate::True(), 0, Value::Null()));
  EXPECT_EQ(changed, 1);
  EXPECT_OK(stored->enforcer().CheckInvariants());
}

TEST(TxnTest, RejectedStatementInsideTransactionRollsBackOnlyItself) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("ab", "ab");
  ASSERT_OK(db.CreateTable(schema, Sigma(schema, "c<a>")));
  ASSERT_OK(db.Insert("T", Row({"1", "x"})));

  ASSERT_OK(db.Begin());
  ASSERT_OK(db.Insert("T", Row({"2", "y"})));
  // Key collision with the committed row: statement rejected, the
  // transaction stays open with the prior insert intact.
  EXPECT_FALSE(db.Insert("T", Row({"1", "z"})).ok());
  EXPECT_TRUE(db.InTransaction());
  auto bad_update =
      db.Update("T", WhereEq(0, Value::Str("2")), 0, Value::Str("1"));
  EXPECT_FALSE(bad_update.ok());
  ASSERT_OK(db.Commit());

  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
  EXPECT_EQ(stored->num_rows(), 2);
  EXPECT_EQ(stored->DecodeRow(1)[0], Value::Str("2"));
  EXPECT_OK(stored->enforcer().CheckInvariants());
}

TEST(TxnTest, TransactionGuardRollsBackOnScopeExit) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("ab", "a");
  ASSERT_OK(db.CreateTable(schema, ConstraintSet()));
  ASSERT_OK(db.Insert("T", Row({"1", "x"})));
  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
  const TableState before(*stored);

  {
    TransactionGuard txn(&db);
    ASSERT_OK(txn.begin_status());
    ASSERT_OK(db.Insert("T", Row({"2", "y"})));
    EXPECT_EQ(stored->num_rows(), 2);
    // No Commit(): the guard aborts on scope exit.
  }
  EXPECT_FALSE(db.InTransaction());
  before.ExpectRestored(*stored);

  {
    TransactionGuard txn(&db);
    ASSERT_OK(txn.begin_status());
    ASSERT_OK(db.Insert("T", Row({"2", "y"})));
    ASSERT_OK(txn.Commit());
  }
  EXPECT_EQ(stored->num_rows(), 2);
}

TEST(TxnTest, NoNestingAndDdlBarred) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("ab", "a");
  ASSERT_OK(db.CreateTable(schema, ConstraintSet()));
  EXPECT_FALSE(db.Commit().ok());    // no transaction open
  EXPECT_FALSE(db.Rollback().ok());  // no transaction open
  ASSERT_OK(db.Begin());
  EXPECT_FALSE(db.Begin().ok());  // transactions do not nest
  TableSchema other = TableSchema::MakeCompact("U", "a", "").value();
  EXPECT_FALSE(db.CreateTable(other, ConstraintSet()).ok());
  EXPECT_FALSE(db.DropTable("T").ok());
  EXPECT_FALSE(db.IngestTable(Rows(schema, {"01"}), ConstraintSet()).ok());
  ASSERT_OK(db.Rollback());
  // A failed TransactionGuard (nested begin) must not roll back the
  // outer transaction on destruction.
  ASSERT_OK(db.Begin());
  ASSERT_OK(db.Insert("T", Row({"1", "x"})));
  { TransactionGuard nested(&db); EXPECT_FALSE(nested.begin_status().ok()); }
  EXPECT_TRUE(db.InTransaction());
  ASSERT_OK(db.Commit());
  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
  EXPECT_EQ(stored->num_rows(), 1);
}

TEST(TxnTest, SqlBeginCommitRollbackVerbs) {
  WriterScope writer;
  Database db;
  SessionRegistry registry(&db);
  Session scripts(&registry);
  const ResultSet rolled_back =
      scripts.Execute("CREATE TABLE t (a TEXT NOT NULL, b TEXT);"
                      "BEGIN TRANSACTION;"
                      "INSERT INTO t VALUES ('1', 'x'), ('2', 'y');"
                      "ROLLBACK;");
  ASSERT_OK(rolled_back.status);
  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("t"));
  EXPECT_EQ(stored->num_rows(), 0);

  const ResultSet committed =
      scripts.Execute("BEGIN;"
                      "INSERT INTO t VALUES ('1', 'x');"
                      "UPDATE t SET b = 'z' WHERE a = '1';"
                      "COMMIT;");
  ASSERT_OK(committed.status);
  EXPECT_EQ(stored->num_rows(), 1);
  EXPECT_EQ(stored->DecodeRow(0)[1], Value::Str("z"));

  // Statement at a time: the transaction stays open between calls.
  SqlSession session(&db);
  EXPECT_FALSE(session.Execute("COMMIT;").ok());  // nothing open
  ASSERT_OK(session.Execute("BEGIN WORK;").status());
  EXPECT_FALSE(session.Execute("DROP TABLE t;").ok());  // DDL barred
  ASSERT_OK(session.Execute("COMMIT;").status());
}

// ------------------------------------------------------------------
// The differential mutation-sequence harness (tentpole satellite):
// random interleavings of INSERT / UPDATE / DELETE — including
// rejected statements and aborted transactions — executed against the
// engine AND simulated on a row-major reference table with the
// literal-transcription oracle deciding accept/reject. After every
// operation the engine's materialized state must equal the reference
// exactly, and CheckInvariants() must hold; after every rollback the
// restored state must be bit-identical to the pre-Begin capture.

struct Reference {
  TableSchema schema;
  ConstraintSet sigma;
  Table table;

  bool SatisfiesSigma(const Table& t) const {
    for (const auto& fd : sigma.fds()) {
      if (!OracleSatisfiesFd(t, fd)) return false;
    }
    for (const auto& key : sigma.keys()) {
      if (!OracleSatisfiesKey(t, key)) return false;
    }
    return true;
  }

  bool ApplyInsert(const Tuple& row) {
    if (ValidateRowAgainst(table, row, sigma).has_value()) return false;
    EXPECT_OK(table.AddRow(row));
    return true;
  }

  // The specification Database::Update must meet: matched on marker
  // equality, changed where the cell differs, accepted iff the whole
  // post-image instance satisfies the NFS and Σ. The engine decides
  // the same thing one changed row at a time.
  bool ApplyUpdate(const Predicate& where, AttributeId col,
                   const Value& value) {
    std::vector<int> changed;
    for (int i = 0; i < table.num_rows(); ++i) {
      if (MatchesPredicate(table.row(i), where) &&
          !(table.row(i)[col] == value)) {
        changed.push_back(i);
      }
    }
    if (changed.empty()) return true;  // no-op statement, accepted
    if (value.is_null() && schema.nfs().Contains(col)) return false;
    Table candidate(schema);
    size_t next = 0;
    for (int i = 0; i < table.num_rows(); ++i) {
      Tuple t = table.row(i);
      if (next < changed.size() && changed[next] == i) {
        t[col] = value;
        ++next;
      }
      EXPECT_OK(candidate.AddRow(std::move(t)));
    }
    if (!SatisfiesSigma(candidate)) return false;
    table = std::move(candidate);
    return true;
  }

  void ApplyDelete(const Predicate& where) {
    Table survivors(schema);
    for (int i = 0; i < table.num_rows(); ++i) {
      if (!MatchesPredicate(table.row(i), where)) {
        EXPECT_OK(survivors.AddRow(table.row(i)));
      }
    }
    table = std::move(survivors);
  }
};

TEST(TxnTest, DifferentialMutationSequences) {
  WriterScope writer;
  Rng rng(20260808);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 2 + static_cast<int>(rng.Uniform(0, 2));
    const TableSchema schema = RandomSchema(&rng, n);
    const ConstraintSet sigma = RandomSigma(&rng, n, 1, 1);
    Reference ref{schema, sigma, Table(schema)};
    Database db;
    ASSERT_OK(db.CreateTable(ref.schema, ref.sigma));
    ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));

    auto random_value = [&]() {
      return rng.Chance(0.2) ? Value::Null()
                             : Value::Int(rng.Uniform(0, 2));
    };
    auto random_where = [&]() {
      Conjunction conj;
      const int k = static_cast<int>(rng.Uniform(0, 1));
      for (int j = 0; j <= k; ++j) {
        const AttributeId col = static_cast<AttributeId>(rng.Index(n));
        conj.push_back(Cmp(col, CompareOp::kEq, random_value()));
      }
      return Predicate::And(std::move(conj));
    };

    bool in_txn = false;
    std::optional<Table> txn_backup;          // reference at Begin
    std::optional<TableState> txn_capture;    // engine at Begin

    for (int step = 0; step < 120; ++step) {
      const double roll = rng.NextDouble();
      if (!in_txn && roll < 0.12) {
        ASSERT_OK(db.Begin());
        in_txn = true;
        txn_backup = ref.table;
        txn_capture.emplace(*stored);
      } else if (in_txn && roll < 0.18) {
        if (rng.Chance(0.5)) {
          ASSERT_OK(db.Commit());
        } else {
          ASSERT_OK(db.Rollback());
          ref.table = std::move(*txn_backup);
          txn_capture->ExpectRestored(*stored);
        }
        in_txn = false;
        txn_backup.reset();
        txn_capture.reset();
      } else if (roll < 0.6) {
        std::vector<Value> values;
        for (int c = 0; c < n; ++c) values.push_back(random_value());
        const Tuple row{values};
        const bool engine_ok = db.Insert("T", row).ok();
        const bool oracle_ok = ref.ApplyInsert(row);
        ASSERT_EQ(engine_ok, oracle_ok)
            << "trial=" << trial << " step=" << step << " INSERT";
      } else if (roll < 0.82) {
        const Predicate where = random_where();
        const AttributeId col = static_cast<AttributeId>(rng.Index(n));
        const Value value = random_value();
        const bool engine_ok = db.Update("T", where, col, value).ok();
        const bool oracle_ok = ref.ApplyUpdate(where, col, value);
        ASSERT_EQ(engine_ok, oracle_ok)
            << "trial=" << trial << " step=" << step << " UPDATE";
      } else {
        const Predicate where = random_where();
        ASSERT_OK(db.Delete("T", where).status());
        ref.ApplyDelete(where);
      }
      ASSERT_OK(stored->enforcer().CheckInvariants())
          << "trial=" << trial << " step=" << step;
      ASSERT_TRUE(SameRows(stored->Materialize(), ref.table))
          << "trial=" << trial << " step=" << step << "\nengine:\n"
          << stored->Materialize().ToString() << "\nreference:\n"
          << ref.table.ToString();
    }
    if (in_txn) {
      ASSERT_OK(db.Rollback());
      ref.table = std::move(*txn_backup);
      txn_capture->ExpectRestored(*stored);
      ASSERT_TRUE(SameRows(stored->Materialize(), ref.table));
    }
  }
}

TEST(TxnTest, VacuumBarredMidTransaction) {
  WriterScope writer;
  // The undo log records pre-compaction codes and dictionary high-water
  // marks; letting compaction renumber codes underneath it would make
  // rollback restore garbage. So VACUUM refuses while a transaction is
  // open — through the API and through SQL alike.
  const TableSchema schema = Schema("ab");
  Database db;
  ASSERT_OK(db.IngestTable(Rows(schema, {"1x", "2y"}), ConstraintSet()));
  ASSERT_OK(db.Update("T", WhereEq(0, Value::Str("1")), 0, Value::Str("3"))
                .status());

  ASSERT_OK(db.Begin());
  const Result<int> barred = db.CompactTable("T");
  ASSERT_FALSE(barred.ok());
  EXPECT_EQ(barred.status().code(), StatusCode::kFailedPrecondition);

  SqlSession sql(&db);
  const auto sql_barred = sql.Execute("VACUUM T;");
  ASSERT_FALSE(sql_barred.ok());
  EXPECT_EQ(sql_barred.status().code(), StatusCode::kFailedPrecondition);

  // The refusal must not have disturbed the open transaction.
  ASSERT_OK(db.Insert("T", Tuple({Value::Str("4"), Value::Str("z")})));
  ASSERT_OK(db.Commit());

  // Outside a transaction the same call reclaims the dead "1".
  ASSERT_OK_AND_ASSIGN(const int retired, db.CompactTable("T"));
  EXPECT_GE(retired, 1);
  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
  ASSERT_OK(stored->enforcer().CheckInvariants());
  EXPECT_EQ(stored->num_rows(), 3);

  // Rollback across a post-compaction statement restores the canonical
  // encoding bit-identically — the high-water marks were taken AFTER
  // the renumbering, so they are consistent with it.
  const TableState before(*stored);
  ASSERT_OK(db.Begin());
  ASSERT_OK(db.Insert("T", Tuple({Value::Str("5"), Value::Str("w")})));
  ASSERT_OK(db.Rollback());
  before.ExpectRestored(*stored);
}

TEST(TxnTest, CompactionCanonicalizesFingerprintsAcrossHistories) {
  WriterScope writer;
  // Two databases under the same constraints arrive at the same decoded
  // contents through different UPDATE/DELETE histories. Their encodings
  // (and so their code-keyed constraint indexes) differ — until
  // compaction canonicalizes both, after which columns are bit-identical
  // and the index fingerprints agree.
  const TableSchema schema = Schema("abc");
  const ConstraintSet sigma = Sigma(schema, "c<a>");

  Database straight;
  ASSERT_OK(straight.IngestTable(
      Rows(schema, {"1xp", "2yq", "3zr"}), sigma));

  Database detour;
  ASSERT_OK(detour.IngestTable(
      Rows(schema, {"7mp", "2yq", "8nn", "3zs"}), sigma));
  ASSERT_OK(
      detour.Update("T", WhereEq(0, Value::Str("7")), 0, Value::Str("1"))
          .status());
  ASSERT_OK(
      detour.Update("T", WhereEq(0, Value::Str("1")), 1, Value::Str("x"))
          .status());
  ASSERT_OK(detour.Delete("T", WhereEq(0, Value::Str("8"))).status());
  ASSERT_OK(
      detour.Update("T", WhereEq(0, Value::Str("3")), 2, Value::Str("r"))
          .status());

  ASSERT_OK_AND_ASSIGN(const StoredTable* a, straight.Find("T"));
  ASSERT_OK_AND_ASSIGN(const StoredTable* b, detour.Find("T"));
  ASSERT_TRUE(SameRows(a->Materialize(), b->Materialize()));
  ASSERT_FALSE(a->columns().BitIdentical(b->columns()));

  ASSERT_OK(straight.CompactTable("T").status());
  ASSERT_OK(detour.CompactTable("T").status());

  EXPECT_TRUE(a->columns().BitIdentical(b->columns()));
  EXPECT_EQ(a->enforcer().IndexFingerprint(),
            b->enforcer().IndexFingerprint());
  ASSERT_OK(a->enforcer().CheckInvariants());
  ASSERT_OK(b->enforcer().CheckInvariants());

  // Constraints still bite on the compacted encoding: the certain key
  // on `a` rejects a duplicate.
  ASSERT_FALSE(
      detour.Insert("T", Tuple({Value::Str("1"), Value::Str("q"),
                                Value::Str("q")}))
          .ok());
}

}  // namespace
}  // namespace sqlnf
