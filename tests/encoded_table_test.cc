// Unit tests for the shared columnar representation
// (core/encoded_table.h): encoding invariants, incremental maintenance
// (AppendRow / UpdateCell / EraseRows), dictionary probing, and the
// code-bijection equivalence used by the enforcer consistency tests.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sqlnf/core/encoded_table.h"
#include "sqlnf/util/rng.h"
#include "test_util.h"

namespace sqlnf {
namespace {

using testing::EncodingBits;
using testing::Rows;
using testing::Schema;

TEST(EncodedTableTest, CodesAreFirstOccurrenceDense) {
  const TableSchema schema = Schema("ab");
  const Table table = Rows(schema, {"1x", "2x", "1y", "_x"});
  const EncodedTable enc(table);
  ASSERT_EQ(enc.num_rows(), 4);
  ASSERT_EQ(enc.num_columns(), 2);
  // Column a: "1"→0, "2"→1, "1"→0, ⊥.
  EXPECT_EQ(enc.code(0, 0), 0u);
  EXPECT_EQ(enc.code(0, 1), 1u);
  EXPECT_EQ(enc.code(0, 2), 0u);
  EXPECT_EQ(enc.code(0, 3), EncodedTable::kNullCode);
  // Column b: "x"→0, "y"→1.
  EXPECT_EQ(enc.code(1, 0), 0u);
  EXPECT_EQ(enc.code(1, 2), 1u);
  EXPECT_EQ(enc.dictionary_size(0), 2);
  EXPECT_EQ(enc.dictionary_size(1), 2);
}

TEST(EncodedTableTest, SimilarityPredicatesOnCodes) {
  const uint32_t kNull = EncodedTable::kNullCode;
  EXPECT_TRUE(CodesEqual(3, 3));
  EXPECT_FALSE(CodesEqual(3, 4));
  EXPECT_TRUE(CodesEqual(kNull, kNull));  // syntactic: ⊥ = ⊥
  EXPECT_TRUE(CodesStronglySimilar(3, 3));
  EXPECT_FALSE(CodesStronglySimilar(kNull, kNull));
  EXPECT_TRUE(CodesWeaklySimilar(3, 3));
  EXPECT_TRUE(CodesWeaklySimilar(kNull, 7));
  EXPECT_TRUE(CodesWeaklySimilar(7, kNull));
  EXPECT_FALSE(CodesWeaklySimilar(3, 4));
}

TEST(EncodedTableTest, PartialEncodingCoversOnlyRequestedColumns) {
  const TableSchema schema = Schema("abc");
  const Table table = Rows(schema, {"1x9", "2y8"});
  const AttributeSet cols = testing::Attrs(schema, "ac");
  const EncodedTable enc(table, cols);
  EXPECT_TRUE(enc.encoded_columns().Contains(0));
  EXPECT_FALSE(enc.encoded_columns().Contains(1));
  EXPECT_TRUE(enc.encoded_columns().Contains(2));
  EXPECT_EQ(enc.code(0, 1), 1u);
  EXPECT_EQ(enc.code(2, 1), 1u);
}

TEST(EncodedTableTest, LookupCodeProbesWithoutMutating) {
  const TableSchema schema = Schema("a");
  const Table table = Rows(schema, {"1", "2"});
  const EncodedTable enc(table);
  EXPECT_EQ(enc.LookupCode(0, Value::Str("1")), 0u);
  EXPECT_EQ(enc.LookupCode(0, Value::Str("2")), 1u);
  EXPECT_EQ(enc.LookupCode(0, Value::Null()), EncodedTable::kNullCode);
  // A never-seen value maps to the reserved miss code...
  EXPECT_EQ(enc.LookupCode(0, Value::Str("3")), EncodedTable::kMissingCode);
  // ...and the dictionary did not grow.
  EXPECT_EQ(enc.dictionary_size(0), 2);
  // The miss code equals no stored code, is non-null, and is weakly
  // similar only through ⊥ — mirroring the value semantics.
  EXPECT_FALSE(CodesStronglySimilar(EncodedTable::kMissingCode,
                                    EncodedTable::kNullCode));
  EXPECT_TRUE(CodesWeaklySimilar(EncodedTable::kMissingCode,
                                 EncodedTable::kNullCode));
  EXPECT_FALSE(CodesWeaklySimilar(EncodedTable::kMissingCode, 0));
}

TEST(EncodedTableTest, AppendRowGrowsDictionaries) {
  const TableSchema schema = Schema("ab");
  EncodedTable enc(schema.num_attributes());
  EXPECT_EQ(enc.num_rows(), 0);
  enc.AppendRow(Tuple({Value::Int(1), Value::Null()}));
  enc.AppendRow(Tuple({Value::Int(2), Value::Int(7)}));
  enc.AppendRow(Tuple({Value::Int(1), Value::Int(7)}));
  EXPECT_EQ(enc.num_rows(), 3);
  EXPECT_EQ(enc.code(0, 2), 0u);
  EXPECT_EQ(enc.code(1, 0), EncodedTable::kNullCode);
  EXPECT_EQ(enc.code(1, 2), enc.code(1, 1));
  EXPECT_EQ(enc.dictionary_size(0), 2);
  EXPECT_EQ(enc.dictionary_size(1), 1);
}

TEST(EncodedTableTest, UpdateCellAndNullFreeColumns) {
  const TableSchema schema = Schema("ab");
  const Table table = Rows(schema, {"1x", "2_"});
  EncodedTable enc(table);
  EXPECT_TRUE(enc.NullFreeColumns().Contains(0));
  EXPECT_FALSE(enc.NullFreeColumns().Contains(1));
  // Filling the ⊥ makes the column instance-null-free again.
  enc.UpdateCell(1, 1, Value::Str("y"));
  EXPECT_TRUE(enc.NullFreeColumns().Contains(1));
  EXPECT_EQ(enc.DecodeCode(1, enc.code(1, 1)), Value::Str("y"));
  // And nulling a cell removes it.
  enc.UpdateCell(0, 0, Value::Null());
  EXPECT_FALSE(enc.NullFreeColumns().Contains(0));
}

TEST(EncodedTableTest, EraseRowsCompactsAndKeepsNullCounts) {
  const TableSchema schema = Schema("ab");
  const Table table = Rows(schema, {"1x", "2_", "3y", "4_", "5z"});
  EncodedTable enc(table);
  enc.EraseRows({1, 3});  // drop both ⊥ rows
  ASSERT_EQ(enc.num_rows(), 3);
  EXPECT_EQ(enc.DecodeCode(0, enc.code(0, 0)), Value::Str("1"));
  EXPECT_EQ(enc.DecodeCode(0, enc.code(0, 1)), Value::Str("3"));
  EXPECT_EQ(enc.DecodeCode(0, enc.code(0, 2)), Value::Str("5"));
  EXPECT_TRUE(enc.NullFreeColumns().Contains(1));
}

TEST(EncodedTableTest, EquivalentToIsCodeBijectionNotIdentity) {
  const TableSchema schema = Schema("ab");
  // Same rows, different insertion order → different code assignment.
  const Table t1 = Rows(schema, {"1x", "2y", "_z"});
  const Table t2 = Rows(schema, {"2y", "1x", "_z"});
  const EncodedTable e1(t1);
  // Seed e2's dictionaries with t2's order, then rebuild t1's rows:
  // the same cells end up under DIFFERENT codes.
  EncodedTable e2(t2);
  e2.EraseRows({0, 1, 2});
  for (int r = 0; r < t1.num_rows(); ++r) e2.AppendRow(t1.row(r));
  EXPECT_NE(e1.code(0, 0), e2.code(0, 0));  // codes differ...
  EXPECT_TRUE(e1.EquivalentTo(e2));         // ...values must not

  // A different value in any cell breaks equivalence.
  e2.UpdateCell(2, 0, Value::Str("9"));
  EXPECT_FALSE(e1.EquivalentTo(e2));
  // So does a ⊥ mismatch.
  EncodedTable e3(t1);
  e3.UpdateCell(0, 1, Value::Null());
  EXPECT_FALSE(e1.EquivalentTo(e3));
}

TEST(EncodedTableTest, RandomizedMaintenanceMatchesReEncode) {
  Rng rng(99);
  const TableSchema schema = Schema("abc");
  for (int iter = 0; iter < 20; ++iter) {
    Table table(schema);
    EncodedTable enc(schema.num_attributes());
    for (int step = 0; step < 60; ++step) {
      const double roll = rng.NextDouble();
      if (roll < 0.5 || table.num_rows() == 0) {
        std::vector<Value> values;
        for (int a = 0; a < 3; ++a) {
          values.push_back(rng.Chance(0.2)
                               ? Value::Null()
                               : Value::Int(rng.Uniform(0, 4)));
        }
        Tuple row(std::move(values));
        ASSERT_TRUE(table.AddRow(row).ok());
        enc.AppendRow(row);
      } else if (roll < 0.8) {
        const int r = static_cast<int>(rng.Index(table.num_rows()));
        const AttributeId a = static_cast<AttributeId>(rng.Index(3));
        const Value v = rng.Chance(0.2) ? Value::Null()
                                        : Value::Int(rng.Uniform(0, 4));
        (*table.mutable_row(r))[a] = v;
        enc.UpdateCell(r, a, v);
      } else {
        const int r = static_cast<int>(rng.Index(table.num_rows()));
        Table next(schema);
        for (int i = 0; i < table.num_rows(); ++i) {
          if (i != r) {
            ASSERT_TRUE(next.AddRow(table.row(i)).ok());
          }
        }
        table = std::move(next);
        enc.EraseRows({r});
      }
      ASSERT_TRUE(enc.EquivalentTo(EncodedTable(table)))
          << "iter=" << iter << " step=" << step;
    }
  }
}

TEST(EncodedTableTest, DistinctRowsFirstOccurrence) {
  // The CSR-indexed DistinctRows must return ascending first-occurrence
  // ids — the contract behind set projection. Random tables with heavy
  // duplication and ⊥.
  Rng rng(321);
  for (int iter = 0; iter < 30; ++iter) {
    const int cols = static_cast<int>(rng.Uniform(1, 4));
    const TableSchema schema = testing::RandomSchema(&rng, cols);
    const Table table = testing::RandomInstance(
        &rng, schema, static_cast<int>(rng.Uniform(0, 80)), /*domain=*/2,
        0.3);
    const EncodedTable enc(table);

    // Reference: quadratic first-occurrence scan on codes.
    std::vector<int> expected;
    for (int i = 0; i < enc.num_rows(); ++i) {
      bool first = true;
      for (int j = 0; j < i && first; ++j) {
        bool same = true;
        for (AttributeId a = 0; a < cols; ++a) {
          if (enc.code(a, i) != enc.code(a, j)) {
            same = false;
            break;
          }
        }
        if (same) first = false;
      }
      if (first) expected.push_back(i);
    }

    EXPECT_EQ(enc.DistinctRows(), expected) << "iter=" << iter;
  }
}

TEST(EncodedTableTest, AllocateTargetThenFillMatchesGather) {
  // Writing codes through mutable_codes + RecountNulls must agree with
  // the allocation-per-call GatherRows path.
  const TableSchema schema = testing::Schema("abc");
  const Table table = testing::Rows(
      schema, {"1x_", "2y_", "1xz", "2_z", "1xz"});
  const EncodedTable enc(table);
  const std::vector<int> rows = {4, 0, 2, 2};

  std::vector<std::pair<const EncodedTable*, AttributeId>> sources;
  for (AttributeId a = 0; a < 3; ++a) sources.emplace_back(&enc, a);
  EncodedTable out = EncodedTable::AllocateTarget(
      sources, static_cast<int>(rows.size()));
  for (AttributeId a = 0; a < 3; ++a) {
    uint32_t* dst = out.mutable_codes(a);
    for (size_t i = 0; i < rows.size(); ++i) dst[i] = enc.code(a, rows[i]);
  }
  out.RecountNulls();

  const EncodedTable gathered = enc.GatherRows(rows);
  ASSERT_TRUE(out.EquivalentTo(gathered));
  EXPECT_EQ(out.NullFreeColumns(), gathered.NullFreeColumns());
}

// GatherRows and AllocateTarget share their source's dictionaries
// copy-on-write. Each decodes exactly like the rows it took, and a
// dictionary mutation on either side — minting through AppendRow or
// UpdateCell, TrimDictionaries, CompactDictionaries — leaves the other
// side, an earlier snapshot copy and an earlier copy of the mutated
// side exactly as they were.
TEST(EncodedTableTest, SharedDictionariesSurviveMutationOfEitherSide) {
  const TableSchema schema = Schema("abc");
  const Table table = Rows(schema, {"1xp", "2yq", "3z_", "1yp", "4xq"});
  const std::vector<int> rows = {4, 0, 0, 2};
  for (int mutation = 0; mutation < 4; ++mutation) {
    for (const bool mutate_source : {true, false}) {
      const std::string what = "mutation " + std::to_string(mutation) +
                               (mutate_source ? " on source" : " on gather");
      EncodedTable source(table);
      const EncodedTable snapshot = source;
      EncodedTable gathered = source.GatherRows(rows);
      std::vector<std::pair<const EncodedTable*, AttributeId>> sources;
      for (AttributeId a = 0; a < 3; ++a) sources.emplace_back(&source, a);
      EncodedTable target = EncodedTable::AllocateTarget(
          sources, static_cast<int>(rows.size()));
      for (AttributeId a = 0; a < 3; ++a) {
        uint32_t* dst = target.mutable_codes(a);
        for (size_t i = 0; i < rows.size(); ++i) {
          dst[i] = source.code(a, rows[i]);
        }
      }
      target.RecountNulls();
      for (size_t i = 0; i < rows.size(); ++i) {
        for (AttributeId a = 0; a < 3; ++a) {
          const Value& want = table.row(rows[i])[a];
          EXPECT_EQ(gathered.DecodeCode(a, gathered.code(a, i)), want) << what;
          EXPECT_EQ(target.DecodeCode(a, target.code(a, i)), want) << what;
        }
      }
      ASSERT_TRUE(gathered.BitIdentical(target)) << what;

      EncodedTable& victim = mutate_source ? source : gathered;
      const EncodedTable earlier = victim;
      const EncodingBits source_bits(source), snapshot_bits(snapshot),
          gathered_bits(gathered), target_bits(target),
          earlier_bits(earlier);
      switch (mutation) {
        case 0:  // mints in every column
          victim.AppendRow(Tuple({Value::Str("9"), Value::Str("w"),
                                  Value::Str("r")}));
          break;
        case 1:  // mints in one column
          victim.UpdateCell(1, 1, Value::Str("minted"));
          break;
        case 2: {  // mint, then trim back to the marks under a copy
          const std::vector<int> marks = victim.DictionarySizes();
          victim.AppendRow(Tuple({Value::Str("9"), Value::Str("w"),
                                  Value::Null()}));
          const EncodedTable minted = victim;
          const EncodingBits minted_bits(minted);
          victim.EraseRows({victim.num_rows() - 1});
          victim.TrimDictionaries(marks);
          EXPECT_TRUE(EncodingBits(victim) == earlier_bits) << what;
          EXPECT_TRUE(EncodingBits(minted) == minted_bits) << what;
          break;
        }
        default:  // a dead code to reclaim, then compact
          victim.UpdateCell(1, 0, Value::Str("1"));
          victim.CompactDictionaries();
          break;
      }
      ASSERT_OK(victim.CheckDictionaryOrder()) << what;
      EXPECT_TRUE(EncodingBits(snapshot) == snapshot_bits) << what;
      EXPECT_TRUE(EncodingBits(target) == target_bits) << what;
      EXPECT_TRUE(EncodingBits(earlier) == earlier_bits) << what;
      if (mutate_source) {
        EXPECT_TRUE(EncodingBits(gathered) == gathered_bits) << what;
      } else {
        EXPECT_TRUE(EncodingBits(source) == source_bits) << what;
      }
      EXPECT_TRUE(snapshot.BitIdentical(EncodedTable(table))) << what;
    }
  }
}

TEST(EncodedTableTest, CompactionReclaimsDeadCodesAfterUpdates) {
  // An update-heavy workload strands dictionary entries: every
  // overwritten value keeps its code but no row references it.
  const TableSchema schema = Schema("ab");
  const Table table = Rows(schema, {"1x", "2y", "3z"});
  EncodedTable enc(table);
  enc.UpdateCell(0, 0, Value::Str("9"));  // "1" now dead
  enc.UpdateCell(1, 0, Value::Str("9"));  // "2" now dead
  enc.UpdateCell(2, 1, Value::Str("w"));  // "z" now dead
  enc.EraseRows({1});                     // "y" now dead too
  ASSERT_EQ(enc.dictionary_size(0), 4);   // 1 2 3 9
  ASSERT_EQ(enc.dictionary_size(1), 4);   // x y z w

  const Table before = enc.Decode(schema);
  const std::vector<int> retired = enc.CompactDictionaries();
  EXPECT_EQ(retired, (std::vector<int>{2, 2}));
  EXPECT_EQ(enc.dictionary_size(0), 2);  // 3 9
  EXPECT_EQ(enc.dictionary_size(1), 2);  // w x
  ASSERT_OK(enc.CheckDictionaryOrder());
  for (AttributeId a = 0; a < 2; ++a) {
    EXPECT_TRUE(enc.DictionaryOrdered(a)) << "col " << a;
  }
  // Decoded contents are untouched by compaction.
  EXPECT_TRUE(enc.EquivalentTo(EncodedTable(before)));
  // A second compaction is a no-op: already canonical.
  EXPECT_EQ(enc.CompactDictionaries(), (std::vector<int>{0, 0}));
}

TEST(EncodedTableTest, CompactionCanonicalizesAcrossHistories) {
  // Two encodings of the SAME decoded contents reached through
  // different mutation histories carry different codes — after
  // compaction both are the canonical (value-ordered, dead-free)
  // encoding, hence bit-identical.
  const TableSchema schema = Schema("ab");
  const Table target = Rows(schema, {"2x", "1_", "3y"});

  EncodedTable direct(target);  // codes in first-occurrence order

  EncodedTable history(schema.num_attributes());
  history.AppendRow(Tuple({Value::Str("9"), Value::Str("q")}));
  history.AppendRow(Tuple({Value::Str("1"), Value::Null()}));
  history.AppendRow(Tuple({Value::Str("3"), Value::Str("y")}));
  history.AppendRow(Tuple({Value::Str("5"), Value::Str("x")}));
  history.UpdateCell(0, 0, Value::Str("2"));
  history.UpdateCell(0, 1, Value::Str("x"));
  history.EraseRows({3});

  ASSERT_TRUE(history.EquivalentTo(direct));
  ASSERT_FALSE(history.BitIdentical(direct));  // codes differ pre-compaction

  direct.CompactDictionaries();
  history.CompactDictionaries();
  ASSERT_OK(direct.CheckDictionaryOrder());
  ASSERT_OK(history.CheckDictionaryOrder());
  EXPECT_TRUE(history.BitIdentical(direct));
  EXPECT_TRUE(direct.EquivalentTo(EncodedTable(target)));
}

TEST(EncodedTableTest, CompactionLeavesSharedCopiesBitStable) {
  // Compaction rewrites codes by publishing fresh column versions, so a
  // snapshot taken before it keeps its pre-compaction codes unchanged.
  const TableSchema schema = Schema("ab");
  EncodedTable live(Rows(schema, {"2x", "1y", "2_"}));
  live.UpdateCell(1, 0, Value::Str("3"));  // dead "1"
  const EncodedTable frozen = live;        // O(columns) pointer share
  // Captured by value: a copy of `live` would share its storage and
  // change along with it.
  const EncodingBits expected(live);

  const std::vector<int> retired = live.CompactDictionaries();
  EXPECT_EQ(retired, (std::vector<int>{1, 0}));
  EXPECT_TRUE(EncodingBits(frozen) == expected);
  EXPECT_FALSE(frozen.BitIdentical(live));
  EXPECT_TRUE(frozen.EquivalentTo(live));
}

TEST(EncodedTableTest, RandomizedCompactionPreservesContents) {
  Rng rng(7741);
  const TableSchema schema = Schema("abc");
  for (int iter = 0; iter < 15; ++iter) {
    Table table(schema);
    EncodedTable enc(schema.num_attributes());
    for (int step = 0; step < 50; ++step) {
      if (rng.Chance(0.5) || table.num_rows() == 0) {
        std::vector<Value> values;
        for (int a = 0; a < 3; ++a) {
          values.push_back(rng.Chance(0.2)
                               ? Value::Null()
                               : Value::Int(rng.Uniform(0, 9)));
        }
        Tuple row(std::move(values));
        ASSERT_TRUE(table.AddRow(row).ok());
        enc.AppendRow(row);
      } else {
        const int r = static_cast<int>(rng.Index(table.num_rows()));
        const AttributeId a = static_cast<AttributeId>(rng.Index(3));
        const Value v = rng.Chance(0.2) ? Value::Null()
                                        : Value::Int(rng.Uniform(0, 9));
        (*table.mutable_row(r))[a] = v;
        enc.UpdateCell(r, a, v);
      }
    }
    enc.CompactDictionaries();
    ASSERT_OK(enc.CheckDictionaryOrder()) << "iter=" << iter;
    // Canonical form: bit-identical to a compacted fresh encoding.
    EncodedTable fresh(table);
    fresh.CompactDictionaries();
    ASSERT_TRUE(enc.BitIdentical(fresh)) << "iter=" << iter;
  }
}

}  // namespace
}  // namespace sqlnf
