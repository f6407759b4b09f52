// Columnar relational operators over the dictionary encoding.
//
// These are the encoded counterparts of decomposition/decomposition.h
// and decomposition/lossless.h: set projection I[X] (dedup by code
// hash), multiset projection I[[X]], the equality join of Theorem 11,
// and the lossless-join round-trip check — all executing on uint32 code
// columns, decoding Values only at result boundaries.
//
// The one subtlety is cross-table equality. Within one encoding, code
// equality IS value equality; across two encodings the dictionaries
// differ, so the join first builds a per-column dictionary TRANSLATION
// MAP (EncodedTable::TranslationTo) carrying the right side's codes
// into the left side's code space. kNullCode is shared by construction
// (⊥ matches only ⊥ — the paper's equality-join semantics), and a right
// value absent from the left dictionary translates to kMissingCode,
// which matches no left code. After translation the join is a plain
// integer hash join. Every operator here is differentially tested
// against its row-major counterpart (tests/differential_test.cc,
// executor section), which remains the reference path.

#ifndef SQLNF_DECOMPOSITION_ENCODED_OPS_H_
#define SQLNF_DECOMPOSITION_ENCODED_OPS_H_

#include <string>
#include <vector>

#include "sqlnf/core/encoded_table.h"
#include "sqlnf/core/schema.h"
#include "sqlnf/core/table.h"
#include "sqlnf/decomposition/decomposition.h"
#include "sqlnf/util/status.h"

namespace sqlnf {

/// A schema paired with a fully encoded instance — what the columnar
/// operators consume and produce. The row-major Table appears only at
/// the boundaries (FromTable on ingest, ToTable on decode).
struct EncodedRelation {
  TableSchema schema;
  EncodedTable columns;

  static EncodedRelation FromTable(const Table& table) {
    return {table.schema(), EncodedTable(table)};
  }
  Table ToTable() const { return columns.Decode(schema); }
};

/// Set projection I[X] on codes: gather the X columns, dedup rows by
/// code hash (first-occurrence order, matching ProjectSet exactly).
Result<EncodedRelation> ProjectSetEncoded(const TableSchema& schema,
                                          const EncodedTable& enc,
                                          const AttributeSet& x,
                                          const std::string& name);

/// Multiset projection I[[X]] on codes: a column gather, no row copy.
Result<EncodedRelation> ProjectMultisetEncoded(const TableSchema& schema,
                                               const EncodedTable& enc,
                                               const AttributeSet& x,
                                               const std::string& name);

/// Projects onto every component of `d` (the encoded ProjectAll).
Result<std::vector<EncodedRelation>> ProjectAllEncoded(
    const TableSchema& schema, const EncodedTable& enc,
    const Decomposition& d);

/// The schema of the natural join of `left_schema` and `right_schema`
/// under `name`: every left column, then the right columns the left
/// lacks, each keeping its NOT NULL flag. EqualityJoinEncoded's output
/// carries exactly this schema; the SQL executor binds a WHERE against
/// it before any row is joined.
Result<TableSchema> NaturalJoinSchema(const TableSchema& left_schema,
                                      const TableSchema& right_schema,
                                      const std::string& name);

/// Natural equality join on codes (common columns by name; identical
/// values, ⊥ = ⊥ included — Theorem 11 semantics). The right side's
/// common-column codes are translated into the left side's code space
/// and indexed in a flat CSR hash index (core/code_hash_index.h). Two
/// plain loops probe it with the left rows: the count loop totals the
/// matches, so a result over 2^31 rows fails before anything is
/// allocated, and the fill loop writes the joined code columns
/// directly into a pre-sized EncodedTable — no match-pair list is ever
/// materialized. A join with no common columns takes a dedicated
/// cartesian path (row-count product, sequential fills) instead of
/// funnelling every row through one hash bucket. Output columns share
/// their source columns' dictionaries, so the cost is the emitted codes
/// alone. Rows come out left-major, right rows ascending within a left
/// row.
Result<EncodedRelation> EqualityJoinEncoded(const TableSchema& left_schema,
                                            const EncodedTable& left,
                                            const TableSchema& right_schema,
                                            const EncodedTable& right,
                                            const std::string& name);

/// Reconstructs the instance from the projections of `d` with the
/// encoded equality join (the encoded JoinComponents). Components are
/// folded smallest-output-schema-first (stable tie-break by declaration
/// index) to keep intermediate join widths small; the result's column
/// order and schema still match the declaration-order fold exactly (the
/// Algorithm-3 recombination contract), only the row order may differ.
Result<EncodedRelation> JoinComponentsEncoded(const TableSchema& schema,
                                              const EncodedTable& enc,
                                              const Decomposition& d);

/// True when the two fully encoded tables hold identical row multisets
/// under VALUE semantics (columns paired positionally; the dictionaries
/// may differ — b's codes are carried through a translation map into
/// a's code space before comparing).
bool SameMultisetEncoded(const EncodedTable& a, const EncodedTable& b);

/// The encoded IsLosslessForInstance: joins the projections of `d` and
/// compares against `enc` as a multiset, entirely on codes. `enc` must
/// be a full encoding of the instance over `schema`.
Result<bool> IsLosslessForInstanceEncoded(const TableSchema& schema,
                                          const EncodedTable& enc,
                                          const Decomposition& d);

}  // namespace sqlnf

#endif  // SQLNF_DECOMPOSITION_ENCODED_OPS_H_
