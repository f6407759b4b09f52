// E14 — the columnar executor vs the row-major reference on the
// Section 7 contractor workload at scale: contractor × 1000 = 173,000
// rows under the three λ-FDs. Three operator families, same inputs,
// same (multiset) outputs:
//
//   * the Theorem-11 round trip: project onto the VRNF components and
//     fold the equality join back (JoinComponents vs
//     JoinComponentsEncoded),
//   * point scans by city (SelectWhere vs SelectRowsEncoded + gather),
//   * group fact updates (UpdateWhere vs Database::Update, the catalog's
//     UPDATE on codes with the λ-FDs checked on the changed rows).
//
// The encode cost the columnar path pays once at ingest is timed
// separately; in the engine the enforcer maintains the encoding
// incrementally, so queries never pay it. The shape check requires the
// encoded join to be at least 2× faster than the row-major join AND
// every result multiset-identical. Every operator runs serially on
// the calling thread, as the executor always does.
//
// E17 — order-preserving range/IN/OR scans: WHERE predicates over the
// sequence column (`new` ∈ 1..1000, uniform) at 0.1% / 1% / 50%
// selectivity, plus an IN probe and an OR of two conjunctions. Each
// predicate runs two ways on the same encoding: the compiled
// branch-free interval scan (SelectRowsEncoded) and a decode-per-row
// fallback that decodes every tested cell and evaluates the predicate
// row-major (what the scan would cost without order-aware
// dictionaries). Identical selection vectors required; the shape gate
// demands the compiled scan ≥ 4× the fallback at 1% selectivity.
//
// E19 — the explicit SIMD kernel layer: every core/simd_kernels.h
// kernel timed per dispatch level (scalar → simd128 → avx2, as far as
// the machine goes) on a synthetic 1M-code column, ns/row each, with a
// bit-identity cross-check of every wider level against the scalar
// oracle on the same inputs. The gate requires the AVX2 eq-scan and
// interval-scan kernels to be ≥ 2× the forced-scalar kernels; on a
// machine (or build) without AVX2 the gate SKIPS with a note — there
// is nothing to measure, and the scalar-forced CI leg must still pass.
//
// E20 — a selective NATURAL JOIN through the SQL executor: Algorithm
// 3's `version` (67k rows) and `remainder` (173k rows) components of
// contractor × 1000, loaded into a Database as the front-door
// benchmark loads them, queried with
//   SELECT * FROM version NATURAL JOIN remainder
//     WHERE new = k AND city = c
// through ExecuteReadOnly, which filters each input before joining.
// The comparison is the unfiltered composition it replaced:
// EqualityJoinEncoded over the whole components, then
// SelectRowsEncoded. The gate requires the decoded rows to match in
// order and the SQL path to be ≥ 10× faster (medians of 9).
//
// `bench_columnar --check` runs ONLY the E19 and E20 sections (fast);
// CI's scalar-forced job runs the whole check.
//
// Timings are also emitted machine-readably to BENCH_columnar.json,
// BENCH_rangescan.json, and BENCH_simd.json in the working directory:
// one {op, rows, threads, ns_per_op} record per measurement, for CI
// trend tracking.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sqlnf/constraints/parser.h"
#include "sqlnf/core/simd_kernels.h"
#include "sqlnf/datagen/lmrp.h"
#include "sqlnf/decomposition/encoded_ops.h"
#include "sqlnf/decomposition/lossless.h"
#include "sqlnf/decomposition/vrnf_decompose.h"
#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/predicate.h"
#include "sqlnf/engine/relops.h"
#include "sqlnf/engine/sql.h"
#include "sqlnf/reference/relops.h"
#include "sqlnf/util/fnv.h"
#include "sqlnf/util/rng.h"
#include "sqlnf/util/text_table.h"

namespace sqlnf {
namespace {

constexpr int kScale = 1000;  // contractor × 1000 = 173,000 rows

// The three λ-FDs of Section 7 on the crossed schema.
constexpr char kLambdaFds[] =
    "new,city,url ->w new,city,url,dmerc_rgn,status; "
    "new,cmd_name,phone,url ->w "
    "new,cmd_name,phone,url,contractor_version,status_flag; "
    "new,address1,contractor_bus_name,contractor_type_id ->w "
    "new,address1,contractor_bus_name,contractor_type_id,url";

/// One timing record for BENCH_columnar.json.
struct BenchRecord {
  std::string op;
  int rows;
  int threads;
  double ns_per_op;
};

void WriteJson(const char* path, const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "  {\"op\": \"%s\", \"rows\": %d, \"threads\": %d, "
                 "\"ns_per_op\": %.0f}%s\n",
                 r.op.c_str(), r.rows, r.threads, r.ns_per_op,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %zu records to %s\n", records.size(), path);
}

// --- E19: the SIMD kernel layer, per kernel × per dispatch level.

/// Human label + the levels this machine can actually run.
std::vector<simd::Level> AvailableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::DetectedLevel() >= simd::Level::kSimd128) {
    levels.push_back(simd::Level::kSimd128);
  }
  if (simd::DetectedLevel() >= simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  return levels;
}

int RunSimdE19() {
  using bench::TimeMs;

  constexpr int kN = 1 << 18;        // 256K codes: L2-resident, compute-bound
  constexpr uint32_t kD = 1 << 14;   // dictionary size for gather kernels
  constexpr int kRounds = 60;

  // Synthetic column: uniform codes with a sprinkle of ⊥/missing
  // sentinels (they clamp to the rank/table sentinel slot, exactly as
  // in a real encoded column).
  Rng rng(20260808);
  std::vector<uint32_t> codes(kN);
  for (uint32_t& c : codes) {
    const double roll = rng.NextDouble();
    if (roll < 0.05) {
      c = EncodedTable::kNullCode;
    } else if (roll < 0.07) {
      c = EncodedTable::kMissingCode;
    } else {
      c = static_cast<uint32_t>(rng.Uniform(0, kD - 1));
    }
  }
  std::vector<uint32_t> rank(kD + 1);
  for (uint32_t i = 0; i < kD; ++i) rank[i] = i;
  rank[kD] = 0xFFFFFFFFu;  // the kNoRank sentinel slot
  std::vector<uint8_t> in_table(kD + 1 + simd::kByteTablePad, 0);
  for (uint32_t i = 0; i < kD; ++i) in_table[i] = rng.Chance(0.5) ? 1 : 0;
  std::vector<uint8_t> src_bytes(kN);
  for (uint8_t& b : src_bytes) b = rng.Chance(0.5) ? 1 : 0;

  const uint32_t want = kD / 3;
  const uint32_t lo = kD / 4;
  const uint32_t span = kD / 2;

  // One timed body per kernel, writing into per-kernel scratch. Each
  // body is a pure function of its inputs, so the scalar run doubles
  // as the differential oracle for the wider levels.
  std::vector<uint8_t> match(kN);
  std::vector<uint64_t> hashes(kN);
  std::vector<uint32_t> folded(kN);
  std::vector<int> sel(kN);
  volatile long long sink = 0;
  (void)sink;
  struct Kernel {
    const char* name;
    std::function<void(simd::Level)> body;
  };
  const std::vector<Kernel> kernels = {
      {"eq_code",
       [&](simd::Level l) {
         simd::EqCode(l, codes.data(), kN, want, simd::Store::kAssign,
                      match.data());
       }},
      {"ne_code",
       [&](simd::Level l) {
         simd::NeCode(l, codes.data(), kN, want, simd::Store::kAssign,
                      match.data());
       }},
      {"code_interval",
       [&](simd::Level l) {
         simd::CodeInterval(l, codes.data(), kN, lo, span,
                            simd::Store::kAssign, match.data());
       }},
      {"rank_interval",
       [&](simd::Level l) {
         simd::RankInterval(l, codes.data(), kN, rank.data(), kD, lo, span,
                            simd::Store::kAssign, match.data());
       }},
      {"byte_table",
       [&](simd::Level l) {
         simd::ByteTable(l, codes.data(), kN, in_table.data(), kD,
                         simd::Store::kAssign, match.data());
       }},
      {"or_bytes",
       [&](simd::Level l) {
         std::memset(match.data(), 0, kN);
         simd::OrBytes(l, src_bytes.data(), kN, match.data());
       }},
      {"compress_store",
       [&](simd::Level l) {
         sink = sink +
                simd::CompressStore(l, src_bytes.data(), kN, 0, sel.data());
       }},
      {"fnv_mix_codes",
       [&](simd::Level l) {
         std::fill(hashes.begin(), hashes.end(), kFnv64OffsetBasis);
         simd::FnvMixCodes(l, codes.data(), kN, hashes.data());
       }},
      {"fold_mask",
       [&](simd::Level l) {
         simd::FoldMask(l, hashes.data(), kN, (1u << 16) - 1, folded.data());
       }},
  };

  const std::vector<simd::Level> levels = AvailableLevels();
  std::printf("\nE19 SIMD kernels: %d rows × %d rounds, detected level %s\n",
              kN, kRounds, simd::LevelName(simd::DetectedLevel()));

  // Bit-identity cross-check first: every wider level must reproduce
  // the scalar kernel byte for byte on the full input.
  bool identical = true;
  for (const Kernel& k : kernels) {
    // Snapshot the scalar outputs, then compare each level's.
    k.body(simd::Level::kScalar);
    const auto m0 = match;
    const auto h0 = hashes;
    const auto f0 = folded;
    const auto s0 = sel;
    for (size_t li = 1; li < levels.size(); ++li) {
      k.body(levels[li]);
      const bool same = match == m0 && hashes == h0 && folded == f0 &&
                        sel == s0;
      if (!same) {
        std::printf("E19 IDENTITY FAILURE: %s at level %s\n", k.name,
                    simd::LevelName(levels[li]));
        identical = false;
      }
    }
  }

  // Timings: ns/row per kernel per level.
  TextTable tt;
  std::vector<std::string> header = {"kernel"};
  for (const simd::Level l : levels) {
    header.push_back(std::string(simd::LevelName(l)) + " [ns/row]");
  }
  if (levels.size() > 1) header.push_back("speedup");
  tt.SetHeader(header);

  std::vector<BenchRecord> records;
  double eq_speedup = 0.0, interval_speedup = 0.0;
  for (const Kernel& k : kernels) {
    std::vector<double> ns_per_row;
    for (const simd::Level l : levels) {
      const double ms = TimeMs([&] {
        for (int r = 0; r < kRounds; ++r) k.body(l);
      });
      ns_per_row.push_back(ms * 1e6 / kRounds / kN);
      records.push_back({std::string(k.name) + "_" + simd::LevelName(l), kN,
                         1, ms * 1e6 / kRounds});
    }
    std::vector<std::string> row = {k.name};
    char buf[32];
    for (const double ns : ns_per_row) {
      std::snprintf(buf, sizeof(buf), "%.3f", ns);
      row.push_back(buf);
    }
    if (levels.size() > 1) {
      const double speedup = ns_per_row.front() / ns_per_row.back();
      std::snprintf(buf, sizeof(buf), "%.1fx", speedup);
      row.push_back(buf);
      if (std::strcmp(k.name, "eq_code") == 0) eq_speedup = speedup;
      if (std::strcmp(k.name, "code_interval") == 0) {
        interval_speedup = speedup;
      }
    }
    tt.AddRow(row);
  }
  std::printf("%s\n", tt.ToString().c_str());
  WriteJson("BENCH_simd.json", records);

  if (!identical) {
    std::printf("E19 shape check: FAILED (kernel outputs differ by level)\n");
    return 1;
  }
  // The perf gate only has meaning when the widest level exists.
  if (simd::DetectedLevel() < simd::Level::kAvx2) {
    std::printf("E19 perf gate skipped: no AVX2 at runtime (level %s) — "
                "identity checks passed\n",
                simd::LevelName(simd::DetectedLevel()));
    return 0;
  }
  const bool ok = eq_speedup >= 2.0 && interval_speedup >= 2.0;
  std::printf("E19 shape check (avx2 eq/interval scan ≥2x forced-scalar, "
              "got %.1fx / %.1fx; all levels bit-identical): %s\n",
              eq_speedup, interval_speedup, ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

// --- E20: the selective join, SQL executor vs join-then-select.
int RunSelectiveJoinE20() {
  using bench::TimeMs;
  using bench::ValueOrDie;
  constexpr int kRuns = 9;

  const Table contractor = ValueOrDie(Contractor(), "contractor");
  const Table big =
      ValueOrDie(CrossWithSequence(contractor, kScale, "new"), "cross");
  const ConstraintSet sigma =
      ValueOrDie(ParseConstraintSet(big.schema(), kLambdaFds), "sigma");
  const VrnfResult vrnf =
      ValueOrDie(VrnfDecompose(SchemaDesign{big.schema(), sigma}), "vrnf");
  const std::vector<Table> parts =
      ValueOrDie(ProjectAll(big, vrnf.decomposition), "project");

  // The components under the names the front-door benchmark gives them.
  Database db;
  {
    WriterScope writer;
    for (size_t i = 0; i < parts.size(); ++i) {
      const TableSchema& schema = parts[i].schema();
      const bool multiset = vrnf.decomposition.components[i].multiset;
      if (!multiset && !schema.FindAttribute("contractor_version").ok()) {
        continue;
      }
      std::vector<std::string> names, not_null;
      for (AttributeId a = 0; a < schema.num_attributes(); ++a) {
        names.push_back(schema.attribute_name(a));
        if (schema.nfs().Contains(a)) not_null.push_back(names.back());
      }
      Table renamed(ValueOrDie(
          TableSchema::Make(multiset ? "remainder" : "version", names,
                            not_null),
          "rename"));
      for (const Tuple& row : parts[i].rows()) {
        bench::CheckOk(renamed.AddRow(row), "row");
      }
      bench::CheckOk(db.IngestTable(renamed, ConstraintSet{}), "ingest");
    }
  }
  const std::map<std::string, TableSnapshot> snaps = db.SnapshotAll();
  const TableSnapshot& version = snaps.at("version");
  const TableSnapshot& remainder = snaps.at("remainder");

  const int64_t k = 7;
  const Value city = contractor.row(0)[ValueOrDie(
      contractor.schema().FindAttribute("city"), "city")];
  std::string city_sql = "'";
  for (char ch : city.str_value()) {
    city_sql += ch;
    if (ch == '\'') city_sql += ch;
  }
  const std::string sql =
      "SELECT * FROM version NATURAL JOIN remainder WHERE new = " +
      std::to_string(k) + " AND city = " + city_sql + "'";

  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  std::optional<QueryResult> sql_result;
  std::vector<double> sql_ms;
  for (int run = 0; run < kRuns; ++run) {
    sql_ms.push_back(TimeMs([&] {
      sql_result = ValueOrDie(ExecuteReadOnly(snaps, sql), "select");
    }));
  }
  std::optional<Table> composed;
  std::vector<double> composed_ms;
  for (int run = 0; run < kRuns; ++run) {
    composed_ms.push_back(TimeMs([&] {
      const EncodedRelation joined = ValueOrDie(
          EqualityJoinEncoded(version.schema, *version.columns,
                              remainder.schema, *remainder.columns,
                              "version_join"),
          "join");
      const Predicate where = Predicate::And(
          {Cmp(ValueOrDie(joined.schema.FindAttribute("new"), "new"),
               CompareOp::kEq, Value::Int(k)),
           Cmp(ValueOrDie(joined.schema.FindAttribute("city"), "city"),
               CompareOp::kEq, city)});
      composed = joined.columns
                     .GatherRows(SelectRowsEncoded(joined.columns, where))
                     .Decode(joined.schema);
    }));
  }

  const Table& got = *sql_result->rows;
  bool same = got.num_rows() == composed->num_rows() && got.num_rows() > 0;
  for (int i = 0; same && i < got.num_rows(); ++i) {
    same = got.row(i) == composed->row(i);
  }
  const double sql_median = median(sql_ms);
  const double composed_median = median(composed_ms);
  const double speedup = composed_median / sql_median;
  std::printf("\nE20 selective join: version (%d rows) NATURAL JOIN "
              "remainder (%d rows), %d result rows, medians of %d\n",
              version.num_rows(), remainder.num_rows(), got.num_rows(),
              kRuns);
  std::printf("  SQL executor (filter inputs, join)  %9.3f ms\n",
              sql_median);
  std::printf("  join everything, then select        %9.3f ms\n",
              composed_median);
  const bool ok = same && speedup >= 10.0;
  std::printf("E20 shape check (identical rows in order, SQL path ≥10× "
              "the unfiltered composition: %.1f×): %s\n",
              speedup, ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

int Run() {
  using bench::TimeMs;
  using bench::ValueOrDie;

  Table contractor = ValueOrDie(Contractor(), "contractor");
  Table big = ValueOrDie(CrossWithSequence(contractor, kScale, "new"),
                         "cross");
  ConstraintSet sigma =
      ValueOrDie(ParseConstraintSet(big.schema(), kLambdaFds), "sigma");
  SchemaDesign design{big.schema(), sigma};
  VrnfResult vrnf = ValueOrDie(VrnfDecompose(design), "vrnf");
  const Decomposition& d = vrnf.decomposition;

  std::optional<EncodedTable> enc;
  double encode_ms = TimeMs([&] { enc.emplace(big); });
  std::printf("input: %d rows × %d columns; one-time encode %.1f ms\n\n",
              big.num_rows(), big.num_columns(), encode_ms);

  // --- Theorem-11 round trip: project onto the VRNF components, join
  // them back, confirm the instance is reproduced.
  std::optional<Table> row_joined;
  double row_join_ms = TimeMs(
      [&] { row_joined = ValueOrDie(JoinComponents(big, d), "row join"); });

  std::optional<EncodedRelation> enc_joined;
  double enc_join_ms = TimeMs([&] {
    enc_joined = ValueOrDie(JoinComponentsEncoded(big.schema(), *enc, d),
                            "encoded join");
  });

  // Both executors emit the declaration-order column layout, so the
  // columns align positionally; compare the multisets on codes.
  const bool join_same =
      SameMultisetEncoded(EncodedTable(*row_joined), enc_joined->columns);
  const bool lossless =
      ValueOrDie(IsLosslessForInstanceEncoded(big.schema(), *enc, d),
                 "lossless") &&
      enc_joined->columns.num_rows() == big.num_rows();

  // --- point scans: all rows of one city, 100 rounds.
  auto city_value = [](int g1) {
    return Value::Str("City g1-" + std::to_string(g1));
  };
  const AttributeId city =
      ValueOrDie(big.schema().FindAttribute("city"), "city");
  const AttributeId status =
      ValueOrDie(big.schema().FindAttribute("status"), "status");
  volatile long long sink = 0;
  (void)sink;
  bool scan_same = true;
  double row_scan_ms = TimeMs([&] {
    for (int i = 0; i < 100; ++i) {
      Table hit = SelectWhere(big, [&](const Tuple& t) {
        return t[city] == city_value(i % 38);
      });
      sink = sink + hit.num_rows();
    }
  });
  double enc_scan_ms = TimeMs([&] {
    for (int i = 0; i < 100; ++i) {
      const std::vector<int> sel = SelectRowsEncoded(
          *enc,
          Predicate::And({Cmp(city, CompareOp::kEq, city_value(i % 38))}));
      sink = sink + static_cast<long long>(enc->GatherRows(sel).num_rows());
    }
  });
  for (int i = 0; i < 38; ++i) {  // equal hit sets, checked once per group
    const Table hit = SelectWhere(big, [&](const Tuple& t) {
      return t[city] == city_value(i);
    });
    const std::vector<int> sel = SelectRowsEncoded(
        *enc, Predicate::And({Cmp(city, CompareOp::kEq, city_value(i))}));
    scan_same = scan_same &&
                static_cast<int>(sel.size()) == hit.num_rows();
  }

  // --- group fact updates: flip the status of one city group, 20
  // rounds, alternating so every round touches the whole group.
  Table row_upd = big;
  WriterScope writer;
  Database db;
  bench::CheckOk(db.IngestTable(big, sigma), "ingest");
  int row_changed = 0;
  double row_update_ms = TimeMs([&] {
    for (int round = 0; round < 20; ++round) {
      Value v = Value::Str(round % 2 ? "active" : "suspended");
      row_changed += ValueOrDie(
          UpdateWhere(
              &row_upd,
              [&](const Tuple& t) { return t[city] == city_value(7); },
              status, v),
          "row update");
    }
  });
  int enc_changed = 0;
  double enc_update_ms = TimeMs([&] {
    for (int round = 0; round < 20; ++round) {
      Value v = Value::Str(round % 2 ? "active" : "suspended");
      enc_changed += ValueOrDie(
          db.Update(big.schema().name(),
                    Predicate::And({Cmp(city, CompareOp::kEq, city_value(7))}),
                    status, v),
          "catalog update");
    }
  });
  const bool update_same =
      row_changed == enc_changed &&
      SameMultisetEncoded(EncodedTable(row_upd),
                          ValueOrDie(db.Find(big.schema().name()), "find")
                              ->columns());

  // --- E17: range/IN/OR scans over the sequence column (uniform
  // 1..kScale, 173 rows per value) at three selectivities, against a
  // decode-per-row fallback on the same encoding.
  const AttributeId seq =
      ValueOrDie(big.schema().FindAttribute("new"), "new");
  struct RangeCase {
    const char* label;
    Predicate pred;
  };
  std::vector<RangeCase> range_cases;
  range_cases.push_back(
      {"range 0.1% (new <= 1)",
       Predicate::And({Cmp(seq, CompareOp::kLe, Value::Int(1))})});
  range_cases.push_back(
      {"range 1% (new <= 10)",
       Predicate::And({Cmp(seq, CompareOp::kLe, Value::Int(10))})});
  range_cases.push_back(
      {"range 50% (new <= 500)",
       Predicate::And({Cmp(seq, CompareOp::kLe, Value::Int(500))})});
  {
    std::vector<Value> probes;
    for (int k = 1; k <= 10; ++k) probes.push_back(Value::Int(k * 97));
    range_cases.push_back(
        {"IN 1% (10 probes)", Predicate::And({In(seq, std::move(probes))})});
  }
  {
    Predicate por;
    por.disjuncts.push_back({Cmp(seq, CompareOp::kLe, Value::Int(5))});
    por.disjuncts.push_back({Cmp(city, CompareOp::kEq, city_value(7)),
                             Cmp(seq, CompareOp::kGt, Value::Int(990))});
    range_cases.push_back({"OR of two conjunctions", std::move(por)});
  }

  // The fallback: decode every cell an atom touches and evaluate the
  // predicate row-major — the cost of the scan without compiled
  // intervals. Same selection-vector contract as SelectRowsEncoded.
  auto decode_per_row = [&](const Predicate& pred) {
    std::vector<int> out;
    const int n = enc->num_rows();
    for (int i = 0; i < n; ++i) {
      bool any = false;
      for (const Conjunction& conj : pred.disjuncts) {
        bool all = true;
        for (const PredicateAtom& atom : conj) {
          const Value& cell =
              enc->DecodeCode(atom.column, enc->code(atom.column, i));
          if (!MatchesAtom(cell, atom)) {
            all = false;
            break;
          }
        }
        if (all) {
          any = true;
          break;
        }
      }
      if (any) out.push_back(i);
    }
    return out;
  };

  constexpr int kScanRounds = 10;
  struct RangeResult {
    const char* label;
    double fallback_ms;
    double encoded_ms;
    size_t hits;
    bool same;
  };
  std::vector<RangeResult> range_results;
  for (const RangeCase& rc : range_cases) {
    std::vector<int> fallback_sel, encoded_sel;
    const double fb_ms = TimeMs([&] {
      for (int r = 0; r < kScanRounds; ++r) {
        fallback_sel = decode_per_row(rc.pred);
      }
    });
    const double en_ms = TimeMs([&] {
      for (int r = 0; r < kScanRounds; ++r) {
        encoded_sel = SelectRowsEncoded(*enc, rc.pred);
      }
    });
    range_results.push_back({rc.label, fb_ms, en_ms, encoded_sel.size(),
                             fallback_sel == encoded_sel});
  }

  TextTable tt;
  tt.SetHeader({"operator", "row-major [ms]", "columnar [ms]", "speedup"});
  char a[32], b[32], c[32];
  auto add_row = [&](const char* label, double lhs, double rhs) {
    std::snprintf(a, sizeof(a), "%.1f", lhs);
    std::snprintf(b, sizeof(b), "%.1f", rhs);
    std::snprintf(c, sizeof(c), "%.1fx", lhs / rhs);
    tt.AddRow({label, a, b, c});
  };
  add_row("Theorem-11 project+join", row_join_ms, enc_join_ms);
  add_row("100 point scans by city", row_scan_ms, enc_scan_ms);
  add_row("20 group fact updates", row_update_ms, enc_update_ms);
  std::printf("%s\n", tt.ToString().c_str());
  std::printf("results multiset-identical: join %s, scans %s, updates %s; "
              "Theorem-11 round trip lossless: %s\n",
              join_same ? "yes" : "NO", scan_same ? "yes" : "NO",
              update_same ? "yes" : "NO", lossless ? "yes" : "NO");

  // E17 range/IN/OR scan summary.
  std::printf("\nE17 range/IN/OR scans (%d rounds each):\n", kScanRounds);
  TextTable rt;
  rt.SetHeader({"predicate", "decode/row [ms]", "compiled [ms]", "speedup",
                "hits", "identical"});
  bool range_same = true;
  double range_gate_speedup = 0.0;
  for (const RangeResult& rr : range_results) {
    char f1[32], f2[32], f3[32], f4[32];
    std::snprintf(f1, sizeof(f1), "%.1f", rr.fallback_ms);
    std::snprintf(f2, sizeof(f2), "%.1f", rr.encoded_ms);
    const double speedup = rr.fallback_ms / rr.encoded_ms;
    std::snprintf(f3, sizeof(f3), "%.1fx", speedup);
    std::snprintf(f4, sizeof(f4), "%zu", rr.hits);
    rt.AddRow({rr.label, f1, f2, f3, f4, rr.same ? "yes" : "NO"});
    range_same = range_same && rr.same;
    if (std::string(rr.label).find("range 1%") != std::string::npos) {
      range_gate_speedup = speedup;
    }
  }
  std::printf("%s\n", rt.ToString().c_str());

  // --- machine-readable timings.
  const int rows = big.num_rows();
  std::vector<BenchRecord> records;
  records.push_back({"encode", rows, 1, encode_ms * 1e6});
  records.push_back({"join_row_major", rows, 1, row_join_ms * 1e6});
  records.push_back({"join_encoded", rows, 1, enc_join_ms * 1e6});
  records.push_back({"scan_row_major", rows, 1, row_scan_ms * 1e6 / 100});
  records.push_back({"scan_encoded", rows, 1, enc_scan_ms * 1e6 / 100});
  records.push_back({"update_row_major", rows, 1, row_update_ms * 1e6 / 20});
  records.push_back({"update_encoded", rows, 1, enc_update_ms * 1e6 / 20});
  WriteJson("BENCH_columnar.json", records);

  std::vector<BenchRecord> range_records;
  for (const RangeResult& rr : range_results) {
    std::string op(rr.label);
    for (char& ch : op) {
      if (ch == ' ') ch = '_';
    }
    range_records.push_back(
        {op + "_decode_per_row", rows, 1,
         rr.fallback_ms * 1e6 / kScanRounds});
    range_records.push_back(
        {op + "_compiled", rows, 1, rr.encoded_ms * 1e6 / kScanRounds});
  }
  WriteJson("BENCH_rangescan.json", range_records);

  // The E17 gate: the compiled interval scan does one branch-free
  // compare per cell while the fallback pays a dictionary decode +
  // Value comparison per cell.
  const bool range_ok = range_same && range_gate_speedup >= 4.0;
  std::printf("E17 shape check (identical selections, compiled range scan "
              "≥4x decode-per-row at 1%% selectivity, got %.1fx): %s\n",
              range_gate_speedup, range_ok ? "OK" : "FAILED");

  // E19 and E20 run last so their tables land next to the shape checks.
  const bool simd_ok = RunSimdE19() == 0;
  const bool selective_join_ok = RunSelectiveJoinE20() == 0;

  const bool ok = join_same && scan_same && update_same && lossless &&
                  range_ok && simd_ok && selective_join_ok &&
                  row_join_ms / enc_join_ms >= 2.0;
  std::printf("shape check (columnar join ≥2× row-major, identical "
              "results): %s\n",
              ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sqlnf

int main(int argc, char** argv) {
  // `--check` runs only the E19 kernel gate (fast; skips its perf bar
  // without AVX2) and the E20 selective-join gate.
  if (argc > 1 && std::strcmp(argv[1], "--check") == 0) {
    const int simd = sqlnf::RunSimdE19();
    const int join = sqlnf::RunSelectiveJoinE20();
    return simd != 0 || join != 0 ? 1 : 0;
  }
  return sqlnf::Run();
}
