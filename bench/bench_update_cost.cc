// E11 (ablation, beyond the paper's tables) — why redundancy is
// expensive: the update-anomaly cost on the contractor replica, plus a
// validator ablation (grouped fast path vs O(n²) reference).
//
// The paper's Section 1 motivation: "all occurrences of a redundant
// data value must be modified consistently". We make that concrete:
// changing the `status` of one (city,url) group on the de-normalized
// table must touch every member row to keep the c-FD satisfied, while
// the normalized schema stores the fact once.

#include <cstdio>

#include "bench_util.h"
#include "sqlnf/constraints/parser.h"
#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/datagen/lmrp.h"
#include "sqlnf/decomposition/vrnf_decompose.h"
#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/relops.h"
#include "sqlnf/engine/validate.h"
#include "sqlnf/reference/relops.h"
#include "sqlnf/reference/validate.h"
#include "sqlnf/util/text_table.h"

namespace sqlnf {
namespace {

int Run() {
  using bench::TimeMs;
  using bench::ValueOrDie;

  Table contractor = ValueOrDie(Contractor(), "contractor");
  ConstraintSet lambda =
      ValueOrDie(ContractorLambdaFds(contractor.schema()), "lambda");
  SchemaDesign design{contractor.schema(), lambda};
  VrnfResult vrnf = ValueOrDie(VrnfDecompose(design), "vrnf");
  auto normalized =
      ValueOrDie(ProjectAll(contractor, vrnf.decomposition), "project");

  // ---- update anomaly: move the big (city,url) group to a new status.
  const AttributeId city =
      ValueOrDie(contractor.schema().FindAttribute("city"), "city");
  const AttributeId status =
      ValueOrDie(contractor.schema().FindAttribute("status"), "status");
  auto in_group = [&](const Tuple& t) {
    return t[city] == Value::Str("City g1-0");
  };

  // De-normalized: a single-row update breaks the c-FD...
  Table broken = contractor;
  bool first = true;
  int touched_one = ValueOrDie(
      UpdateWhere(
          &broken,
          [&](const Tuple& t) {
            if (!in_group(t) || !first) return false;
            first = false;
            return true;
          },
          status, Value::Str("suspended")),
      "single update");
  bool still_ok =
      !FindFdViolationFast(broken, lambda.fds()[0]).has_value();
  std::printf(
      "de-normalized: updating %d row leaves c-FD city,url ->w "
      "dmerc,status satisfied: %s (the update anomaly)\n",
      touched_one, still_ok ? "yes (?)" : "NO");

  // ... a consistent update must touch the whole group.
  Table consistent = contractor;
  int touched_all = ValueOrDie(
      UpdateWhere(&consistent, in_group, status, Value::Str("suspended")),
      "group update");
  bool group_ok =
      !FindFdViolationFast(consistent, lambda.fds()[0]).has_value();
  std::printf(
      "de-normalized: consistent update touches %d rows (c-FD "
      "satisfied: %s)\n",
      touched_all, group_ok ? "yes" : "NO");

  // Normalized: one row in the [city,url,dmerc,status] component.
  Table* component = nullptr;
  for (size_t i = 0; i < normalized.size(); ++i) {
    if (normalized[i].schema().FindAttribute("status").ok() &&
        normalized[i].num_columns() == 4) {
      component = &normalized[i];
    }
  }
  const AttributeId comp_city =
      ValueOrDie(component->schema().FindAttribute("city"), "c");
  const AttributeId comp_status =
      ValueOrDie(component->schema().FindAttribute("status"), "s");
  int touched_norm = ValueOrDie(
      UpdateWhere(
          component,
          [&](const Tuple& t) {
            return t[comp_city] == Value::Str("City g1-0");
          },
          comp_status, Value::Str("suspended")),
      "normalized update");
  std::printf("normalized:   the same fact changes %d row(s)\n\n",
              touched_norm);

  TextTable tt;
  tt.SetHeader({"layout", "rows touched"});
  tt.AddRow({"de-normalized (consistent)", std::to_string(touched_all)});
  tt.AddRow({"normalized component", std::to_string(touched_norm)});
  std::printf("%s\n", tt.ToString().c_str());

  // ---- validator ablation: grouped fast path vs O(n²) reference.
  Table big =
      ValueOrDie(CrossWithSequence(contractor, 40, "new"), "cross");
  ConstraintSet sigma = ValueOrDie(
      ParseConstraintSet(big.schema(),
                         "new,city,url ->w dmerc_rgn,status"),
      "fd");
  const FunctionalDependency& fd = sigma.fds()[0];
  double fast_ms = TimeMs([&] { (void)FindFdViolationFast(big, fd); });
  double ref_ms = TimeMs([&] { (void)Satisfies(big, fd); });
  double tuple_ms =
      TimeMs([&] { (void)FindFdViolationTuple(big, fd); });
  const EncodedTable enc(big, fd.lhs.Union(fd.rhs));
  double kernel_ms =
      TimeMs([&] { (void)FindFdViolationEncoded(enc, fd); });
  std::printf(
      "validator ablation on %d rows: encoded kernel %.1f ms (grouped "
      "incl. encode %.1f ms, tuple-hashing %.1f ms, O(n^2) reference "
      "%.1f ms)\n",
      big.num_rows(), kernel_ms, fast_ms, tuple_ms, ref_ms);

  // ---- update ablation: the same group update through the catalog
  // (on codes, the c-FD checked on the changed rows) vs on rows.
  const AttributeId big_city =
      ValueOrDie(big.schema().FindAttribute("city"), "bc");
  const AttributeId big_status =
      ValueOrDie(big.schema().FindAttribute("status"), "bs");
  Table row_upd = big;
  WriterScope writer;
  Database db;
  bench::CheckOk(db.IngestTable(big, sigma), "ingest");
  double row_upd_ms = TimeMs([&] {
    (void)UpdateWhere(
        &row_upd,
        [&](const Tuple& t) { return t[big_city] == Value::Str("City g1-0"); },
        big_status, Value::Str("suspended"));
  });
  int enc_changed = 0;
  double enc_upd_ms = TimeMs([&] {
    enc_changed = ValueOrDie(
        db.Update(big.schema().name(),
                  Predicate::And({Cmp(big_city, CompareOp::kEq,
                                      Value::Str("City g1-0"))}),
                  big_status, Value::Str("suspended")),
        "catalog update");
  });
  std::printf(
      "update ablation on %d rows: catalog group update %.2f ms "
      "(%d rows, c-FD checked), row-major %.2f ms\n",
      big.num_rows(), enc_upd_ms, enc_changed, row_upd_ms);

  const bool ok = !still_ok && group_ok && touched_all == 135 &&
                  touched_norm == 1 && ref_ms > fast_ms &&
                  tuple_ms > kernel_ms;
  std::printf("shape check: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sqlnf

int main() { return sqlnf::Run(); }
