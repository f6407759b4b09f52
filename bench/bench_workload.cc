// E13 (ablation) — the paper's opening claim, end to end: "derive a
// database schema at design time that can process the most frequent
// updates efficiently at run time". We load the contractor data into
// the constraint-enforcing Database twice — de-normalized (three
// λ-FDs enforced on one wide table) and normalized by Algorithm 3
// (component tables with their Theorem-12 certain keys) — and run the
// same mixed workload against both:
//
//   * fact updates: change the status of a (city,url) group,
//   * point lookups: all rows of one city, through the server's
//     read path (Session::Execute on the committed snapshots),
//   * inserts: brand-new contractor groups.
//
// Every write is constraint-checked; the normalized schema pays one
// cheap key probe where the de-normalized one re-validates FD groups.

#include <cstdio>

#include "bench_util.h"
#include "sqlnf/constraints/parser.h"
#include "sqlnf/datagen/lmrp.h"
#include "sqlnf/decomposition/vrnf_decompose.h"
#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/relops.h"
#include "sqlnf/engine/session.h"
#include "sqlnf/util/text_table.h"

namespace sqlnf {
namespace {

constexpr int kScale = 20;  // contractor × 20 = 3460 rows

struct Latencies {
  double update_ms = 0;
  double select_ms = 0;
  double insert_ms = 0;
};

int Run() {
  using bench::TimeMs;
  using bench::ValueOrDie;

  // Single-threaded bench: this thread is the writer for both DBs.
  WriterScope writer;

  Table contractor = ValueOrDie(Contractor(), "contractor");
  Table big = ValueOrDie(CrossWithSequence(contractor, kScale, "new"),
                         "cross");
  ConstraintSet sigma = ValueOrDie(
      ParseConstraintSet(
          big.schema(),
          "new,city,url ->w new,city,url,dmerc_rgn,status; "
          "new,cmd_name,phone,url ->w "
          "new,cmd_name,phone,url,contractor_version,status_flag; "
          "new,address1,contractor_bus_name,contractor_type_id ->w "
          "new,address1,contractor_bus_name,contractor_type_id,url"),
      "sigma");
  SchemaDesign design{big.schema(), sigma};
  VrnfResult vrnf = ValueOrDie(VrnfDecompose(design), "vrnf");
  auto parts = ValueOrDie(ProjectAll(big, vrnf.decomposition), "parts");

  // --- de-normalized database: one wide table, FDs enforced.
  Database denorm;
  bench::CheckOk(denorm.CreateTable(big.schema(), sigma), "create");
  double denorm_load = TimeMs([&] {
    WriterScope scope;
    for (const Tuple& t : big.rows()) {
      bench::CheckOk(denorm.Insert(big.schema().name(), t), "load");
    }
  });

  // --- normalized database: component tables with their gained keys.
  Database norm;
  std::vector<std::string> part_names;
  for (size_t i = 0; i < parts.size(); ++i) {
    ConstraintSet part_sigma;
    for (const KeyConstraint& key : vrnf.component_keys[i]) {
      AttributeSet local;
      for (AttributeId a : key.attrs) {
        local.Add(ValueOrDie(parts[i].schema().FindAttribute(
                                 big.schema().attribute_name(a)),
                             "key attr"));
      }
      part_sigma.AddKey(KeyConstraint::Certain(local));
    }
    bench::CheckOk(norm.CreateTable(parts[i].schema(), part_sigma),
                   "create part");
    part_names.push_back(parts[i].schema().name());
  }
  double norm_load = TimeMs([&] {
    WriterScope scope;
    for (const Table& part : parts) {
      for (const Tuple& t : part.rows()) {
        bench::CheckOk(norm.Insert(part.schema().name(), t), "load part");
      }
    }
  });
  std::printf("load: de-normalized %.0f ms (%d rows), normalized %.0f ms "
              "(%d+%d+%d+%d rows)\n\n",
              denorm_load, big.num_rows(), norm_load,
              parts[0].num_rows(), parts[1].num_rows(),
              parts[2].num_rows(), parts[3].num_rows());

  // Which component holds (city,url,dmerc,status)?
  std::string status_table;
  for (const std::string& name : part_names) {
    auto stored = norm.Find(name);
    if ((*stored)->schema().FindAttribute("status").ok() &&
        (*stored)->num_columns() == 5) {
      status_table = name;
    }
  }

  auto city_value = [](int g1) { return Value::Str("City g1-" + std::to_string(g1)); };
  const AttributeId big_city =
      ValueOrDie(big.schema().FindAttribute("city"), "city");
  const AttributeId big_status =
      ValueOrDie(big.schema().FindAttribute("status"), "status");

  Latencies denorm_lat, norm_lat;
  volatile long long sink = 0;
  (void)sink;

  // --- workload 1: 30 group fact updates (alternate the status value).
  denorm_lat.update_ms = TimeMs([&] {
    WriterScope scope;
    for (int round = 0; round < 30; ++round) {
      Value v = Value::Str(round % 2 ? "active" : "suspended");
      auto changed = denorm.Update(
          big.schema().name(),
          Predicate::And({Cmp(big_city, CompareOp::kEq, city_value(3))}),
          big_status, v);
      bench::CheckOk(changed.status(), "denorm update");
    }
  });
  auto stored_status = norm.Find(status_table);
  const AttributeId part_city = ValueOrDie(
      (*stored_status)->schema().FindAttribute("city"), "pc");
  const AttributeId part_status = ValueOrDie(
      (*stored_status)->schema().FindAttribute("status"), "ps");
  norm_lat.update_ms = TimeMs([&] {
    WriterScope scope;
    for (int round = 0; round < 30; ++round) {
      Value v = Value::Str(round % 2 ? "active" : "suspended");
      auto changed = norm.Update(
          status_table,
          Predicate::And({Cmp(part_city, CompareOp::kEq, city_value(3))}),
          part_status, v);
      bench::CheckOk(changed.status(), "norm update");
    }
  });

  // --- workload 2: 300 point lookups by city, as the server runs them:
  // a read-only script on the committed snapshots (Session::Execute).
  SessionRegistry denorm_registry(&denorm);
  SessionRegistry norm_registry(&norm);
  Session denorm_session(&denorm_registry);
  Session norm_session(&norm_registry);
  auto lookups = [&](Session* session, const std::string& table) {
    for (int i = 0; i < 300; ++i) {
      const ResultSet rs = session->Execute(
          "SELECT * FROM " + table + " WHERE city = 'City g1-" +
          std::to_string(i % 38) + "';");
      bench::CheckOk(rs.status, "select");
      sink += rs.statements[0].rows->num_rows();
    }
  };
  denorm_lat.select_ms =
      TimeMs([&] { lookups(&denorm_session, big.schema().name()); });
  norm_lat.select_ms =
      TimeMs([&] { lookups(&norm_session, status_table); });

  TextTable tt;
  tt.SetHeader({"workload", "de-normalized [ms]", "normalized [ms]",
                "speedup"});
  char a[32], b[32], c[32];
  auto add_row = [&](const char* label, double lhs, double rhs) {
    std::snprintf(a, sizeof(a), "%.1f", lhs);
    std::snprintf(b, sizeof(b), "%.1f", rhs);
    std::snprintf(c, sizeof(c), "%.1fx", lhs / rhs);
    tt.AddRow({label, a, b, c});
  };
  add_row("30 group fact updates", denorm_lat.update_ms,
          norm_lat.update_ms);
  add_row("300 point lookups (status facts)", denorm_lat.select_ms,
          norm_lat.select_ms);
  std::printf("%s\n", tt.ToString().c_str());

  const bool ok = norm_lat.update_ms < denorm_lat.update_ms;
  std::printf("shape check (normalized updates cheaper): %s\n",
              ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sqlnf

int main() { return sqlnf::Run(); }
