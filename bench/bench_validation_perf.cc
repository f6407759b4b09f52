// E5 — Section 7 performance comparison on the contractor replica,
// scaled with the paper's cross-product trick (new = 1..1000, giving
// 173,000 rows):
//
//   * validating the c-FD  new,city,url ->w dmerc_rgn,status  on the
//     NON-normalized table, vs validating the c-key c<new,city,url> on
//     the normalized 38k-row component        (paper: 122 ms vs 15 ms);
//   * SELECT * from the non-normalized table, vs the join of all
//     normalized tables                       (paper: 2957 ms vs 3150 ms).
//
// Absolute numbers depend on hardware; the SHAPE must hold: key
// validation on the normalized component is much cheaper, and the join
// is only moderately more expensive than the base scan.

#include <cstdio>

#include "bench_util.h"
#include "sqlnf/constraints/parser.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/datagen/lmrp.h"
#include "sqlnf/decomposition/vrnf_decompose.h"
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

  Table contractor = ValueOrDie(Contractor(), "Contractor()");
  Table big =
      ValueOrDie(CrossWithSequence(contractor, 1000, "new"), "cross");
  std::printf("non-normalized table: %d rows x %d columns\n",
              big.num_rows(), big.num_columns());

  // Constraints on the crossed schema: `new` joins every FD and key.
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
  VrnfResult vrnf = ValueOrDie(VrnfDecompose(design), "VrnfDecompose");
  std::vector<Table> normalized =
      ValueOrDie(ProjectAll(big, vrnf.decomposition), "ProjectAll");
  std::printf("normalized into %zu tables:", normalized.size());
  for (const Table& t : normalized) {
    std::printf(" %dx%d", t.num_rows(), t.num_columns());
  }
  std::printf("\n\n");

  // (1) consistency validation, serial and with the parallel bucket
  // scanner (explicit thread count; see util/parallel.h).
  const ParallelOptions par{4};
  const FunctionalDependency& fd = sigma.fds()[0];
  bool fd_ok = false;
  double fd_ms =
      TimeMs([&] { fd_ok = !FindFdViolationFast(big, fd).has_value(); });
  bool fd_ok_par = false;
  double fd_par_ms = TimeMs(
      [&] { fd_ok_par = !FindFdViolationFast(big, fd, par).has_value(); });

  KeyConstraint key = KeyConstraint::Certain(fd.lhs);
  // The first set component is [new,city,url,dmerc_rgn,status]; its key
  // attributes keep their names.
  const Table* component = nullptr;
  for (size_t i = 0; i < normalized.size(); ++i) {
    if (!vrnf.decomposition.components[i].multiset &&
        fd.lhs.IsSubsetOf(vrnf.decomposition.components[i].attrs)) {
      component = &normalized[i];
      break;
    }
  }
  AttributeSet local_key;
  for (AttributeId a : key.attrs) {
    local_key.Add(ValueOrDie(
        component->schema().FindAttribute(big.schema().attribute_name(a)),
        "key attr"));
  }
  const KeyConstraint component_key = KeyConstraint::Certain(local_key);
  bool key_ok = false;
  double key_ms = TimeMs([&] {
    key_ok = !FindKeyViolationFast(*component, component_key).has_value();
  });
  bool key_ok_par = false;
  double key_par_ms = TimeMs([&] {
    key_ok_par =
        !FindKeyViolationFast(*component, component_key, par).has_value();
  });

  // (1b) tuple-vs-encoded ablation on the 173k-row table: the legacy
  // tuple-hashing path, the columnar kernel including its encode step,
  // and the kernel alone on a prebuilt encoding (the enforcer/discovery
  // situation), serial and at 4 threads.
  bool abl_ok = true;
  double tuple_ms =
      TimeMs([&] { abl_ok &= !FindFdViolationTuple(big, fd).has_value(); });
  EncodedTable enc(big, fd.lhs.Union(fd.rhs));
  double encode_ms = TimeMs([&] {
    EncodedTable fresh(big, fd.lhs.Union(fd.rhs));
    abl_ok &= fresh.num_rows() == big.num_rows();
  });
  double kernel_ms = TimeMs(
      [&] { abl_ok &= !FindFdViolationEncoded(enc, fd).has_value(); });
  double kernel_par_ms = TimeMs(
      [&] { abl_ok &= !FindFdViolationEncoded(enc, fd, par).has_value(); });

  // (2) query performance.
  int64_t scanned = 0;
  double scan_ms = TimeMs([&] {
    Table all = SelectAll(big);
    scanned = all.num_rows();
  });
  int64_t joined_rows = 0;
  double join_ms = TimeMs([&] {
    Table joined = ValueOrDie(JoinAll(normalized, "joined"), "JoinAll");
    joined_rows = joined.num_rows();
  });

  TextTable tt;
  tt.SetHeader({"measurement", "paper [ms]", "here [ms]", "result"});
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", fd_ms);
  tt.AddRow({"validate c-FD on non-normalized (serial)", "122", buf,
             fd_ok ? "satisfied" : "VIOLATED"});
  std::snprintf(buf, sizeof(buf), "%.1f", fd_par_ms);
  tt.AddRow({"validate c-FD on non-normalized (4 threads)", "-", buf,
             fd_ok_par ? "satisfied" : "VIOLATED"});
  std::snprintf(buf, sizeof(buf), "%.1f", key_ms);
  tt.AddRow({"validate c-key on normalized (serial)", "15", buf,
             key_ok ? "satisfied" : "VIOLATED"});
  std::snprintf(buf, sizeof(buf), "%.1f", key_par_ms);
  tt.AddRow({"validate c-key on normalized (4 threads)", "-", buf,
             key_ok_par ? "satisfied" : "VIOLATED"});
  std::snprintf(buf, sizeof(buf), "%.1f", tuple_ms);
  tt.AddRow({"c-FD tuple-hashing path (pre-columnar)", "-", buf,
             abl_ok ? "satisfied" : "VIOLATED"});
  std::snprintf(buf, sizeof(buf), "%.1f", encode_ms);
  tt.AddRow({"c-FD dictionary encode (lhs+rhs columns)", "-", buf, ""});
  std::snprintf(buf, sizeof(buf), "%.1f", kernel_ms);
  tt.AddRow({"c-FD encoded kernel, prebuilt encoding", "-", buf,
             abl_ok ? "satisfied" : "VIOLATED"});
  std::snprintf(buf, sizeof(buf), "%.1f", kernel_par_ms);
  tt.AddRow({"c-FD encoded kernel, prebuilt, 4 threads", "-", buf,
             abl_ok ? "satisfied" : "VIOLATED"});
  std::snprintf(buf, sizeof(buf), "%.1f", scan_ms);
  tt.AddRow({"SELECT * non-normalized", "2957", buf,
             std::to_string(scanned) + " rows"});
  std::snprintf(buf, sizeof(buf), "%.1f", join_ms);
  tt.AddRow({"SELECT * join of normalized", "3150", buf,
             std::to_string(joined_rows) + " rows"});
  std::printf("%s\n", tt.ToString().c_str());

  std::printf("shape checks: key validation %.1fx cheaper than FD "
              "validation; join/scan ratio %.2f (paper: 8.1x, 1.07)\n",
              fd_ms / key_ms, join_ms / scan_ms);
  std::printf("parallel validation (threads=%d): c-FD %.2fx, c-key "
              "%.2fx vs serial (speedup tracks available cores)\n",
              par.threads, fd_ms / fd_par_ms, key_ms / key_par_ms);
  std::printf("encoded vs tuple: kernel %.2fx faster than the "
              "tuple-hashing path (%.2fx including the encode)\n",
              tuple_ms / kernel_ms, tuple_ms / (encode_ms + kernel_ms));
  const bool encoded_wins = tuple_ms / kernel_ms >= 2.0;
  if (!encoded_wins) {
    std::printf("ERROR: encoded kernel is not >=2x faster than the "
                "tuple path\n");
  }
  if (!fd_ok || !key_ok || !abl_ok || !encoded_wins ||
      fd_ok_par != fd_ok || key_ok_par != key_ok ||
      scanned != big.num_rows() || joined_rows != big.num_rows()) {
    std::printf("ERROR: correctness check failed\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sqlnf

int main() { return sqlnf::Run(); }
